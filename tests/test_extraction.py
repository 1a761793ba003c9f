from math import comb

import numpy as np
import pytest

from gspline.errors import DegenerateBasisError, DomainError
from gspline.construct_c0 import build_c0
from gspline.construct_g1 import build_g1
from gspline.extraction import (
    ElementExtraction,
    bernstein_1d,
    bernstein_eval,
    bernstein_table,
    degree_elevate_2,
    evaluate_basis,
    rationalize,
)

import netgen


def eval_cubic_grid(coeffs16, xi, eta):
    """Direct tensor evaluation of a bi-cubic Bernstein coefficient vector."""
    b, _, _ = bernstein_eval(3, xi, eta)
    return float(np.dot(coeffs16, b))


def eval_quintic_grid(coeffs36, xi, eta):
    b, _, _ = bernstein_eval(5, xi, eta)
    return float(np.dot(coeffs36, b))


def bernstein_1d_loop(p, x):
    """``bernstein_1d`` with its rows built one per loop iteration, as it
    was written before they became one broadcast over the row index."""
    x = np.asarray(x, dtype=float)

    def padded(q, pad):
        out = np.zeros((q + 1 + 2 * pad,) + x.shape)
        for k in range(q + 1):
            out[pad + k] = comb(q, k) * x**k * (1.0 - x) ** (q - k)
        return out

    lower, lower2 = padded(p - 1, 1), padded(p - 2, 2)
    return (padded(p, 0), p * (lower[:-1] - lower[1:]),
            p * (p - 1) * (lower2[:-2] - 2 * lower2[1:-1] + lower2[2:]))


BERNSTEIN_INPUTS = {
    "scalar": 0.3, "zero": 0.0, "one": 1.0,
    "1-D random": np.random.default_rng(5).uniform(size=2000),
    "1-D grid": np.linspace(0.0, 1.0, 1001),
    "2-D random": np.random.default_rng(6).uniform(size=(40, 30)),
    "2-D grid": np.linspace(0.0, 1.0, 1001)[:1000].reshape(25, 40),
}


class TestBernsteinRows:
    @pytest.mark.parametrize("x", BERNSTEIN_INPUTS.values(), ids=BERNSTEIN_INPUTS)
    @pytest.mark.parametrize("p", range(6))
    def test_broadcast_matches_the_row_loop(self, p, x):
        # With an array of exponents x**2 comes from pow(), where the loop's
        # scalar exponent squares, so a value may move by 1.1e-16.  The
        # derivative tables are differences of such rows times p and
        # p(p-1): they carry it scaled by 2p and 4p(p-1).
        got, want = bernstein_1d(p, x), bernstein_1d_loop(p, x)
        for g, w, scale in zip(got, want, (1, 2 * p, 4 * p * (p - 1))):
            assert g.shape == w.shape
            assert np.abs(g - w).max(initial=0.0) <= 2.3e-16 * max(scale, 1)


class TestBernstein:
    def test_corner_interpolation(self):
        vals, _, _ = bernstein_eval(3, 0.0, 0.0)
        expected = np.zeros(16)
        expected[0] = 1.0
        np.testing.assert_allclose(vals, expected, atol=1e-15)

    def test_midpoint_binomials(self):
        vals, _, _ = bernstein_eval(3, 0.5, 0.5)
        uni = np.array([1, 3, 3, 1]) / 8.0
        np.testing.assert_allclose(vals, np.outer(uni, uni).T.reshape(-1),
                                   atol=1e-15)

    @pytest.mark.parametrize("p", [3, 5])
    def test_partition_of_unity(self, p):
        rng = np.random.default_rng(0)
        for _ in range(20):
            xi, eta = rng.uniform(0, 1, 2)
            vals, d1, d2 = bernstein_eval(p, xi, eta)
            assert abs(vals.sum() - 1.0) < 1e-13
            assert np.abs(d1.sum(axis=0)).max() < 1e-13
            assert np.abs(d2.sum(axis=0)).max() < 1e-12

    def test_out_of_domain(self):
        with pytest.raises(DomainError):
            bernstein_eval(3, -0.1, 0.5)
        with pytest.raises(DomainError):
            bernstein_eval(3, 0.5, 1.2)

    def test_table_matches_outer_products(self):
        # reference: the tensor products written out from the 1-D basis
        pts = np.random.default_rng(11).uniform(0, 1, size=(4, 2))
        tv, t1, t2 = bernstein_table(5, pts)
        bu, du, d2u = bernstein_1d(5, pts[:, 0])
        bv, dv, d2v = bernstein_1d(5, pts[:, 1])
        for m in range(len(pts)):
            def tp(a, b):  # flattened with the first index fastest
                return np.outer(b[:, m], a[:, m]).reshape(-1)
            np.testing.assert_array_equal(tv[:, m], tp(bu, bv))
            np.testing.assert_array_equal(t1[:, m, 0], tp(du, bv))
            np.testing.assert_array_equal(t1[:, m, 1], tp(bu, dv))
            np.testing.assert_array_equal(t2[:, m, 0], tp(d2u, bv))
            np.testing.assert_array_equal(t2[:, m, 1], tp(du, dv))
            np.testing.assert_array_equal(t2[:, m, 2], tp(bu, d2v))

    def test_nan_parameter(self):
        with pytest.raises(DomainError):
            bernstein_table(3, np.array([[np.nan, 0.5]]))
        with pytest.raises(DomainError):
            bernstein_table(5, np.array([[0.2, 0.3], [0.5, np.nan]]))

    def test_quintic_derivatives_vs_finite_differences(self):
        rng = np.random.default_rng(1)
        h = 1e-6
        for _ in range(10):
            xi, eta = rng.uniform(0.05, 0.95, 2)
            _, d1, _ = bernstein_eval(5, xi, eta)
            vp, _, _ = bernstein_eval(5, xi + h, eta)
            vm, _, _ = bernstein_eval(5, xi - h, eta)
            fd = (vp - vm) / (2 * h)
            denom = max(1.0, np.abs(d1[:, 0]).max())
            assert np.abs(fd - d1[:, 0]).max() / denom < 1e-6

    def test_second_derivatives_vs_finite_differences(self):
        rng = np.random.default_rng(2)
        h = 1e-4
        for _ in range(5):
            xi, eta = rng.uniform(0.1, 0.9, 2)
            _, _, d2 = bernstein_eval(5, xi, eta)
            vp, _, _ = bernstein_eval(5, xi + h, eta)
            v0, _, _ = bernstein_eval(5, xi, eta)
            vm, _, _ = bernstein_eval(5, xi - h, eta)
            fd = (vp - 2 * v0 + vm) / h**2
            assert np.abs(fd - d2[:, 0]).max() < 1e-5

    def test_table_matches_pointwise(self):
        pts = np.array([[0.1, 0.2], [0.7, 0.9], [0.0, 1.0]])
        tv, t1, t2 = bernstein_table(5, pts)
        for m, (xi, eta) in enumerate(pts):
            v, d1, d2 = bernstein_eval(5, xi, eta)
            np.testing.assert_allclose(tv[:, m], v, atol=1e-15)
            np.testing.assert_allclose(t1[:, m], d1, atol=1e-15)
            np.testing.assert_allclose(t2[:, m], d2, atol=1e-15)


class TestDegreeElevation:
    def test_constant(self):
        np.testing.assert_allclose(degree_elevate_2(np.ones(16)), np.ones(36),
                                   atol=1e-14)

    def test_linear_xi(self):
        # coefficients of the polynomial xi in cubic Bernstein form
        cubic = np.zeros((4, 4))
        for i in range(4):
            cubic[i, :] = i / 3.0
        quintic = degree_elevate_2(cubic.reshape(16, order="F"))
        rng = np.random.default_rng(3)
        for _ in range(10):
            xi, eta = rng.uniform(0, 1, 2)
            assert abs(eval_quintic_grid(quintic, xi, eta) - xi) < 1e-13

    def test_random_coefficients_same_polynomial(self):
        rng = np.random.default_rng(4)
        cubic = rng.normal(size=16)
        quintic = degree_elevate_2(cubic)
        grid = np.linspace(0, 1, 20)
        worst = 0.0
        for xi in grid:
            for eta in grid:
                worst = max(worst, abs(eval_cubic_grid(cubic, xi, eta)
                                       - eval_quintic_grid(quintic, xi, eta)))
        assert worst < 1e-12

    def test_stack_equals_one_call_per_grid(self):
        """Stacked vectors and grids elevate grid by grid, bitwise as one
        call each; the flat and grid layouts agree."""
        rows = np.random.default_rng(5).normal(size=(3, 40, 16))
        flat = degree_elevate_2(rows)
        grids = degree_elevate_2(rows.reshape(3, 40, 4, 4).swapaxes(-1, -2))
        assert flat.shape == (3, 40, 36) and grids.shape == (3, 40, 6, 6)
        for k in np.ndindex(3, 40):
            one = degree_elevate_2(rows[k])
            assert one.tobytes() == flat[k].tobytes()
            assert one.tobytes() == grids[k].reshape(36, order="F").tobytes()


class TestRationalize:
    def test_identity_when_sum_is_one(self):
        rng = np.random.default_rng(5)
        coeffs = rng.uniform(0.1, 1.0, size=(5, 16))
        coeffs /= coeffs.sum(axis=0, keepdims=True)
        ext = ElementExtraction(0, 3, np.arange(5), coeffs)
        vals, d1, d2 = evaluate_basis(ext, 0.3, 0.6)
        r, r1, r2 = rationalize(vals, d1, d2)
        np.testing.assert_allclose(r, vals, atol=1e-13)
        np.testing.assert_allclose(r1, d1, atol=1e-12)
        np.testing.assert_allclose(r2, d2, atol=1e-11)

    def test_rational_derivatives_vs_finite_differences(self):
        rng = np.random.default_rng(6)
        coeffs = rng.uniform(0.2, 1.0, size=(6, 16))
        ext = ElementExtraction(0, 3, np.arange(6), coeffs)

        def ratio(xi, eta):
            v, d1, d2 = evaluate_basis(ext, xi, eta)
            return rationalize(v, d1, d2)[0]

        h = 1e-6
        xi, eta = 0.37, 0.58
        _, r1, _ = rationalize(*evaluate_basis(ext, xi, eta))
        fd = (ratio(xi + h, eta) - ratio(xi - h, eta)) / (2 * h)
        assert np.abs(fd - r1[:, 0]).max() < 1e-6
        fd = (ratio(xi, eta + h) - ratio(xi, eta - h)) / (2 * h)
        assert np.abs(fd - r1[:, 1]).max() < 1e-6

    def test_rational_sums_to_one(self):
        rng = np.random.default_rng(7)
        coeffs = rng.uniform(0.2, 1.0, size=(6, 36))
        ext = ElementExtraction(0, 5, np.arange(6), coeffs, rational=True)
        vals, d1, d2 = evaluate_basis(ext, 0.21, 0.84)
        assert abs(vals.sum() - 1.0) < 1e-14
        assert np.abs(d1.sum(axis=0)).max() < 1e-13

    def test_zero_denominator(self):
        vals = np.array([0.5, -0.5])
        d1 = np.zeros((2, 2))
        d2 = np.zeros((2, 3))
        with pytest.raises(DegenerateBasisError):
            rationalize(vals, d1, d2)

    def test_rational_second_derivatives_vs_finite_differences(self):
        rng = np.random.default_rng(9)
        coeffs = rng.uniform(0.2, 1.0, size=(6, 36))
        ext = ElementExtraction(0, 5, np.arange(6), coeffs, rational=True)
        h = 1e-6
        pts = rng.uniform(0.1, 0.9, size=(5, 2))
        _, _, r2 = evaluate_basis(ext, *pts.T)
        _, r1_xp, _ = evaluate_basis(ext, *(pts + [h, 0.0]).T)
        _, r1_xm, _ = evaluate_basis(ext, *(pts - [h, 0.0]).T)
        _, r1_ep, _ = evaluate_basis(ext, *(pts + [0.0, h]).T)
        _, r1_em, _ = evaluate_basis(ext, *(pts - [0.0, h]).T)
        fd_x = (r1_xp - r1_xm) / (2 * h)  # d/dxi of (R_xi, R_eta)
        fd_e = (r1_ep - r1_em) / (2 * h)  # d/deta of (R_xi, R_eta)
        scale = max(1.0, np.abs(r2).max())
        assert np.abs(fd_x[..., 0] - r2[..., 0]).max() / scale < 1e-6
        assert np.abs(fd_x[..., 1] - r2[..., 1]).max() / scale < 1e-6
        assert np.abs(fd_e[..., 0] - r2[..., 1]).max() / scale < 1e-6
        assert np.abs(fd_e[..., 1] - r2[..., 2]).max() / scale < 1e-6

    def test_table_raises_when_one_point_has_nonpositive_denominator(self):
        # denominator coefficients positive except at the (1, 1) corner
        coeffs = np.full((2, 16), 0.5)
        coeffs[:, 15] = -0.5
        ext = ElementExtraction(3, 3, np.arange(2), coeffs, rational=True)
        vals, _, _ = evaluate_basis(ext, [0.0, 0.5], [0.0, 0.5])
        np.testing.assert_allclose(vals.sum(axis=0), 1.0, atol=1e-14)
        with pytest.raises(DegenerateBasisError) as info:
            evaluate_basis(ext, [0.0, 0.5, 1.0], [0.0, 0.5, 1.0])
        assert info.value.element == 3


class TestBasisTable:
    @pytest.mark.parametrize("variant", ["c0", "g1p", "g1r"])
    def test_matches_pointwise_evaluation(self, variant):
        c0 = build_c0(netgen.bumped(netgen.rot44(), amplitude=0.3))
        surf = c0 if variant == "c0" else build_g1(c0, variant)
        assert any(ext.rational for ext in surf.extractions) == (variant == "g1r")
        rng = np.random.default_rng(10)
        pts = np.vstack([rng.uniform(0, 1, size=(7, 2)),
                         [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]])
        for ext in surf.extractions:
            vals, d1, d2 = evaluate_basis(ext, *pts.T)
            assert vals.shape == (ext.n_basis, len(pts))
            assert d1.shape == (ext.n_basis, len(pts), 2)
            assert d2.shape == (ext.n_basis, len(pts), 3)
            for m, (xi, eta) in enumerate(pts):
                v, g, h = evaluate_basis(ext, xi, eta)
                assert np.abs(vals[:, m] - v).max() <= 1e-14
                assert np.abs(d1[:, m] - g).max() <= 1e-14
                assert np.abs(d2[:, m] - h).max() <= 1e-14
            # a (2, 3) array of xi against a scalar eta: the point shape
            # follows the basis axis
            grid = evaluate_basis(ext, pts[:6, 0].reshape(2, 3), 0.25)
            n = ext.n_basis
            assert [t.shape for t in grid] == [(n, 2, 3), (n, 2, 3, 2), (n, 2, 3, 3)]
            for t, one in zip(grid, evaluate_basis(ext, pts[5, 0], 0.25)):
                assert np.abs(t[:, 1, 2] - one).max() <= 1e-14
