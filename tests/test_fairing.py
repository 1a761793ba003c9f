"""Which fairing solve ``solve_constrained_ls`` takes: the Cholesky solve
of the normal equations on well-conditioned systems, the minimum-norm
``lstsq`` fallback on rank-deficient or badly pivoted ones."""

import numpy as np
import pytest

from gspline import construct_g1
from gspline.construct_c0 import build_c0
from gspline.construct_g1 import (
    PIVOT_MIN,
    ConstraintSystem,
    build_g1,
    solve_constrained_ls,
)
from gspline.refine import refine_n

import dense_ls
import netgen


@pytest.fixture
def lstsq_calls(monkeypatch):
    """The matrices ``np.linalg.lstsq`` is called on."""
    calls = []
    lstsq = np.linalg.lstsq

    def counting(*args, **kwargs):
        calls.append(args[0])
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    return calls


@pytest.mark.parametrize("variant", ["g1p", "g1r"])
@pytest.mark.parametrize("name,level,fallback", [
    ("cube", 0, True),
    ("rot44", 0, False), ("rot44", 1, False),
    ("val333", 0, False), ("val333", 1, False),
])
def test_path_per_net(name, level, fallback, variant, lstsq_calls, monkeypatch):
    c0 = build_c0(refine_n(getattr(netgen, name)(), level)[0])
    mine = build_g1(c0, variant)
    fairing = {d["fairing"] for d in mine.diagnostics}
    if fallback:
        assert lstsq_calls and fairing == {"lstsq"}
    else:
        assert not lstsq_calls and fairing == {"cholesky"}

    monkeypatch.setattr(construct_g1, "solve_constrained_ls",
                        dense_ls.solve_constrained_ls)
    dense = build_g1(c0, variant)
    for a, b in zip(mine.extractions, dense.extractions):
        assert np.array_equal(a.basis, b.basis)
        np.testing.assert_allclose(a.coeffs, b.coeffs, rtol=0, atol=5e-14)
    assert [d["rank"] for d in mine.diagnostics] == \
        [d["rank"] for d in dense.diagnostics]


def test_cube_fairing_matrix_is_rank_deficient(lstsq_calls):
    """The fallback on the cube is taken for a real rank deficiency: the
    reduced fairing matrix loses one column of rank."""
    build_g1(build_c0(netgen.cube()), "g1p")
    assert lstsq_calls
    for B in lstsq_calls:
        assert np.linalg.matrix_rank(B) == B.shape[1] - 1, B.shape


def test_nearly_equal_fairing_columns_fail_the_pivot_test(lstsq_calls,
                                                          monkeypatch):
    """Cholesky succeeds, but its smallest pivot is below PIVOT_MIN of the
    largest: the solve falls back to lstsq and agrees with it."""
    rng = np.random.default_rng(31)
    n = 8
    F = rng.normal(size=(n + 6, n))
    F[:, 3] = F[:, 2] + 1e-5 * rng.normal(size=n + 6)
    f = rng.normal(size=n + 6)
    G = np.zeros((1, n))
    G[0, :2] = 1.0
    system = ConstraintSystem(G=G, g=np.array([0.5]), F=F, f=f,
                              tags=[("edge", 0)])

    pivots = []
    cholesky = np.linalg.cholesky

    def spy(A):
        L = cholesky(A)
        pivots.append(np.diag(L))
        return L

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    c, info = solve_constrained_ls(system, return_info=True)
    assert len(pivots) == 1
    assert pivots[0].min() <= PIVOT_MIN * pivots[0].max()
    assert info["fairing"] == "lstsq" and len(lstsq_calls) == 1
    ref, ref_info = dense_ls.solve_constrained_ls(system, return_info=True)
    np.testing.assert_allclose(c, ref, rtol=0, atol=1e-10)
    assert info["rank"] == ref_info["rank"] == 1


def test_well_separated_columns_take_cholesky(lstsq_calls):
    rng = np.random.default_rng(32)
    n = 8
    F = rng.normal(size=(n + 6, n))
    G = np.zeros((1, n))
    G[0, :2] = 1.0
    system = ConstraintSystem(G=G, g=np.array([0.5]), F=F,
                              f=rng.normal(size=n + 6), tags=[("edge", 0)])
    c, info = solve_constrained_ls(system, return_info=True)
    assert info["fairing"] == "cholesky" and not lstsq_calls
    ref = dense_ls.solve_constrained_ls(system)
    np.testing.assert_allclose(c, ref, rtol=0, atol=1e-12)


def test_fully_determined_system_takes_lstsq(lstsq_calls):
    """With no free direction left there is nothing to factor."""
    G = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
    system = ConstraintSystem(G=G, g=np.array([1.0, 2.0, 3.0]),
                              F=np.eye(3), f=np.zeros(3),
                              tags=[("edge", 0)] * 3)
    c, info = solve_constrained_ls(system, return_info=True)
    np.testing.assert_allclose(G @ c, [1.0, 2.0, 3.0], rtol=0, atol=1e-12)
    assert info["fairing"] == "lstsq" and info["rank"] == 3


@pytest.mark.parametrize("ctilde, want", [(None, 0.0), (np.array([1.0, 2.0, 3.0, 5.0]), 2.75)])
def test_fallback_returns_the_minimizer_nearest_the_target(ctilde, want, lstsq_calls):
    """Constants satisfy the equality row and zero the fairing differences,
    so every constant is a minimizer: the fallback returns the one nearest
    the C0 target (its mean), and without a target the minimum-norm zero."""
    F = np.eye(4)[:3] - np.eye(4)[1:]
    G = np.array([[1.0, -1.0, 0.0, 0.0]])
    system = ConstraintSystem(G=G, g=np.zeros(1), F=F, f=np.zeros(3),
                              tags=[("edge", 0)], ctilde=ctilde)
    c, info = solve_constrained_ls(system, return_info=True)
    assert info["fairing"] == "lstsq" and lstsq_calls
    np.testing.assert_allclose(c, want, rtol=0, atol=1e-14)
    np.testing.assert_allclose(dense_ls.solve_constrained_ls(system), want, rtol=0, atol=1e-14)
