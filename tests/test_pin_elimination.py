"""Pin elimination in ``solve_constrained_ls`` against the dense-SVD
reference ``dense_ls`` and the KKT oracle."""

import numpy as np
import pytest

from gspline import construct_g1
from gspline.construct_c0 import build_c0
from gspline.construct_g1 import ConstraintSystem, build_g1, solve_constrained_ls
from gspline.errors import InfeasibleConstraintError
from gspline.refine import refine_n

import dense_ls
import netgen
from oracles import kkt_solve

NETS = {
    "rot44": netgen.rot44,
    "val333": netgen.val333,
    "open_box": netgen.open_box,
    "boundary_ep3": netgen.boundary_ep3,
    "cube": netgen.cube,
    "fan5": lambda: netgen.fan(5),
    "val33": netgen.val33,
}


@pytest.mark.parametrize("variant", ["g1p", "g1r"])
@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("name", sorted(NETS))
def test_build_matches_dense_solve(name, level, variant, monkeypatch):
    c0 = build_c0(refine_n(NETS[name](), level)[0])
    mine = build_g1(c0, variant)
    monkeypatch.setattr(construct_g1, "solve_constrained_ls",
                        dense_ls.solve_constrained_ls)
    dense = build_g1(c0, variant)
    for a, b in zip(mine.extractions, dense.extractions):
        assert np.array_equal(a.basis, b.basis)
        np.testing.assert_allclose(a.coeffs, b.coeffs, rtol=0, atol=5e-14)
    assert len(mine.diagnostics) == len(dense.diagnostics)
    for a, b in zip(mine.diagnostics, dense.diagnostics):
        assert a["basis"] == b["basis"]
        assert a["rank"] == b["rank"], a["basis"]
        assert a["n_equality"] == b["n_equality"]
        for key in ("ls_residual", "eq_residual"):
            assert abs(a[key] - b[key]) < 1e-12, (a["basis"], key)


def fairing(rng, n, cols=()):
    """Full-column-rank fairing rows, so the constrained minimizer is unique."""
    F = rng.normal(size=(n + 8, n))
    return F, rng.normal(size=(n + 8,) + cols)


def solve_all(G, g, F, f, tags=None):
    """Info-returning solve, the dense reference and the KKT oracle."""
    system = ConstraintSystem(G=G, g=g, F=F, f=f,
                              tags=tags or [("edge", 0)] * len(G))
    mine, info = solve_constrained_ls(system, return_info=True)
    dense, ref = dense_ls.solve_constrained_ls(system, return_info=True)
    return mine, info, dense, ref, kkt_solve(F, f, G, g)


class TestEdgeCases:
    def test_scaled_single_entry_row(self):
        rng = np.random.default_rng(21)
        F, f = fairing(rng, 8)
        G = np.vstack([2.0 * np.eye(8)[3], rng.normal(size=(2, 8))])
        g = np.array([1.5, 0.3, -0.7])
        mine, info, dense, ref, kkt = solve_all(G, g, F, f)
        assert mine[3] == 0.75
        np.testing.assert_allclose(mine, dense, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mine, kkt, rtol=0, atol=1e-9)
        assert info["rank"] == ref["rank"] == 3

    def test_repeated_consistent_pin(self):
        rng = np.random.default_rng(22)
        F, f = fairing(rng, 7)
        G = np.vstack([np.eye(7)[[2, 5]], rng.normal(size=(1, 7)),
                       -3.0 * np.eye(7)[2]])
        g = np.array([0.4, -1.0, 0.2, -1.2])
        mine, info, dense, ref, kkt = solve_all(G, g, F, f)
        assert mine[2] == 0.4 and mine[5] == -1.0
        np.testing.assert_allclose(mine, dense, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mine, kkt, rtol=0, atol=1e-9)
        assert info["rank"] == ref["rank"] == 3
        assert info["n_equality"] == 4

    def test_repeated_inconsistent_pin_is_infeasible(self):
        G = np.eye(4)[[1, 1]]
        system = ConstraintSystem(G=G, g=np.array([0.0, 1.0]), F=np.eye(4),
                                  f=np.zeros(4),
                                  tags=[("pin", 0, 0), ("frozen", 1, 2)])
        for solve in (solve_constrained_ls, dense_ls.solve_constrained_ls):
            with pytest.raises(InfeasibleConstraintError) as err:
                solve(system)
            assert err.value.edges == []

    def test_pin_contradicting_an_edge_row_names_the_edge(self):
        # c0 = c1 = 1 by pins, c0 + c1 + c2 = 0 and c2 = 1 on edge 7
        G = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
        system = ConstraintSystem(G=G, g=np.array([0.0, 1.0, 1.0, 1.0]),
                                  F=np.eye(4), f=np.zeros(4),
                                  tags=[("edge", 7), ("pin", 0, 0),
                                        ("pin", 0, 1), ("pin", 0, 2)])
        for solve in (solve_constrained_ls, dense_ls.solve_constrained_ls):
            with pytest.raises(InfeasibleConstraintError) as err:
                solve(system)
            assert err.value.edges == [7]

    def test_single_entry_edge_row_contradicted_by_a_pin_is_named(self):
        # the edge row pins c1 first; the later pin row is what fails
        G = np.array([[0.0, 2.0, 0.0], [0.0, 1.0, 0.0]])
        system = ConstraintSystem(G=G, g=np.array([0.0, 1.0]), F=np.eye(3),
                                  f=np.zeros(3),
                                  tags=[("edge", 4), ("pin", 0, 0)])
        for solve in (solve_constrained_ls, dense_ls.solve_constrained_ls):
            with pytest.raises(InfeasibleConstraintError) as err:
                solve(system)
            assert err.value.edges == [4]

    def test_every_unknown_pinned(self):
        rng = np.random.default_rng(23)
        F, f = fairing(rng, 6, cols=(2,))
        perm = rng.permutation(6)
        scale = np.array([1.0, -2.0, 0.5, 1.0, 4.0, 1.0])
        G = scale[:, None] * np.eye(6)[perm]
        x = rng.normal(size=(6, 2))
        g = G @ x
        system = ConstraintSystem(G=G, g=g, F=F, f=f, tags=[("pin", 0, 0)] * 6)
        mine, infos = solve_constrained_ls(system, return_info=True)
        dense, refs = dense_ls.solve_constrained_ls(system, return_info=True)
        np.testing.assert_allclose(mine, x, rtol=0, atol=1e-15)
        np.testing.assert_allclose(mine, dense, rtol=0, atol=1e-12)
        for k in range(2):
            np.testing.assert_allclose(mine[:, k], kkt_solve(F, f[:, k], G, g[:, k]),
                                       rtol=0, atol=1e-9)
            assert infos[k]["rank"] == refs[k]["rank"] == 6
            assert abs(infos[k]["ls_residual"] - refs[k]["ls_residual"]) < 1e-12

    def test_no_pins(self):
        rng = np.random.default_rng(24)
        F, f = fairing(rng, 12)
        G = rng.normal(size=(5, 12))
        g = G @ rng.normal(size=12)
        mine, info, dense, ref, kkt = solve_all(G, g, F, f)
        np.testing.assert_allclose(mine, dense, rtol=0, atol=1e-13)
        np.testing.assert_allclose(mine, kkt, rtol=0, atol=1e-9)
        assert info["rank"] == ref["rank"] == 5
        for key in ("ls_residual", "eq_residual"):
            assert abs(info[key] - ref[key]) < 1e-12

    def test_fairing_rows_on_pinned_unknowns_only_add_a_constant(self):
        rng = np.random.default_rng(25)
        F, f = fairing(rng, 6)
        G = np.eye(6)[[0, 1]]
        g = np.array([2.0, -1.0])
        extra = np.zeros((3, 6))
        extra[:, :2] = rng.normal(size=(3, 2))
        base = solve_all(G, g, F, f)[0]
        more, info, dense, _, _ = solve_all(
            G, g, np.vstack([F, extra]), np.concatenate([f, rng.normal(size=3)]))
        np.testing.assert_allclose(more, base, rtol=0, atol=1e-12)
        np.testing.assert_allclose(more, dense, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_random_systems_with_identity_rows(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(4, 24))
    m = int(rng.integers(0, n // 2 + 1))
    pins = rng.choice(n, size=int(rng.integers(0, n // 2 + 1)))  # repeats too
    dense_rows = rng.normal(size=(m, n))
    if m > 1 and rng.random() < 0.5:
        dense_rows[-1] = dense_rows[0] - 2.0 * dense_rows[1]  # dependent row
    rows = [dense_rows, np.eye(n)[pins]]
    order = rng.permutation(m + pins.size)
    G = np.vstack(rows)[order]
    F, f = fairing(rng, n)
    g = G @ rng.normal(size=n)
    mine, info, dense, ref, kkt = solve_all(G, g, F, f)
    assert info["rank"] == ref["rank"] == np.linalg.matrix_rank(G)
    np.testing.assert_allclose(mine, dense, rtol=0, atol=1e-10)
    np.testing.assert_allclose(mine, kkt, rtol=0, atol=1e-8)
