import math

import numpy as np
import pytest

from gspline.construct_c0 import build_c0, geometry_continuity_residual
from gspline.construct_g1 import (
    ConstraintProblem,
    ConstraintSystem,
    P,
    analyze_net,
    blend_polynomial,
    build_g1,
    edge_geometry,
    elevate_irregular,
    g1_residual,
    solve_constrained_ls,
)
from gspline.errors import DomainError, InfeasibleConstraintError
from gspline.evaluate import edge_watertightness, map_point
from gspline.extraction import bernstein_1d, evaluate_basis
from gspline.mesh import ElementClass, classify_elements, spoke_edges
from gspline.refine import refine

import edge_block_loop
import netgen
from oracles import bounding_box_diagonal, kkt_solve
from topology_loop import edge_frames


def first_spoke_edge(cnet):
    """Lowest-index interior spoke edge."""
    return min(e for e in spoke_edges(cnet) if not cnet.boundary_edge[e])


def edge_rows(system, edge):
    """Indices of the equality rows an edge contributes, in order."""
    return [r for r, tag in enumerate(system.tags) if tag == ("edge", edge)]


class TestEdgeGeometry:
    def test_omega_values_fan5(self):
        net = netgen.fan(5)
        geom = edge_geometry(net.cnet, first_spoke_edge(net.cnet))
        assert geom.v1 == 0 and geom.a1 == 2 and geom.mu1 == 5
        assert abs(geom.omega1 - math.cos(2 * math.pi / 5)) < 1e-15
        # far endpoint is a regular boundary vertex of valence 2
        assert geom.a2 == 1 and geom.mu2 == 2
        assert abs(geom.omega2) < 1e-15

    def test_regular_interior_endpoint_gives_zero(self):
        net = netgen.rot44()
        cnet = net.cnet
        # edge between the two valence-3 EPs' clusters touching a regular
        # interior vertex: any interior non-spoke edge has omega == 0 ends
        spokes = spoke_edges(cnet)
        for e in range(cnet.n_edges):
            if cnet.boundary_edge[e] or e in spokes:
                continue
            geom = edge_geometry(cnet, e)
            assert abs(geom.omega1) < 1e-15 and abs(geom.omega2) < 1e-15

    def test_blend_polynomial_endpoints(self):
        net = netgen.fan(3)
        geom = edge_geometry(net.cnet, first_spoke_edge(net.cnet))
        w1, w2 = geom.omega1, geom.omega2
        assert abs(blend_polynomial(w1, w2, 0.0) + 2 * w1) < 1e-15
        assert abs(blend_polynomial(w1, w2, 1.0) - 2 * w2) < 1e-15


class TestEdgeEquations:
    def _problem_and_edge(self, net=None):
        net = net or netgen.fan(5)
        c0 = build_c0(net)
        edge = first_spoke_edge(net.cnet)
        problem = ConstraintProblem(c0, 0, "g1p")
        return problem, edge

    def test_constant_satisfies_all_equations(self):
        problem, edge = self._problem_and_edge()
        system = problem.assemble()
        ones = np.ones(problem.n)
        rows = edge_rows(system, edge)
        assert len(rows) == 7
        for r in rows:
            val = system.G[r] @ ones
            assert abs(val - system.g[r]) < 1e-12

    def test_shared_edge_nodes_identified(self):
        problem, edge = self._problem_and_edge()
        geom = edge_geometry(problem.c0.cnet, edge)
        fr = edge_frames(problem.c0.cnet, edge, v1=geom.v1)
        for k in range(1, 7):
            # left frame (1, k) lies on the shared edge as does right (k, 1)
            left = edge_block_loop.node(problem, fr.left, fr.rot_left, 1, k)
            right = edge_block_loop.node(problem, fr.right, fr.rot_right, k, 1)
            assert left == right

    @pytest.mark.parametrize("make,seed", [(lambda: netgen.fan(5), 0),
                                           (lambda: netgen.fan(3), 1),
                                           (netgen.val33, 2),
                                           (netgen.boundary_ep3, 3)])
    def test_bernstein_form_matches_sampled_relation(self, make, seed):
        """The six coefficient equations must equal the directly sampled
        cross-derivative relation once the edge curve is made quartic."""
        net = make()
        c0 = build_c0(net)
        cnet = net.cnet
        edge = first_spoke_edge(cnet)
        problem = ConstraintProblem(c0, 0, "g1p")
        system = problem.assemble()
        rows = edge_rows(system, edge)
        rng = np.random.default_rng(seed)
        c = rng.normal(size=problem.n)
        # project onto the quartic-boundary hyperplane (last equation)
        row = system.G[rows[6]]
        c -= row * (row @ c) / (row @ row)
        assert abs(row @ c) < 1e-12

        geom = edge_geometry(cnet, edge)
        fr = edge_frames(cnet, edge, v1=geom.v1)
        grid_l = np.empty((6, 6))
        grid_r = np.empty((6, 6))
        for i in range(1, 7):
            for j in range(1, 7):
                grid_l[i - 1, j - 1] = c[edge_block_loop.node(
                    problem, fr.left, fr.rot_left, i, j)]
                grid_r[i - 1, j - 1] = c[edge_block_loop.node(
                    problem, fr.right, fr.rot_right, i, j)]

        residual_coeffs = system.G[rows[:6]] @ c - system.g[rows[:6]]
        for v in np.linspace(0, 1, 50):
            bv, dbv, _ = bernstein_1d(5, v)
            # d/dxi of the left function on its xi=0 side
            left_dxi = 5.0 * (grid_l[1, :] - grid_l[0, :]) @ bv
            right_deta = 5.0 * (grid_r[:, 1] - grid_r[:, 0]) @ bv
            right_dxi = grid_r[:, 0] @ dbv
            blend = float(blend_polynomial(geom.omega1, geom.omega2, v))
            sampled = left_dxi + blend * right_dxi + right_deta
            bernstein_form = residual_coeffs @ bv
            assert abs(sampled - bernstein_form) < 1e-12

    def test_interface_pins_are_identity_rows(self):
        net = netgen.rot44()
        c0 = build_c0(net)
        problem = ConstraintProblem(c0, 11, "g1p")
        assert len(problem.pinned_sides)  # sides abutting transition elements
        f, s = problem.pinned_sides[0]
        system = problem.assemble()
        rows = [r for r, tag in enumerate(system.tags) if tag == ("pin", f, s)]
        assert len(rows) == 12
        for r in rows:
            (idx,) = np.flatnonzero(system.G[r])
            assert system.G[r, idx] == 1.0
            assert system.g[r] == problem.ctilde[idx]

    def test_boundary_trace_pins_single_row(self):
        net = netgen.fan(3)
        c0 = build_c0(net)
        problem = ConstraintProblem(c0, 0, "g1p")
        assert len(problem.boundary_sides)
        f, s = problem.boundary_sides[0]
        tags = problem.assemble().tags
        assert tags.count(("trace", f, s)) == 6

    def test_fairing_row_count(self):
        net = netgen.fan(3)
        c0 = build_c0(net)
        problem = ConstraintProblem(c0, 0, "g1p")
        F = problem.assemble().F
        # fairing rows come element by element, 60 each
        assert F.shape[0] == 60 * len(problem.elements)
        cols = np.flatnonzero(np.abs(F[:60]).sum(axis=0))
        assert set(cols) <= set(problem.slot_nodes[0])


class TestConstrainedLS:
    def test_empty_constraints_full_rank(self):
        rng = np.random.default_rng(4)
        F = rng.normal(size=(30, 12))
        ctilde = rng.normal(size=12)
        sys_ = ConstraintSystem(G=np.zeros((0, 12)), g=np.zeros(0), F=F,
                                f=F @ ctilde, tags=[])
        c = solve_constrained_ls(sys_)
        np.testing.assert_allclose(c, ctilde, atol=1e-10)

    def test_duplicated_rows_equivalent(self):
        rng = np.random.default_rng(5)
        F = rng.normal(size=(25, 10))
        f = rng.normal(size=25)
        G = rng.normal(size=(3, 10))
        g = rng.normal(size=3)
        base = solve_constrained_ls(
            ConstraintSystem(G=G, g=g, F=F, f=f, tags=[("edge", 0)] * 3))
        dup = solve_constrained_ls(ConstraintSystem(
            G=np.vstack([G, G[1:2], G[0:1]]), g=np.concatenate([g, g[1:2], g[0:1]]),
            F=F, f=f, tags=[("edge", 0)] * 5))
        np.testing.assert_allclose(dup, base, atol=1e-9)

    def test_matches_kkt_oracle(self):
        rng = np.random.default_rng(6)
        for trial in range(25):
            n = rng.integers(5, 30)
            m = rng.integers(1, max(2, n // 2))
            F = rng.normal(size=(n + 10, n))
            f = rng.normal(size=n + 10)
            G = rng.normal(size=(m, n))
            g = G @ rng.normal(size=n)
            mine = solve_constrained_ls(
                ConstraintSystem(G=G, g=g, F=F, f=f, tags=[("edge", 0)] * m))
            oracle = kkt_solve(F, f, G, g)
            np.testing.assert_allclose(mine, oracle, atol=1e-9)

    def test_infeasible_reports_edges(self):
        G = np.array([[1.0, 0.0], [1.0, 0.0]])
        g = np.array([0.0, 1.0])
        F = np.eye(2)
        with pytest.raises(InfeasibleConstraintError) as err:
            solve_constrained_ls(ConstraintSystem(
                G=G, g=g, F=F, f=np.zeros(2),
                tags=[("edge", 7), ("edge", 9)]))
        assert set(err.value.edges) <= {7, 9} and err.value.edges

    def test_fairing_with_single_pin_recovers_target(self):
        net = netgen.fan(3)
        c0 = build_c0(net)
        problem = ConstraintProblem(c0, 0, "g1p")
        system = problem.assemble()
        F, rhs = system.F, system.f
        # no constraints: solution matches the target up to a constant
        free = solve_constrained_ls(ConstraintSystem(
            G=np.zeros((0, problem.n)), g=np.zeros(0), F=F,
            f=np.asarray(rhs), tags=[]))
        shift = free - problem.ctilde
        assert np.ptp(shift) < 1e-9
        # one pinned coefficient: exact recovery
        Gp = np.zeros((1, problem.n))
        Gp[0, 0] = 1.0
        pinned = solve_constrained_ls(ConstraintSystem(
            G=Gp, g=np.array([problem.ctilde[0]]), F=F,
            f=np.asarray(rhs), tags=[("pin", 0, 0)]))
        np.testing.assert_allclose(pinned, problem.ctilde, atol=1e-9)


class TestGroupedSolve:
    def test_two_columns_equal_two_solves(self):
        rng = np.random.default_rng(11)
        n, m = 14, 5
        F = rng.normal(size=(n + 6, n))
        f = rng.normal(size=(n + 6, 2))
        G = rng.normal(size=(m, n))
        g = G @ rng.normal(size=(n, 2))
        tags = [("edge", 0)] * m
        both, infos = solve_constrained_ls(
            ConstraintSystem(G=G, g=g, F=F, f=f, tags=tags), return_info=True)
        assert both.shape == (n, 2) and len(infos) == 2
        for k in range(2):
            one, info = solve_constrained_ls(
                ConstraintSystem(G=G, g=g[:, k], F=F, f=f[:, k], tags=tags),
                return_info=True)
            assert one.shape == (n,)
            np.testing.assert_allclose(both[:, k], one, rtol=0, atol=1e-12)
            assert infos[k].keys() == info.keys()
            assert infos[k]["rank"] == info["rank"] == m
            for key in ("ls_residual", "eq_residual"):
                assert abs(infos[k][key] - info[key]) < 1e-12

    def test_infeasible_second_column_reports_its_edges(self):
        G = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        g = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(InfeasibleConstraintError) as err:
            solve_constrained_ls(ConstraintSystem(
                G=G, g=g, F=np.eye(2), f=np.zeros((2, 2)),
                tags=[("edge", 3), ("edge", 7), ("edge", 9)]))
        assert err.value.edges and set(err.value.edges) <= {7, 9}

    @pytest.mark.parametrize("variant", ["g1p", "g1r"])
    @pytest.mark.parametrize("make", [netgen.rot44, netgen.val333,
                                      netgen.boundary_ep3])
    def test_build_matches_per_function_solves(self, make, variant):
        c0 = build_c0(make())
        surf = build_g1(c0, variant)
        for diag in surf.diagnostics:
            a = diag["basis"]
            problem = ConstraintProblem(c0, a, variant)
            rows, ref = problem.solve()
            assert rows.shape == (len(problem.elements), 36)
            assert diag.keys() == ref.keys()
            for key, value in ref.items():
                if isinstance(value, float):
                    assert abs(diag[key] - value) < 1e-12, (a, key)
                else:
                    assert diag[key] == value, (a, key)
            for f, coeffs in zip(problem.elements.tolist(), rows):
                ext = surf.extraction(f)
                (row,) = np.flatnonzero(ext.basis == a)
                np.testing.assert_allclose(ext.coeffs[row], coeffs, rtol=0, atol=1e-13)

    def test_mixed_element_sets_rejected(self):
        c0 = build_c0(netgen.rot44())
        with pytest.raises(DomainError):
            ConstraintProblem(c0, [0, 11], "g1r")

    @pytest.mark.parametrize("variant", ["g1p", "g1r"])
    @pytest.mark.parametrize("ids", [0, 10**6, -1, []], ids=repr)
    def test_functions_without_irregular_support_rejected(self, ids, variant):
        """A regular id, ids that are no vertex and no ids at all give no
        problem to solve: a DomainError naming the ids, at construction."""
        c0 = build_c0(refine(netgen.rot44()))
        assert not any(0 in c0.extraction(f).basis
                       for f in analyze_net(c0.cnet)[0].tolist())
        with pytest.raises(DomainError, match="support no irregular element") as err:
            ConstraintProblem(c0, ids, variant)
        assert str([int(a) for a in np.atleast_1d(ids)]) in str(err.value)


class TestElevateIrregular:
    def test_elevated_reproduces_c0(self):
        net = netgen.fan(5)
        c0 = build_c0(net)
        tables = elevate_irregular(c0)
        rng = np.random.default_rng(7)
        for (a, f), grid in list(tables.items())[:20]:
            ext = c0.extraction(f)
            row = np.flatnonzero(ext.basis == a)[0]
            for _ in range(3):
                xi, eta = rng.uniform(0, 1, 2)
                vals, _, _ = evaluate_basis(ext, xi, eta)
                bu, _, _ = bernstein_1d(5, xi)
                bv, _, _ = bernstein_1d(5, eta)
                quintic = float(bu @ grid @ bv)
                assert abs(quintic - vals[row]) < 1e-13


class TestBuildG1:
    def test_zero_ep_net_unchanged(self):
        net = netgen.structured(3, 3, zfun=lambda x, y: x * y)
        c0 = build_c0(net)
        for variant in ("g1p", "g1r"):
            surf = build_g1(c0, variant)
            assert surf.variant == variant
            for e in range(net.cnet.n_faces):
                old, new = c0.extraction(e), surf.extraction(e)
                assert new.degree == 3 and not new.rational
                np.testing.assert_array_equal(old.basis, new.basis)
                np.testing.assert_allclose(old.coeffs, new.coeffs, atol=0)

    @pytest.mark.parametrize("variant", ["g1p", "g1r"])
    def test_fan5_g1_residuals(self, variant):
        net = netgen.fan(5)
        surf = build_g1(build_c0(net), variant)
        for e in spoke_edges(net.cnet):
            if net.cnet.boundary_edge[e]:
                continue
            assert g1_residual(surf, e) < 1e-8

    @pytest.mark.parametrize("variant", ["g1p", "g1r"])
    def test_fan5_watertight(self, variant):
        net = netgen.fan(5)
        surf = build_g1(build_c0(net), variant)
        cnet = net.cnet
        for e in range(cnet.n_edges):
            if not cnet.boundary_edge[e]:
                assert edge_watertightness(surf, e) < 1e-9

    @pytest.mark.parametrize("variant", ["g1p", "g1r"])
    def test_irregular_transition_interface_c1(self, variant):
        net = netgen.rot44()
        surf = build_g1(build_c0(net), variant)
        labels = classify_elements(net.cnet)
        cnet = net.cnet
        for e in range(cnet.n_edges):
            if cnet.boundary_edge[e]:
                continue
            f, g = cnet.edge_faces[e]
            kinds = {labels[f], labels[g]}
            if kinds == {ElementClass.IRREGULAR, ElementClass.TRANSITION}:
                assert geometry_continuity_residual(surf, e, 0) < 1e-10
                assert geometry_continuity_residual(surf, e, 1) < 1e-9

    def test_g1p_partition_of_unity(self):
        for make in (lambda: netgen.fan(5), netgen.val33, netgen.rot44):
            net = make()
            surf = build_g1(build_c0(net), "g1p")
            for ext in surf.extractions:
                sums = ext.coeffs.sum(axis=0)
                np.testing.assert_allclose(sums, 1.0, atol=1e-10)

    def test_g1r_rational_flags_and_denominator(self):
        net = netgen.rot44()
        surf = build_g1(build_c0(net), "g1r")
        labels = classify_elements(net.cnet)
        rng = np.random.default_rng(8)
        for f, ext in enumerate(surf.extractions):
            assert ext.rational == (labels[f] is ElementClass.IRREGULAR)
            if ext.rational:
                w = ext.weight_coeffs()
                for _ in range(5):
                    xi, eta = rng.uniform(0, 1, 2)
                    vals, _, _ = evaluate_basis(ext, xi, eta)
                    assert abs(vals.sum() - 1.0) < 1e-13  # rationalized
                assert 0.5 < w.mean() < 1.5

    def test_constant_function_reproduction(self):
        q = np.array([1.7, -0.4, 2.2])
        for variant in ("g1p", "g1r"):
            net = netgen.val333()
            same = netgen.ControlNet(
                net.cnet, np.tile(q, (net.cnet.n_vertices, 1)))
            surf = build_g1(build_c0(same), variant)
            rng = np.random.default_rng(9)
            for f in range(net.cnet.n_faces):
                xi, eta = rng.uniform(0, 1, 2)
                np.testing.assert_allclose(map_point(surf, f, xi, eta), q,
                                           atol=1e-12)

    def test_single_ep_variants_agree(self):
        net = netgen.fan(5)
        g1p = build_g1(build_c0(net), "g1p")
        g1r = build_g1(build_c0(net), "g1r")
        worst = 0.0
        for f in range(net.cnet.n_faces):
            ep_, et_ = g1p.extraction(f), g1r.extraction(f)
            np.testing.assert_array_equal(ep_.basis, et_.basis)
            worst = max(worst, float(np.abs(ep_.coeffs - et_.coeffs).max()))
        assert worst < 1e-9

    def test_variants_indistinguishable_on_multi_ep_net(self):
        net = netgen.open_box()
        g1p = build_g1(build_c0(net), "g1p")
        g1r = build_g1(build_c0(net), "g1r")
        diag = bounding_box_diagonal(net)
        rng = np.random.default_rng(10)
        worst = 0.0
        for f in range(net.cnet.n_faces):
            for _ in range(8):
                xi, eta = rng.uniform(0, 1, 2)
                d = np.linalg.norm(map_point(g1p, f, xi, eta)
                                   - map_point(g1r, f, xi, eta))
                worst = max(worst, float(d))
        assert worst < 1e-2 * diag

    def test_diagnostics_present(self):
        net = netgen.fan(3)
        surf = build_g1(build_c0(net), "g1p")
        assert surf.diagnostics
        d = surf.diagnostics[0]
        assert {"basis", "rank", "ls_residual", "n_unknowns"} <= set(d)

    @pytest.mark.parametrize("variant", ["g1p", "g1r"])
    def test_degree_five_exactly_on_irregular(self, variant):
        net = netgen.rot44()
        surf = build_g1(build_c0(net), variant)
        labels = classify_elements(net.cnet)
        for f, ext in enumerate(surf.extractions):
            expect = 5 if labels[f] is ElementClass.IRREGULAR else 3
            assert ext.degree == expect

    def test_surface_check_thresholds_rot44(self):
        from gspline.cli import surface_check

        net = netgen.rot44()
        report = surface_check(build_g1(build_c0(net), "g1p"))
        assert report["watertightness"] < 1e-9
        assert report["g1_residual_spoke_edges"] < 1e-8
        assert report["c1_residual_irregular_transition"] < 1e-9
        assert report["c2_residual_smooth_edges"] < 1e-9
        assert report["partition_of_unity_defect"] < 1e-10
        assert report["normal_jump_spoke_edges"] < 1e-6
