"""Acceptance criteria for the whole package.

Each test prints one pass line with its runtime.  Tolerances are fixed
here and must not be loosened: they are the contract of the build.
"""

import math
import time

import numpy as np

from gspline.cli import collocation_singular_values
from gspline.construct_c0 import build_c0, geometry_continuity_residual
from gspline.construct_g1 import (
    ConstraintSystem,
    build_g1,
    g1_residual,
    solve_constrained_ls,
)
from gspline.evaluate import edge_watertightness, map_point
from gspline.mesh import (
    ControlNet,
    ElementClass,
    classify_elements,
    classify_vertices,
    extraordinary_vertices,
    spoke_edges,
)
from gspline.quality import min_invalid_thickness
from gspline.refine import _interior_vertex_mask, refine, refine_n
from gspline.solve import (
    assemble_membrane_eigen,
    convergence_study,
    default_source,
    solve_generalized_eigen,
    solve_poisson,
    assemble_poisson,
    unit_square_laplace_eigenvalues,
)

import netgen
from oracles import ReflectedBSplineSurface, StructuredPoissonOracle, kkt_solve
from test_refine import surface_distance


def _report(name, started, cap):
    elapsed = time.perf_counter() - started
    assert elapsed < cap, f"{name} took {elapsed:.1f}s (cap {cap}s)"
    print(f"\n[acceptance] {name}: PASS ({elapsed:.1f}s)")


def build_variant(net, variant):
    c0 = build_c0(net)
    return c0 if variant == "c0" else build_g1(c0, variant)


def continuity_nets():
    """Nets covering interior EPs of valence 3/5/6, a boundary EP of
    valence 3, and faces carrying 2, 3 and 4 extraordinary corners."""
    nets = {
        "fan3": netgen.bumped(netgen.fan(3), amplitude=0.3, center=(0, 0)),
        "fan5": netgen.bumped(netgen.fan(5), amplitude=0.3, center=(0, 0)),
        "fan6": netgen.bumped(netgen.fan(6), amplitude=0.3, center=(0, 0)),
        "boundary_ep3": netgen.bumped(netgen.boundary_ep3(), amplitude=0.25),
        "val33": netgen.bumped(netgen.val33(), amplitude=0.3),
        "val333": netgen.bumped(netgen.val333(), amplitude=0.4,
                                center=(0.4, 0.5), sigma=0.8),
        "open_box": netgen.open_box(),
    }
    return nets


def test_criterion_1_bspline_reduction():
    """EP-free nets: all constructions reduce to the tensor B-spline."""
    started = time.perf_counter()

    def wavy(x, y):
        return 0.25 * np.sin(2.0 * x + 0.4) * np.cos(1.3 * y)

    nx, ny = 5, 4
    net = netgen.structured(nx, ny, zfun=wavy)
    oracle = ReflectedBSplineSurface(
        net.positions.reshape(ny + 1, nx + 1, 3).transpose(1, 0, 2))
    rng = np.random.default_rng(100)
    for variant in ("c0", "g1p", "g1r"):
        surf = build_variant(net, variant)
        for f in range(net.cnet.n_faces):
            ci, cj = f % nx, f // nx
            for _ in range(3):
                xi, eta = rng.uniform(0, 1, 2)
                x = map_point(surf, f, xi, eta)
                np.testing.assert_allclose(x, oracle.eval(ci, cj, xi, eta),
                                           atol=1e-10)

    flat = netgen.structured(6, 6)
    u_oracle = StructuredPoissonOracle(6, 6).solve(default_source)
    for variant in ("c0", "g1p", "g1r"):
        surf = build_variant(flat, variant)
        u = solve_poisson(assemble_poisson(surf))
        np.testing.assert_allclose(u, u_oracle, atol=1e-10)

    report = convergence_study(netgen.structured(4, 4), "c0", levels=4)
    assert abs(report.orders["l2"][-1] - 4.0) < 0.2
    assert abs(report.orders["h1"][-1] - 3.0) < 0.2
    _report("criterion 1 (B-spline reduction, orders 4/3)", started, 60)


def test_criterion_2_continuity_suite():
    """Tangent-plane, interface and watertightness residuals on >= 5 nets."""
    started = time.perf_counter()
    nets = continuity_nets()
    assert len(nets) >= 5
    valences = set()
    for net in nets.values():
        classes = classify_vertices(net.cnet)
        for v in extraordinary_vertices(net.cnet):
            valences.add((classes[v].is_boundary, classes[v].valence))
    assert {(False, 3), (False, 5), (False, 6), (True, 3)} <= valences
    max_eps_per_face = 0
    for net in nets.values():
        eps = set(extraordinary_vertices(net.cnet))
        for quad in net.cnet.faces:
            max_eps_per_face = max(max_eps_per_face,
                                   sum(int(v) in eps for v in quad))
    assert max_eps_per_face == 4

    for name, net in nets.items():
        cnet = net.cnet
        labels = classify_elements(cnet)
        spokes = spoke_edges(cnet)
        c0 = build_c0(net)
        for variant in ("g1p", "g1r"):
            surf = build_g1(c0, variant)
            for e in range(cnet.n_edges):
                if cnet.boundary_edge[e]:
                    continue
                assert edge_watertightness(surf, e) < 1e-9, (name, variant, e)
                if e in spokes:
                    assert g1_residual(surf, e) < 1e-8, (name, variant, e)
                else:
                    f, g = cnet.edge_faces[e]
                    kinds = {labels[f], labels[g]}
                    if kinds == {ElementClass.IRREGULAR,
                                 ElementClass.TRANSITION}:
                        res = geometry_continuity_residual(surf, e, 1)
                        assert res < 1e-9, (name, variant, e, res)
    _report("criterion 2 (continuity suite on 7 nets)", started, 120)


def test_criterion_3_partition_of_unity():
    """Polynomial partition of unity (g1p) and rational recovery (g1r)."""
    started = time.perf_counter()
    for name, net in continuity_nets().items():
        c0 = build_c0(net)
        g1p = build_g1(c0, "g1p")
        for ext in g1p.extractions:
            defect = np.abs(ext.coeffs.sum(axis=0) - 1.0).max()
            assert defect < 1e-10, (name, ext.element, defect)
        g1r = build_g1(c0, "g1r")
        rng = np.random.default_rng(101)
        for ext in g1r.extractions:
            if not ext.rational:
                continue
            w = ext.weight_coeffs()
            # Bernstein coefficients bound the polynomial: positive weights
            # guarantee a positive denominator at every quadrature point
            assert w.min() > 0.0, (name, ext.element)
            from gspline.extraction import evaluate_basis

            for _ in range(4):
                xi, eta = rng.uniform(0, 1, 2)
                vals, _, _ = evaluate_basis(ext, xi, eta)
                assert abs(vals.sum() - 1.0) < 1e-12
    _report("criterion 3 (partition of unity)", started, 120)


def test_criterion_4_linear_independence():
    """Collocation matrices keep full numerical column rank."""
    started = time.perf_counter()
    for name, net in continuity_nets().items():
        c0 = build_c0(net)
        for variant in ("c0", "g1p", "g1r"):
            surf = c0 if variant == "c0" else build_g1(c0, variant)
            sv = collocation_singular_values(surf)
            ratio = float(sv.min() / sv.max())
            assert ratio > 1e-8, (name, variant, ratio)
    _report("criterion 4 (numerical linear independence)", started, 120)


def test_criterion_5_convergence_pattern():
    """Interior-EP unit square: errors fall, g1p/g1r agree, g1p beats c0."""
    started = time.perf_counter()
    net0 = netgen.rot44()
    reports = {v: convergence_study(net0, v, levels=4)
               for v in ("c0", "g1p", "g1r")}
    for variant, rep in reports.items():
        for key in ("l2", "linf", "h1"):
            errs = [lv[key] for lv in rep.levels]
            assert all(a > b for a, b in zip(errs, errs[1:])), (variant, key)
    for lv_p, lv_r in zip(reports["g1p"].levels, reports["g1r"].levels):
        for key in ("l2", "linf", "h1"):
            rel = abs(lv_p[key] - lv_r[key]) / lv_r[key]
            assert rel <= 0.05, (key, lv_p["level"], rel)
    for lv_p, lv_c in zip(reports["g1p"].levels, reports["c0"].levels):
        assert lv_p["l2"] <= lv_c["l2"], lv_p["level"]
    _report("criterion 5 (convergence pattern over 4 levels)", started, 600)


def test_criterion_6_quality_metric():
    """Flat plates never fail; curved analytics, invariances, pattern."""
    started = time.perf_counter()
    flat = build_c0(netgen.structured(3, 3))
    assert math.isinf(min_invalid_thickness(flat, t_hi=100.0).thickness)

    R = 2.0
    cyl = build_c0(netgen.cylinder(n_theta=32, n_z=3, radius=R, height=2.0))
    t_cyl = min_invalid_thickness(cyl, t_lo=0.01, t_hi=20.0).thickness
    assert abs(t_cyl - R) / R < 0.05

    net = netgen.bumped(netgen.val33(), amplitude=0.4, sigma=0.5)
    rng = np.random.default_rng(102)
    A, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(A) < 0:
        A[:, 0] = -A[:, 0]
    moved = ControlNet(net.cnet, net.positions @ A.T + rng.normal(size=3))
    t0 = min_invalid_thickness(build_c0(net)).thickness
    t_mv = min_invalid_thickness(build_c0(moved)).thickness
    assert abs(t_mv - t0) / t0 < 1e-9

    s = 3.7
    scaled = ControlNet(net.cnet, net.positions * s)
    t_sc = min_invalid_thickness(build_c0(scaled), t_lo=0.01 * s,
                                 t_hi=100.0 * s).thickness
    t_base = min_invalid_thickness(build_c0(net), t_lo=0.01, t_hi=100.0).thickness
    assert abs(t_sc - s * t_base) / (s * t_base) < 1e-6

    ep_net = refine(netgen.bumped(netgen.val33(), amplitude=0.4, sigma=0.5))
    classes = classify_vertices(ep_net.cnet)
    assert any(not classes[v].is_boundary and classes[v].valence == 3
               for v in extraordinary_vertices(ep_net.cnet))
    c0 = build_c0(ep_net)
    t_c0 = min_invalid_thickness(c0).thickness
    for variant in ("g1p", "g1r"):
        t_v = min_invalid_thickness(build_g1(c0, variant)).thickness
        assert abs(t_v - t_c0) / t_c0 < 0.10, (variant, t_v, t_c0)
    _report("criterion 6 (shell quality metric)", started, 120)


def test_criterion_7_refinement():
    """EP invariance, B-spline masks, surface invariance, affinity."""
    started = time.perf_counter()
    net = netgen.rot44()
    _, stats = refine_n(net, 3)
    assert all(s["n_extraordinary"] == 4 for s in stats)

    w_own, w_edge, w_diag = _interior_vertex_mask(4)
    assert abs(w_own - 9 / 16) < 1e-13
    assert abs(w_edge - 3 / 32) < 1e-13
    assert abs(w_diag - 1 / 64) < 1e-13
    grid = netgen.structured(4, 4, lx=4.0, ly=4.0)
    refined = refine(grid)
    center = 2 * 5 + 2
    np.testing.assert_allclose(refined.positions[center],
                               grid.positions[center], atol=1e-13)

    wavy = netgen.structured(3, 3, zfun=lambda x, y: 0.3 * np.sin(2 * x) + 0.2 * y * y)
    assert surface_distance(build_c0(wavy), build_c0(refine(wavy))) < 1e-10

    rng = np.random.default_rng(103)
    A = rng.normal(size=(3, 3))
    b = rng.normal(size=3)
    net = netgen.bumped(netgen.val333(), amplitude=0.3, center=(0.4, 0.5))
    mapped = ControlNet(net.cnet, net.positions @ A.T + b)
    np.testing.assert_allclose(refine(mapped).positions,
                               refine(net).positions @ A.T + b, atol=1e-12)
    _report("criterion 7 (refinement rules)", started, 60)


def test_criterion_8_membrane_eigenvalues():
    """First six eigenvalues approach the analytic Dirichlet spectrum."""
    started = time.perf_counter()
    exact = unit_square_laplace_eigenvalues(6)

    configs = [("structured", netgen.structured(4, 4), "c0"),
               ("ep", netgen.rot44(), "g1p")]
    for name, net0, variant in configs:
        net, _ = refine_n(net0, 3)
        surf = build_variant(net, variant)
        system = assemble_membrane_eigen(surf, "consistent")
        report = solve_generalized_eigen(system, k=6)
        for lam, ex in zip(report.eigenvalues, exact):
            rel = abs(lam - ex) / ex
            assert rel < 0.005, (name, lam, ex, rel)

    # lumped mass converges to the same limits: row-sum lumping of the
    # high-order basis is slow for the upper modes, so the check asserts
    # per-mode monotone convergence plus a tight bound on the fundamental
    for name, net0, variant in configs:
        per_level = []
        for levels in (1, 2, 3):
            net, _ = refine_n(net0, levels)
            surf = build_variant(net, variant)
            system = assemble_membrane_eigen(surf, "lumped")
            report = solve_generalized_eigen(system, k=6)
            per_level.append([abs(l - e) / e
                              for l, e in zip(report.eigenvalues, exact)])
        for mode in range(6):
            seq = [per_level[i][mode] for i in range(3)]
            assert seq[2] < seq[1] < seq[0], (name, mode, seq)
        assert per_level[-1][0] < 0.01, (name, per_level[-1])
    _report("criterion 8 (membrane eigenvalues)", started, 300)


def test_criterion_9_constrained_ls():
    """Solver agrees with the dense KKT oracle; redundancy is harmless."""
    started = time.perf_counter()
    rng = np.random.default_rng(104)
    for trial in range(100):
        n = int(rng.integers(5, 31))
        m = int(rng.integers(1, max(2, n // 2)))
        F = rng.normal(size=(n + 8, n))
        f = rng.normal(size=n + 8)
        G = rng.normal(size=(m, n))
        g = G @ rng.normal(size=n)
        mine = solve_constrained_ls(
            ConstraintSystem(G=G, g=g, F=F, f=f, tags=[("edge", 0)] * m))
        oracle = kkt_solve(F, f, G, g)
        assert np.abs(mine - oracle).max() < 1e-9, trial

        dup_rows = rng.integers(0, m, size=3)
        G2 = np.vstack([G, G[dup_rows]])
        g2 = np.concatenate([g, g[dup_rows]])
        dup = solve_constrained_ls(
            ConstraintSystem(G=G2, g=g2, F=F, f=f,
                             tags=[("edge", 0)] * (m + 3)))
        assert np.abs(dup - mine).max() < 1e-10, trial
    _report("criterion 9 (constrained least squares)", started, 60)
