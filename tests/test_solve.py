import dataclasses
import functools
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gspline import quality, solve
from gspline.construct_c0 import build_c0
from gspline.construct_g1 import build_g1
from gspline.errors import (
    DegenerateBasisError,
    DomainError,
    EigensolverError,
    LumpingError,
    SingularParameterizationError,
    SingularSystemError,
    TopologyError,
)
from gspline.solve import (
    GalerkinSystem,
    assemble_membrane_eigen,
    assemble_poisson,
    boundary_functions,
    compute_errors,
    convergence_study,
    default_source,
    exact_gradient,
    exact_solution,
    element_tables,
    mean_element_size,
    solve_generalized_eigen,
    solve_poisson,
    unit_square_laplace_eigenvalues,
)
from gspline.refine import refine_n

import element_loop
import extraction_list
import geometry_einsum
import netgen
from oracles import StructuredPoissonOracle


def structured_surface(nx, ny, variant="c0"):
    net = netgen.structured(nx, ny)
    c0 = build_c0(net)
    return c0 if variant == "c0" else build_g1(c0, variant)


class TestAssembly:
    def test_zero_source_zero_solution(self):
        surf = structured_surface(4, 4)
        system = assemble_poisson(surf, source=lambda x, y: 0.0 * x)
        u = solve_poisson(system)
        assert np.abs(u).max() < 1e-14

    def test_stiffness_symmetric(self):
        surf = structured_surface(3, 4)
        system = assemble_poisson(surf, with_mass=True)
        K, M = system.K.toarray(), system.M.toarray()
        assert np.abs(K - K.T).max() < 1e-12 * np.abs(K).max()
        assert np.abs(M - M.T).max() < 1e-12 * np.abs(M).max()

    @pytest.mark.parametrize("variant", ["c0", "g1p", "g1r"])
    def test_row_sums_vanish_pre_elimination(self, variant):
        net = netgen.rot44()
        surf = build_c0(net) if variant == "c0" else build_g1(build_c0(net), variant)
        system = assemble_poisson(surf)
        ones = np.ones(system.n)
        # grad of the constant function vanishes under partition of unity
        assert np.abs(system.K.dot(ones)).max() < 1e-9

    def test_boundary_detection_matches_boundary_vertices(self):
        net = netgen.rot44()
        for variant in ("c0", "g1p", "g1r"):
            surf = build_c0(net) if variant == "c0" else build_g1(build_c0(net), variant)
            detected = boundary_functions(surf)
            expected = {v for v in range(net.cnet.n_vertices)
                        if net.cnet.boundary_vertex[v]}
            assert detected == expected

    def test_interior_function_traces_vanish(self):
        net = netgen.rot44()
        surf = build_g1(build_c0(net), "g1r")
        bdry = boundary_functions(surf)
        cnet = net.cnet
        for e in np.flatnonzero(cnet.boundary_edge)[:4]:
            f = cnet.edge_faces[int(e)][0]
            s = list(cnet.face_edges[f]).index(int(e))
            ts = np.linspace(0, 1, 7)
            for t in ts:
                xi, eta = {0: (t, 0.0), 1: (1.0, t), 2: (t, 1.0), 3: (0.0, t)}[s]
                ids, N, _ = element_tables(surf, f, np.array([[xi, eta]]))
                for a, val in zip(ids, N[:, 0]):
                    if int(a) not in bdry:
                        assert abs(val) < 1e-12

    def test_closed_net_has_no_boundary(self):
        surf = build_c0(netgen.cube())
        with pytest.raises(TopologyError):
            boundary_functions(surf)


class TestOracleEquivalence:
    def test_structured_solution_matches_tensor_oracle(self):
        nx = ny = 6
        surf = structured_surface(nx, ny)
        system = assemble_poisson(surf)
        u = solve_poisson(system)
        oracle = StructuredPoissonOracle(nx, ny)
        u_oracle = oracle.solve(default_source)
        np.testing.assert_allclose(u, u_oracle, atol=1e-12)
        e_mine = compute_errors(surf, u)["l2"]
        e_oracle = oracle.l2_error(u_oracle, exact_solution)
        assert abs(e_mine - e_oracle) < 1e-12

    @pytest.mark.parametrize("variant", ["g1p", "g1r"])
    def test_g1_constructions_reduce_to_bspline(self, variant):
        nx = ny = 5
        surf = structured_surface(nx, ny, variant)
        u = solve_poisson(assemble_poisson(surf))
        u_oracle = StructuredPoissonOracle(nx, ny).solve(default_source)
        np.testing.assert_allclose(u, u_oracle, atol=1e-10)


class TestPatchTest:
    @pytest.mark.parametrize("variant", ["c0", "g1p", "g1r"])
    def test_linear_reproduction_on_ep_mesh(self, variant):
        net = netgen.rot44()
        surf = build_c0(net) if variant == "c0" else build_g1(build_c0(net), variant)
        system = assemble_poisson(surf, source=lambda x, y: 0.0 * x)
        lift = {a: float(net.positions[a, 0]) for a in system.boundary}
        u = solve_poisson(system, dirichlet=lift)
        np.testing.assert_allclose(u, net.positions[:, 0], atol=1e-10)
        errs = compute_errors(surf, u, exact=lambda x, y: x,
                              exact_grad=lambda x, y: (np.ones_like(x),
                                                       np.zeros_like(y)))
        assert errs["l2"] < 1e-9 and errs["h1"] < 1e-8

    def test_galerkin_orthogonality(self):
        surf = structured_surface(5, 5)
        system = assemble_poisson(surf)
        u = solve_poisson(system)
        # the weak-form residual K u - load on the active basis functions
        r = system.K @ u - system.load
        assert np.abs(r[system.active]).max(initial=0.0) < 1e-10


class TestErrors:
    def test_zero_solution_unit_relative_error(self):
        surf = structured_surface(4, 4)
        errs = compute_errors(surf, np.zeros(surf.cnet.n_vertices))
        assert abs(errs["l2"] - 1.0) < 1e-13
        assert abs(errs["linf"] - 1.0) < 1e-13

    def test_exactly_representable_solution(self):
        net = netgen.rot44()
        surf = build_g1(build_c0(net), "g1p")
        errs = compute_errors(surf, net.positions[:, 0].copy(),
                              exact=lambda x, y: x,
                              exact_grad=lambda x, y: (np.ones_like(x),
                                                       np.zeros_like(y)))
        assert errs["l2"] < 1e-13 and errs["linf"] < 1e-12

    def test_quadrature_l2_matches_dense_sampling(self):
        surf = structured_surface(4, 4)
        rng = np.random.default_rng(40)
        coeffs = rng.normal(size=surf.cnet.n_vertices)
        errs = compute_errors(surf, coeffs)
        # high-resolution midpoint sampling of the same integrand
        num = den = 0.0
        m = 40
        for e in range(surf.cnet.n_faces):
            pts = np.array([((i + 0.5) / m, (j + 0.5) / m)
                            for j in range(m) for i in range(m)])
            ids, N, _ = element_tables(surf, e, pts)
            x = np.einsum("nm,nd->md", N, surf.net.positions[ids][:, :2])
            uh = coeffs[np.asarray(ids, dtype=int)] @ N
            ue = exact_solution(x[:, 0], x[:, 1])
            area = 1.0 / (m * m) / surf.cnet.n_faces
            num += float(np.sum((uh - ue) ** 2)) * area
            den += float(np.sum(ue**2)) * area
        dense = np.sqrt(num / den)
        assert abs(errs["l2"] - dense) < 1e-4 * max(dense, 1.0)


class TestConvergence:
    def test_structured_orders(self):
        net0 = netgen.structured(4, 4)
        report = convergence_study(net0, "c0", levels=4)
        l2 = report.orders["l2"][-1]
        h1 = report.orders["h1"][-1]
        assert abs(l2 - 4.0) < 0.2
        assert abs(h1 - 3.0) < 0.2
        n_els = [lv["n_el"] for lv in report.levels]
        assert n_els == sorted(n_els) and len(set(n_els)) == len(n_els)

    def test_ep_net_errors_decrease_and_variants_agree(self):
        net0 = netgen.rot44()
        reports = {v: convergence_study(net0, v, levels=3)
                   for v in ("c0", "g1p", "g1r")}
        for rep in reports.values():
            for key in ("l2", "linf", "h1"):
                errs = [lv[key] for lv in rep.levels]
                assert all(a > b for a, b in zip(errs, errs[1:]))
        for lv_p, lv_r in zip(reports["g1p"].levels, reports["g1r"].levels):
            for key in ("l2", "linf", "h1"):
                assert abs(lv_p[key] - lv_r[key]) / lv_r[key] <= 0.05
        for lv_p, lv_c in zip(reports["g1p"].levels, reports["c0"].levels):
            assert lv_p["l2"] <= lv_c["l2"]

    def test_level_without_active_dof(self):
        """One quad: every function of level 0 is on the boundary, so that
        level has nothing to factor and the study goes on."""
        levels = convergence_study(netgen.structured(1, 1), "g1r", 3).levels
        assert levels[0]["n_dof"] == 0
        assert levels[2]["l2"] < levels[1]["l2"]

    def test_report_serialization(self):
        report = convergence_study(netgen.structured(3, 3), "c0", levels=2)
        assert "orders" in report.to_json()
        assert report.to_csv().startswith("level,")
        assert report.to_dat().startswith("# h")

    def test_mean_element_size_halves(self):
        net = netgen.structured(3, 3)
        s0 = mean_element_size(build_c0(net))
        net1, _ = refine_n(net, 1)
        s1 = mean_element_size(build_c0(net1))
        assert abs(s1 - 0.5 * s0) < 1e-10


class TestEigen:
    def test_structured_smallest_eigenvalue(self):
        net, _ = refine_n(netgen.structured(4, 4), 2)
        system = assemble_membrane_eigen(build_c0(net), "consistent")
        report = solve_generalized_eigen(system, k=6)
        exact = unit_square_laplace_eigenvalues(6)
        rel = abs(report.eigenvalues[0] - exact[0]) / exact[0]
        assert rel < 1e-3
        for lam, ex in zip(report.eigenvalues, exact):
            assert abs(lam - ex) / ex < 5e-3

    def test_lumped_mass_converges(self):
        errs = []
        for levels in (1, 2):
            net, _ = refine_n(netgen.structured(4, 4), levels)
            system = assemble_membrane_eigen(build_c0(net), "lumped")
            report = solve_generalized_eigen(system, k=3)
            exact = unit_square_laplace_eigenvalues(3)
            errs.append(max(abs(l - e) / e
                            for l, e in zip(report.eigenvalues, exact)))
        assert errs[1] < errs[0]

    def test_ep_net_eigenvalues(self):
        net, _ = refine_n(netgen.rot44(), 2)
        surf = build_g1(build_c0(net), "g1p")
        system = assemble_membrane_eigen(surf, "consistent")
        report = solve_generalized_eigen(system, k=6)
        exact = unit_square_laplace_eigenvalues(6)
        for lam, ex in zip(report.eigenvalues, exact):
            assert abs(lam - ex) / ex < 2e-2

    def test_eigen_report_serialization(self):
        net, _ = refine_n(netgen.structured(3, 3), 1)
        system = assemble_membrane_eigen(build_c0(net), "consistent")
        report = solve_generalized_eigen(system, k=2)
        assert "eigenvalues" in report.to_json()
        assert report.to_csv().startswith("mode,")

    def test_negative_lumped_row_is_a_lumping_error(self):
        surface = extraction_list.lumping_breaker()
        assert assemble_membrane_eigen(surface, "consistent").M.nnz
        with pytest.raises(LumpingError, match="nonpositive mass entry"):
            assemble_membrane_eigen(surface, "lumped")

    @pytest.mark.parametrize("variant", ["g1p", "g1r"])
    def test_membrane_assembly_has_no_load(self, variant, monkeypatch):
        """K and M bitwise those of the Poisson assembly with the mass; the
        load is zero, and neither the source nor the mapped points are
        evaluated."""
        surf = rot44_case(2, variant)
        ref = assemble_poisson(surf, with_mass=True)
        assert ref.load.any()

        def source(x, y):
            raise AssertionError("the eigen assembly evaluated a source")

        monkeypatch.setattr(assemble_poisson, "__defaults__", (source, False))
        monkeypatch.setattr(solve, "_group_geometry", None)
        system = assemble_membrane_eigen(surf, "consistent")
        assert not system.load.any() and system.load.shape == ref.load.shape
        for ours, theirs in ((system.K, ref.K), (system.M, ref.M)):
            assert same_bits(ours.indptr, theirs.indptr)
            assert same_bits(ours.indices, theirs.indices)
            assert same_bits(ours.data, theirs.data)

    def test_unknown_mass_kind_is_a_domain_error(self):
        with pytest.raises(DomainError, match="unknown mass kind 'diagonal'"):
            assemble_membrane_eigen(build_c0(netgen.structured(2, 2)), "diagonal")

    def test_system_without_mass_is_a_domain_error(self):
        system = assemble_poisson(build_c0(netgen.structured(2, 2)))
        assert system.M is None
        with pytest.raises(DomainError, match="without a mass matrix"):
            solve_generalized_eigen(system, k=1)


# -- grouped evaluation against the per-element loop of element_loop.py ----

GROUPED_CASES = [("rot44", "c0"), ("rot44", "g1p"), ("rot44", "g1r"),
                 ("val333", "g1r")]


@functools.cache
def grouped_case(net, variant):
    c0 = build_c0(getattr(netgen, net)())
    return c0 if variant == "c0" else build_g1(c0, variant)


def rel(a, b):
    a, b = (x.toarray() if sp.issparse(x) else np.asarray(x) for x in (a, b))
    return np.abs(a - b).max() / np.abs(b).max()


@functools.cache
def rot44_case(level, variant):
    net, _ = refine_n(netgen.rot44(), level)
    return build_g1(build_c0(net), variant)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestGroupedEvaluation:
    def test_cases_mix_classes_and_pad_supports(self):
        classes, supports, padded = set(), set(), set()
        for case in GROUPED_CASES:
            for g in grouped_case(*case).groups:
                classes.add((g.degree, g.rational))
                sizes = g.mask.sum(axis=1)
                supports.update(sizes.tolist())
                padded.update(sizes[sizes < g.mask.shape[1]].tolist())
                assert (g.basis[~g.mask] == 0).all() and (g.coeffs[~g.mask] == 0).all()
                assert (np.diff(g.elements) > 0).all()
        assert {(3, False), (5, False), (5, True)} <= classes
        assert {9, 12, 14, 16, 18} <= supports and {9, 12, 14, 16} <= padded

    @pytest.mark.parametrize("net, variant", GROUPED_CASES)
    def test_group_rows_are_the_extractions(self, net, variant):
        surf = grouped_case(net, variant)
        group_of, row_of = surf.group_slots
        for ext in surf.extractions:
            g, r = surf.groups[group_of[ext.element]], row_of[ext.element]
            n = ext.n_basis
            assert (g.degree, g.rational) == (ext.degree, ext.rational)
            assert g.mask[r].sum() == n and g.mask[r, :n].all()
            assert same_bits(g.basis[r, :n], ext.basis)
            assert same_bits(g.coeffs[r, :n], ext.coeffs)

    @pytest.mark.parametrize("net, variant", GROUPED_CASES)
    def test_assembly_matches_element_loop(self, net, variant):
        surf = grouped_case(net, variant)
        system = assemble_poisson(surf, with_mass=True)
        K, M, load = element_loop.assemble(surf)
        assert rel(system.K, K) <= 1e-14
        assert rel(system.M, M) <= 1e-14
        assert rel(system.load, load) <= 1e-14
        assert system.K.nnz == K.nnz

    @pytest.mark.parametrize("net, variant", GROUPED_CASES)
    def test_errors_and_size_match_element_loop(self, net, variant):
        surf = grouped_case(net, variant)
        u = solve_poisson(assemble_poisson(surf))
        errs, ref = compute_errors(surf, u), element_loop.errors(surf, u)
        for key in ("l2", "h1"):
            assert abs(errs[key] - ref[key]) <= 1e-12 * ref[key]
        assert abs(errs["linf"] - ref["linf"]) <= 1e-15
        size = mean_element_size(surf)
        assert abs(size - element_loop.mean_element_size(surf)) <= 1e-14 * size

    @pytest.mark.parametrize("variant", ["g1p", "g1r"])
    def test_eigenvalues_match_element_loop(self, variant):
        net, _ = refine_n(netgen.rot44(), 1)
        surf = build_g1(build_c0(net), variant)
        system = assemble_membrane_eigen(surf)
        lams = solve_generalized_eigen(system).eigenvalues
        K, M, _ = element_loop.assemble(surf)
        ref = solve_generalized_eigen(dataclasses.replace(system, K=K, M=M)).eigenvalues
        np.testing.assert_allclose(lams, ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("net, variant", GROUPED_CASES)
    def test_boundary_functions_match_extraction_rows(self, net, variant):
        surf = grouped_case(net, variant)
        expected = set()
        for ext in surf.extractions:
            p = ext.degree
            for s, edge in enumerate(surf.cnet.face_edges[ext.element]):
                if surf.cnet.boundary_edge[edge]:
                    cols = [[i, i * (p + 1) + p, p * (p + 1) + i, i * (p + 1)][s]
                            for i in range(p + 1)]
                    rows = np.abs(ext.coeffs[:, cols]).max(axis=1) > 1e-12
                    expected.update(ext.basis[rows].tolist())
        assert boundary_functions(surf) == expected


class TestGeometryAgainstEinsum:
    """``_group_geometry`` against the frozen einsum version."""

    @pytest.mark.parametrize("case", [*GROUPED_CASES, "rot44 L2 g1r"])
    def test_group_tables_bitwise_equal(self, case):
        surf = rot44_case(2, "g1r") if case == "rot44 L2 g1r" else grouped_case(*case)
        for g in surf.groups:
            pts = quality.gauss_legendre_2d(g.degree + 1).points
            ours = solve._group_geometry(surf, g, pts)
            ref = geometry_einsum.group_geometry(surf, g, pts)
            for name, a, b in zip(("N", "gp", "x", "|det J|"), ours, ref):
                assert same_bits(a, b), (case, g.degree, g.rational, name)

    def test_convergence_report_unchanged(self, monkeypatch):
        ours = convergence_study(netgen.rot44(), "g1r", 3).to_json()
        monkeypatch.setattr(solve, "_group_geometry", geometry_einsum.group_geometry)
        assert convergence_study(netgen.rot44(), "g1r", 3).to_json() == ours

    @pytest.mark.parametrize("case", [*GROUPED_CASES, "rot44 L2 g1r"])
    def test_errors_and_size_bitwise_equal(self, case):
        surf = rot44_case(2, "g1r") if case == "rot44 L2 g1r" else grouped_case(*case)
        u = solve_poisson(assemble_poisson(surf))
        assert compute_errors(surf, u) == geometry_einsum.compute_errors(surf, u)
        assert mean_element_size(surf) == geometry_einsum.mean_element_size(surf)


def einsum_tables(rng, E, n, m, *tail):
    """A random (E, n, m, *tail) table and (E, n, 3) points, of magnitudes
    1e-8 to 1e8 so that the order of the sum shows, with a zero-padded last
    slot in every other element and -0.0 entries in both."""
    T = rng.standard_normal((E, n, m, *tail)) * 10.0 ** rng.integers(-8, 9, (E, n, m, *tail))
    P = rng.standard_normal((E, n, 3)) * 10.0 ** rng.integers(-8, 9, (E, n, 3))
    T[::2, -1] = 0.0
    P[::2, -1] = 0.0
    T[rng.random(T.shape) < 0.1] = -0.0
    P[rng.random(P.shape) < 0.1] = -0.0
    return T, P


class TestBasisSum:
    """``solve._basis_sum`` is bitwise the einsum without ``optimize``."""

    @pytest.mark.parametrize("E", [1, 2, 37])
    @pytest.mark.parametrize("n", [1, 16, 36])
    def test_values_and_points(self, E, n):
        rng = np.random.default_rng(100 * E + n)
        T, P = einsum_tables(rng, E, n, 25)
        for d in (2, 3):
            assert same_bits(solve._basis_sum(T, P[..., :d]),
                             np.einsum("enm,end->emd", T, P[..., :d]))

    @pytest.mark.parametrize("E", [1, 2, 37])
    @pytest.mark.parametrize("n", [1, 16, 36])
    def test_jacobians(self, E, n):
        rng = np.random.default_rng(100 * E + n + 1)
        T, P = einsum_tables(rng, E, n, 25, 2)
        assert same_bits(solve._basis_sum(T, P[..., :2]),
                         np.einsum("enma,end->emda", T, P[..., :2]))

    def test_sums_from_positive_zero(self):
        T, P = np.full((3, 4, 5), -0.0), np.ones((3, 4, 2))
        out = solve._basis_sum(T, P)
        assert out.shape == (3, 5, 2) and not np.signbit(out).any()


def eigsh_default(system, k=6):
    """Eigenvalues from ``eigsh`` factoring K itself (SuperLU's default
    COLAMD order and partial pivoting), as the solver first called it."""
    act = system.active
    K = system.K[act][:, act].tocsc()
    M = system.M[act][:, act].tocsc()
    lams, _ = spla.eigsh(K, k=k, M=M, sigma=0.0, which="LM", v0=np.ones(K.shape[0]))
    return np.sort(lams)


class TestEigenFactor:
    @pytest.mark.parametrize("mass", ["consistent", "lumped"])
    @pytest.mark.parametrize("variant", ["g1p", "g1r"])
    @pytest.mark.parametrize("level", [1, 2])
    def test_matches_default_eigsh(self, level, variant, mass):
        system = assemble_membrane_eigen(rot44_case(level, variant), mass)
        report = solve_generalized_eigen(system)
        ref = eigsh_default(system)
        np.testing.assert_allclose(report.eigenvalues, ref, rtol=1e-13, atol=0.0)
        assert max(report.residuals) < 1e-8

    def test_singular_stiffness_is_an_eigensolver_error(self):
        n = 8
        K = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                     [-1, 0, 1], format="lil")
        K[3, :] = 0.0  # an active dof with no stiffness at all
        K[:, 3] = 0.0
        system = GalerkinSystem(surface=None, K=K.tocsr(), load=np.zeros(n),
                                boundary={0, n - 1}, M=sp.identity(n, format="csr"),
                                mass_kind="consistent")
        with pytest.raises(EigensolverError, match="shift-invert"):
            solve_generalized_eigen(system, k=2)


def without_stiffness(system, a):
    """``system`` with row and column ``a`` of K zeroed: K singular."""
    K = system.K.tolil()
    K[a, :] = 0.0
    K[:, a] = 0.0
    return dataclasses.replace(system, K=K.tocsr())


class TestPoissonSolve:
    def test_singular_active_stiffness_is_a_typed_error(self):
        system = assemble_poisson(rot44_case(1, "g1r"))
        singular = without_stiffness(system, system.active[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no MatrixRankWarning escapes
            with pytest.raises(SingularSystemError, match="singular"):
                solve_poisson(singular)
            assert np.isfinite(solve_poisson(system)).all()

    def test_matches_a_general_solver(self):
        system = assemble_poisson(rot44_case(3, "g1r"))
        act = system.active
        u = solve_poisson(system)
        ref = spla.spsolve(system.K[act][:, act].tocsc(), system.load[act])
        assert np.abs(u[act] - ref).max() <= 1e-13 * np.abs(u).max()
        assert not u[sorted(system.boundary)].any()

    def test_active_ids_are_computed_once(self):
        system = assemble_poisson(rot44_case(1, "g1r"))
        want = np.array(sorted(set(range(system.n)) - system.boundary), dtype=int)
        assert system.active is system.active
        assert same_bits(system.active, want)


def with_bad_elements(surface, singular=(), degenerate=()):
    """A copy whose ``singular`` elements have all-zero extraction rows (a
    zero Jacobian, a zero denominator if rational) and whose ``degenerate``
    (rational) elements have negative denominators."""
    exts = list(surface.extractions)
    for e in singular:
        exts[e] = dataclasses.replace(exts[e], coeffs=0.0 * exts[e].coeffs)
    for e in degenerate:
        exts[e] = dataclasses.replace(exts[e], coeffs=-exts[e].coeffs)
    return extraction_list.surface(surface.net, exts, surface.variant)


def raised(fn, *args):
    with pytest.raises((DegenerateBasisError, SingularParameterizationError)) as info:
        fn(*args)
    return type(info.value), info.value.element


class TestGroupedErrorOrder:
    @pytest.mark.parametrize("singular_first", [True, False])
    def test_lowest_failing_element_across_groups(self, singular_first):
        surf = grouped_case("rot44", "g1r")
        cubic = [e for e, x in enumerate(surf.extractions) if not x.rational]
        rational = [e for e, x in enumerate(surf.extractions) if x.rational]
        if singular_first:
            s = min(cubic)
            d = min(e for e in rational if e > s)
        else:
            d = min(rational)
            s = min(e for e in cubic if e > d)
        bad = with_bad_elements(surf, singular=[s], degenerate=[d])
        first = (SingularParameterizationError, s) if singular_first else (
            DegenerateBasisError, d)
        u = np.zeros(surf.cnet.n_vertices)
        assert raised(assemble_poisson, bad) == first
        assert raised(element_loop.assemble, bad) == first
        assert raised(compute_errors, bad, u) == first
        assert raised(element_loop.errors, bad, u) == first
        assert raised(quality._quadrature_frames, bad) == first
        assert raised(element_loop.quadrature_frames, bad) == first
        # the corner map checks denominators only
        assert raised(mean_element_size, bad) == (DegenerateBasisError, d)
        assert raised(element_loop.mean_element_size, bad) == (DegenerateBasisError, d)

    def test_denominator_before_jacobian_within_one_element(self):
        surf = grouped_case("rot44", "g1r")
        e = min(e for e, x in enumerate(surf.extractions) if x.rational)
        bad = with_bad_elements(surf, singular=[e], degenerate=[e])
        assert raised(assemble_poisson, bad) == (DegenerateBasisError, e)
        assert raised(element_loop.assemble, bad) == (DegenerateBasisError, e)
