"""The batched invariant check against the per-edge loop of ``edge_loop``;
the gluing of ``edge_frames`` and ``glued_frames`` against the loop net's
directed sides, and the errors of the one-edge functions; the bounded
collocation ratio: the Gram matrix on the pattern of K, the
dense fallback below its floor, ``ResourceError`` above the byte cap; and
the closed cube, whose G1 bases sum to one."""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest

from gspline import cli, evaluate
from gspline.archive import surface_from_json, surface_to_json
from gspline.cli import collocation_singular_values, main, surface_check
from gspline.construct_c0 import build_c0, geometry_continuity_residual
from gspline.construct_g1 import build_g1, g1_residual, g1_residuals
from gspline.errors import (
    DegenerateBasisError,
    DomainError,
    ResourceError,
    SingularParameterizationError,
)
from gspline.evaluate import (
    edge_frames,
    edge_jumps,
    edge_normal_angles,
    edge_residuals,
    edge_watertightness,
    glued_frames,
    normal_jump,
)
from gspline.extraction import ElementExtraction
from gspline.mesh import ControlNet, CNet, spoke_mask
from gspline.refine import refine, refine_n

import edge_loop
import extraction_list
import netgen
import topology_loop


def built(net, variant):
    c0 = build_c0(net)
    return c0 if variant == "c0" else build_g1(c0, variant)


def archived(net, levels, variant):
    """A surface as ``gspline check`` reads it: refined, built, archived."""
    surface = built(refine_n(net, levels)[0], variant)
    return surface_from_json(surface_to_json(surface))


@functools.cache
def case(name):
    """The surfaces of quality criterion 6 and three inspect-shell archives."""
    ep_net = netgen.bumped(netgen.val33(), amplitude=0.4, sigma=0.5)
    if name == "flat_c0":
        return build_c0(netgen.structured(3, 3))
    if name == "cylinder_c0":
        return build_c0(netgen.cylinder(n_theta=32, n_z=3, radius=2.0, height=2.0))
    if name.startswith("val33_reversed_"):
        # the vertex ids reversed, so the EP is the higher end of each spoke
        net = refine(ep_net)
        n = net.cnet.n_vertices
        reversed_ids = ControlNet(CNet(n, n - 1 - net.cnet.faces), net.positions[::-1])
        return built(reversed_ids, name.rsplit("_", 1)[1])
    if name.startswith("val33_refined_"):
        return built(refine(ep_net), name.rsplit("_", 1)[1])
    if name == "rot44_bumped_L2_g1p":
        return archived(netgen.bumped(netgen.rot44(), amplitude=0.6, sigma=0.3), 2, "g1p")
    if name == "cylinder_L1_c0":
        return archived(netgen.cylinder(), 1, "c0")
    if name == "val333_bumped_L1_g1r":
        return archived(netgen.bumped(netgen.val333()), 1, "g1r")
    raise KeyError(name)


@functools.cache
def loop_report(name):
    return edge_loop.surface_check(case(name))


CASES = ["flat_c0", "cylinder_c0", "val33_refined_c0", "val33_refined_g1p",
         "val33_refined_g1r", "val33_reversed_g1p", "val33_reversed_g1r",
         "rot44_bumped_L2_g1p", "cylinder_L1_c0", "val333_bumped_L1_g1r"]


def interior_spokes(cnet):
    return np.flatnonzero(spoke_mask(cnet) & ~cnet.boundary_edge)


class TestParityWithEdgeLoop:
    @pytest.mark.parametrize("name", CASES)
    def test_report_matches_the_loop(self, name):
        surface = case(name)
        got, want = surface_check(surface), dict(loop_report(name))
        assert set(got) == set(want)
        assert got["variant"] == want["variant"]
        assert got.get("construction") == want.get("construction")
        ratio = want.pop("collocation_sv_ratio")
        assert abs(got.pop("collocation_sv_ratio") - ratio) <= 1e-12 * ratio
        for key, value in want.items():
            if key not in ("variant", "construction"):
                assert np.abs(np.subtract(got[key], value)).max() <= 1e-14, key

    def test_cases_cover_every_kind_of_edge(self):
        kinds = set()
        for name in CASES:
            report = loop_report(name)
            kinds.update(k for k in ("g1_residual_spoke_edges",
                                     "c1_residual_irregular_transition",
                                     "c2_residual_smooth_edges",
                                     "rational_weight_range") if report.get(k))
        assert len(kinds) == 4
        # spoke edges with the EP at the lower vertex id and at the higher
        ends = set()
        for name in CASES:
            cnet = case(name).cnet
            lo, hi = cnet.extraordinary[cnet.edges[interior_spokes(cnet)]].T
            ends.update(np.where(lo, "lower", "higher")[lo != hi].tolist())
        assert ends == {"lower", "higher"}

    @pytest.mark.parametrize("name", CASES)
    def test_spoke_edges_match_the_loop_edge_by_edge(self, name):
        surface = case(name)
        spokes = interior_spokes(surface.cnet)
        faces, rots = glued_frames(surface.cnet, spokes)
        g1 = g1_residuals(surface, spokes)
        angle = edge_normal_angles(surface, faces, rots, samples=5)
        for j, e in enumerate(spokes.tolist()):
            assert abs(g1[j] - edge_loop.g1_residual(surface, e)) <= 1e-14
            assert abs(angle[j] - edge_loop.normal_jump(surface, e, samples=5)) <= 1e-14
            # the one-edge functions: the same kernel on a batch of one
            assert abs(g1[j] - g1_residual(surface, e)) <= 1e-14
            assert abs(angle[j] - normal_jump(surface, e, samples=5)) <= 1e-14

    def test_normal_angle_resolves_below_sqrt_eps(self):
        # arccos of the normals' dot product read 1.5e-8 here: sqrt(2 eps)
        surface = case("val33_refined_g1p")
        assert surface_check(surface)["normal_jump_spoke_edges"] < 1e-12
        for e in interior_spokes(surface.cnet).tolist():
            assert normal_jump(surface, e) < 1e-12

    def test_edge_sums_walk_the_batches_once(self, monkeypatch):
        surface = case("val333_bumped_L1_g1r")
        interior = np.flatnonzero(~surface.cnet.boundary_edge)
        faces, rots = glued_frames(surface.cnet, interior)
        calls = []
        select = evaluate.GSplineSurface.select

        def counted(self, *args, **kwargs):
            calls.append(args)
            return select(self, *args, **kwargs)

        monkeypatch.setattr(evaluate.GSplineSurface, "select", counted)
        edge_residuals(surface, faces, rots, np.full(len(interior), 1))
        assert len(calls) == 8  # one per (side, rotation)
        calls.clear()
        g1_residuals(surface, interior_spokes(surface.cnet))
        assert len(calls) == 8

    @pytest.mark.parametrize("name", CASES)
    def test_unsummed_edges_are_zero_and_the_rest_unchanged(self, name):
        # the batches run the same with or without an edge's sums, so every
        # summed edge keeps its value bit for bit
        surface = case(name)
        interior = np.flatnonzero(~surface.cnet.boundary_edge)
        faces, rots = glued_frames(surface.cnet, interior)
        orders = np.arange(len(interior)) % 3
        gap, jump = edge_residuals(surface, faces, rots, orders)
        off = np.zeros(len(interior), dtype=bool)
        off[::4] = off[-1] = True
        got_gap, got_jump = edge_residuals(surface, faces, rots, np.where(off, -1, orders))
        assert np.array_equal(got_gap, gap)
        assert (got_jump[off] == 0.0).all() and (jump[off] > 0.0).any()
        assert np.array_equal(got_jump[~off], jump[~off])

    @pytest.mark.parametrize("name", ["val33_refined_g1r", "val333_bumped_L1_g1r"])
    def test_one_edge_functions_are_the_batched_kernel(self, name):
        surface = case(name)
        cnet = surface.cnet
        interior = np.flatnonzero(~cnet.boundary_edge)
        faces, rots = glued_frames(cnet, interior)
        for order in (0, 1, 2):
            gap, jump = edge_residuals(surface, faces, rots,
                                       np.full(len(interior), order))
            for j, e in enumerate(interior.tolist()):
                fr = topology_loop.edge_frames(cnet, e)
                assert (faces[j].tolist(), rots[j].tolist()) == (
                    [fr.right, fr.left], [fr.rot_right, fr.rot_left])
                # the same kernel at other sample sets: equal up to rounding
                assert abs(gap[j] - edge_watertightness(surface, e)) <= 1e-14
                assert abs(gap[j] - edge_loop.edge_watertightness(surface, e)) <= 1e-14
                for reference in (geometry_continuity_residual, edge_loop.edge_jumps):
                    assert abs(jump[j] - reference(surface, e, order)) <= 1e-14

    def test_degenerate_rational_element_raises_as_the_loop(self):
        surface = case("val33_refined_g1r")
        exts = list(surface.extractions)
        e = min(i for i, x in enumerate(exts) if x.rational)
        exts[e] = dataclasses.replace(exts[e], coeffs=-exts[e].coeffs)
        bad = extraction_list.surface(surface.net, exts, "g1r")
        raised = []
        for check in (surface_check, edge_loop.surface_check):
            with pytest.raises(DegenerateBasisError) as info:
                check(bad)
            raised.append(info.value.element)
        assert raised == [e, e]

    @pytest.mark.parametrize("pick", [min, max])
    @pytest.mark.parametrize("name", ["val33_refined_g1p", "val33_refined_g1r"])
    def test_flat_element_at_a_spoke_edge_raises_as_the_loop(self, name, pick):
        surface = case(name)
        cnet = surface.cnet
        e = int(pick(cnet.edge_faces[interior_spokes(cnet)].ravel()))
        exts = list(surface.extractions)
        # each row its mean: a constant map, with partition of unity kept
        c = exts[e].coeffs
        exts[e] = dataclasses.replace(
            exts[e], coeffs=np.broadcast_to(c.mean(axis=1, keepdims=True), c.shape))
        bad = extraction_list.surface(surface.net, exts, surface.variant)
        raised = []
        for check in (surface_check, edge_loop.surface_check):
            with pytest.raises(SingularParameterizationError) as info:
                check(bad)
            raised.append(info.value.element)
        assert raised == [e, e]

    @pytest.mark.parametrize("pair", [(0, 1), (1, 4), (3, 5)])
    def test_lowest_of_two_degenerate_elements_is_named(self, pair):
        # the pairs (1, 4) and (3, 5) lie in edge batches that run the
        # higher element's batch first
        surface = case("val33_refined_g1r")
        exts = list(surface.extractions)
        rational = [i for i, x in enumerate(exts) if x.rational]
        lo, hi = (rational[i] for i in pair)
        for e in (lo, hi):
            exts[e] = dataclasses.replace(exts[e], coeffs=-exts[e].coeffs)
        bad = extraction_list.surface(surface.net, exts, "g1r")
        with pytest.raises(DegenerateBasisError) as info:
            surface_check(bad)
        assert info.value.element == lo
        with pytest.raises(DegenerateBasisError):
            edge_loop.surface_check(bad)


class TestEdgeFrames:
    """Every gluing is rows of ``CNet.sides``; the reference is the loop
    net's dict of directed sides."""

    @pytest.mark.parametrize("name", ["val33_reversed_g1p", "val333_bumped_L1_g1r",
                                      "cylinder_L1_c0"])
    def test_both_frame_origins_match_the_loop(self, name):
        cnet = case(name).cnet
        interior = np.flatnonzero(~cnet.boundary_edge)
        for ends in cnet.edges[interior].T:  # glued at the lower, then the higher
            faces, rots = glued_frames(cnet, interior, ends)
            for j, (e, v1) in enumerate(zip(interior.tolist(), ends.tolist())):
                fr = topology_loop.edge_frames(cnet, e, v1)
                assert edge_frames(cnet, e, v1) == fr
                assert (faces[j].tolist(), rots[j].tolist()) == (
                    [fr.right, fr.left], [fr.rot_right, fr.rot_left])

    def test_glued_frames_are_copies_of_the_cached_sides(self):
        cnet = netgen.val33().cnet
        before = [a.copy() for a in cnet.sides]
        for a in glued_frames(cnet, np.arange(cnet.n_edges), cnet.edges[:, 1]):
            a[:] = 7
        for a, b in zip(cnet.sides, before):
            np.testing.assert_array_equal(a, b)

    def test_a_vertex_off_the_edge_is_not_an_endpoint(self):
        surface = fan5_g1p()
        cnet = surface.cnet
        inner = int(np.flatnonzero(~cnet.boundary_edge)[0])
        outer = int(np.flatnonzero(cnet.boundary_edge)[0])
        for e in (inner, outer):  # the endpoint check comes before the boundary one
            off = next(v for v in range(cnet.n_vertices) if v not in cnet.edges[e])
            for call in (lambda: edge_frames(cnet, e, off),
                         lambda: topology_loop.edge_frames(cnet, e, off),
                         lambda: edge_jumps(surface, e, 1, v1=off)):
                with pytest.raises(DomainError,
                                   match=f"^vertex {off} is not an endpoint of edge {e}$"):
                    call()

    @pytest.mark.parametrize("call", [
        lambda s, e: edge_frames(s.cnet, e),
        lambda s, e: edge_frames(s.cnet, e, int(s.cnet.edges[e, 1])),
        lambda s, e: topology_loop.edge_frames(s.cnet, e),
        edge_watertightness, normal_jump, g1_residual,
        *(lambda s, e, k=k: edge_jumps(s, e, k) for k in (0, 1, 2))])
    def test_a_boundary_edge_raises(self, call):
        surface = fan5_g1p()
        for e in np.flatnonzero(surface.cnet.boundary_edge).tolist():
            with pytest.raises(DomainError, match=f"^edge {e} is a boundary edge$"):
                call(surface, e)


@functools.cache
def fan5_g1p():
    return built(netgen.fan(5), "g1p")


def nearly_dependent_quad(delta=1e-9):
    """One bi-cubic element whose last two basis functions differ by
    ``delta`` relative, so the collocation ratio is about ``delta``."""
    cnet = CNet(4, [[0, 1, 2, 3]])
    positions = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    coeffs = np.random.default_rng(5).uniform(0.1, 1.0, (4, 16))
    coeffs[3] = coeffs[2] * (1.0 + delta)
    coeffs[3, 0] += delta
    ext = ElementExtraction(element=0, degree=3, basis=np.arange(4), coeffs=coeffs)
    return extraction_list.surface(ControlNet(cnet, positions), [ext], "c0")


class TestBoundedCollocation:
    def test_extreme_pair_largest_first(self):
        surface = case("val33_refined_g1r")
        dense = edge_loop.collocation_singular_values(surface)
        got = collocation_singular_values(surface)
        assert got.shape == (2,)
        assert abs(got[0] - dense.max()) <= 1e-13 * dense.max()
        assert abs(got[1] - dense.min()) <= 1e-12 * dense.min()

    def test_gram_path_skips_the_dense_matrix(self, monkeypatch):
        monkeypatch.setattr(cli, "DENSE_COLLOCATION_BYTES", 0)
        for name in CASES:
            smax, smin = collocation_singular_values(case(name))
            assert smin / smax > cli.GRAM_FLOOR

    def test_memory_is_bounded_by_the_gram_matrix(self):
        """rot44 L3 g1r: 16.9 MB with a sparse collocation matrix and its
        A^T A product, about 8 MB with the Gram scattered into the pattern
        of K, against 145.5 MB of dense collocation rows."""
        surface = built(refine_n(netgen.rot44(), 3)[0], "g1r")
        surface.groups  # stacked before measuring, as any other pass does
        rows = sum((x.degree + 1) ** 2 for x in surface.extractions)
        dense_bytes = rows * surface.cnet.n_vertices * 8
        assert dense_bytes > 140e6
        tracemalloc.start()
        try:
            smax, smin = collocation_singular_values(surface)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes / 12
        assert 0.0 < smin < smax

    def test_dense_fallback_matches_the_element_rows(self, monkeypatch):
        """With the floor at 1 every ratio takes the dense SVD: its block
        rows, written group by group, give the per-element loop's values."""
        monkeypatch.setattr(cli, "GRAM_FLOOR", 1.0)
        surface = case("val33_refined_g1r")
        assert len(surface.groups) > 1
        dense = edge_loop.collocation_singular_values(surface)
        np.testing.assert_allclose(collocation_singular_values(surface),
                                   [dense.max(), dense.min()], rtol=1e-13)

    def test_below_the_floor_falls_back_to_the_dense_svd(self):
        surface = nearly_dependent_quad()
        dense = edge_loop.collocation_singular_values(surface)
        assert dense.min() / dense.max() < cli.GRAM_FLOOR
        got = collocation_singular_values(surface)
        np.testing.assert_allclose(got, [dense.max(), dense.min()], rtol=1e-9)
        assert surface_check(surface)["collocation_sv_ratio"] == got[1] / got[0]

    def test_above_the_byte_cap_is_a_resource_error(self, monkeypatch, tmp_path):
        surface = nearly_dependent_quad()
        dense_bytes = 16 * 4 * 8
        monkeypatch.setattr(cli, "DENSE_COLLOCATION_BYTES", dense_bytes)
        assert collocation_singular_values(surface).shape == (2,)
        monkeypatch.setattr(cli, "DENSE_COLLOCATION_BYTES", dense_bytes - 1)
        with pytest.raises(ResourceError):
            collocation_singular_values(surface)
        path = tmp_path / "quad.json"
        path.write_text(surface_to_json(surface))
        assert main(["check", str(path), "-o", str(tmp_path / "out.json")]) == 5


class TestClosedCube:
    """The all-EP cube pins no coefficient, so constants lie in the null
    space of its G1 and fairing rows.  The ``lstsq`` fallback returns the
    minimizer nearest the C0 target, so the G1 bases sum to one, and the
    ratio comes from the Gram matrix, not from the dense fallback."""

    @pytest.mark.parametrize("level, variant", [(0, "g1p"), (0, "g1r"), (1, "g1p")])
    def test_basis_sums_to_one_and_is_independent(self, level, variant, monkeypatch):
        monkeypatch.setattr(cli, "DENSE_COLLOCATION_BYTES", 0)
        report = surface_check(archived(netgen.cube(), level, variant))
        assert "lstsq" in {d["fairing"] for d in report["construction"]}
        assert report["collocation_sv_ratio"] > 1e-8
        assert report["partition_of_unity_defect"] < 1e-10
        if variant == "g1r":
            assert np.abs(np.subtract(report["rational_weight_range"], 1.0)).max() < 1e-10
