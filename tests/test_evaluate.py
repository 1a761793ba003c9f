import functools
from types import SimpleNamespace

import numpy as np
import pytest

from gspline import evaluate
from gspline.archive import surface_from_json, surface_to_json
from gspline.construct_c0 import build_c0
from gspline.construct_g1 import build_g1
from gspline.errors import (
    DegenerateBasisError,
    DomainError,
    InternalError,
    ResourceError,
    SingularParameterizationError,
)
from gspline.evaluate import (
    MAX_SAMPLES,
    edge_frames,
    edge_watertightness,
    frame,
    frames_csv,
    map_point,
    normal_jump,
    principal_curvatures,
    sample_bezier_mesh,
)
from gspline.mesh import ControlNet, load_obj, obj_text, spoke_edges
from gspline.refine import refine, refine_n

import extraction_list
import netgen
from oracles import bounding_box_diagonal


def element_loop_mesh(surface, r):
    """``sample_bezier_mesh`` as one ``map_point`` and index loop per element."""
    pts, quads, loops = [], [], []
    grid = np.arange(r + 1) / r
    xi, eta = np.tile(grid, r + 1), np.repeat(grid, r + 1)
    for e in range(surface.cnet.n_faces):
        base = (r + 1) * (r + 1) * e
        pts.append(map_point(surface, e, xi, eta))
        for j in range(r):
            for i in range(r):
                k = base + j * (r + 1) + i
                quads.append([k, k + 1, k + r + 2, k + r + 1])
        loop = [base + i for i in range(r)]
        loop += [base + r + j * (r + 1) for j in range(r)]
        loop += [base + (r + 1) * (r + 1) - 1 - i for i in range(r)]
        loop += [base + (r - j) * (r + 1) for j in range(r)]
        loops.append(loop)
    return np.concatenate(pts), quads, loops


class TestMapPoint:
    def test_planar_net_stays_planar(self):
        net = netgen.val333()
        surf = build_g1(build_c0(net), "g1p")
        rng = np.random.default_rng(20)
        for f in range(net.cnet.n_faces):
            xi, eta = rng.uniform(0, 1, 2)
            x = map_point(surf, f, xi, eta)
            assert abs(x[2]) < 1e-13

    def test_affine_equivariance(self):
        net = netgen.bumped(netgen.rot44(), amplitude=0.5)
        rng = np.random.default_rng(21)
        A = rng.normal(size=(3, 3))
        b = rng.normal(size=3)
        mapped = ControlNet(net.cnet, net.positions @ A.T + b)
        s1 = build_c0(net)
        s2 = build_c0(mapped)
        for f in range(net.cnet.n_faces):
            xi, eta = rng.uniform(0, 1, 2)
            np.testing.assert_allclose(
                map_point(s2, f, xi, eta), A @ map_point(s1, f, xi, eta) + b,
                atol=1e-12)

    def test_out_of_domain(self):
        surf = build_c0(netgen.structured(2, 2))
        with pytest.raises(DomainError):
            map_point(surf, 0, 1.5, 0.5)

    def test_nan_parameter_in_array(self):
        surf = build_c0(netgen.structured(2, 2))
        with pytest.raises(DomainError):
            map_point(surf, 0, np.array([0.2, np.nan]), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("call, what, count", [
        (lambda s, i: map_point(s, i, 0.5, 0.5), "element", lambda c: c.n_faces),
        (lambda s, i: frame(s, i, 0.5, 0.5), "element", lambda c: c.n_faces),
        (lambda s, i: s.degree(i), "element", lambda c: c.n_faces),
        (lambda s, i: edge_frames(s.cnet, i), "edge", lambda c: c.n_edges)],
        ids=["map_point", "frame", "degree", "edge_frames"])
    @pytest.mark.parametrize("past_end", [False, True], ids=["minus_one", "n"])
    def test_an_id_out_of_range_raises(self, call, what, count, past_end):
        # -1 would read the last element (or edge) through numpy's indexing
        surf = build_c0(netgen.rot44())
        n = count(surf.cnet)
        i = n if past_end else -1
        with pytest.raises(DomainError, match=f"^{what} {i} out of range 0..{n - 1}$"):
            call(surf, i)

    @pytest.mark.parametrize("call, what", [
        (lambda s, i: map_point(s, i, 0.5, 0.5), "element"),
        (lambda s, i: frame(s, i, 0.5, 0.5), "element"),
        (lambda s, i: s.degree(i), "element"),
        (lambda s, i: s.extraction(i), "element"),
        (lambda s, i: edge_frames(s.cnet, i), "edge")],
        ids=["map_point", "frame", "degree", "extraction", "edge_frames"])
    @pytest.mark.parametrize("bad", [1.5, 2.0, True, np.float64(2.0), np.bool_(True), "2"],
                             ids=["half", "integral_float", "True", "float64", "bool_", "str"])
    def test_an_id_that_is_not_an_integer_raises(self, call, what, bad):
        # 1.5 and 2.0 used to reach numpy's indexing, True to read id 1
        surf = build_c0(netgen.rot44())
        with pytest.raises(DomainError, match=f"^{what} .* is not an integer id$"):
            call(surf, bad)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint16])
    def test_numpy_integer_ids_read_the_same_element(self, kind):
        surf = build_c0(netgen.rot44())
        assert np.array_equal(map_point(surf, kind(5), 0.3, 0.6), map_point(surf, 5, 0.3, 0.6))
        assert surf.extraction(kind(5)).element == 5
        e = int(np.flatnonzero(~surf.cnet.boundary_edge)[0])
        assert edge_frames(surf.cnet, kind(e)) == edge_frames(surf.cnet, e)

    @pytest.mark.parametrize("nderiv", [-1, 3, 1.5])
    def test_unsupported_derivative_order(self, nderiv):
        surf = build_c0(netgen.structured(2, 2))
        with pytest.raises(DomainError, match="nderiv"):
            map_point(surf, 0, 0.5, 0.5, nderiv=nderiv)

    @pytest.mark.parametrize("variant", ["c0", "g1r"])
    def test_arrays_match_scalar_calls(self, variant):
        net = netgen.bumped(netgen.val33(), amplitude=0.3)
        c0 = build_c0(net)
        surf = c0 if variant == "c0" else build_g1(c0, variant)
        rng = np.random.default_rng(22)
        xi, eta = rng.uniform(0, 1, size=(2, 6))
        for f in range(net.cnet.n_faces):
            x, J, H = map_point(surf, f, xi, eta, nderiv=2)
            assert x.shape == (6, 3) and J.shape == (6, 3, 2)
            assert H.shape == (6, 3, 3)
            fr = frame(surf, f, xi, 0.25)  # scalar eta broadcasts
            assert fr.metric.shape == (6, 2, 2)
            for m in range(6):
                xm, Jm, Hm = map_point(surf, f, xi[m], eta[m], nderiv=2)
                np.testing.assert_allclose(x[m], xm, atol=1e-14)
                np.testing.assert_allclose(J[m], Jm, atol=1e-13)
                np.testing.assert_allclose(H[m], Hm, atol=1e-12)
                fm = frame(surf, f, xi[m], 0.25)
                np.testing.assert_allclose(fr.normal[m], fm.normal, atol=1e-14)
                np.testing.assert_allclose(fr.curvature[m], fm.curvature,
                                           atol=1e-12)

    @pytest.mark.parametrize("variant", ["c0", "g1r"])
    def test_lower_orders_are_the_leading_outputs_bitwise(self, variant):
        # nderiv 0 and 1 build tables only to their own order
        c0 = build_c0(netgen.bumped(netgen.rot44(), amplitude=0.3))
        surf = c0 if variant == "c0" else build_g1(c0, variant)
        xi, eta = np.meshgrid(np.linspace(0, 1, 9), np.linspace(0, 1, 7))
        for f in range(surf.cnet.n_faces):
            full = map_point(surf, f, xi, eta, nderiv=2)
            lower = [map_point(surf, f, xi, eta, nderiv=0),
                     *map_point(surf, f, xi, eta, nderiv=1)]
            assert [a.shape for a in lower] == [(7, 9, 3), (7, 9, 3), (7, 9, 3, 2)]
            for a, b in zip(lower, [full[0], *full[:2]]):
                assert a.tobytes() == b.tobytes()


class TestFrame:
    def test_flat_plate_zero_curvature(self):
        surf = build_c0(netgen.structured(3, 3))
        fr = frame(surf, 4, 0.3, 0.7)
        np.testing.assert_allclose(fr.curvature, 0.0, atol=1e-12)
        np.testing.assert_allclose(fr.normal, [0, 0, 1], atol=1e-12)
        assert abs(fr.normal @ fr.a1) < 1e-12
        assert abs(fr.normal @ fr.a2) < 1e-12

    def test_metric_vs_finite_differences(self):
        net = netgen.bumped(netgen.structured(3, 3), amplitude=0.4)
        surf = build_c0(net)
        f, xi, eta = 4, 0.42, 0.31
        fr = frame(surf, f, xi, eta)
        h = 1e-6
        t1 = (map_point(surf, f, xi + h, eta) - map_point(surf, f, xi - h, eta)) / (2 * h)
        t2 = (map_point(surf, f, xi, eta + h) - map_point(surf, f, xi, eta - h)) / (2 * h)
        np.testing.assert_allclose(fr.a1, t1, atol=1e-6)
        np.testing.assert_allclose(fr.a2, t2, atol=1e-6)
        np.testing.assert_allclose(fr.metric[0, 0], t1 @ t1, rtol=1e-6)

    def test_cylinder_principal_curvatures(self):
        R = 2.0
        errs = []
        for n_theta in (12, 24):
            net = netgen.cylinder(n_theta=n_theta, n_z=3, radius=R, height=2.0)
            surf = build_c0(net)
            fr = frame(surf, net.cnet.n_faces // 2, 0.5, 0.5)
            k1, k2 = principal_curvatures(fr)
            errs.append(abs(abs(k1) - 1.0 / R))
            assert abs(k2) < 1e-6 + abs(k1) * 0.05
        assert errs[1] < errs[0]  # converges under refinement in angle

    def test_degenerate_parameterization_raises(self):
        # map a whole edge of the parent square onto one point
        net = netgen.structured(1, 1)
        pos = np.array(net.positions)
        pos[1] = pos[0]  # collapse one edge (invalid geometry, fine topology)
        surf = build_c0(ControlNet(net.cnet, pos))
        with pytest.raises(SingularParameterizationError):
            frame(surf, 0, 0.5, 0.0)
        with pytest.raises(SingularParameterizationError) as info:
            frame(surf, 0, np.array([0.5, 0.5]), np.array([0.5, 0.0]))
        assert info.value.uv == (0.5, 0.0)


class TestContinuityAcrossSpokes:
    @pytest.mark.parametrize("variant", ["g1p", "g1r"])
    def test_normal_continuity_g1(self, variant):
        net = netgen.bumped(netgen.rot44(), amplitude=0.35)
        surf = build_g1(build_c0(net), variant)
        for e in spoke_edges(net.cnet):
            if net.cnet.boundary_edge[e]:
                continue
            assert normal_jump(surf, e) < 1e-6

    def test_c0_normal_jump_is_large(self):
        net = netgen.bumped(netgen.rot44(), amplitude=0.35)
        surf = build_c0(net)
        worst = max(
            normal_jump(surf, e) for e in spoke_edges(net.cnet)
            if not net.cnet.boundary_edge[e]
        )
        assert worst > 1e-3  # negative control: C0 kinks at spoke edges


class TestWatertightness:
    @pytest.mark.parametrize("variant", ["c0", "g1p", "g1r"])
    def test_all_interior_edges(self, variant):
        net = netgen.bumped(netgen.val33(), amplitude=0.3)
        c0 = build_c0(net)
        surf = c0 if variant == "c0" else build_g1(c0, variant)
        for e in range(net.cnet.n_edges):
            if not net.cnet.boundary_edge[e]:
                assert edge_watertightness(surf, e) < 1e-9

    def test_refined_net_stays_watertight(self):
        net = refine(netgen.bumped(netgen.rot44(), amplitude=0.3))
        surf = build_g1(build_c0(net), "g1p")
        cnet = net.cnet
        for e in range(cnet.n_edges):
            if not cnet.boundary_edge[e]:
                assert edge_watertightness(surf, e, samples=5) < 1e-9


class TestSampling:
    def test_bezier_mesh_shapes(self):
        net = netgen.fan(3)
        surf = build_c0(net)
        pts, quads, loops = sample_bezier_mesh(surf, resolution=4)
        assert pts.shape == (3 * 25, 3)
        assert len(quads) == 3 * 16
        assert all(len(loop) == 16 for loop in loops)

    @pytest.mark.parametrize("level, resolution", [(1, 3), (1, 8), (3, 8)])
    def test_bezier_mesh_equals_the_element_loop(self, level, resolution):
        """Points of one group_table per block of elements against one
        map_point per element (level 3 spans several blocks); quads and
        loops against the per-element index loops."""
        surf = build_g1(build_c0(refine_n(netgen.rot44(), level)[0]), "g1r")
        pts, quads, loops = sample_bezier_mesh(surf, resolution)
        ref_pts, ref_quads, ref_loops = element_loop_mesh(surf, resolution)
        assert quads == ref_quads and loops == ref_loops
        assert pts.shape == ref_pts.shape
        assert np.abs(pts - ref_pts).max() <= 1e-14

    def test_bezier_mesh_names_lowest_degenerate_element(self):
        surf = build_g1(build_c0(refine(netgen.rot44())), "g1r")
        rational = [ext.element for ext in surf.extractions if ext.rational]
        for e in (rational[-1], rational[3]):  # negated denominators
            surf.extraction(e).coeffs *= -1
        with pytest.raises(DegenerateBasisError) as ref:
            element_loop_mesh(surf, 3)
        with pytest.raises(DegenerateBasisError) as mine:
            sample_bezier_mesh(surf, 3)
        assert mine.value.element == ref.value.element == rational[3]
        assert str(mine.value) == str(ref.value)

    def test_obj_export_parses_back(self):
        net = netgen.fan(3)
        surf = build_c0(net)
        pts, quads, _ = sample_bezier_mesh(surf, resolution=2)
        text = obj_text(pts, quads)
        back = load_obj(text.encode())
        assert back.cnet.n_faces == len(quads)

    def test_frames_csv_header(self):
        surf = build_c0(netgen.structured(2, 2))
        text = frames_csv(surf, resolution=2)
        assert text.splitlines()[0].startswith("element,xi,eta,x,y,z")

    def test_sample_budget(self):
        """The default resolution 8 fits rot44 at level 5 (16384 elements),
        and so does 15, which takes exactly ``MAX_SAMPLES``; 16 fails before
        anything is sampled."""
        l5 = SimpleNamespace(cnet=SimpleNamespace(n_faces=16 * 4**5))
        assert l5.cnet.n_faces * (15 + 1) ** 2 == MAX_SAMPLES
        for resolution in (8, 15):
            evaluate._check_resolution(l5, resolution)
        for sample in (sample_bezier_mesh, frames_csv):
            with pytest.raises(ResourceError, match="resolution 16"):
                sample(l5, resolution=16)

    def test_bbox_diagonal(self):
        net = netgen.structured(2, 2)
        assert abs(bounding_box_diagonal(net) - np.sqrt(2.0)) < 1e-14


# every net of ``netgen``, for the storage parity test
STORAGE_NETS = {
    "structured": lambda: netgen.structured(3, 3, zfun=lambda x, y: x * y),
    "bumped": lambda: netgen.bumped(netgen.structured(4, 4)),
    "cube": netgen.cube,
    "open_box": netgen.open_box,
    "fan3": lambda: netgen.fan(3),
    "fan5": lambda: netgen.fan(5),
    "fan6": lambda: netgen.fan(6),
    "boundary_ep3": netgen.boundary_ep3,
    "val33": netgen.val33,
    "val333": netgen.val333,
    "rot44": netgen.rot44,
    "cylinder": netgen.cylinder,
}


@functools.cache
def stored_c0(name, level):
    return build_c0(refine_n(STORAGE_NETS[name](), level)[0])


def same_groups(a, b):
    return len(a) == len(b) and all(
        (x.degree, x.rational) == (y.degree, y.rational)
        and all(u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()
                for u, v in zip((x.elements, x.basis, x.mask, x.coeffs),
                                (y.elements, y.basis, y.mask, y.coeffs)))
        for x, y in zip(a, b))


class TestStoredGroups:
    @pytest.mark.parametrize("variant", ["c0", "g1p", "g1r"])
    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize("name", list(STORAGE_NETS))
    def test_groups_match_the_list_restacking(self, name, level, variant):
        c0 = stored_c0(name, level)
        surface = c0 if variant == "c0" else build_g1(c0, variant)
        assert same_groups(extraction_list.groups(surface.extractions), surface.groups)
        text = surface_to_json(surface)
        loaded = surface_from_json(text)
        assert surface_to_json(loaded) == text
        for e in range(loaded.cnet.n_faces):  # edits through the views
            loaded.extraction(e).coeffs[:] *= 2.0
        assert all(np.array_equal(x.coeffs, 2.0 * y.coeffs)
                   for x, y in zip(loaded.groups, surface.groups, strict=True))

    def test_rows_are_checked(self):
        net = netgen.structured(2, 1)
        ext = build_c0(net).extraction(0)
        good = ([3, 3], [False, False], [ext.n_basis] * 2,
                np.tile(ext.basis, 2), {3: np.tile(ext.coeffs, (2, 1))})
        assert extraction_list.from_rows(net, "c0", *good).degree(1) == 3
        with pytest.raises(DomainError, match="unsupported degree 4"):
            extraction_list.from_rows(net, "c0", [3, 4], *good[1:])
        with pytest.raises(DomainError, match="does not match basis list"):
            extraction_list.from_rows(net, "c0", *good[:4], {3: ext.coeffs})
        with pytest.raises(DomainError, match="unknown construction variant"):
            extraction_list.from_rows(net, "c1", *good)
        with pytest.raises(InternalError, match="one extraction required"):
            extraction_list.from_rows(net, "c0", *(x[:1] for x in good[:3]),
                                      ext.basis, {3: ext.coeffs})
