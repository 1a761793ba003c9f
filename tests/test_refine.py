import importlib

import numpy as np
import pytest

from gspline import solve
from gspline.construct_c0 import build_c0
from gspline.errors import ResourceError
from gspline.evaluate import map_point
from gspline.mesh import ControlNet, classify_vertices, extraordinary_vertices
from gspline.refine import MAX_FACES, _interior_vertex_mask, check_faces, refine, refine_n

import netgen


def ep_signature(cnet):
    classes = classify_vertices(cnet)
    return sorted(classes[v].valence for v in extraordinary_vertices(cnet))


class TestMasks:
    def test_regular_mask_matches_bspline_subdivision(self):
        w_own, w_edge, w_diag = _interior_vertex_mask(4)
        assert abs(w_own - 9 / 16) < 1e-15
        assert abs(w_edge - 3 / 32) < 1e-15
        assert abs(w_diag - 1 / 64) < 1e-15

    @pytest.mark.parametrize("mu", [3, 4, 5, 6, 8])
    def test_mask_weights_sum_to_one(self, mu):
        w_own, w_edge, w_diag = _interior_vertex_mask(mu)
        assert abs(w_own + mu * w_edge + mu * w_diag - 1.0) < 1e-14

    def test_regular_vertex_update_value(self):
        # uniform grid: interior vertex with 8 neighbors at unit spacing
        net = netgen.structured(4, 4, lx=4.0, ly=4.0,
                                zfun=lambda x, y: 0.0)
        refined = refine(net)
        vid = 2 * 5 + 2  # center vertex of the 5x5 grid
        # B-spline subdivision keeps a uniform grid point in place
        np.testing.assert_allclose(refined.positions[vid],
                                   net.positions[vid], atol=1e-13)

    def test_coincident_points_stay(self):
        net = netgen.val333()
        q = np.array([0.2, 0.4, -1.0])
        same = ControlNet(net.cnet, np.tile(q, (net.cnet.n_vertices, 1)))
        refined = refine(same)
        np.testing.assert_allclose(refined.positions,
                                   np.tile(q, (refined.cnet.n_vertices, 1)),
                                   atol=1e-14)


class TestTopology:
    @pytest.mark.parametrize("make", [netgen.rot44, netgen.val33,
                                      netgen.open_box, netgen.cube,
                                      lambda: netgen.fan(5)])
    def test_counts_and_eps(self, make):
        net = make()
        refined = refine(net)
        assert refined.cnet.n_faces == 4 * net.cnet.n_faces
        assert ep_signature(refined.cnet) == ep_signature(net.cnet)

    def test_three_levels_ep_invariant(self):
        net = netgen.rot44()
        current, stats = refine_n(net, 3)
        assert [s["n_faces"] for s in stats] == [64, 256, 1024]
        assert all(s["n_extraordinary"] == 4 for s in stats)

    def test_level_guard(self):
        with pytest.raises(ResourceError):
            refine_n(netgen.structured(1, 1), 9)

    def test_face_bound(self):
        """``MAX_FACES`` faces are admitted, one more level's are not."""
        for faces, levels in ((4, 8), (16, 7), (1024, 4), (MAX_FACES, 0)):
            check_faces(faces, levels)
            with pytest.raises(ResourceError, match=f"gives {4 * MAX_FACES} faces"):
                check_faces(faces, levels + 1)

    @pytest.mark.parametrize("run", [
        lambda: refine_n(netgen.structured(4, 4), 8),
        lambda: refine_n(netgen.structured(5, 1), 8),
        lambda: solve.convergence_study(netgen.structured(17, 16), "c0", 6),
        lambda: solve.convergence_study(netgen.structured(129, 128), "c0", 3)])
    def test_too_many_faces_refused_before_refining(self, run, monkeypatch):
        def refuse(net):
            raise AssertionError("refined before the face bound was checked")

        monkeypatch.setattr(importlib.import_module("gspline.refine"), "refine", refuse)
        monkeypatch.setattr(solve, "refine", refuse)
        with pytest.raises(ResourceError, match=r"faces \(> 262144\)"):
            run()

    def test_boundary_stays_on_unit_square(self):
        net = netgen.rot44()
        refined = refine(refine(net))
        cnet = refined.cnet
        for v in range(cnet.n_vertices):
            if cnet.boundary_vertex[v]:
                x, y, _ = refined.positions[v]
                on = (abs(x) < 1e-14 or abs(x - 1) < 1e-14
                      or abs(y) < 1e-14 or abs(y - 1) < 1e-14)
                assert on
        corners = {(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)}
        got = {(p[0], p[1]) for v, p in enumerate(refined.positions)
               if classify_vertices(cnet)[v].is_corner}
        assert corners <= got


class TestGeometry:
    def test_affine_equivariance(self):
        net = netgen.val33()
        rng = np.random.default_rng(13)
        A = rng.normal(size=(3, 3))
        b = rng.normal(size=3)
        mapped = ControlNet(net.cnet, net.positions @ A.T + b)
        r1 = refine(mapped)
        r2 = refine(net)
        np.testing.assert_allclose(r1.positions, r2.positions @ A.T + b,
                                   atol=1e-12)

    def test_structured_surface_invariant(self):
        net = netgen.structured(3, 3, zfun=lambda x, y: np.sin(2 * x) * y)
        coarse = build_c0(net)
        fine = build_c0(refine(net))
        assert surface_distance(coarse, fine) < 1e-10


def surface_distance(coarse, fine, samples=4):
    """Max distance between coarse samples and the refined surface.

    Child face 4*f + s covers the quadrant of parent face f at its corner
    s, with child coordinates scaled by one half toward that corner and
    the child's frame rotated so its first axis follows the parent loop.
    """
    worst = 0.0
    rng = np.random.default_rng(15)
    for f in range(coarse.cnet.n_faces):
        for s in range(4):
            child = 4 * f + s
            for _ in range(samples):
                a, b = rng.uniform(0, 1, 2)
                # child local (a, b): its corner 0 is the parent corner s
                xp, yp = _child_to_parent(s, a, b)
                pc = map_point(fine, child, a, b)
                pp = map_point(coarse, f, xp, yp)
                worst = max(worst, float(np.linalg.norm(pc - pp)))
    return worst


def _child_to_parent(s, a, b):
    """Parent coordinates of child-corner-s local coordinates (a, b)."""
    # child frame axes follow the parent's loop rotated by s quarter turns
    from gspline.evaluate import rotated_params

    x, y = a * 0.5, b * 0.5
    xp, yp = rotated_params(s, x, y)
    return xp, yp


class TestRefinedSurfaces:
    def test_structured_net_surface_identical(self):
        net = netgen.structured(2, 3, zfun=lambda x, y: 0.3 * x * x + 0.1 * y)
        coarse = build_c0(net)
        fine = build_c0(refine(net))
        assert surface_distance(coarse, fine) < 1e-10

    def test_ep_net_distance_decreases_over_levels(self):
        net = netgen.bumped(netgen.rot44(), amplitude=0.4)
        prev = None
        current = net
        dists = []
        for _ in range(3):
            refined = refine(current)
            d = surface_distance(build_c0(current), build_c0(refined))
            dists.append(d)
            current = refined
        assert dists[1] < dists[0] and dists[2] < dists[1]
