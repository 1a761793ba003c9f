import math
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gspline import quality
from gspline.construct_c0 import build_c0
from gspline.construct_g1 import build_g1
from gspline.errors import DomainError
from gspline.evaluate import frame
from gspline.mesh import ControlNet
from gspline.quality import (
    gauss_legendre,
    gauss_lobatto5,
    is_valid_at_thickness,
    min_invalid_thickness,
    shell_metric_det,
)
from gspline.refine import refine

import element_loop
import netgen


class TestQuadrature:
    def test_legendre_weights(self):
        rule = gauss_legendre(4)
        assert abs(rule.weights.sum() - 1.0) < 1e-14
        # integrates degree-7 polynomials exactly
        approx = float(np.sum(rule.weights * rule.points**7))
        assert abs(approx - 1.0 / 8.0) < 1e-14

    def test_lobatto_five(self):
        rule = gauss_lobatto5(-1.0, 1.0)
        assert abs(rule.weights.sum() - 2.0) < 1e-14
        assert rule.points[0] == -1.0 and rule.points[-1] == 1.0
        # exact through degree 7 = 2*5 - 3
        approx = float(np.sum(rule.weights * rule.points**6))
        assert abs(approx - 2.0 / 7.0) < 1e-14

    def test_lobatto_scaling(self):
        t = 3.0
        rule = gauss_lobatto5(-t / 2, t / 2)
        assert abs(rule.weights.sum() - t) < 1e-14
        assert rule.points[0] == -t / 2 and rule.points[-1] == t / 2


class TestShellMetric:
    def test_flat_plate_any_zeta(self):
        surf = build_c0(netgen.structured(3, 3))
        fr = frame(surf, 4, 0.3, 0.3)
        d0 = shell_metric_det(fr, 0.0)
        assert d0 > 0
        assert abs(shell_metric_det(fr, 1e6) - d0) < 1e-9 * max(1.0, d0)

    def test_zeta_zero_is_metric_det(self):
        net = netgen.bumped(netgen.structured(3, 3), amplitude=0.4)
        surf = build_c0(net)
        fr = frame(surf, 4, 0.37, 0.81)
        expected = float(np.linalg.det(fr.metric))
        assert abs(shell_metric_det(fr, 0.0) - expected) < 1e-13

    def test_cylinder_linearized_vanishing(self):
        R = 2.0
        net = netgen.cylinder(n_theta=24, n_z=3, radius=R, height=2.0)
        surf = build_c0(net)
        fr = frame(surf, net.cnet.n_faces // 2, 0.5, 0.5)
        # det g = a(1 - 2 zeta kappa): root at |zeta| = R/2 up to
        # discretization error of the control-polygon radius
        kappa = abs(fr.curvature[0, 0]) / fr.metric[0, 0]
        root = 1.0 / (2.0 * kappa)
        assert abs(root - R / 2) / (R / 2) < 0.05


class TestValidity:
    def test_flat_plate_huge_thickness(self):
        surf = build_c0(netgen.structured(2, 2))
        ok, fail = is_valid_at_thickness(surf, 1e6)
        assert ok and fail is None

    def test_tiny_thickness_valid(self):
        net = netgen.bumped(netgen.rot44(), amplitude=0.5)
        surf = build_c0(net)
        ok, _ = is_valid_at_thickness(surf, 1e-9)
        assert ok

    def test_quadrature_vs_dense_sampling(self):
        R = 1.5
        net = netgen.cylinder(n_theta=16, n_z=2, radius=R, height=1.5)
        surf = build_c0(net)
        report = min_invalid_thickness(surf, t_lo=0.01, t_hi=10.0)
        t_star = report.thickness
        # dense parameter sweep agrees with the quadrature-point verdict
        for t, expect in ((t_star - 0.05, True), (t_star + 0.05, False)):
            worst = np.inf
            for e in range(0, surf.cnet.n_faces, 3):
                for xi in np.linspace(0.05, 0.95, 7):
                    for eta in np.linspace(0.05, 0.95, 7):
                        fr = frame(surf, e, float(xi), float(eta))
                        for z in np.linspace(-t / 2, t / 2, 21):
                            worst = min(worst, shell_metric_det(fr, float(z)))
            assert (worst > 0) == expect


class TestMinInvalidThickness:
    def test_flat_plate_infinite(self):
        surf = build_c0(netgen.structured(2, 2))
        report = min_invalid_thickness(surf, t_hi=50.0)
        assert math.isinf(report.thickness)
        assert report.location is None

    def test_cylinder_near_radius(self):
        R = 2.0
        net = netgen.cylinder(n_theta=32, n_z=3, radius=R, height=2.0)
        surf = build_c0(net)
        report = min_invalid_thickness(surf, t_lo=0.01, t_hi=20.0)
        assert abs(report.thickness - R) / R < 0.05

    def test_invalid_at_lower_bracket(self):
        R = 0.002
        net = netgen.cylinder(n_theta=24, n_z=2, radius=R, height=0.01)
        surf = build_c0(net)
        with pytest.raises(DomainError):
            min_invalid_thickness(surf, t_lo=1.0, t_hi=10.0)

    def test_rigid_motion_invariance(self):
        net = netgen.bumped(netgen.rot44(), amplitude=0.6, sigma=0.3)
        rng = np.random.default_rng(30)
        A, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(A) < 0:
            A[:, 0] = -A[:, 0]
        b = rng.normal(size=3)
        moved = ControlNet(net.cnet, net.positions @ A.T + b)
        t1 = min_invalid_thickness(build_c0(net)).thickness
        t2 = min_invalid_thickness(build_c0(moved)).thickness
        assert abs(t1 - t2) / t1 < 1e-9

    def test_scaling_covariance(self):
        net = netgen.bumped(netgen.rot44(), amplitude=0.6, sigma=0.3)
        s = 3.7
        scaled = ControlNet(net.cnet, net.positions * s)
        t1 = min_invalid_thickness(build_c0(net), t_lo=0.001, t_hi=50.0).thickness
        t2 = min_invalid_thickness(build_c0(scaled), t_lo=0.001 * s,
                                   t_hi=50.0 * s).thickness
        assert abs(t2 - s * t1) / (s * t1) < 1e-6

    def test_constructions_have_similar_thickness(self):
        # surface-quality pattern: tangent-plane constructions keep the
        # quality of the plain C0 construction (thicknesses within 10%),
        # with the critical point sitting in an irregular element
        net = refine(netgen.bumped(netgen.val33(), amplitude=0.4, sigma=0.5))
        c0 = build_c0(net)
        r_c0 = min_invalid_thickness(c0)
        t_c0 = r_c0.thickness
        assert math.isfinite(t_c0)
        for variant in ("g1p", "g1r"):
            t_v = min_invalid_thickness(build_g1(c0, variant)).thickness
            assert abs(t_v - t_c0) / t_c0 < 0.10

    def test_report_serialization(self):
        surf = build_c0(netgen.structured(2, 2))
        report = min_invalid_thickness(surf, t_hi=10.0)
        assert "min_invalid_thickness" in report.to_json()
        assert report.to_csv_row().startswith("c0,inf")


def _shell(name):
    if name == "cylinder":
        return build_c0(netgen.cylinder(n_theta=32, n_z=3, radius=2.0,
                                        height=2.0))
    if name == "rot44_bumped":
        return build_c0(netgen.bumped(netgen.rot44(), amplitude=0.6, sigma=0.3))
    net = netgen.bumped(netgen.val33(), amplitude=0.4, sigma=0.5)
    if name == "val33_bumped":
        return build_c0(net)
    c0 = build_c0(refine(net))
    variant = name.rsplit("_", 1)[1]
    return c0 if variant == "c0" else build_g1(c0, variant)


class TestExactThickness:
    @pytest.mark.parametrize("name", [
        "cylinder", "val33_bumped", "val33_refined_c0", "val33_refined_g1p",
        "val33_refined_g1r", "rot44_bumped"])
    def test_thickness_brackets_the_discrete_check(self, name):
        surf = _shell(name)
        report = min_invalid_thickness(surf, t_hi=20.0)
        t = report.thickness
        assert report.valid_up_to < t
        assert is_valid_at_thickness(surf, t * (1 - 1e-12))[0]
        assert not is_valid_at_thickness(surf, t * (1 + 1e-12))[0]
        loc = report.location
        fr = frame(surf, loc["element"], loc["xi"], loc["eta"])
        zeta = math.copysign(0.5 * t * (1 + 1e-12), loc["zeta"])
        assert shell_metric_det(fr, zeta) <= 0.0

    @settings(max_examples=100, deadline=None)
    @given(m=st.tuples(*[st.floats(-1.0, 1.0)] * 4),
           k=st.tuples(*[st.floats(-1.0, 1.0)] * 3))
    def test_closed_form_matches_dense_scan(self, m, k):
        # one quadrature point with metric a (positive definite) and
        # curvature b; |det| up to 1e-12 (|a| + 2 |zeta| |b|)^2 counts as zero
        m = np.reshape(m, (2, 2))
        a = m @ m.T + 0.1 * np.eye(2)
        b = np.array([[k[0], k[1]], [k[1], k[2]]])
        fr = SimpleNamespace(metric=a, curvature=b)
        frames = (np.zeros(1, dtype=int), np.full((1, 2), 0.5), a[None], b[None])
        surf = SimpleNamespace(variant="c0", cnet=SimpleNamespace(n_faces=1))
        with mock.patch.object(quality, "_quadrature_frames", lambda s: frames):
            report = min_invalid_thickness(surf, t_lo=0.01, t_hi=10.0)
        assert report.valid_up_to < report.thickness

        def zero_tol(z):
            return 1e-12 * (np.linalg.norm(a) + 2.0 * abs(z) * np.linalg.norm(b)) ** 2

        reach = 0.5 * min(report.thickness, 10.0) * (1.0 - 1e-9)
        for z in np.linspace(0.0, reach, 2001):
            assert shell_metric_det(fr, z) > -zero_tol(z)
            assert shell_metric_det(fr, -z) > -zero_tol(z)
        if report.location is not None:
            zeta = report.location["zeta"]
            assert abs(zeta) == 0.5 * report.thickness
            assert abs(shell_metric_det(fr, zeta)) <= zero_tol(zeta)

    def test_subnormal_root_coefficient_is_no_root(self):
        # a = I, b = diag(1e-310, 0): c1 = -2e-310 and c2 = 0, so c0/q
        # overflows to an infinite root, which counts as none
        a, b = np.eye(2), np.diag([1e-310, 0.0])
        frames = (np.zeros(1, dtype=int), np.full((1, 2), 0.5), a[None], b[None])
        surf = SimpleNamespace(variant="c0", cnet=SimpleNamespace(n_faces=1))
        with mock.patch.object(quality, "_quadrature_frames", lambda s: frames), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            report = min_invalid_thickness(surf, t_lo=0.01, t_hi=10.0)
        assert report.thickness == math.inf
        assert report.valid_up_to == 10.0
        assert report.location is None


class TestGroupedFrames:
    @pytest.mark.parametrize("net, variant", [("rot44", "c0"), ("rot44", "g1p"),
                                              ("rot44", "g1r"), ("val333", "g1r")])
    def test_frames_match_element_loop(self, net, variant):
        c0 = build_c0(netgen.bumped(getattr(netgen, net)(), amplitude=0.4))
        surf = c0 if variant == "c0" else build_g1(c0, variant)
        elements, uv, metric, curvature = quality._quadrature_frames(surf)
        ref = element_loop.quadrature_frames(surf)
        np.testing.assert_array_equal(elements, ref[0])
        np.testing.assert_array_equal(uv, ref[1])
        assert np.abs(metric - ref[2]).max() <= 1e-14 * np.abs(ref[2]).max()
        assert np.abs(curvature - ref[3]).max() <= 1e-14 * np.abs(ref[3]).max()

    def test_location_matches_element_loop(self):
        net = refine(refine(netgen.bumped(netgen.rot44(), amplitude=0.3)))
        surf = build_g1(build_c0(net), "g1p")
        report = min_invalid_thickness(surf)
        with mock.patch.object(quality, "_quadrature_frames",
                               element_loop.quadrature_frames):
            ref = min_invalid_thickness(surf)
        assert report.location is not None
        assert {k: report.location[k] for k in ("element", "xi", "eta", "zeta")} \
            == {k: ref.location[k] for k in ("element", "xi", "eta", "zeta")}
        assert abs(report.thickness - ref.thickness) <= 1e-14 * ref.thickness
