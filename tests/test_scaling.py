"""Positions scaled by a power of two: the G-spline basis depends only on
the connectivity, and in binary floating point a scale by 2^k is exact
unless it overflows or underflows.  So the extraction coefficients do not
move by a bit, and the membrane eigenvalues scale by exactly 4^-k (the
stiffness is scale-free in the plane, the mass scales by 4^k)."""

import functools

import numpy as np
import pytest

from gspline.construct_c0 import build_c0
from gspline.construct_g1 import build_g1
from gspline.mesh import ControlNet
from gspline.refine import refine_n
from gspline.solve import assemble_membrane_eigen, solve_generalized_eigen

import netgen


@functools.cache
def refined_twice(net, variant, k):
    base = getattr(netgen, net)()
    scaled, _ = refine_n(ControlNet(base.cnet, base.positions * 2.0**k), 2)
    c0 = build_c0(scaled)
    surf = c0 if variant == "c0" else build_g1(c0, variant)
    return surf, solve_generalized_eigen(assemble_membrane_eigen(surf), 4).eigenvalues


@pytest.mark.parametrize("k", [-3, 3, 40])
@pytest.mark.parametrize("variant", ["c0", "g1p", "g1r"])
@pytest.mark.parametrize("net", ["rot44", "val333"])
def test_power_of_two_scale_is_exact(net, variant, k):
    surf, lams = refined_twice(net, variant, k)
    ref, ref_lams = refined_twice(net, variant, 0)
    assert len(surf.groups) == len(ref.groups)
    for g, h in zip(surf.groups, ref.groups):
        assert g.coeffs.shape == h.coeffs.shape and g.coeffs.tobytes() == h.coeffs.tobytes()
    assert [lam * 4.0**k for lam in lams] == ref_lams
