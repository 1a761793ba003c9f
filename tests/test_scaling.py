"""Positions scaled by a power of two: the G-spline basis depends only on
the connectivity, and in binary floating point a scale by 2^k is exact
unless it overflows or underflows.  So the extraction coefficients do not
move by a bit, and the membrane eigenvalues scale by exactly 4^-k (the
stiffness is scale-free in the plane, the mass scales by 4^k).

The smallest net has a floor, though: ``evaluate._flat_tangents`` calls
tangents flat where |a1 x a2| <= DEGENERATE_TOL * max(|a1| |a2|,
DEGENERATE_TOL), an absolute 1e-24 for elements about 1e-12 across, so
``check`` (at the spoke edges of g1p and g1r) and ``quality`` refuse such
a net.  Builds, ``eigen`` and ``poisson`` take the Jacobian test of
``solve._group_geometry``, whose absolute floor (1e-30 on the squared
Jacobian scale) is reached only for elements about 1e-15 across."""

import functools
import json

import numpy as np
import pytest

from gspline.cli import main
from gspline.construct_c0 import build_c0
from gspline.construct_g1 import build_g1
from gspline.mesh import ControlNet, save_obj
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


@pytest.mark.parametrize("variant", ["c0", "g1p", "g1r"])
def test_smallest_accepted_net(variant, tmp_path, capsys):
    """rot44 (1 across, 16 elements) scaled by 2^-35 builds, checks and
    passes ``quality``; scaled by 2^-40 it still builds, but its tangents
    are flat to ``quality`` and, at the spoke edges, to ``check`` of g1p
    and g1r: exit 5, SingularParameterizationError."""
    base, codes = netgen.rot44(), {}
    for k in (-35, -40):
        obj, arc = tmp_path / f"net{k}.obj", tmp_path / f"net{k}.json"
        obj.write_text(save_obj(ControlNet(base.cnet, base.positions * 2.0**k)))
        codes[k] = [main(["build", str(obj), "--variant", variant, "-o", str(arc)])]
        codes[k] += [main([command, str(arc), "-o", str(tmp_path / f"{command}{k}.json")])
                     for command in ("check", "quality")]
    errors = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert codes == {-35: [0, 0, 0], -40: [0, 0 if variant == "c0" else 5, 5]}
    assert errors and {e["error"] for e in errors} == {"SingularParameterizationError"}
    assert all(e["message"].startswith("degenerate tangents") for e in errors)
