"""Relabeled nets: the G-spline basis depends only on the connectivity, so
permuting the vertex ids, reordering the faces and rotating each face's
corners must leave the surface the same, up to rounding.  The sums run in
another order, so results agree within stated bounds, not bitwise:

- ``check``: every float within 1e-10 relative, or 1e-12 absolute for the
  residuals at rounding level (watertightness and the like, below 1e-13).
  Over three random relabelings of each case below, the largest changes
  were 8.5e-14 relative and 8.7e-14 absolute.
- Membrane eigenvalues: within 2e-14 relative.  Over eight random
  relabelings of each case, the largest change was 8.2e-15 (open_box
  g1p); one relabeling of each can stay under 2.6e-15.
- Integers (ranks, counts, supports) and the fairing path of each basis
  function are equal, with the function's vertex id mapped.
"""

import numpy as np
import pytest

from gspline.cli import surface_check
from gspline.construct_c0 import build_c0
from gspline.construct_g1 import build_g1
from gspline.mesh import CNet, ControlNet
from gspline.refine import refine_n
from gspline.solve import assemble_membrane_eigen, solve_generalized_eigen

import netgen

CHECK_RTOL, CHECK_ATOL, EIGEN_RTOL = 1e-10, 1e-12, 2e-14


def relabeled(net: ControlNet, seed: int) -> tuple[ControlNet, np.ndarray]:
    """The net with vertex v renamed perm[v], the faces shuffled and each
    face's corners rotated by a random quarter turn; and perm."""
    rng = np.random.default_rng(seed)
    n_vertices, n_faces = net.cnet.n_vertices, net.cnet.n_faces
    perm, order = rng.permutation(n_vertices), rng.permutation(n_faces)
    turn = rng.integers(0, 4, n_faces)
    faces = perm[net.cnet.faces[order]]
    faces = faces[np.arange(n_faces)[:, None], (np.arange(4) + turn[:, None]) % 4]
    positions = np.empty_like(net.positions)
    positions[perm] = net.positions
    return ControlNet(CNet(n_vertices, faces), positions), perm


def reports(net: ControlNet, variant: str):
    """The ``check`` report and the four lowest membrane eigenvalues."""
    c0 = build_c0(net)
    surface = c0 if variant == "c0" else build_g1(c0, variant)
    eigen = solve_generalized_eigen(assemble_membrane_eigen(surface), 4)
    return surface_check(surface), np.array(eigen.eigenvalues)


def assert_close(a, b, what):
    assert abs(a - b) <= CHECK_RTOL * abs(a) + CHECK_ATOL, (what, a, b)


@pytest.mark.parametrize("variant", ["c0", "g1p", "g1r"])
@pytest.mark.parametrize("name", ["rot44", "val333", "val33", "open_box"])
def test_relabeled_net_gives_the_same_reports(name, variant):
    net = refine_n(getattr(netgen, name)(), 1)[0]
    other, perm = relabeled(net, seed=sum(map(ord, name + variant)))
    (check, lams), (check2, lams2) = reports(net, variant), reports(other, variant)

    assert check.keys() == check2.keys()
    for key, value in check.items():
        if isinstance(value, float):
            assert_close(value, check2[key], key)
    # the construction diagnostics, one per basis function, by vertex id
    functions = {d["basis"]: d for d in check.get("construction", [])}
    functions2 = {d["basis"]: d for d in check2.get("construction", [])}
    assert sorted(perm[list(functions)].tolist()) == sorted(functions2)
    for vertex, d in functions.items():
        d2 = functions2[int(perm[vertex])]
        assert d.keys() == d2.keys()
        for key, value in d.items():
            if key == "basis":
                continue
            if isinstance(value, float):
                assert_close(value, d2[key], key)
            else:
                assert value == d2[key], (vertex, key)

    assert len(lams) == len(lams2) == 4
    assert np.all(np.abs(lams2 - lams) <= EIGEN_RTOL * np.abs(lams)), (lams, lams2)
