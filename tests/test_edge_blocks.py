"""``ConstraintProblem`` sides and systems against the loop reference
``edge_block_loop``: the stencil-table edge rows, the array side
classification and the rest of ``assemble`` must be bitwise equal."""

import pytest

from gspline.construct_c0 import build_c0
from gspline.construct_g1 import (
    ConstraintProblem,
    analyze_net,
    basis_supports,
    edge_geometry,
    solve_elements,
)
from gspline.evaluate import edge_frames
from gspline.mesh import irregular_basis_vertices
from gspline.refine import refine_n

import edge_block_loop
import netgen

NETS = {
    "rot44": netgen.rot44,
    "val33": netgen.val33,
    "val333": netgen.val333,
    "fan5": lambda: netgen.fan(5),
    "open_box": netgen.open_box,
    "cube": netgen.cube,
    "boundary_ep3": netgen.boundary_ep3,
}


def problems(c0, variant):
    """One problem per element set, as ``build_g1`` groups them."""
    info = analyze_net(c0.cnet)
    functions = sorted(irregular_basis_vertices(c0.cnet))
    groups = {}
    for a, support in basis_supports(c0, info, functions).items():
        groups.setdefault(tuple(solve_elements(info, support, variant)),
                          []).append(a)
    return [ConstraintProblem(c0, group, variant, analysis=info)
            for group in groups.values()]


@pytest.mark.parametrize("variant", ["g1p", "g1r"])
@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("name", sorted(NETS))
def test_systems_equal_the_loop_bitwise(name, level, variant):
    c0 = build_c0(refine_n(NETS[name](), level)[0])
    found = problems(c0, variant)
    assert found
    for problem in found:
        assert edge_block_loop.classify_sides(problem) == (
            problem.constrained_edges, problem.pinned_sides,
            problem.frozen_sides, problem.boundary_sides)
        mine, ref = problem.assemble(), edge_block_loop.assemble(problem)
        for key in ("G", "g", "F", "f"):
            a, b = getattr(mine, key), getattr(ref, key)
            assert a.shape == b.shape and a.dtype == b.dtype, key
            assert a.tobytes() == b.tobytes(), (problem.functions, key)
        assert mine.tags == ref.tags


def test_every_quarter_turn_and_both_frame_origins_occur():
    """The parity test above reaches all four rotations on both sides and
    edges whose frame origin is the higher endpoint."""
    seen, flipped = set(), False
    for name in ("rot44", "val333", "cube"):
        c0 = build_c0(NETS[name]())
        for problem in problems(c0, "g1p"):
            cnet = c0.cnet
            for e in problem.constrained_edges:
                fr = edge_frames(cnet, e, v1=edge_geometry(cnet, e).v1)
                seen |= {("right", fr.rot_right), ("left", fr.rot_left)}
                flipped |= fr.v1 != min(cnet.edges[e])
    assert seen == {(side, k) for side in ("right", "left") for k in range(4)}
    assert flipped

