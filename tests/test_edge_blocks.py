"""``ConstraintProblem`` sides and systems against the loop reference
``edge_block_loop``: the stencil-table edge rows, the array side
classification and the rest of ``assemble`` must be bitwise equal.  Its
set-up (elements, supports, unknown numbering, elevated targets) must be
bitwise equal to the loop reference ``problem_loop``, whose supports and
clusters come from loops over the net, not from ``analyze_net``."""

import numpy as np
import pytest

from gspline.construct_c0 import build_c0
from gspline.construct_g1 import (
    ConstraintProblem,
    build_tables,
    edge_geometry,
    elevate_irregular,
    slot_keys,
)
from gspline.errors import InternalError
from gspline.mesh import irregular_basis_vertices
from gspline.refine import refine_n

import edge_block_loop
import netgen
import problem_loop
from topology_loop import edge_frames

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
    functions = sorted(irregular_basis_vertices(c0.cnet))
    groups = {}
    for a, row in zip(functions, build_tables(c0, functions, variant).solved):
        groups.setdefault(row.tobytes(), []).append(a)
    return [ConstraintProblem(c0, group, variant) for group in groups.values()]


@pytest.mark.parametrize("variant", ["g1p", "g1r"])
@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("name", sorted(NETS))
def test_systems_equal_the_loop_bitwise(name, level, variant):
    c0 = build_c0(refine_n(NETS[name](), level)[0])
    found = problems(c0, variant)
    assert found
    for problem in found:
        edges, *sides = edge_block_loop.classify_sides(problem)
        assert problem.constrained_edges.dtype.kind == "i"
        assert problem.constrained_edges.tolist() == edges
        for mine, ref in zip((problem.pinned_sides, problem.frozen_sides,
                              problem.boundary_sides), sides):
            assert mine.shape == (len(ref), 2) and mine.dtype.kind == "i"
            assert list(map(tuple, mine.tolist())) == ref
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
            for e in problem.constrained_edges.tolist():
                fr = edge_frames(cnet, e, v1=edge_geometry(cnet, e).v1)
                seen |= {("right", fr.rot_right), ("left", fr.rot_left)}
                flipped |= fr.v1 != min(cnet.edges[e])
    assert seen == {(side, k) for side in ("right", "left") for k in range(4)}
    assert flipped


def bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("variant", ["g1p", "g1r"])
@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("name", sorted(NETS))
def test_setup_equals_the_loop_bitwise(name, level, variant):
    c0 = build_c0(refine_n(NETS[name](), level)[0])
    rings = problem_loop.clusters(c0.cnet)
    functions = sorted(irregular_basis_vertices(c0.cnet))
    tables = build_tables(c0, functions, variant)
    irregular, support, solved = tables.faces, tables.support, tables.solved
    assert irregular.tolist() == problem_loop.irregular_faces(c0.cnet)
    supports = problem_loop.basis_supports(c0, functions)
    assert [set(irregular[row].tolist()) for row in support] == list(supports.values())
    assert [irregular[row].tolist() for row in solved] == [
        problem_loop.solve_elements(rings, s, variant) for s in supports.values()]
    faces = np.arange(c0.cnet.n_faces)
    assert bitwise(slot_keys(c0.cnet, faces),
                   np.array([problem_loop.slot_keys(c0.cnet, f) for f in faces]))
    found = problems(c0, variant)
    assert found
    for problem in found:
        ref = problem_loop.setup(c0, problem.functions, variant, rings)
        assert problem.elements.tolist() == ref.elements
        assert problem.supports.shape == (len(ref.supports), irregular.size)
        assert [set(irregular[row].tolist()) for row in problem.supports] == ref.supports
        assert problem.n == ref.n
        assert bitwise(problem.slot_nodes, ref.slot_nodes)
        # slot_nodes[r, i + 6 j] is the unknown of grid slot (i, j)
        assert all(bitwise(problem.slot_nodes[r].reshape(6, 6, order="F"), ref.grid_nodes[f])
                   for r, f in enumerate(ref.elements))
        assert bitwise(problem.ctilde, ref.ctilde), problem.functions
    # one function given as a scalar: 1-D targets
    a = found[0].functions[0]
    mine, ref = ConstraintProblem(c0, a, variant), problem_loop.setup(c0, a, variant)
    assert bitwise(mine.ctilde, ref.ctilde) and mine.ctilde.ndim == 1


@pytest.mark.parametrize("name", sorted(NETS))
def test_elevate_irregular_equals_the_loop(name):
    c0 = build_c0(refine_n(NETS[name](), 1)[0])
    mine, ref = elevate_irregular(c0), problem_loop.elevate_irregular(c0)
    assert list(mine) == list(ref)
    assert all(bitwise(mine[key], ref[key]) for key in ref)


@pytest.mark.parametrize("variant", ["g1p", "g1r"])
@pytest.mark.parametrize("name", ["rot44", "val333", "open_box"])
def test_inconsistent_shared_node_names_the_same_element(name, variant):
    """A c0 coefficient moved at an extraordinary corner of one element that
    another element of the problem shares: the package and the loop raise
    for the same element.  The move is made through ``c0.extraction(f)``,
    whose arrays are views of ``c0.groups``, which the package reads."""
    c0 = build_c0(NETS[name]())
    cnet, rings = c0.cnet, problem_loop.clusters(c0.cnet)
    functions = sorted(irregular_basis_vertices(cnet))
    supports = problem_loop.basis_supports(c0, functions)
    a, f, corner = next(
        (a, f, k) for a in functions for f in sorted(supports[a])
        for k in np.flatnonzero(cnet.extraordinary[cnet.faces[f]])
        if sum(cnet.faces[f][k] in cnet.faces[g] for g in
               problem_loop.solve_elements(rings, supports[a], variant)) > 1)
    ext = c0.extraction(f)
    ext.coeffs[np.flatnonzero(ext.basis == a)[0], [0, 3, 15, 12][corner]] += 1e-3
    group_of, row_of = c0.group_slots
    assert np.shares_memory(ext.coeffs, c0.groups[group_of[f]].coeffs[row_of[f]])
    with pytest.raises(InternalError) as ref:
        problem_loop.setup(c0, a, variant, rings)
    with pytest.raises(InternalError) as mine:
        ConstraintProblem(c0, a, variant)
    assert str(mine.value) == str(ref.value)
