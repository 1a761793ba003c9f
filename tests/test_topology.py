"""Net topology of ``gspline.mesh`` and the extraordinary-vertex clusters of
``gspline.construct_g1`` against the loop-based reference in
``topology_loop.py``, on every test net, its refinements, the topology
error cases and a seeded corpus of broken nets."""

import numpy as np
import pytest

from gspline.construct_g1 import analyze_net
from gspline.errors import DomainError, FormatError, GSplineError, TopologyError
from gspline.mesh import (
    CNet,
    classify_elements,
    irregular_basis_vertices,
    ring_faces,
    ring_vertices,
)
from gspline.refine import refine_n

import netgen
import topology_loop as loop

NETS = {
    "structured": lambda: netgen.structured(3, 2),
    "cube": netgen.cube,
    "open_box": netgen.open_box,
    **{f"fan{n}": (lambda n=n: netgen.fan(n)) for n in (3, 5, 6)},
    "boundary_ep3": netgen.boundary_ep3,
    "val33": netgen.val33,
    "val333": netgen.val333,
    "rot44": netgen.rot44,
    "cylinder": netgen.cylinder,
}


def _outcome(make):
    """The built net, or the (type, message) of the error building it."""
    try:
        return make()
    except GSplineError as exc:
        return type(exc), str(exc)


def assert_same_adjacency(new, old):
    np.testing.assert_array_equal(new.edges, old.edges)
    np.testing.assert_array_equal(new.face_edges, old.face_edges)
    padded = [fs + [-1] * (2 - len(fs)) for fs in old.edge_faces]
    np.testing.assert_array_equal(new.edge_faces, np.array(padded).reshape(-1, 2))
    np.testing.assert_array_equal(new.valence, old.valence)
    np.testing.assert_array_equal(new.boundary_edge, old.boundary_edge)
    np.testing.assert_array_equal(new.boundary_vertex, old.boundary_vertex)
    np.testing.assert_array_equal(new.extraordinary, old.extraordinary)
    # the loop's vertex_faces, edge_id and face_across in the array form
    assert [np.flatnonzero((new.faces == v).any(axis=1)).tolist()
            for v in range(new.n_vertices)] == old.vertex_faces
    for (u, v), e in old.edge_index.items():
        assert new.edges[e].tolist() == sorted((u, v)) == sorted(old.edges[e].tolist())
    # sides: the face running each directed side, in the column of its
    # direction (lower -> higher first), at the lower vertex's corner
    faces, rots = new.sides
    for (u, v), f in old._directed.items():
        e, lo = old.edge_index[min(u, v), max(u, v)], min(u, v)
        assert faces[e, int(u > v)] == f
        assert rots[e, int(u > v)] == old.faces[f].tolist().index(lo)
    assert np.count_nonzero(faces >= 0) == len(old._directed)
    np.testing.assert_array_equal(faces < 0, rots < 0)
    for a in (faces, rots):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0
    for f, edges in enumerate(old.face_edges):
        for e in edges:
            other = old.face_across(f, int(e))
            assert sorted(new.edge_faces[e].tolist()) == sorted(
                [f, -1 if other is None else other])


def assert_same_classes(new, old):
    assert classify_elements(new) == loop.classify_elements(old)
    assert irregular_basis_vertices(new) == loop.irregular_basis_vertices(old)
    for ep in loop.extraordinary_vertices(old):
        for m in (1, 2, 3):
            assert ring_faces(new, ep, m) == loop.ring_faces(old, ep, m)
            assert ring_vertices(new, ep, m) == loop.ring_vertices(old, ep, m)
    info = analyze_net(new)
    face_cluster, cluster_rings = loop.clusters(old)
    assert info.faces.dtype.kind == info.cluster.dtype.kind == "i"
    assert info.faces.tolist() == sorted(face_cluster)
    assert info.cluster.tolist() == [face_cluster[f] for f in sorted(face_cluster)]
    # each cluster's faces are the one-rings of its extraordinary vertices
    assert sorted(cluster_rings) == np.unique(info.cluster).tolist()
    for c, ring in cluster_rings.items():
        assert info.faces[info.cluster == c].tolist() == ring


@pytest.mark.parametrize("levels", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(NETS))
def test_matches_loop_reference(name, levels):
    net, _ = refine_n(NETS[name](), levels)
    faces, n = net.cnet.faces, net.cnet.n_vertices
    new, old = CNet(n, faces), loop.LoopCNet(n, faces)
    assert_same_adjacency(new, old)
    assert_same_classes(new, old)


def test_edge_queries_reject_unknown_pairs():
    cnet = netgen.val33().cnet
    n = cnet.n_vertices
    for u, v in [(0, n), (-1, 0), (n, n + 1), (0, 0)]:
        with pytest.raises(DomainError, match="no edge"):
            loop.LoopCNet(n, cnet.faces).edge_id(u, v)


def _cube(v0, offset):
    """Faces of a closed cube whose first vertex is ``v0`` and whose other
    seven are ``offset + 1 .. offset + 7``."""
    ids = [v0] + [offset + k for k in range(1, 8)]
    return [[ids[k] for k in quad] for quad in netgen.cube().cnet.faces]


BOW_TIE = [(0, 1, 2, 3), (0, 4, 5, 6)]
GLUED_CUBES = _cube(0, 0) + _cube(0, 7)

BROKEN = {
    "bow_tie": (7, BOW_TIE, TopologyError, "boundary vertex 0 has a split fan"),
    "glued_cubes": (15, GLUED_CUBES, TopologyError,
                    "interior vertex 0 has a split fan"),
    "unused_vertex": (5, [(0, 1, 2, 3)], TopologyError,
                      "vertex 4 belongs to no face"),
    "split_fan_before_unused": (16, GLUED_CUBES, TopologyError,
                                "interior vertex 0 has a split fan"),
    "repeated_vertex": (10, [(0, 1, 2, 3), (4, 5, 5, 6), (7, 8, 9, 7)],
                        FormatError, "face 1 has repeated vertices"),
    "reversed_face": (6, [(0, 1, 2, 3), (1, 2, 4, 5)], TopologyError,
                      "directed edge (1, 2) appears twice; net is "
                      "non-manifold or inconsistently oriented"),
}


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_topology_errors(name):
    n, faces, kind, message = BROKEN[name]
    with pytest.raises(kind) as exc:
        CNet(n, faces)
    assert str(exc.value) == message
    assert _outcome(lambda: loop.LoopCNet(n, faces)) == (kind, message)


def _mutants(seed: int, count: int):
    """Faces of refined rot44 with one vertex index replaced at random, or
    one face reversed."""
    base = refine_n(netgen.rot44(), 1)[0].cnet
    rng = np.random.default_rng(seed)
    for _ in range(count):
        faces = np.array(base.faces)
        f = rng.integers(base.n_faces)
        if rng.random() < 0.25:
            faces[f] = faces[f][::-1]
        else:
            faces[f, rng.integers(4)] = rng.integers(base.n_vertices)
        yield base.n_vertices, faces


@pytest.mark.parametrize("seed", range(4))
def test_mutants_fail_like_the_loop_reference(seed):
    for n, faces in _mutants(seed, 100):
        new = _outcome(lambda: CNet(n, faces))
        old = _outcome(lambda: loop.LoopCNet(n, faces))
        if isinstance(old, tuple):
            assert new == old
        else:
            assert_same_adjacency(new, old)
            assert_same_classes(new, old)
