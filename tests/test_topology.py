"""Net topology of ``gspline.mesh``, its cached face classes and
extraordinary-vertex clusters, and ``gspline.construct_g1.analyze_net``
against the loop-based reference in ``topology_loop.py``, on every test
net, its refinements, the topology error cases and a seeded corpus of
broken nets.  Each class array is computed once per net."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from gspline import mesh
from gspline.cli import surface_check
from gspline.construct_c0 import build_c0
from gspline.construct_g1 import ConstraintProblem, analyze_net, build_g1
from gspline.errors import DomainError, FormatError, GSplineError, TopologyError
from gspline.mesh import (
    CNet,
    ElementClass,
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
    face_cluster, cluster_rings = loop.clusters(old)
    # the cached arrays: ring 1 irregular, 2 transition, 0 regular; the
    # cluster of each irregular face, -1 on the others
    ring = {ElementClass.IRREGULAR: 1, ElementClass.TRANSITION: 2,
            ElementClass.REGULAR: 0}
    assert new.rings.tolist() == [ring[c] for c in loop.classify_elements(old)]
    assert new.clusters.tolist() == [face_cluster.get(f, -1)
                                     for f in range(new.n_faces)]
    for a in (new.rings, new.clusters):
        assert a.shape == (new.n_faces,) and a.dtype.kind == "i"
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    assert new.rings is new.rings and new.clusters is new.clusters
    faces, cluster = analyze_net(new)
    assert faces.dtype.kind == cluster.dtype.kind == "i"
    assert faces.tolist() == sorted(face_cluster)
    assert cluster.tolist() == [face_cluster[f] for f in sorted(face_cluster)]
    # each cluster's faces are the one-rings of its extraordinary vertices
    assert sorted(cluster_rings) == np.unique(cluster).tolist()
    for c, faces_of in cluster_rings.items():
        assert faces[cluster == c].tolist() == faces_of


@pytest.mark.parametrize("levels", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(NETS))
def test_matches_loop_reference(name, levels):
    net, _ = refine_n(NETS[name](), levels)
    faces, n = net.cnet.faces, net.cnet.n_vertices
    new, old = CNet(n, faces), loop.LoopCNet(n, faces)
    assert_same_adjacency(new, old)
    assert_same_classes(new, old)


@pytest.mark.parametrize("name", ["structured", "cylinder"])
def test_net_without_extraordinary_vertices(name):
    """No EP: every face regular, no cluster, no irregular face."""
    cnet = NETS[name]().cnet
    assert not cnet.extraordinary.any()
    assert (cnet.rings == 0).all() and (cnet.clusters == -1).all()
    faces, cluster = analyze_net(cnet)
    assert faces.size == cluster.size == 0


def _counting(monkeypatch):
    """Count the ring and cluster passes: ``mesh._face_rings`` and
    ``mesh.components`` calls from now on."""
    calls = {"rings": 0, "clusters": 0}
    for key, owner, name in (("rings", mesh, "_face_rings"),
                             ("clusters", mesh, "components")):
        def counted(*args, _fn=getattr(owner, name), _key=key, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("variant", ["g1p", "g1r"])
def test_build_and_check_classify_once(monkeypatch, variant):
    """A G1 build and its check read one ring and one cluster pass of the
    net; the net's own fan check runs before counting starts."""
    net = refine_n(netgen.val333(), 1)[0]
    calls = _counting(monkeypatch)
    surface_check(build_g1(build_c0(net), variant))
    assert calls == {"rings": 1, "clusters": 1}


@pytest.mark.parametrize("variant", ["g1p", "g1r"])
def test_constraint_problems_share_the_clusters(monkeypatch, variant):
    """Problems built one by one, with nothing shared by the caller, add no
    cluster pass after the first."""
    c0 = build_c0(netgen.rot44())
    functions = sorted(irregular_basis_vertices(c0.cnet))
    calls = _counting(monkeypatch)
    for a in functions[:6]:
        ConstraintProblem(c0, a, variant)
    assert calls["clusters"] == 1


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


# graphs on 1..30 nodes with up to 60 edges: isolated nodes, self-loops,
# repeated edges and graphs without edges all occur
GRAPHS = st.integers(1, 30).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=60)))


@settings(max_examples=300, deadline=None)
@given(graph=GRAPHS)
@example(graph=(3, []))                                      # no edges
@example(graph=(3, [(1, 1), (1, 1)]))                        # self-loops only
@example(graph=(4, [(3, 2), (2, 3), (3, 2)]))                # one edge repeated
@example(graph=(6, [(5, 4), (4, 3), (3, 2), (2, 1), (1, 0)]))  # a path from the top
def test_components_match_scipy(graph):
    n, edges = graph
    a, b = np.array(edges, dtype=int).reshape(-1, 2).T
    expected = connected_components(
        sp.csr_matrix((np.ones(len(a)), (a, b)), shape=(n, n)), directed=False)
    count, labels = mesh.components(n, a, b)
    assert count == expected[0]
    np.testing.assert_array_equal(labels, expected[1])
