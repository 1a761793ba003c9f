import numpy as np
import pytest

from gspline.errors import DomainError, EmptyError, FormatError, TopologyError
from gspline.mesh import (
    CNet,
    classify_elements,
    classify_vertices,
    extraordinary_vertices,
    irregular_basis_vertices,
    load_obj,
    ring_faces,
    ring_vertices,
    save_obj,
    spoke_edges,
    spoke_mask,
    ElementClass,
)

import netgen
import topology_loop


SINGLE_QUAD = b"""
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
f 1 2 3 4
"""


def brute_force_rings(cnet, ep, m_max):
    """Ring layers recomputed independently via face-distance BFS."""
    touch = [set() for _ in range(cnet.n_faces)]
    for f, quad in enumerate(cnet.faces):
        for g in range(cnet.n_faces):
            if g != f and set(map(int, quad)) & set(map(int, cnet.faces[g])):
                touch[f].add(g)
    dist = {f: 1 for f in np.flatnonzero((cnet.faces == ep).any(axis=1)).tolist()}
    frontier = set(dist)
    d = 1
    while frontier and d < m_max:
        d += 1
        nxt = set()
        for f in frontier:
            for g in touch[f]:
                if g not in dist:
                    dist[g] = d
                    nxt.add(g)
        frontier = nxt
    return {m: {f for f, dd in dist.items() if dd == m} for m in range(1, m_max + 1)}


class TestLoadObj:
    def test_single_quad(self):
        net = load_obj(SINGLE_QUAD)
        assert net.cnet.n_vertices == 4
        assert net.cnet.n_faces == 1
        classes = classify_vertices(net.cnet)
        assert all(c.is_boundary and c.is_corner for c in classes)
        assert all(not c.is_extraordinary for c in classes)
        assert net.cnet.n_edges == 4
        assert net.cnet.boundary_edge.all()

    def test_triangle_rejected(self):
        data = b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"
        with pytest.raises(FormatError):
            load_obj(data)

    def test_no_faces(self):
        with pytest.raises(EmptyError):
            load_obj(b"v 0 0 0\nv 1 0 0\n")

    def test_structured_grid(self):
        net = netgen.structured(3, 3)
        text = save_obj(net)
        back = load_obj(text.encode())
        assert back.cnet.n_vertices == 16
        assert not extraordinary_vertices(back.cnet)
        center = 1 * 4 + 1
        assert back.cnet.valence[center] == 4
        np.testing.assert_array_equal(back.cnet.faces, net.cnet.faces)
        np.testing.assert_allclose(back.positions, net.positions, atol=0)

    def test_slash_references_ignored(self):
        data = b"v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1/1 2/2 3/3 4/4\n"
        net = load_obj(data)
        assert net.cnet.n_faces == 1

    def test_inconsistent_orientation(self):
        # second face traverses the shared edge in the same direction
        faces = [(0, 1, 2, 3), (1, 2, 4, 5)]
        with pytest.raises(TopologyError):
            CNet(6, faces)

    def test_roundtrip_17_digits(self):
        rng = np.random.default_rng(3)
        net = netgen.structured(2, 2, zfun=lambda x, y: rng.uniform(-1, 1))
        back = load_obj(save_obj(net).encode())
        np.testing.assert_array_equal(back.positions, net.positions)


class TestClassification:
    def test_cube_all_extraordinary(self):
        net = netgen.cube()
        classes = classify_vertices(net.cnet)
        assert all(not c.is_boundary for c in classes)
        assert all(c.valence == 3 for c in classes)
        assert all(c.is_extraordinary for c in classes)

    def test_structured_grid_classes(self):
        net = netgen.structured(3, 3)
        classes = classify_vertices(net.cnet)
        assert sum(c.is_corner for c in classes) == 4
        assert not any(c.is_extraordinary for c in classes)

    def test_expected_ep_sets(self):
        assert extraordinary_vertices(netgen.fan(3).cnet) == [0]
        assert extraordinary_vertices(netgen.fan(5).cnet) == [0]
        assert extraordinary_vertices(netgen.boundary_ep3().cnet) == [0]
        assert extraordinary_vertices(netgen.val33().cnet) == [0, 1]
        assert extraordinary_vertices(netgen.val333().cnet) == [0, 1, 2]

    def test_boundary_ep_is_boundary(self):
        net = netgen.boundary_ep3()
        c = classify_vertices(net.cnet)[0]
        assert c.is_boundary and c.valence == 3 and c.is_extraordinary

    def test_rot44_valences(self):
        net = netgen.rot44()
        classes = classify_vertices(net.cnet)
        eps = {v: classes[v].valence for v in extraordinary_vertices(net.cnet)}
        assert sorted(eps.values()) == [3, 3, 5, 5]
        assert all(not classes[v].is_boundary for v in eps)


class TestRings:
    def test_fan5_one_ring(self):
        net = netgen.fan(5)
        assert ring_faces(net.cnet, 0, 1) == set(range(5))

    def test_ring_zero_rejected(self):
        with pytest.raises(DomainError):
            ring_faces(netgen.fan(5).cnet, 0, 0)

    @pytest.mark.parametrize("name", ["rot44", "val33", "val333", "open_box"])
    def test_rings_match_brute_force(self, name):
        net = getattr(netgen, name)()
        for ep in extraordinary_vertices(net.cnet):
            expected = brute_force_rings(net.cnet, ep, 3)
            for m in (1, 2, 3):
                assert ring_faces(net.cnet, ep, m) == expected[m]

    def test_rings_disjoint(self):
        net = netgen.rot44()
        for ep in extraordinary_vertices(net.cnet):
            rings = [ring_faces(net.cnet, ep, m) for m in (1, 2, 3)]
            assert not (rings[0] & rings[1])
            assert not (rings[0] & rings[2])
            assert not (rings[1] & rings[2])

    def test_ring_vertices_rot44(self):
        net = netgen.rot44()
        for ep in extraordinary_vertices(net.cnet):
            r1 = ring_vertices(net.cnet, ep, 1)
            assert ep not in r1
            on_faces = set()
            for f in ring_faces(net.cnet, ep, 1):
                on_faces.update(int(v) for v in net.cnet.faces[f])
            assert r1 == on_faces - {ep}


class TestElements:
    def test_no_eps_all_regular(self):
        net = netgen.structured(4, 4)
        assert set(classify_elements(net.cnet)) == {ElementClass.REGULAR}

    def test_irregular_beats_transition(self):
        net = netgen.val33()
        labels = classify_elements(net.cnet)
        # every face touches one of the two EPs here
        assert set(labels) == {ElementClass.IRREGULAR}

    def test_open_box_top_face_irregular(self):
        net = netgen.open_box()
        labels = classify_elements(net.cnet)
        assert labels[4] is ElementClass.IRREGULAR

    def test_rot44_layering(self):
        net = netgen.rot44()
        labels = classify_elements(net.cnet)
        eps = extraordinary_vertices(net.cnet)
        ring1 = set().union(*(ring_faces(net.cnet, ep, 1) for ep in eps))
        ring2 = set().union(*(ring_faces(net.cnet, ep, 2) for ep in eps))
        for f, lab in enumerate(labels):
            if f in ring1:
                assert lab is ElementClass.IRREGULAR
            elif f in ring2:
                assert lab is ElementClass.TRANSITION
            else:
                assert lab is ElementClass.REGULAR

    def test_relabeling_invariance(self):
        net = netgen.rot44()
        labels = classify_elements(net.cnet)
        rng = np.random.default_rng(11)
        perm = rng.permutation(net.cnet.n_vertices)
        faces = [[int(perm[v]) for v in quad] for quad in net.cnet.faces]
        relabeled = CNet(net.cnet.n_vertices, faces)
        assert classify_elements(relabeled) == labels


class TestSpokesAndBasis:
    def test_no_eps_no_spokes(self):
        assert spoke_edges(netgen.structured(3, 3).cnet) == set()

    def test_fan5_spokes(self):
        net = netgen.fan(5)
        assert len(spoke_edges(net.cnet)) == 5

    def test_shared_spoke_counted_once(self):
        net = netgen.val33()
        cnet = net.cnet
        spokes = spoke_edges(cnet)
        loop = topology_loop.LoopCNet(cnet.n_vertices, cnet.faces)
        assert loop.edge_id(0, 1) in spokes
        by_ep = [e for v in (0, 1)
                 for e in np.flatnonzero((cnet.edges == v).any(axis=1))]
        assert len(spokes) == len(set(by_ep))

    @pytest.mark.parametrize("make", [netgen.val33, netgen.rot44, lambda: netgen.fan(5)])
    def test_spoke_mask_is_the_edges_at_extraordinary_vertices(self, make):
        cnet = make().cnet
        expected = {int(e) for ep in extraordinary_vertices(cnet)
                    for e in np.flatnonzero((cnet.edges == ep).any(axis=1))}
        mask = spoke_mask(cnet)
        assert mask.shape == (cnet.n_edges,)
        assert set(np.flatnonzero(mask).tolist()) == expected == spoke_edges(cnet)

    def test_spoke_edge_touches_irregular(self):
        net = netgen.rot44()
        labels = classify_elements(net.cnet)
        for e in spoke_edges(net.cnet):
            assert any(labels[f] is ElementClass.IRREGULAR
                       for f in net.cnet.edge_faces[e])

    def test_irregular_basis_vertices(self):
        net = netgen.rot44()
        cnet = net.cnet
        expected = set()
        for ep in extraordinary_vertices(cnet):
            expected |= {ep} | ring_vertices(cnet, ep, 1) | ring_vertices(cnet, ep, 2)
        assert irregular_basis_vertices(cnet) == expected

    def test_handshake_identity_closed_net(self):
        net = netgen.cube()
        assert int(net.cnet.valence.sum()) == 4 * net.cnet.n_faces
