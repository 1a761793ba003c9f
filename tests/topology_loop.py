"""Dict- and loop-based reference for the net topology in ``gspline.mesh``,
the extraordinary-vertex clustering of ``gspline.construct_g1`` and the
edge gluing of ``gspline.evaluate``: adjacency built corner by corner in
dicts and lists, a fan walk per vertex, rings grown one extraordinary
vertex at a time, a union-find over the extraordinary vertices, and each
gluing frame found in the dict of directed sides.
"""

import weakref

import numpy as np

from gspline.errors import DomainError, EmptyError, FormatError, InternalError, TopologyError
from gspline.evaluate import EdgeFrames
from gspline.mesh import ElementClass


class LoopCNet:
    """Connectivity of a manifold, consistently oriented pure-quad net;
    ``edge_faces`` and ``vertex_faces`` are lists of lists."""

    def __init__(self, n_vertices: int, faces) -> None:
        try:
            faces = np.asarray(faces, dtype=int)
        except OverflowError as exc:
            raise FormatError("face vertex index out of range") from exc
        if faces.size == 0:
            raise EmptyError("net has no faces")
        if faces.ndim != 2 or faces.shape[1] != 4:
            raise FormatError("faces must be quadrilaterals")
        if faces.min() < 0 or faces.max() >= n_vertices:
            raise FormatError("face references a vertex that does not exist")
        for f, quad in enumerate(faces):
            if len(set(quad)) != 4:
                raise FormatError(f"face {f} has repeated vertices")

        self.n_vertices = int(n_vertices)
        self.faces = faces
        self.faces.setflags(write=False)
        self._build_adjacency()
        self._check_manifold()

    def _build_adjacency(self) -> None:
        edge_index: dict[tuple[int, int], int] = {}
        edge_faces: list[list[int]] = []
        directed: dict[tuple[int, int], int] = {}
        face_edges = np.empty_like(self.faces)

        for f, quad in enumerate(self.faces):
            for s in range(4):
                u, v = int(quad[s]), int(quad[(s + 1) % 4])
                if (u, v) in directed:
                    raise TopologyError(
                        f"directed edge {(u, v)} appears twice; net is "
                        "non-manifold or inconsistently oriented"
                    )
                directed[(u, v)] = f
                key = (u, v) if u < v else (v, u)
                e = edge_index.get(key)
                if e is None:
                    e = len(edge_faces)
                    edge_index[key] = e
                    edge_faces.append([])
                if len(edge_faces[e]) == 2:
                    raise TopologyError(f"edge {key} is shared by >2 faces")
                edge_faces[e].append(f)
                face_edges[f, s] = e

        self.edges = np.array(sorted(edge_index, key=edge_index.get), dtype=int)
        self.edge_index = edge_index
        self.edge_faces = edge_faces
        self.face_edges = face_edges
        self._directed = directed

        n_e = len(edge_faces)
        self.boundary_edge = np.array([len(fs) == 1 for fs in edge_faces])
        for e in range(n_e):
            if len(edge_faces[e]) == 2 and edge_faces[e][0] == edge_faces[e][1]:
                raise TopologyError(f"edge {e} bounds the same face twice")

        self.vertex_faces: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for f, quad in enumerate(self.faces):
            for v in quad:
                self.vertex_faces[int(v)].append(f)

        self.boundary_vertex = np.zeros(self.n_vertices, dtype=bool)
        for e, (u, v) in enumerate(self.edges):
            if self.boundary_edge[e]:
                self.boundary_vertex[int(u)] = True
                self.boundary_vertex[int(v)] = True

        self.valence = np.array([len(fs) for fs in self.vertex_faces])
        self.extraordinary = np.where(self.boundary_vertex, self.valence > 2,
                                      self.valence != 4)
        self.n_faces = len(self.faces)
        self.n_edges = n_e

    def _check_manifold(self) -> None:
        for v in range(self.n_vertices):
            faces = self.vertex_faces[v]
            if not faces:
                raise TopologyError(f"vertex {v} belongs to no face")
            nxt = {}
            for f in faces:
                quad = [int(x) for x in self.faces[f]]
                s = quad.index(v)
                out_v = quad[(s + 1) % 4]
                in_v = quad[(s - 1) % 4]
                nxt[out_v] = in_v
            starts = set(nxt) - set(nxt.values())
            if self.boundary_vertex[v]:
                chains = len(starts)
                if chains != 1:
                    raise TopologyError(f"boundary vertex {v} has a split fan")
                seen, cur = 0, next(iter(starts))
                while cur in nxt:
                    cur = nxt[cur]
                    seen += 1
                if seen != len(faces):
                    raise TopologyError(f"boundary vertex {v} has a split fan")
            else:
                if starts:
                    raise TopologyError(f"interior vertex {v} has an open fan")
                cur = next(iter(nxt))
                seen, node = 0, cur
                while True:
                    node = nxt[node]
                    seen += 1
                    if node == cur:
                        break
                    if seen > len(faces):
                        raise TopologyError(f"vertex {v} has a split fan")
                if seen != len(faces):
                    raise TopologyError(f"interior vertex {v} has a split fan")

    def edge_id(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        try:
            return self.edge_index[key]
        except KeyError:
            raise DomainError(f"no edge between vertices {u} and {v}") from None

    def face_across(self, face: int, edge: int) -> int | None:
        fs = self.edge_faces[edge]
        if len(fs) == 1:
            return None
        return fs[0] if fs[1] == face else fs[1]

    def directed_face(self, u: int, v: int) -> int | None:
        return self._directed.get((u, v))


_LOOP_NETS = weakref.WeakKeyDictionary()


def loop_net(cnet) -> LoopCNet:
    """The ``LoopCNet`` of a package net's faces, built once per net."""
    if cnet not in _LOOP_NETS:
        _LOOP_NETS[cnet] = LoopCNet(cnet.n_vertices, cnet.faces)
    return _LOOP_NETS[cnet]


def edge_frames(cnet, edge: int, v1: int | None = None) -> EdgeFrames:
    """Reference for ``evaluate.edge_frames``: the faces that run v1 -> v2
    (right) and v2 -> v1 (left) looked up in ``loop_net``'s directed
    sides, each quarter turn the position of v1 in that face's loop."""
    loop = loop_net(cnet)
    u, v = (int(x) for x in loop.edges[edge])
    if v1 is None:
        v1 = min(u, v)
    v2 = v if v1 == u else u
    if {v1, v2} != {u, v}:
        raise DomainError(f"vertex {v1} is not an endpoint of edge {edge}")
    right, left = loop.directed_face(v1, v2), loop.directed_face(v2, v1)
    if right is None or left is None:
        raise DomainError(f"edge {edge} is a boundary edge")
    return EdgeFrames(v1=v1, v2=v2, left=left, right=right,
                      rot_left=loop.faces[left].tolist().index(v1),
                      rot_right=loop.faces[right].tolist().index(v1))


def extraordinary_vertices(cnet) -> list[int]:
    return np.flatnonzero(cnet.extraordinary).tolist()


def ring_faces(cnet, ep: int, m: int) -> set[int]:
    if m < 1:
        raise DomainError("ring index must be >= 1 (ring 0 holds no faces)")
    layer = set(cnet.vertex_faces[ep])
    seen = set(layer)
    for _ in range(m - 1):
        nxt = set()
        for f in layer:
            for v in cnet.faces[f]:
                nxt.update(cnet.vertex_faces[int(v)])
        layer = nxt - seen
        seen |= layer
    return layer


def ring_vertices(cnet, ep: int, m: int) -> set[int]:
    if m < 0:
        raise DomainError("ring index must be >= 0")
    if m == 0:
        return {ep}
    seen = {ep}
    out: set[int] = set()
    for k in range(1, m + 1):
        out = set()
        for f in ring_faces(cnet, ep, k):
            out.update(int(v) for v in cnet.faces[f])
        out -= seen
        seen |= out
    return out


def classify_elements(cnet) -> list[ElementClass]:
    labels = [ElementClass.REGULAR] * cnet.n_faces
    for ep in extraordinary_vertices(cnet):
        for f in ring_faces(cnet, ep, 1):
            labels[f] = ElementClass.IRREGULAR
        for f in ring_faces(cnet, ep, 2):
            if labels[f] is not ElementClass.IRREGULAR:
                labels[f] = ElementClass.TRANSITION
    return labels


def irregular_basis_vertices(cnet) -> set[int]:
    out: set[int] = set()
    for ep in extraordinary_vertices(cnet):
        out.add(ep)
        for m in (1, 2):
            for f in ring_faces(cnet, ep, m):
                out.update(int(v) for v in cnet.faces[f])
    return out


def clusters(cnet) -> tuple[dict, dict]:
    """The clusters of ``construct_g1.analyze_net`` as dicts: irregular
    face -> cluster (``face_cluster``) and cluster -> its sorted faces
    (``cluster_rings``).  Extraordinary vertices whose one-rings share a
    face or an edge are merged by union-find; a cluster is named by its
    smallest vertex."""
    labels = classify_elements(cnet)
    eps = extraordinary_vertices(cnet)
    irregular = {f for f, lab in enumerate(labels) if lab is ElementClass.IRREGULAR}
    parent = {ep: ep for ep in eps}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    ep_set = set(eps)
    face_eps = [
        [int(v) for v in quad if int(v) in ep_set] for quad in cnet.faces
    ]
    for f in range(cnet.n_faces):
        for i in range(1, len(face_eps[f])):
            union(face_eps[f][0], face_eps[f][i])
    for e in range(cnet.n_edges):
        if cnet.boundary_edge[e]:
            continue
        f, g = cnet.edge_faces[e]
        for x in face_eps[f]:
            for y in face_eps[g]:
                union(x, y)

    face_cluster = {}
    cluster_rings: dict[int, set] = {}
    for f in irregular:
        if not face_eps[f]:
            raise InternalError(f"irregular face {f} has no extraordinary corner")
        face_cluster[f] = find(face_eps[f][0])
    for ep in eps:
        cluster_rings.setdefault(find(ep), set()).update(cnet.vertex_faces[ep])
    cluster_rings = {cid: sorted(fs) for cid, fs in cluster_rings.items()}
    return face_cluster, cluster_rings
