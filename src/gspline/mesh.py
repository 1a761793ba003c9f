"""Unstructured quadrilateral control nets (C-nets) and their classification.

A C-net is pure-quad connectivity: vertices, counterclockwise 4-tuples of
vertex indices as faces, and the derived edge/vertex adjacency.  A control
net pairs a C-net with one 3D control point per vertex.  Vertices are
classified into regular and extraordinary ones; faces, once per net, into
irregular, transition and regular elements by their ring distance from
extraordinary vertices (``CNet.rings``) and into EP clusters (``CNet.clusters``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, EmptyError, FormatError, InternalError, TopologyError


class ElementClass(enum.Enum):
    IRREGULAR = "irregular"
    TRANSITION = "transition"
    REGULAR = "regular"


@dataclass(frozen=True)
class VertexClass:
    valence: int
    is_boundary: bool
    is_extraordinary: bool
    is_corner: bool


class CNet:
    """Connectivity of a manifold, consistently oriented pure-quad net.

    All adjacency is index arithmetic on the corners ``c = 4 f + s``: an
    edge has the key min n + max, and one sort of the corners by edge puts
    the two directions of every edge side by side.  Edge
    ids follow first appearance in face-major order; ``edge_faces`` holds
    the face of that appearance and the face across (-1 at the boundary).
    ``sides`` holds the gluing frames of every edge, and ``rings`` and
    ``clusters`` the classification of every face: rings hop through
    ``faces``, and clusters and the fan check are ``components`` of index
    graphs.

    Parameters
    ----------
    n_vertices : int
        Number of vertices.
    faces : sequence of 4-tuples
        Counterclockwise vertex indices per face.

    Raises
    ------
    EmptyError
        If there are no faces.
    FormatError
        If a face does not have 4 distinct valid vertex indices.
    TopologyError
        If the net is non-manifold or not consistently oriented.
    """

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
        ordered = np.sort(faces, axis=1)
        repeated = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
        if repeated.size:
            raise FormatError(f"face {repeated[0]} has repeated vertices")

        self.n_vertices = int(n_vertices)
        self.n_faces = len(faces)
        self.faces = faces
        self.faces.setflags(write=False)
        # corner c = 4 f + s runs the side tail[c] -> head[c] of face f
        tail, head = faces.ravel(), np.roll(faces, -1, axis=1).ravel()
        twin = self._build_adjacency(tail, head)
        self._check_fans(tail, twin)

    # ------------------------------------------------------------------
    # adjacency

    def _build_adjacency(self, tail: np.ndarray, head: np.ndarray) -> np.ndarray:
        """Set the adjacency arrays; return each corner's twin, the corner
        running its side backwards in the face across (-1 at the boundary)."""
        n, n_c = self.n_vertices, len(tail)
        low, high = np.minimum(tail, head), np.maximum(tail, head)
        # one sort by edge, the two directions of an edge side by side
        sides = (low * n + high) * 2 + (tail > head)
        order = np.argsort(sides)
        keys = sides[order]
        if (keys[1:] == keys[:-1]).any():  # name the lowest repeat, as a stable sort
            order = np.argsort(sides, kind="stable")
            keys = sides[order]
            c = order[1:][keys[1:] == keys[:-1]].min()
            raise TopologyError(
                f"directed edge {(int(tail[c]), int(head[c]))} appears twice; "
                "net is non-manifold or inconsistently oriented"
            )
        pair = np.flatnonzero(keys[1:] >> 1 == keys[:-1] >> 1)
        twin = np.full(n_c, -1)
        twin[order[pair]], twin[order[pair + 1]] = order[pair + 1], order[pair]

        # edge ids in order of first appearance; with no side repeated an
        # edge has at most two corners, the first and its twin
        first = (twin < 0) | (twin > np.arange(n_c))
        edge_of = np.cumsum(first) - 1
        starts = np.flatnonzero(first)
        self.n_edges = len(starts)
        self.edges = np.stack([low[starts], high[starts]], axis=1)
        self.face_edges = np.where(first, edge_of, edge_of[twin]).reshape(-1, 4)
        # floor division keeps a missing twin at -1
        self.edge_faces = np.stack([starts, twin[starts]], axis=1) // 4
        self.boundary_edge = self.edge_faces[:, 1] < 0

        self.valence = np.bincount(tail, minlength=n)
        self.boundary_vertex = np.zeros(n, dtype=bool)
        self.boundary_vertex[self.edges[self.boundary_edge]] = True
        # interior vertices of valence other than four, boundary ones above two
        self.extraordinary = np.where(self.boundary_vertex, self.valence > 2,
                                      self.valence != 4)
        return twin

    def _check_fans(self, tail: np.ndarray, twin: np.ndarray) -> None:
        # The corners at a vertex must form one closed cycle (interior) or
        # one open chain (boundary).  A corner's successor is the corner at
        # the same vertex across its outgoing side: the one after its twin.
        linked = np.flatnonzero(twin >= 0)
        after = twin[linked] - twin[linked] % 4 + (twin[linked] + 1) % 4
        n_fans, fan = components(len(tail), linked, after)
        fan_vertex = np.empty(n_fans, dtype=int)
        fan_vertex[fan] = tail
        fans = np.bincount(fan_vertex, minlength=self.n_vertices)
        bad = np.flatnonzero(fans != 1)
        if bad.size:
            v = bad[0]
            if fans[v] == 0:
                raise TopologyError(f"vertex {v} belongs to no face")
            kind = "boundary" if self.boundary_vertex[v] else "interior"
            raise TopologyError(f"{kind} vertex {v} has a split fan")

    # ------------------------------------------------------------------
    # gluing

    @cached_property
    def sides(self) -> tuple[np.ndarray, np.ndarray]:
        """The two elements at every edge in their gluing frames, read-only.

        Returns ``(faces, rots)``, each (n_edges, 2): column 0 holds the
        right element, whose loop runs from the lower vertex to the higher,
        column 1 the left one; ``rots`` the quarter-turn index of each, the
        position of the lower vertex in its loop.  -1 on the missing side
        of a boundary edge.
        """
        forward = self.faces < np.roll(self.faces, -1, axis=1)
        faces = np.full((self.n_edges, 2), -1)
        rots = np.full((self.n_edges, 2), -1)
        for side, (f, s) in enumerate((np.nonzero(forward), np.nonzero(~forward))):
            faces[self.face_edges[f, s], side] = f
            rots[self.face_edges[f, s], side] = (s + side) % 4
        for a in (faces, rots):
            a.setflags(write=False)
        return faces, rots

    # ------------------------------------------------------------------
    # classification

    @cached_property
    def rings(self) -> np.ndarray:
        """(n_faces,) ring of every face around the extraordinary vertices,
        read-only: 1 on irregular faces (an extraordinary corner), 2 on
        transition faces (a vertex shared with an irregular face), else 0."""
        ring1, ring2 = _face_rings(self, self.extraordinary, 2)
        rings = ring1 + 2 * ring2
        rings.setflags(write=False)
        return rings

    @cached_property
    def clusters(self) -> np.ndarray:
        """(n_faces,) EP cluster of every irregular face, -1 elsewhere,
        read-only.  EPs whose one-rings share a face or an edge form one
        cluster, named by its smallest EP: a component of the graph linking
        each irregular face to its EP corners and the irregular faces across
        its edges."""
        n_v = self.n_vertices
        eps = np.flatnonzero(self.extraordinary)
        at_ep = self.extraordinary[self.faces]
        irregular = self.rings == 1
        f, g = self.edge_faces[~self.boundary_edge].T
        across = irregular[f] & irregular[g]
        rows = np.concatenate([self.faces[at_ep], n_v + f[across]])
        cols = np.concatenate([n_v + np.nonzero(at_ep)[0], n_v + g[across]])
        size = n_v + self.n_faces
        _, component = components(size, rows, cols)
        named, smallest = np.unique(component[eps], return_index=True)  # eps ascend
        name = np.full(size, -1)
        name[named] = eps[smallest]
        clusters = name[component[n_v:]]  # a face off the graph has no EP
        clusters.setflags(write=False)
        return clusters


@dataclass(frozen=True)
class ControlNet:
    """A C-net together with 3D control-point positions (one per vertex)."""

    cnet: CNet
    positions: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.shape != (self.cnet.n_vertices, 3):
            raise FormatError(
                f"expected {self.cnet.n_vertices} control points, got {pos.shape}"
            )
        if not np.all(np.isfinite(pos)):
            raise FormatError("control-point coordinates must be finite")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)


# ----------------------------------------------------------------------
# classification


def components(n: int, a, b) -> tuple[int, np.ndarray]:
    """Connected components of the undirected graph on nodes 0..n-1 with
    the edges a[i] -- b[i]: their number and the (n,) component of every
    node, numbered in order of each component's smallest node.

    Hook and compress on index arrays: every tree root hooks onto the
    smallest root across its edges, then pointer jumping flattens every
    tree, until no edge joins two trees.  A root only ever hooks onto a
    smaller one, so every root ends as its component's smallest node.
    """
    root = np.arange(n)
    a, b = np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)
    while True:
        ra, rb = root[a], root[b]
        apart = ra != rb
        if not apart.any():
            break
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(up := root[root], root):
            root = up
    is_root = root == np.arange(n)
    return int(is_root.sum()), (np.cumsum(is_root) - 1)[root]


def classify_vertices(cnet: CNet) -> list[VertexClass]:
    """Classify every vertex by valence (incident faces), boundary flag and
    extraordinarity (``CNet.extraordinary``).  A boundary vertex of valence
    one is a corner.
    """
    return [
        VertexClass(valence=int(mu), is_boundary=bool(bnd),
                    is_extraordinary=bool(ext), is_corner=bool(bnd and mu == 1))
        for mu, bnd, ext in zip(cnet.valence, cnet.boundary_vertex,
                                cnet.extraordinary)
    ]


def extraordinary_vertices(cnet: CNet) -> list[int]:
    return np.flatnonzero(cnet.extraordinary).tolist()


def _face_rings(cnet: CNet, seeds, m: int) -> list[np.ndarray]:
    """Face masks of rings 1..m around the vertices ``seeds`` (indices or a
    mask): ring 1 holds the faces at a seed, ring k the faces sharing a
    vertex with ring k - 1 that lie in no lower ring."""
    at_seed = np.zeros(cnet.n_vertices, dtype=bool)
    at_seed[seeds] = True
    layer = at_seed[cnet.faces].any(axis=1)
    rings, seen = [layer], layer
    for _ in range(m - 1):
        layer = _vertices_on(cnet, layer)[cnet.faces].any(axis=1) & ~seen
        seen = seen | layer
        rings.append(layer)
    return rings


def _vertices_on(cnet: CNet, faces: np.ndarray) -> np.ndarray:
    """Mask of the vertices of the faces where the mask ``faces`` is set."""
    on = np.zeros(cnet.n_vertices, dtype=bool)
    on[cnet.faces[faces]] = True
    return on


def ring_faces(cnet: CNet, ep: int, m: int) -> set[int]:
    """m-ring faces of an extraordinary vertex.

    Ring 1 holds the faces incident to ``ep``; ring m the faces touching a
    ring-(m-1) face that lie in no lower ring.  Rings of distinct vertices
    are independent of each other.
    """
    if m < 1:
        raise DomainError("ring index must be >= 1 (ring 0 holds no faces)")
    return set(np.flatnonzero(_face_rings(cnet, [ep], m)[-1]).tolist())


def ring_vertices(cnet: CNet, ep: int, m: int) -> set[int]:
    """m-ring vertices: ring 0 is {ep}; ring m the new vertices on m-ring faces."""
    if m < 0:
        raise DomainError("ring index must be >= 0")
    if m == 0:
        return {ep}
    *inner, outer = _face_rings(cnet, [ep], m)
    seen = _vertices_on(cnet, sum(inner, np.zeros(cnet.n_faces, dtype=bool)))
    seen[ep] = True
    return set(np.flatnonzero(_vertices_on(cnet, outer) & ~seen).tolist())


def vertex_fans(cnet: CNet, vertices):
    """The corners at the vertices ``vertices`` (a mask), valence by
    valence: yields ``(v, corners)`` for each valence mu present, ``v``
    (m,) ascending and ``corners`` (m, mu) the corners c = 4 f + s with
    ``faces[f, s] == v``, ascending along each row."""
    by_vertex = np.argsort(cnet.faces.ravel(), kind="stable")
    start = np.cumsum(cnet.valence) - cnet.valence
    mu = cnet.valence
    for k in np.unique(mu[vertices]).tolist():
        v = np.flatnonzero(vertices & (mu == k))
        yield v, by_vertex[start[v, None] + np.arange(k)]


def merge_rows(cols: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows (m, k) of (column, value) entries in canonical CSR order.

    Each row is sorted stably by column, and the values of a repeated
    column are summed in row order into its last entry, leaving 0.0 in the
    others: the order in which a CSR matrix built from the triplets sorts
    and sums its duplicates, so products formed from the result match it
    bit for bit.
    """
    m, k = cols.shape
    b = k.bit_length()
    keys = cols << b | np.arange(k)  # unique keys: sorted, a stable order
    keys.sort(axis=1)
    cols, vals = keys >> b, vals.ravel()[(keys & (1 << b) - 1) + k * np.arange(m)[:, None]]
    again = cols[:, 1:] == cols[:, :-1]
    for t in np.flatnonzero(again.any(axis=0)).tolist():  # runs, left to right
        vals[:, t + 1] += np.where(again[:, t], vals[:, t], 0.0)
    vals[:, :-1][again] = 0.0
    return cols, vals


def classify_elements(cnet: CNet) -> list[ElementClass]:
    """``CNet.rings`` as labels: ring 1 -> irregular, ring 2 -> transition,
    else regular."""
    by_ring = np.array([ElementClass.REGULAR, ElementClass.IRREGULAR,
                        ElementClass.TRANSITION], dtype=object)
    return by_ring[cnet.rings].tolist()


def boundary_neighbours(cnet: CNet) -> np.ndarray:
    """(n_vertices, 2) array of the two vertices that share a boundary edge
    with each boundary vertex, the one across the lower edge id first;
    -1 on interior vertices.  The fan check of ``CNet`` leaves every
    boundary vertex exactly two boundary edges.
    """
    ends = cnet.edges[cnet.boundary_edge]
    own, other = ends.ravel(), ends[:, ::-1].ravel()
    count = np.bincount(own, minlength=cnet.n_vertices)
    bad = np.flatnonzero(cnet.boundary_vertex & (count != 2))
    if bad.size:
        raise InternalError(f"boundary vertex {bad[0]} has {count[bad[0]]} "
                            "boundary edges")
    out = np.full((cnet.n_vertices, 2), -1)
    out[cnet.boundary_vertex] = other[np.argsort(own, kind="stable")].reshape(-1, 2)
    return out


def spoke_mask(cnet: CNet) -> np.ndarray:
    """(n_edges,) mask of the edges emanating from any extraordinary vertex."""
    return cnet.extraordinary[cnet.edges].any(axis=1)


def spoke_edges(cnet: CNet) -> set[int]:
    """Edges emanating from any extraordinary vertex."""
    return set(np.flatnonzero(spoke_mask(cnet)).tolist())


def irregular_basis_vertices(cnet: CNet) -> set[int]:
    """Vertices carrying irregular basis functions: every vertex within
    ring index 2 of some extraordinary vertex."""
    return set(np.flatnonzero(_vertices_on(cnet, cnet.rings > 0)).tolist())


# ----------------------------------------------------------------------
# Wavefront OBJ I/O


def load_obj(data: bytes | str) -> ControlNet:
    """Parse a Wavefront OBJ byte stream into a control net.

    Only ``v`` and ``f`` records are read; faces must be quads with
    1-based indices (texture/normal references after ``/`` are ignored).
    """
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise FormatError(f"OBJ is not UTF-8 text: {exc}") from exc
    positions: list[list[float]] = []
    faces: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "v":
            if len(parts) < 4:
                raise FormatError(f"line {lineno}: vertex needs 3 coordinates")
            try:
                positions.append([float(x) for x in parts[1:4]])
            except ValueError as exc:
                raise FormatError(f"line {lineno}: bad coordinate") from exc
        elif tag == "f":
            refs = parts[1:]
            if len(refs) != 4:
                raise FormatError(
                    f"line {lineno}: face has {len(refs)} vertices, expected 4"
                )
            idx = []
            for r in refs:
                head = r.split("/", 1)[0]
                try:
                    i = int(head)
                except ValueError as exc:
                    raise FormatError(f"line {lineno}: bad face index {r!r}") from exc
                if i < 0:
                    i = len(positions) + 1 + i
                idx.append(i - 1)
            faces.append(idx)
        # everything else (vn, vt, usemtl, ...) is ignored
    if not faces:
        raise EmptyError("OBJ contains no faces")
    cnet = CNet(len(positions), faces)
    return ControlNet(cnet, np.asarray(positions, dtype=float))


def save_obj(net: ControlNet) -> str:
    """Serialize a control net as OBJ text: ``obj_text`` of its net."""
    return obj_text(net.positions, net.cnet.faces)


def obj_text(points, quads) -> str:
    """OBJ text of (n, 3) points, at 17 significant digits, and 0-based quads."""
    lines = [f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in np.asarray(points).tolist()]
    lines += ["f " + " ".join(str(i + 1) for i in q) for q in np.asarray(quads).tolist()]
    return "\n".join(lines) + "\n"
