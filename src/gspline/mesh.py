"""Unstructured quadrilateral control nets (C-nets) and their classification.

A C-net is pure-quad connectivity: vertices, counterclockwise 4-tuples of
vertex indices as faces, and the derived edge/vertex adjacency.  A control
net pairs a C-net with one 3D control point per vertex.  Vertices are
classified into regular and extraordinary ones; faces into regular,
transition and irregular elements according to their breadth-first ring
distance from extraordinary vertices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyError, FormatError, TopologyError


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
        faces = np.asarray(faces, dtype=int)
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

    # ------------------------------------------------------------------
    # adjacency

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
        self.vertex_edges: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for e, (u, v) in enumerate(self.edges):
            self.vertex_edges[int(u)].append(e)
            self.vertex_edges[int(v)].append(e)

        self.boundary_vertex = np.zeros(self.n_vertices, dtype=bool)
        for e, (u, v) in enumerate(self.edges):
            if self.boundary_edge[e]:
                self.boundary_vertex[int(u)] = True
                self.boundary_vertex[int(v)] = True

        self.valence = np.array([len(fs) for fs in self.vertex_faces])
        self.n_faces = len(self.faces)
        self.n_edges = n_e

    def _check_manifold(self) -> None:
        # The faces around a vertex must form one closed cycle (interior)
        # or one open chain (boundary).
        for v in range(self.n_vertices):
            faces = self.vertex_faces[v]
            if not faces:
                raise TopologyError(f"vertex {v} belongs to no face")
            # Walk the fan via the directed edges leaving v.
            nxt = {}
            for f in faces:
                quad = [int(x) for x in self.faces[f]]
                s = quad.index(v)
                out_v = quad[(s + 1) % 4]  # edge (v, out_v) belongs to f
                in_v = quad[(s - 1) % 4]  # edge (in_v, v) belongs to f
                nxt[out_v] = in_v  # crossing f links the two edge-ends at v
            # Count chains in the functional graph on neighbor vertices.
            starts = set(nxt) - set(nxt.values())
            if self.boundary_vertex[v]:
                chains = len(starts)
                if chains != 1:
                    raise TopologyError(f"boundary vertex {v} has a split fan")
                # Follow the single chain; it must visit every face once.
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

    # ------------------------------------------------------------------
    # queries

    def edge_id(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        try:
            return self.edge_index[key]
        except KeyError:
            raise DomainError(f"no edge between vertices {u} and {v}") from None

    def face_across(self, face: int, edge: int) -> int | None:
        """Face on the other side of ``edge``, or None at the boundary."""
        fs = self.edge_faces[edge]
        if len(fs) == 1:
            return None
        return fs[0] if fs[1] == face else fs[1]

    def directed_face(self, u: int, v: int) -> int | None:
        """Face whose counterclockwise loop traverses u -> v, if any."""
        return self._directed.get((u, v))


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


def classify_vertices(cnet: CNet) -> list[VertexClass]:
    """Classify every vertex by valence, boundary flag and extraordinarity.

    Valence counts incident faces.  A vertex is extraordinary when it is
    interior with valence other than four, or on the boundary with valence
    greater than two.  A boundary vertex of valence one is a corner.
    """
    out = []
    for v in range(cnet.n_vertices):
        mu = int(cnet.valence[v])
        bnd = bool(cnet.boundary_vertex[v])
        extraordinary = (not bnd and mu != 4) or (bnd and mu > 2)
        out.append(
            VertexClass(
                valence=mu,
                is_boundary=bnd,
                is_extraordinary=extraordinary,
                is_corner=bnd and mu == 1,
            )
        )
    return out


def extraordinary_vertices(cnet: CNet) -> list[int]:
    return [v for v, c in enumerate(classify_vertices(cnet)) if c.is_extraordinary]


def ring_faces(cnet: CNet, ep: int, m: int) -> set[int]:
    """m-ring faces of an extraordinary vertex.

    Ring 1 holds the faces incident to ``ep``; ring m the faces touching a
    ring-(m-1) face that lie in no lower ring.  Rings of distinct vertices
    are independent of each other.
    """
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


def ring_vertices(cnet: CNet, ep: int, m: int) -> set[int]:
    """m-ring vertices: ring 0 is {ep}; ring m the new vertices on m-ring faces."""
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


def classify_elements(cnet: CNet) -> list[ElementClass]:
    """Label each face by its smallest ring index over all extraordinary
    vertices: ring 1 -> irregular, ring 2 -> transition, else regular."""
    labels = [ElementClass.REGULAR] * cnet.n_faces
    for ep in extraordinary_vertices(cnet):
        for f in ring_faces(cnet, ep, 1):
            labels[f] = ElementClass.IRREGULAR
        for f in ring_faces(cnet, ep, 2):
            if labels[f] is not ElementClass.IRREGULAR:
                labels[f] = ElementClass.TRANSITION
    return labels


def spoke_edges(cnet: CNet) -> set[int]:
    """Edges emanating from any extraordinary vertex."""
    out: set[int] = set()
    for ep in extraordinary_vertices(cnet):
        out.update(cnet.vertex_edges[ep])
    return out


def irregular_basis_vertices(cnet: CNet) -> set[int]:
    """Vertices carrying irregular basis functions: every vertex within
    ring index 2 of some extraordinary vertex."""
    out: set[int] = set()
    for ep in extraordinary_vertices(cnet):
        out.add(ep)
        for m in (1, 2):
            for f in ring_faces(cnet, ep, m):
                out.update(int(v) for v in cnet.faces[f])
    return out


# ----------------------------------------------------------------------
# Wavefront OBJ I/O


def load_obj(data: bytes | str) -> ControlNet:
    """Parse a Wavefront OBJ byte stream into a control net.

    Only ``v`` and ``f`` records are read; faces must be quads with
    1-based indices (texture/normal references after ``/`` are ignored).
    """
    if isinstance(data, bytes):
        text = data.decode("utf-8")
    else:
        text = data
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
    """Serialize a control net as OBJ text, positions at 17 significant digits."""
    lines = []
    for p in net.positions:
        lines.append(f"v {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}")
    for quad in net.cnet.faces:
        lines.append("f " + " ".join(str(int(v) + 1) for v in quad))
    return "\n".join(lines) + "\n"
