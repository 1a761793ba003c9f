"""Dict- and loop-based reference for the sparse operators in
``gspline.construct_c0`` and ``gspline.refine``: Bezier-point stencils as
``{vertex: weight}`` dicts merged per point, one 4x4 grid of stencils per
element with its support in first-appearance order, and one Catmull-Clark
level written as Python loops over vertices, faces and edges.
"""

import math

import numpy as np

from gspline.errors import DomainError, InternalError
from gspline.evaluate import GSplineSurface
from gspline.extraction import ElementExtraction
from gspline.mesh import CNet, ControlNet
from gspline.refine import _interior_vertex_mask

import extraction_list

Stencil = dict[int, float]


def _face_point(cnet: CNet, face: int, corner_slot: int) -> Stencil:
    """Face Bezier point nearest to the given corner of the face."""
    loop = [int(v) for v in cnet.faces[face]]
    a = loop[corner_slot]
    b = loop[(corner_slot + 1) % 4]
    c = loop[(corner_slot - 1) % 4]
    d = loop[(corner_slot + 2) % 4]
    return {a: 4.0 / 9.0, b: 2.0 / 9.0, c: 2.0 / 9.0, d: 1.0 / 9.0}


def _merge(*parts: tuple[float, Stencil]) -> Stencil:
    out: Stencil = {}
    for w, st in parts:
        for v, c in st.items():
            out[v] = out.get(v, 0.0) + w * c
    return out


def _vertex_faces(cnet: CNet) -> list[np.ndarray]:
    """Ascending ids of the faces at each vertex."""
    faces = np.argsort(cnet.faces.ravel(), kind="stable") // 4
    return np.split(faces, np.cumsum(cnet.valence)[:-1])


def _vertex_edges(cnet: CNet) -> list[list[int]]:
    """Edges at each vertex in ascending order, from ``cnet.edges``."""
    out: list[list[int]] = [[] for _ in range(cnet.n_vertices)]
    for e, (u, v) in enumerate(cnet.edges):
        out[int(u)].append(e)
        out[int(v)].append(e)
    return out


def c0_stencils(cnet: CNet):
    """All Bezier-point stencils of the net.

    Returns ``(face_pts, edge_pts, vertex_pts)``:
    ``face_pts[face][slot]`` for the four interior points of each face,
    ``edge_pts[edge][t]`` for the two points at 1/3 and 2/3 from the
    edge's lower-index endpoint, and ``vertex_pts[vertex]``.
    """
    face_pts = [
        [_face_point(cnet, f, s) for s in range(4)] for f in range(cnet.n_faces)
    ]

    def fp_by_vertex(face: int, vertex: int) -> Stencil:
        loop = [int(v) for v in cnet.faces[face]]
        return face_pts[face][loop.index(vertex)]

    edge_pts: list[dict[int, Stencil]] = []
    for e, (u, v) in enumerate(cnet.edges):
        u, v = int(u), int(v)  # u < v by construction
        if cnet.boundary_edge[e]:
            pts = {1: {u: 2.0 / 3.0, v: 1.0 / 3.0},
                   2: {u: 1.0 / 3.0, v: 2.0 / 3.0}}
        else:
            f1, f2 = cnet.edge_faces[e]
            pts = {
                1: _merge((0.5, fp_by_vertex(f1, u)), (0.5, fp_by_vertex(f2, u))),
                2: _merge((0.5, fp_by_vertex(f1, v)), (0.5, fp_by_vertex(f2, v))),
            }
        edge_pts.append(pts)

    vertex_edges, vertex_faces = _vertex_edges(cnet), _vertex_faces(cnet)
    vertex_pts: list[Stencil] = []
    for w in range(cnet.n_vertices):
        if cnet.boundary_vertex[w] and cnet.valence[w] == 1:  # corner
            vertex_pts.append({w: 1.0})
        elif cnet.boundary_vertex[w]:
            nbrs = []
            for e in vertex_edges[w]:
                if cnet.boundary_edge[e]:
                    a, b = (int(x) for x in cnet.edges[e])
                    nbrs.append(b if a == w else a)
            if len(nbrs) != 2:
                raise DomainError(
                    f"boundary vertex {w} has {len(nbrs)} boundary edges"
                )
            vertex_pts.append(
                {w: 2.0 / 3.0, nbrs[0]: 1.0 / 6.0, nbrs[1]: 1.0 / 6.0}
            )
        else:
            parts = [(1.0 / cnet.valence[w], fp_by_vertex(f, w))
                     for f in vertex_faces[w]]
            vertex_pts.append(_merge(*parts))
    return face_pts, edge_pts, vertex_pts


def _element_stencils(cnet: CNet, face: int, face_pts, edge_pts, vertex_pts):
    """The 16 Bezier-point stencils of one element, grid order (i fastest)."""
    loop = [int(v) for v in cnet.faces[face]]
    grid: list[list[Stencil | None]] = [[None] * 4 for _ in range(4)]

    grid[0][0] = vertex_pts[loop[0]]
    grid[3][0] = vertex_pts[loop[1]]
    grid[3][3] = vertex_pts[loop[2]]
    grid[0][3] = vertex_pts[loop[3]]

    grid[1][1] = face_pts[face][0]
    grid[2][1] = face_pts[face][1]
    grid[2][2] = face_pts[face][2]
    grid[1][2] = face_pts[face][3]

    # sides: (slot pair along the side, side index s = loop[s] -> loop[s+1])
    side_slots = {
        0: ((1, 0), (2, 0)),  # eta = 0, from loop[0] to loop[1]
        1: ((3, 1), (3, 2)),  # xi = 1, from loop[1] to loop[2]
        2: ((2, 3), (1, 3)),  # eta = 1, from loop[2] to loop[3]
        3: ((0, 2), (0, 1)),  # xi = 0, from loop[3] to loop[0]
    }
    for s in range(4):
        a, b = loop[s], loop[(s + 1) % 4]
        e = cnet.face_edges[face][s]
        near_a, near_b = (1, 2) if a < b else (2, 1)
        (i1, j1), (i2, j2) = side_slots[s]
        grid[i1][j1] = edge_pts[e][near_a]
        grid[i2][j2] = edge_pts[e][near_b]
    return grid


def build_c0(net: ControlNet) -> GSplineSurface:
    """Build the preliminary C0 surface (degree 3 on every element)."""
    cnet = net.cnet
    face_pts, edge_pts, vertex_pts = c0_stencils(cnet)
    extractions = []
    for f in range(cnet.n_faces):
        grid = _element_stencils(cnet, f, face_pts, edge_pts, vertex_pts)
        support: list[int] = []
        index: dict[int, int] = {}
        for j in range(4):
            for i in range(4):
                for v in grid[i][j]:
                    if v not in index:
                        index[v] = len(support)
                        support.append(v)
        coeffs = np.zeros((len(support), 16))
        for j in range(4):
            for i in range(4):
                k = 4 * j + i
                for v, c in grid[i][j].items():
                    coeffs[index[v], k] = c
        extractions.append(
            ElementExtraction(element=f, degree=3, basis=np.array(support),
                              coeffs=coeffs)
        )
    return extraction_list.surface(net, extractions, "c0")


def refine(net: ControlNet) -> ControlNet:
    """One level of global uniform refinement."""
    cnet = net.cnet
    pos = net.positions

    n_v, n_f, n_e = cnet.n_vertices, cnet.n_faces, cnet.n_edges
    new_pos = np.empty((n_v + n_f + n_e, 3))
    vertex_edges, vertex_faces = _vertex_edges(cnet), _vertex_faces(cnet)

    # updated old vertices
    for v in range(n_v):
        if cnet.boundary_vertex[v] and cnet.valence[v] == 1:  # corner
            new_pos[v] = pos[v]
        elif cnet.boundary_vertex[v]:
            nbrs = []
            for e in vertex_edges[v]:
                if cnet.boundary_edge[e]:
                    a, b = (int(x) for x in cnet.edges[e])
                    nbrs.append(b if a == v else a)
            if len(nbrs) != 2:
                raise InternalError(f"boundary vertex {v} lacks two boundary edges")
            new_pos[v] = 0.75 * pos[v] + 0.125 * (pos[nbrs[0]] + pos[nbrs[1]])
        else:
            mu = int(cnet.valence[v])
            w_own, w_edge, w_diag = _interior_vertex_mask(mu)
            acc = w_own * pos[v]
            for e in vertex_edges[v]:
                a, b = (int(x) for x in cnet.edges[e])
                acc = acc + w_edge * pos[b if a == v else a]
            for f in vertex_faces[v]:
                loop = [int(x) for x in cnet.faces[f]]
                acc = acc + w_diag * pos[loop[(loop.index(v) + 2) % 4]]
            new_pos[v] = acc

    # new face points
    for f in range(n_f):
        new_pos[n_v + f] = pos[np.asarray(cnet.faces[f], dtype=int)].mean(axis=0)

    # new edge points
    for e in range(n_e):
        u, v = (int(x) for x in cnet.edges[e])
        if cnet.boundary_edge[e]:
            new_pos[n_v + n_f + e] = 0.5 * (pos[u] + pos[v])
            continue

        def bend(w):
            # boundary endpoints shift weight toward themselves
            if cnet.boundary_vertex[w]:
                return 0.25 * math.cos(math.pi / int(cnet.valence[w]))
            return 0.0

        su, sv = bend(u), bend(v)
        wu = 0.375 + su - sv
        wv = 0.375 + sv - su
        acc = wu * pos[u] + wv * pos[v]
        wings = 0.0
        for f in cnet.edge_faces[e]:
            for w in (int(x) for x in cnet.faces[f]):
                if w != u and w != v:
                    acc = acc + 0.0625 * pos[w]
                    wings += 0.0625
        if abs(wu + wv + wings - 1.0) > 1e-12:
            raise InternalError("edge mask weights do not sum to one")
        new_pos[n_v + n_f + e] = acc

    # quadrisection connectivity
    faces = []
    for f in range(n_f):
        loop = [int(x) for x in cnet.faces[f]]
        fp = n_v + f
        ep = [n_v + n_f + int(cnet.face_edges[f][s]) for s in range(4)]
        for s in range(4):
            faces.append((loop[s], ep[s], fp, ep[(s - 1) % 4]))
    return ControlNet(CNet(n_v + n_f + n_e, faces), new_pos)
