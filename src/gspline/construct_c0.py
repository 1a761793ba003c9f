"""Preliminary C0 construction: bi-cubic extraction operators everywhere.

Every element gets 16 Bezier control points expressed as affine
combinations of control points: face points from the element's own four
corners, interior edge points as averages of the two flanking face points,
interior vertex points as the average of the surrounding face points,
boundary edge/vertex points from the boundary control polygon, and corner
points equal to the corner control point.  Shared points receive identical
stencils from every element, so the result is C0 everywhere, C2 across
edges away from extraordinary vertices and C0 across spoke edges.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .evaluate import GSplineSurface, edge_jumps
from .extraction import ElementExtraction
from .mesh import CNet, ControlNet

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

    vertex_pts: list[Stencil] = []
    for w in range(cnet.n_vertices):
        if cnet.boundary_vertex[w] and cnet.valence[w] == 1:  # corner
            vertex_pts.append({w: 1.0})
        elif cnet.boundary_vertex[w]:
            nbrs = []
            for e in cnet.vertex_edges[w]:
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
                     for f in cnet.vertex_faces[w]]
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
    return GSplineSurface(net=net, extractions=extractions, variant="c0")


def geometry_continuity_residual(surface: GSplineSurface, edge: int,
                                 order: int, samples: int = 20) -> float:
    """Max sampled jump of basis values/derivatives across an interior edge.

    Order 0 measures the trace jump, 1 the transversal first-derivative
    jump and 2 the second-derivative jumps, all in the glued two-element
    chart.  Boundary edges are rejected.
    """
    if surface.cnet.boundary_edge[edge]:
        raise DomainError(f"edge {edge} is a boundary edge")
    return edge_jumps(surface, edge, order, samples=samples)
