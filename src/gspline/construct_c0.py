"""Preliminary C0 construction: bi-cubic extraction operators everywhere.

Every element gets 16 Bezier control points that are fixed affine
combinations of control points, so the whole construction is one sparse
operator S with 16 rows per face: face points from the element's own four
corners, interior edge points as averages of the two flanking face points,
interior vertex points as the average of the surrounding face points,
boundary edge/vertex points from the boundary control polygon, and corner
points equal to the corner control point.  Shared points come from the
same rows for every element, so the result is C0 everywhere, C2 across
edges away from extraordinary vertices and C0 across spoke edges.  An
element's basis is the ascending list of control points its rows touch.
S is formed with numpy alone, from per-row tables of its distinct points
summed in the order of the sparse product that first formed it, so its
weights are that product's bit for bit.
"""

from __future__ import annotations

import numpy as np

from .evaluate import GSplineSurface, edge_jumps, padded_groups
from .mesh import CNet, ControlNet, boundary_neighbours, merge_rows, vertex_fans

# Bezier grid positions 4 j + i of each face's corner s, its face point
# nearest corner s, and the two points of side s (corner s -> corner s+1)
# nearest its start and its end
CORNER_POS = [0, 3, 15, 12]
FACE_POS = [5, 6, 10, 9]
SIDE_START_POS = [1, 7, 14, 8]
SIDE_END_POS = [2, 11, 13, 4]

# weights of the face point nearest a corner on the face's corners, from
# that corner on around the loop
FACE_POINT_WEIGHTS = np.array([4 / 9, 2 / 9, 1 / 9, 2 / 9])

KEY_BLOCK = 2**14  # sort keys of one block of faces in ``build_c0`` (128 kB)


def _face_point_sums(rings: np.ndarray, corners: np.ndarray, weight: np.ndarray):
    """Rows (m, 4 k) of the points ``weight`` (m,) times the sum of the face
    points nearest the corners ``corners`` (m, k), ascending along each
    row: the columns and terms of each face point in turn.  ``rings``
    (4 n_faces, 4) holds each corner's face loop from that corner on."""
    cols = rings[corners].reshape(len(corners), 4 * corners.shape[1])
    return cols, weight[:, None] * np.tile(FACE_POINT_WEIGHTS, corners.shape[1])


def _point_rows(cnet: CNet, rings: np.ndarray):
    """The vertex and edge Bezier points of the net, as tables: yields
    ``(ids, cols, terms)``, ``ids`` (m,) the point ids and ``cols`` and
    ``terms`` (m, k) each point's terms on the control points in the order
    in which the sparse product of the point averages with the face points
    sums them.  Vertex points have the ids v, edge points n_v + 2 e (near
    the lower vertex) and n_v + 2 e + 1.  ``rings`` (4 n_faces, 4) holds
    each corner's face loop from that corner on."""
    n_v, edges, mu = cnet.n_vertices, cnet.edges, cnet.valence
    # interior vertex points average the face points around the vertex
    for v, corners in vertex_fans(cnet, ~cnet.boundary_vertex):
        yield (v, *_face_point_sums(rings, corners, 1.0 / mu[v]))
    # boundary vertex points follow the boundary polygon; corners stay
    corner = np.flatnonzero(cnet.boundary_vertex & (mu == 1))
    side = np.flatnonzero(cnet.boundary_vertex & (mu > 1))
    yield corner, corner[:, None], np.ones((len(corner), 1))
    yield (side, np.hstack([side[:, None], boundary_neighbours(cnet)[side]]),
           np.tile([2 / 3, 1 / 6, 1 / 6], (len(side), 1)))

    # interior edge points average the face points at their end in the two
    # faces across the edge; boundary ones divide the edge in thirds
    inner = np.flatnonzero(~cnet.boundary_edge)
    faces, rots = (a[inner] for a in cnet.sides)
    for end, step in ((0, 0), (1, [1, -1])):  # the lower vertex, the higher
        corners = np.sort(4 * faces + (rots + step) % 4, axis=1)
        yield (n_v + 2 * inner + end,
               *_face_point_sums(rings, corners, np.full(len(inner), 0.5)))
    be = np.flatnonzero(cnet.boundary_edge)
    for end, weights in ((0, [2 / 3, 1 / 3]), (1, [1 / 3, 2 / 3])):
        yield n_v + 2 * be + end, edges[be], np.tile(weights, (len(be), 1))


def c0_stencils(cnet: CNet):
    """The Bezier-point operator S of the net, (16 n_faces, n_vertices),
    row 16 f + 4 j + i Bezier point (i, j) of element f as weights on the
    control points.

    Returns ``(point, start, cols, vals)``: ``point`` (n_faces, 16) the
    distinct point behind each row of S, and point p the weights
    ``vals[start[p]:start[p + 1]]`` on the distinct control points
    ``cols[start[p]:start[p + 1]]``, so S is the CSR matrix ``(vals,
    cols, start)`` picked at ``point.ravel()``.  The face points
    n_v + 2 n_e + c, nearest corner c = 4 f + s, weigh their face's
    corners; the vertex and edge points are the rows of ``_point_rows``
    summed by ``merge_rows``, so the weights are those of the sparse
    product bit for bit.
    """
    n_v, n_f, n_e = cnet.n_vertices, cnet.n_faces, cnet.n_edges
    faces = cnet.faces
    rings = faces[:, (np.arange(4)[:, None] + np.arange(4)) % 4].reshape(-1, 4)
    tables, sizes = [], np.full(n_v + 2 * n_e + 4 * n_f, 4)
    for ids, cols, terms in _point_rows(cnet, rings):
        if not len(ids):
            continue
        cols, terms = merge_rows(cols, terms)
        kept = np.ones(cols.shape, dtype=bool)
        kept[:, :-1] = cols[:, 1:] != cols[:, :-1]  # a summed column's last entry
        sizes[ids] = kept.sum(axis=1)
        tables.append((ids, kept, cols, terms))
    start = np.concatenate([[0], np.cumsum(sizes)])
    cols, vals = np.empty(start[-1], dtype=int), np.empty(start[-1])
    for ids, kept, c, t in tables:
        at = (start[ids, None] + np.cumsum(kept, axis=1) - 1)[kept]
        cols[at], vals[at] = c[kept], t[kept]
    at = start[n_v + 2 * n_e]
    cols[at:], vals[at:] = rings.ravel(), np.tile(FACE_POINT_WEIGHTS, 4 * n_f)

    end = np.roll(faces, -1, axis=1)
    point = np.empty((n_f, 16), dtype=int)
    point[:, CORNER_POS] = faces
    point[:, FACE_POS] = n_v + 2 * n_e + 4 * np.arange(n_f)[:, None] + np.arange(4)
    point[:, SIDE_START_POS] = n_v + 2 * cnet.face_edges + (faces > end)
    point[:, SIDE_END_POS] = n_v + 2 * cnet.face_edges + (end > faces)
    return point, start, cols, vals


def build_c0(net: ControlNet) -> GSplineSurface:
    """Build the preliminary C0 surface (degree 3 on every element).

    An element's basis is the ascending list of the control points its 16
    rows of ``c0_stencils`` touch.  Elements whose 16 points have the same
    numbers of weights share one table of their entries, sorted along its
    rows by (control point, Bezier position, entry) keys and cut into
    blocks of about ``KEY_BLOCK`` keys.  Once every element's count is
    known, each block is written straight into the one group of
    ``padded_groups`` and freed."""
    cnet = net.cnet
    point, start, cols, vals = c0_stencils(cnet)
    # a sort key holds (control point, position, entry); the weights of a
    # net under 2**26 vertices fit its 63 bits
    e_bits = len(vals).bit_length()
    size = np.diff(start)[point]
    order = np.lexsort(size.T[::-1])
    cuts = np.flatnonzero((size[order[1:]] != size[order[:-1]]).any(axis=1)) + 1
    counts, tables = np.zeros(cnet.n_faces, dtype=int), []
    for faces in np.split(order, cuts):
        widths = size[faces[0]]
        offsets = np.concatenate([np.arange(w) for w in widths.tolist()])
        step = max(1, KEY_BLOCK // len(offsets))
        for block in (faces[i:i + step] for i in range(0, len(faces), step)):
            at = np.repeat(start[point[block]], widths, axis=1) + offsets
            keys = (cols[at] << 4 | np.repeat(np.arange(16), widths)) << e_bits | at
            keys.sort(axis=1)
            col = keys >> e_bits + 4
            counts[block] = (col[:, 1:] != col[:, :-1]).sum(axis=1) + 1
            tables.append((block, keys))
    del point, start, cols, at, col
    (group,) = padded_groups(np.full(cnet.n_faces, 3), np.zeros(cnet.n_faces, dtype=bool),
                             counts)
    width = group.mask.shape[1]
    while tables:  # each block freed once written
        faces, keys = tables.pop()
        col = keys >> e_bits + 4
        new = np.ones(keys.shape, dtype=bool)  # an element's next basis function
        new[:, 1:] = col[:, 1:] != col[:, :-1]
        # (element, basis function) of each entry
        slot = faces[:, None] * width + np.cumsum(new, axis=1) - 1
        group.basis.ravel()[slot[new]] = col[new]
        group.coeffs.ravel()[slot * 16 + (keys >> e_bits & 15)] = vals[keys & (1 << e_bits) - 1]
    return GSplineSurface(net, [group], "c0")


def geometry_continuity_residual(surface: GSplineSurface, edge: int,
                                 order: int, samples: int = 20) -> float:
    """Max sampled jump of basis values/derivatives across an interior edge,
    by ``evaluate.edge_jumps``: order 0 the trace jump, 1 the transversal
    first-derivative jump and 2 the second-derivative jumps, all in the
    glued two-element chart.  Boundary edges are rejected."""
    return edge_jumps(surface, edge, order, samples=samples)
