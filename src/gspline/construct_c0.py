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
"""

from __future__ import annotations

import numpy as np

from .evaluate import GSplineSurface, edge_jumps
from .mesh import CNet, ControlNet, boundary_neighbours

# Bezier grid positions 4 j + i of each face's corner s, its face point
# nearest corner s, and the two points of side s (corner s -> corner s+1)
# nearest its start and its end
CORNER_POS = [0, 3, 15, 12]
FACE_POS = [5, 6, 10, 9]
SIDE_START_POS = [1, 7, 14, 8]
SIDE_END_POS = [2, 11, 13, 4]


def c0_stencils(cnet: CNet):
    """The Bezier-point operator S of the net.

    A CSR matrix of shape (16 n_faces, n_vertices): row 16 f + 4 j + i
    holds Bezier point (i, j) of element f as weights on the control
    points.
    """
    import scipy.sparse as sp

    n_v, n_f, n_e = cnet.n_vertices, cnet.n_faces, cnet.n_edges
    faces, slots = cnet.faces, np.arange(4)
    fp = 4 * np.arange(n_f)[:, None] + slots  # face point nearest corner s
    start, end = faces, np.roll(faces, -1, axis=1)
    near_start = 2 * cnet.face_edges + (start > end)  # edge point rows
    near_end = 2 * cnet.face_edges + (end > start)

    # points: the face points (4/9 at their corner, 2/9 at its neighbours,
    # 1/9 opposite), then the control points themselves
    ring = faces[:, (slots[:, None] + slots) % 4]
    points = sp.vstack([
        sp.csr_matrix((np.tile([4 / 9, 2 / 9, 1 / 9, 2 / 9], 4 * n_f),
                       (np.repeat(fp.ravel(), 4), ring.ravel())),
                      shape=(4 * n_f, n_v)),
        sp.identity(n_v, format="csr"),
    ]).tocsr()

    # M: face points as themselves, then edge points (two per edge, the one
    # nearer the lower vertex first) and vertex points, on ``points``
    rows, cols, vals = [fp.ravel()], [fp.ravel()], [np.ones(4 * n_f)]
    inner = ~cnet.boundary_edge[cnet.face_edges]  # sides on interior edges
    for near, pt in ((near_start, fp), (near_end, np.roll(fp, -1, axis=1))):
        rows.append(4 * n_f + near[inner])
        cols.append(pt[inner])
        vals.append(np.full(inner.sum(), 0.5))
    be = np.flatnonzero(cnet.boundary_edge)
    u, v = 4 * n_f + cnet.edges[be].T
    rows.append(4 * n_f + np.concatenate([2 * be, 2 * be, 2 * be + 1, 2 * be + 1]))
    cols.append(np.concatenate([u, v, u, v]))
    vals.append(np.repeat([2 / 3, 1 / 3, 1 / 3, 2 / 3], len(be)))

    v0 = 4 * n_f + 2 * n_e
    at = ~cnet.boundary_vertex[faces]  # corners at interior vertices
    rows.append(v0 + faces[at])
    cols.append(fp[at])
    vals.append(1.0 / cnet.valence[faces[at]])
    corner = np.flatnonzero(cnet.boundary_vertex & (cnet.valence == 1))
    side = np.flatnonzero(cnet.boundary_vertex & (cnet.valence > 1))
    nbrs = boundary_neighbours(cnet)[side]
    rows.append(v0 + np.concatenate([corner, side, side, side]))
    cols.append(4 * n_f + np.concatenate([corner, side, nbrs[:, 0], nbrs[:, 1]]))
    vals.append(np.repeat([1.0, 2 / 3, 1 / 6, 1 / 6], [len(corner)] + [len(side)] * 3))
    M = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(v0 + n_v, 4 * n_f + n_v))

    pick = np.empty((n_f, 16), dtype=int)
    pick[:, CORNER_POS] = v0 + faces
    pick[:, FACE_POS] = fp
    pick[:, SIDE_START_POS] = 4 * n_f + near_start
    pick[:, SIDE_END_POS] = 4 * n_f + near_end
    return (M @ points)[pick.ravel()]


def build_c0(net: ControlNet) -> GSplineSurface:
    """Build the preliminary C0 surface (degree 3 on every element)."""
    cnet = net.cnet
    S = c0_stencils(cnet).tocoo()
    face, pos = np.divmod(S.row.astype(np.int64), 16)  # keys pass 2**31
    keys, slot = np.unique(face * cnet.n_vertices + S.col, return_inverse=True)
    owner, basis = np.divmod(keys, cnet.n_vertices)
    coeffs = np.zeros((len(keys), 16))
    coeffs[slot, pos] = S.data
    counts = np.bincount(owner, minlength=cnet.n_faces)
    return GSplineSurface.from_rows(net, "c0", np.full(cnet.n_faces, 3),
                                    np.zeros(cnet.n_faces, dtype=bool), counts,
                                    basis, {3: coeffs})


def geometry_continuity_residual(surface: GSplineSurface, edge: int,
                                 order: int, samples: int = 20) -> float:
    """Max sampled jump of basis values/derivatives across an interior edge,
    by ``evaluate.edge_jumps``: order 0 the trace jump, 1 the transversal
    first-derivative jump and 2 the second-derivative jumps, all in the
    glued two-element chart.  Boundary edges are rejected."""
    return edge_jumps(surface, edge, order, samples=samples)
