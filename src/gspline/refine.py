"""Global uniform refinement with extended Catmull-Clark control rules.

Each face splits into four, with the child faces written by index
arithmetic on the face and edge arrays.  The new control points are R P
for one sparse subdivision matrix R whose rows are fixed affine masks
(the subdivision-matrix view of Stam, SIGGRAPH 1998): face points average
the four corners, edge and vertex points use the extended rules that keep
the boundary curve a cubic B-spline of the boundary control polygon and
hold corner control points fixed.  R is held as per-row tables and
multiplied with numpy in the order of a CSR product, so the points are
those of the sparse R P bit for bit.  No book-keeping is involved: a refined
net is rebuilt by the same construction algorithms as any other net, and
the extraordinary-vertex count never changes.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, InternalError, ResourceError
from .mesh import CNet, ControlNet, boundary_neighbours, merge_rows, vertex_fans

MAX_LEVELS = 8
# Faces of a refined net.  Refining to a G1 archive peaks at about 5 KB of
# traced memory per face of the result (rot44 refined 4-6 times, g1p and
# g1r), so some 1.3 GB here.
MAX_FACES = 2**18


def _interior_vertex_mask(mu):
    """Weights (own, each edge neighbor, each face diagonal) for an
    interior vertex of valence mu (a number or an array of valences);
    reproduces bi-cubic B-spline subdivision at mu = 4 (9/16, 3/32, 1/64)."""
    return 1.0 - 7.0 / (4.0 * mu), 3.0 / (2.0 * mu * mu), 1.0 / (4.0 * mu * mu)


def refine(net: ControlNet) -> ControlNet:
    """One level of global uniform refinement.

    The new control points are R P for the subdivision matrix R of shape
    (n_v + n_f + n_e, n_v): updated old vertices, then one face point per
    face and one edge point per edge.  R comes as row tables from
    ``subdivision_rows``, each put in canonical CSR order by ``merge_rows``
    and multiplied by ``row_products``, so the points are those of the
    sparse product R P bit for bit.
    """
    cnet = net.cnet
    n_v, n_f, n_e = cnet.n_vertices, cnet.n_faces, cnet.n_edges
    points = np.empty((n_v + n_f + n_e, 3))
    off = n_v + n_f + n_e
    for rows, cols, vals in subdivision_rows(cnet):
        if not len(rows):
            continue
        cols, vals = merge_rows(cols, vals)
        off = min(off, rows[np.abs(vals.sum(axis=1) - 1.0) > 1e-12].min(initial=off))
        points[rows] = row_products(cols, vals, net.positions)
    if off < len(points):
        raise InternalError(f"subdivision row {off} does not sum to one")

    # quadrisection: face f splits into (corner s, edge point s, face point,
    # edge point s - 1) for s = 0..3
    ep = n_v + n_f + cnet.face_edges
    fp = np.broadcast_to(n_v + np.arange(n_f)[:, None], (n_f, 4))
    children = np.stack([cnet.faces, ep, fp, np.roll(ep, 1, axis=1)], axis=2)
    return ControlNet(CNet(n_v + n_f + n_e, children.reshape(-1, 4)), points)


def subdivision_rows(cnet: CNet):
    """The rows of the subdivision matrix R, one table per kind of row:
    yields ``(rows, cols, vals)``, ``rows`` (m,) and ``cols`` and ``vals``
    (m, k), each row's entries in the order of the triplets R was first
    assembled from.  Interior vertices come valence by valence."""
    n_v, n_f = cnet.n_vertices, cnet.n_faces
    faces, edges, mu = cnet.faces, cnet.edges, cnet.valence
    heads, diagonals = (np.roll(faces, -k, axis=1).ravel() for k in (1, 2))

    # interior vertices: own point, each edge neighbour (the next corner in
    # every incident face) and each face diagonal
    w_own, w_edge, w_diag = _interior_vertex_mask(mu)
    for v, corners in vertex_fans(cnet, ~cnet.boundary_vertex):
        ones = np.ones(corners.shape)
        yield (v, np.hstack([v[:, None], heads[corners], diagonals[corners]]),
               np.hstack([w_own[v, None], w_edge[v, None] * ones, w_diag[v, None] * ones]))
    # boundary vertices follow the boundary polygon; corners stay
    corner = np.flatnonzero(cnet.boundary_vertex & (mu == 1))
    side = np.flatnonzero(cnet.boundary_vertex & (mu > 1))
    yield corner, corner[:, None], np.ones((len(corner), 1))
    yield (side, np.hstack([side[:, None], boundary_neighbours(cnet)[side]]),
           np.tile([0.75, 0.125, 0.125], (len(side), 1)))

    # face points average the four corners
    yield n_v + np.arange(n_f), faces, np.full((n_f, 4), 0.25)

    # edge points: boundary ones halve the edge; interior ones weigh each
    # endpoint 3/8, shifted toward boundary endpoints, and the four wing
    # vertices of the two flanking faces 1/16
    be = np.flatnonzero(cnet.boundary_edge)
    yield n_v + n_f + be, edges[be], np.full((len(be), 2), 0.5)
    inner = np.flatnonzero(~cnet.boundary_edge)
    bend = np.where(cnet.boundary_vertex, 0.25 * np.cos(np.pi / mu), 0.0)
    su, sv = bend[edges[inner, 0]], bend[edges[inner, 1]]
    side_faces, rots = (a[inner, :, None] for a in cnet.sides)
    slots = (rots - [[0], [1]]) % 4  # each side's slot on the edge in its face
    wings = faces[side_faces, (slots + [2, 3]) % 4].reshape(-1, 4)
    yield (n_v + n_f + inner, np.hstack([edges[inner], wings]),
           np.hstack([np.stack([0.375 + su - sv, 0.375 + sv - su], axis=1),
                      np.full((len(inner), 4), 0.0625)]))


def row_products(cols: np.ndarray, vals: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The rows (m, d) of A x for (n, d) points x and a matrix A given as
    row tables (m, k) in canonical CSR order (``merge_rows``): each row
    sums vals * x[cols] from 0.0 along the row, the order of a CSR
    product."""
    out, xt = np.zeros((x.shape[1], len(cols))), x.T
    for c, v in zip(cols.T, vals.T):
        out += v * xt.take(c, axis=1)
    return out.T


def check_faces(n_faces: int, levels: int) -> None:
    """Raise a ResourceError if ``n_faces`` faces refined ``levels`` times
    give more than ``MAX_FACES`` faces."""
    if n_faces * 4**levels > MAX_FACES:
        raise ResourceError(f"refining {n_faces} faces {levels} times gives "
                            f"{n_faces * 4**levels} faces (> {MAX_FACES})")


def refine_n(net: ControlNet, levels: int):
    """Iterated refinement; returns the final net and per-level counts.
    Zero levels return the net unchanged.  Too many levels or faces are a
    ResourceError, raised before anything is refined."""
    if levels < 0:
        raise DomainError(f"refinement levels must be >= 0, got {levels}")
    if levels > MAX_LEVELS:
        raise ResourceError(f"refusing {levels} refinement levels (> {MAX_LEVELS})")
    check_faces(net.cnet.n_faces, levels)
    stats = []
    current = net
    for _ in range(levels):
        current = refine(current)
        stats.append({
            "n_vertices": current.cnet.n_vertices,
            "n_faces": current.cnet.n_faces,
            "n_extraordinary": int(current.cnet.extraordinary.sum()),
        })
    return current, stats
