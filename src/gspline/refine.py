"""Global uniform refinement with extended Catmull-Clark control rules.

Each face splits into four, with the child faces written by index
arithmetic on the face and edge arrays.  The new control points are R P
for one sparse subdivision matrix R whose rows are fixed affine masks
(the subdivision-matrix view of Stam, SIGGRAPH 1998): face points average
the four corners, edge and vertex points use the extended rules that keep
the boundary curve a cubic B-spline of the boundary control polygon and
hold corner control points fixed.  No book-keeping is involved: a refined
net is rebuilt by the same construction algorithms as any other net, and
the extraordinary-vertex count never changes.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, InternalError, ResourceError
from .mesh import CNet, ControlNet, boundary_neighbours

MAX_LEVELS = 8


def _interior_vertex_mask(mu):
    """Weights (own, each edge neighbor, each face diagonal) for an
    interior vertex of valence mu (a number or an array of valences);
    reproduces bi-cubic B-spline subdivision at mu = 4 (9/16, 3/32, 1/64)."""
    return 1.0 - 7.0 / (4.0 * mu), 3.0 / (2.0 * mu * mu), 1.0 / (4.0 * mu * mu)


def refine(net: ControlNet) -> ControlNet:
    """One level of global uniform refinement.

    The new control points are R P for the sparse subdivision matrix R of
    shape (n_v + n_f + n_e, n_v): updated old vertices, then one face point
    per face and one edge point per edge.
    """
    import scipy.sparse as sp

    cnet = net.cnet
    n_v, n_f, n_e = cnet.n_vertices, cnet.n_faces, cnet.n_edges
    faces, edges, mu = cnet.faces, cnet.edges, cnet.valence
    after = [np.roll(faces, -k, axis=1) for k in (1, 2, 3)]
    rows, cols, vals = [], [], []

    # interior vertices: own point, each edge neighbour (the next corner in
    # every incident face) and each face diagonal
    w_own, w_edge, w_diag = _interior_vertex_mask(mu)
    inner = np.flatnonzero(~cnet.boundary_vertex)
    at = ~cnet.boundary_vertex[faces]  # incidences of interior vertices
    rows += [inner, faces[at], faces[at]]
    cols += [inner, after[0][at], after[1][at]]
    vals += [w_own[inner], w_edge[faces[at]], w_diag[faces[at]]]
    # boundary vertices follow the boundary polygon; corners stay
    corner = np.flatnonzero(cnet.boundary_vertex & (mu == 1))
    side = np.flatnonzero(cnet.boundary_vertex & (mu > 1))
    nbrs = boundary_neighbours(cnet)[side]
    rows += [corner, side, side, side]
    cols += [corner, side, nbrs[:, 0], nbrs[:, 1]]
    vals.append(np.repeat([1.0, 0.75, 0.125, 0.125], [len(corner)] + [len(side)] * 3))

    # face points average the four corners
    rows.append(np.repeat(n_v + np.arange(n_f), 4))
    cols.append(faces.ravel())
    vals.append(np.full(4 * n_f, 0.25))

    # edge points: boundary ones halve the edge; interior ones weigh each
    # endpoint 3/8, shifted toward boundary endpoints, and the four wing
    # vertices of the two flanking faces 1/16
    be = cnet.boundary_edge
    bend = np.where(cnet.boundary_vertex, 0.25 * np.cos(np.pi / mu), 0.0)
    su, sv = bend[edges[:, 0]], bend[edges[:, 1]]
    e_rows = n_v + n_f + np.arange(n_e)
    rows += [e_rows, e_rows]
    cols += [edges[:, 0], edges[:, 1]]
    vals += [np.where(be, 0.5, 0.375 + su - sv), np.where(be, 0.5, 0.375 + sv - su)]
    wing = ~be[cnet.face_edges]
    rows += [n_v + n_f + cnet.face_edges[wing]] * 2
    cols += [after[1][wing], after[2][wing]]
    vals += [np.full(wing.sum(), 0.0625)] * 2

    R = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_v + n_f + n_e, n_v))
    off = np.flatnonzero(np.abs(np.asarray(R.sum(axis=1)).ravel() - 1.0) > 1e-12)
    if off.size:
        raise InternalError(f"subdivision row {off[0]} does not sum to one")

    # quadrisection: face f splits into (corner s, edge point s, face point,
    # edge point s - 1) for s = 0..3
    ep = n_v + n_f + cnet.face_edges
    fp = np.broadcast_to(n_v + np.arange(n_f)[:, None], (n_f, 4))
    children = np.stack([faces, ep, fp, np.roll(ep, 1, axis=1)], axis=2)
    return ControlNet(CNet(n_v + n_f + n_e, children.reshape(-1, 4)),
                      R @ net.positions)


def refine_n(net: ControlNet, levels: int):
    """Iterated refinement; returns the final net and per-level counts.
    Zero levels return the net unchanged."""
    if levels < 0:
        raise DomainError(f"refinement levels must be >= 0, got {levels}")
    if levels > MAX_LEVELS:
        raise ResourceError(f"refusing {levels} refinement levels (> {MAX_LEVELS})")
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
