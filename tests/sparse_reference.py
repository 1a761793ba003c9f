"""Sparse-matrix reference for ``gspline.refine`` and
``gspline.construct_c0``: the subdivision matrix R and the Bezier-point
operator S = (M @ points)[pick] built as scipy CSR matrices, as the
package first formed them.  ``refined_positions`` is the CSR product
R @ P and ``c0_stencils`` the CSR operator S, the bitwise oracles of the
row-table products.
"""

import numpy as np
import scipy.sparse as sp

from gspline.construct_c0 import CORNER_POS, FACE_POS, SIDE_END_POS, SIDE_START_POS
from gspline.mesh import CNet, ControlNet, boundary_neighbours
from gspline.refine import _interior_vertex_mask


def subdivision_triplets(cnet: CNet):
    """The entries ``(vals, (rows, cols))`` of the subdivision matrix R of
    shape (n_v + n_f + n_e, n_v), repeats not yet summed: updated old
    vertices, then one face point per face and one edge point per edge."""
    n_v, n_f, n_e = cnet.n_vertices, cnet.n_faces, cnet.n_edges
    faces, edges, mu = cnet.faces, cnet.edges, cnet.valence
    after = [np.roll(faces, -k, axis=1) for k in (1, 2, 3)]
    rows, cols, vals = [], [], []

    w_own, w_edge, w_diag = _interior_vertex_mask(mu)
    inner = np.flatnonzero(~cnet.boundary_vertex)
    at = ~cnet.boundary_vertex[faces]
    rows += [inner, faces[at], faces[at]]
    cols += [inner, after[0][at], after[1][at]]
    vals += [w_own[inner], w_edge[faces[at]], w_diag[faces[at]]]
    corner = np.flatnonzero(cnet.boundary_vertex & (mu == 1))
    side = np.flatnonzero(cnet.boundary_vertex & (mu > 1))
    nbrs = boundary_neighbours(cnet)[side]
    rows += [corner, side, side, side]
    cols += [corner, side, nbrs[:, 0], nbrs[:, 1]]
    vals.append(np.repeat([1.0, 0.75, 0.125, 0.125], [len(corner)] + [len(side)] * 3))

    rows.append(np.repeat(n_v + np.arange(n_f), 4))
    cols.append(faces.ravel())
    vals.append(np.full(4 * n_f, 0.25))

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

    return np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))


def subdivision_matrix(cnet: CNet) -> sp.csr_matrix:
    shape = (cnet.n_vertices + cnet.n_faces + cnet.n_edges, cnet.n_vertices)
    return sp.csr_matrix(subdivision_triplets(cnet), shape=shape)


def refined_positions(net: ControlNet) -> np.ndarray:
    return subdivision_matrix(net.cnet) @ net.positions


def c0_stencils(cnet: CNet) -> sp.csr_matrix:
    """S of shape (16 n_faces, n_vertices): row 16 f + 4 j + i holds Bezier
    point (i, j) of element f as weights on the control points."""
    n_v, n_f, n_e = cnet.n_vertices, cnet.n_faces, cnet.n_edges
    faces, slots = cnet.faces, np.arange(4)
    fp = 4 * np.arange(n_f)[:, None] + slots
    start, end = faces, np.roll(faces, -1, axis=1)
    near_start = 2 * cnet.face_edges + (start > end)
    near_end = 2 * cnet.face_edges + (end > start)

    ring = faces[:, (slots[:, None] + slots) % 4]
    points = sp.vstack([
        sp.csr_matrix((np.tile([4 / 9, 2 / 9, 1 / 9, 2 / 9], 4 * n_f),
                       (np.repeat(fp.ravel(), 4), ring.ravel())),
                      shape=(4 * n_f, n_v)),
        sp.identity(n_v, format="csr"),
    ]).tocsr()

    rows, cols, vals = [fp.ravel()], [fp.ravel()], [np.ones(4 * n_f)]
    inner = ~cnet.boundary_edge[cnet.face_edges]
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
    at = ~cnet.boundary_vertex[faces]
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


def c0_coefficients(cnet: CNet):
    """``(counts, basis, coeffs)`` of the C0 surface from the CSR operator
    S: each element's basis functions ascending, element after element,
    and their (n, 16) coefficient rows, read off S by one ``np.unique`` of
    (element, control point) keys."""
    S = c0_stencils(cnet).tocoo()
    face, pos = np.divmod(S.row.astype(np.int64), 16)
    keys, slot = np.unique(face * cnet.n_vertices + S.col, return_inverse=True)
    owner, basis = np.divmod(keys, cnet.n_vertices)
    coeffs = np.zeros((len(keys), 16))
    coeffs[slot, pos] = S.data
    return np.bincount(owner, minlength=cnet.n_faces), basis, coeffs
