"""Whole-surface COO reference for ``gspline.solve.assemble_poisson``: every
group's used Ke, Me and fe entries concatenated into one triplet list, and
K and M each built by one COO -> CSR conversion, as the grouped assembly
first did.  Returns ``(K, M, load)``; M is None without ``with_mass``.
"""

import numpy as np
import scipy.sparse as sp

from gspline.quality import gauss_legendre_2d
from gspline.solve import _group_geometry, default_source


def assemble(surface, source=default_source, with_mass=True):
    n = surface.cnet.n_vertices
    parts = []
    for g in surface.groups:
        rule = gauss_legendre_2d(g.degree + 1)
        N, gp, x, adet = _group_geometry(surface, g, rule.points)
        w = rule.weights * adet
        pair = g.mask[:, :, None] & g.mask[:, None, :]
        Ke = np.einsum("enmd,ekmd,em->enk", gp, gp, w, optimize=True)
        Me = np.einsum("enm,ekm,em->enk", N, N, w, optimize=True)[pair] \
            if with_mass else np.empty(0)
        fe = np.einsum("enm,em->en", N, w * source(x[..., 0], x[..., 1]))
        parts.append((np.broadcast_to(g.basis[:, :, None], pair.shape)[pair],
                      np.broadcast_to(g.basis[:, None, :], pair.shape)[pair],
                      Ke[pair], Me, g.basis[g.mask], fe[g.mask]))
    rows, cols, Ke, Me, ids, fe = map(np.concatenate, zip(*parts))
    K = sp.csr_matrix((Ke, (rows, cols)), shape=(n, n))
    M = sp.csr_matrix((Me, (rows, cols)), shape=(n, n)) if with_mass else None
    return K, M, np.bincount(ids, fe, minlength=n)
