"""Independent reference implementations used as test oracles.

Nothing in here touches gspline's extraction machinery: the B-spline
evaluator works from knot-basis segment polynomials on a ghost-extended
control grid, and the constrained least-squares oracle solves the dense
KKT system directly.
"""

from __future__ import annotations

import numpy as np


def bspline_segment_basis(t: float):
    """Uniform cubic B-spline segment basis and derivatives at t in [0,1]."""
    t = float(t)
    b = np.array([
        (1 - t) ** 3,
        3 * t**3 - 6 * t**2 + 4,
        -3 * t**3 + 3 * t**2 + 3 * t + 1,
        t**3,
    ]) / 6.0
    db = np.array([
        -3 * (1 - t) ** 2,
        9 * t**2 - 12 * t,
        -9 * t**2 + 6 * t + 3,
        3 * t**2,
    ]) / 6.0
    d2b = np.array([
        6 * (1 - t),
        18 * t - 12,
        -18 * t + 6,
        6 * t,
    ]) / 6.0
    return b, db, d2b


class ReflectedBSplineSurface:
    """Uniform bi-cubic B-spline with reflected (natural) ghost points.

    Ghost rows/columns P[-1] = 2 P[0] - P[1] (and the symmetric rule at the
    far ends) make the surface interpolate the corner control points with
    vanishing second derivative across the boundary, which is exactly the
    boundary behaviour of the C0 construction on a structured net.
    """

    def __init__(self, grid):
        grid = np.asarray(grid, dtype=float)  # (nx+1, ny+1, 3)
        nx, ny = grid.shape[0] - 1, grid.shape[1] - 1
        ext = np.zeros((nx + 3, ny + 3, grid.shape[2]))
        ext[1:-1, 1:-1] = grid
        ext[0, 1:-1] = 2 * grid[0] - grid[1]
        ext[-1, 1:-1] = 2 * grid[-1] - grid[-2]
        ext[:, 0] = 2 * ext[:, 1] - ext[:, 2]
        ext[:, -1] = 2 * ext[:, -2] - ext[:, -3]
        self.ext = ext
        self.nx, self.ny = nx, ny

    def eval(self, ci: int, cj: int, tu: float, tv: float, nderiv: int = 0):
        """Evaluate on cell (ci, cj) at local coordinates (tu, tv)."""
        bu, dbu, d2bu = bspline_segment_basis(tu)
        bv, dbv, d2bv = bspline_segment_basis(tv)
        block = self.ext[ci : ci + 4, cj : cj + 4]
        x = np.einsum("i,j,ijk->k", bu, bv, block)
        if nderiv == 0:
            return x
        du = np.einsum("i,j,ijk->k", dbu, bv, block)
        dv = np.einsum("i,j,ijk->k", bu, dbv, block)
        J = np.stack([du, dv], axis=1)
        if nderiv == 1:
            return x, J
        H = np.stack([
            np.einsum("i,j,ijk->k", d2bu, bv, block),
            np.einsum("i,j,ijk->k", dbu, dbv, block),
            np.einsum("i,j,ijk->k", bu, d2bv, block),
        ])
        return x, J, H

    def scalar_basis_row(self, ci: int, cj: int, tu: float, tv: float):
        """Weights of the original (nx+1)*(ny+1) control values at a point."""
        nx, ny = self.nx, self.ny
        n = (nx + 1) * (ny + 1)
        # propagate ghost reflection as a linear map onto original CPs
        bu, _, _ = bspline_segment_basis(tu)
        bv, _, _ = bspline_segment_basis(tv)
        row = np.zeros(n)

        def spread_u(i):
            # weights of extended row index i on original row indices
            if i == 0:
                return {0: 2.0, 1: -1.0}
            if i == nx + 2:
                return {nx: 2.0, nx - 1: -1.0}
            return {i - 1: 1.0}

        def spread_v(j):
            if j == 0:
                return {0: 2.0, 1: -1.0}
            if j == ny + 2:
                return {ny: 2.0, ny - 1: -1.0}
            return {j - 1: 1.0}

        for a in range(4):
            for b in range(4):
                w = bu[a] * bv[b]
                for iu, wu in spread_u(ci + a).items():
                    for jv, wv in spread_v(cj + b).items():
                        row[jv * (nx + 1) + iu] += w * wu * wv
        return row


def reflected_basis_1d(n_cells: int, cell: int, t: float):
    """Values/derivatives of all n_cells+1 control functions of the
    ghost-reflected uniform cubic B-spline on one cell, local t in [0,1]."""
    n_cp = n_cells + 1
    b, db, _ = bspline_segment_basis(t)
    vals = np.zeros(n_cp)
    ders = np.zeros(n_cp)

    def spread(i_ext):
        if i_ext == 0:
            return {0: 2.0, 1: -1.0}
        if i_ext == n_cells + 2:
            return {n_cells: 2.0, n_cells - 1: -1.0}
        return {i_ext - 1: 1.0}

    for a in range(4):
        for idx, w in spread(cell + a).items():
            vals[idx] += w * b[a]
            ders[idx] += w * db[a]
    return vals, ders


class StructuredPoissonOracle:
    """Tensor-product IGA solver on the unit square, independent of the
    extraction machinery: the basis is the ghost-reflected uniform
    bi-cubic B-spline of an (nx+1) x (ny+1) control grid."""

    def __init__(self, nx: int, ny: int):
        self.nx, self.ny = nx, ny
        self.n = (nx + 1) * (ny + 1)

    def dof(self, i, j):
        return j * (self.nx + 1) + i

    def assemble(self, source):
        from numpy.polynomial.legendre import leggauss

        nx, ny = self.nx, self.ny
        K = np.zeros((self.n, self.n))
        f = np.zeros(self.n)
        xg, wg = leggauss(4)
        xg = 0.5 * (xg + 1.0)
        wg = 0.5 * wg
        for cj in range(ny):
            for ci in range(nx):
                for a, tu in enumerate(xg):
                    for b, tv in enumerate(xg):
                        u_vals, u_ders = reflected_basis_1d(nx, ci, tu)
                        v_vals, v_ders = reflected_basis_1d(ny, cj, tv)
                        phi = np.outer(u_vals, v_vals).reshape(-1, order="F")
                        gx = np.outer(u_ders, v_vals).reshape(-1, order="F") * nx
                        gy = np.outer(u_vals, v_ders).reshape(-1, order="F") * ny
                        w = wg[a] * wg[b] / (nx * ny)
                        K += w * (np.outer(gx, gx) + np.outer(gy, gy))
                        x = (ci + tu) / nx
                        y = (cj + tv) / ny
                        f += w * source(x, y) * phi
        return K, f

    def solve(self, source):
        K, f = self.assemble(source)
        boundary = set()
        for i in range(self.nx + 1):
            boundary |= {self.dof(i, 0), self.dof(i, self.ny)}
        for j in range(self.ny + 1):
            boundary |= {self.dof(0, j), self.dof(self.nx, j)}
        act = np.array(sorted(set(range(self.n)) - boundary))
        u = np.zeros(self.n)
        u[act] = np.linalg.solve(K[np.ix_(act, act)], f[act])
        return u

    def l2_error(self, u, exact, samples=4):
        from numpy.polynomial.legendre import leggauss

        nx, ny = self.nx, self.ny
        xg, wg = leggauss(samples)
        xg = 0.5 * (xg + 1.0)
        wg = 0.5 * wg
        num = den = 0.0
        for cj in range(ny):
            for ci in range(nx):
                for a, tu in enumerate(xg):
                    for b, tv in enumerate(xg):
                        u_vals, _ = reflected_basis_1d(nx, ci, tu)
                        v_vals, _ = reflected_basis_1d(ny, cj, tv)
                        phi = np.outer(u_vals, v_vals).reshape(-1, order="F")
                        uh = float(phi @ u)
                        ue = exact((ci + tu) / nx, (cj + tv) / ny)
                        w = wg[a] * wg[b] / (nx * ny)
                        num += w * (uh - ue) ** 2
                        den += w * ue**2
        return np.sqrt(num / den)


def kkt_solve(F, f, G=None, g=None):
    """Dense equality-constrained least squares via the KKT system."""
    F = np.asarray(F, dtype=float)
    f = np.asarray(f, dtype=float)
    n = F.shape[1]
    if G is None or len(G) == 0:
        return np.linalg.lstsq(F, f, rcond=None)[0]
    G = np.asarray(G, dtype=float)
    g = np.asarray(g, dtype=float)
    m = G.shape[0]
    kkt = np.block([[F.T @ F, G.T], [G, np.zeros((m, m))]])
    rhs = np.concatenate([F.T @ f, g])
    sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    return sol[:n]


def central_difference(fun, x, h=1e-6):
    """Central finite difference of a scalar- or vector-valued function."""
    return (np.asarray(fun(x + h)) - np.asarray(fun(x - h))) / (2 * h)


def bounding_box_diagonal(net) -> float:
    """Length of the diagonal of the axis-aligned box around the net."""
    return float(np.linalg.norm(np.ptp(net.positions, axis=0)))
