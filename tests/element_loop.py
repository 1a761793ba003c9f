"""Per-element reference for the grouped evaluation in ``gspline.solve``,
``gspline.quality`` and ``gspline.evaluate.frames_csv``: one ``basis_table``
call and one Python iteration per element (per point for the frames CSV),
in element order, raising at the first failing element.  ``basis_table``
is the extraction matrix times ``bernstein_table``, then the quotient rule;
``map_point`` and ``frame`` are built on it.  All three are written apart
from the package's grouped kernel.
"""

import math
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from gspline.errors import DegenerateBasisError, SingularParameterizationError
from gspline.evaluate import DEGENERATE_TOL
from gspline.extraction import bernstein_table, rationalize
from gspline.quality import gauss_legendre
from gspline.solve import default_source, exact_gradient, exact_solution


def basis_table(ext, pts):
    """Values and first/second partials (n, m), (n, m, 2), (n, m, 3) of an
    element's basis functions at (m, 2) points."""
    k = (ext.degree + 1) ** 2
    tables = [(ext.coeffs @ t.reshape(k, -1)).reshape((-1,) + t.shape[1:])
              for t in bernstein_table(ext.degree, pts)]
    if not ext.rational:
        return tuple(tables)
    try:
        return rationalize(*tables)
    except DegenerateBasisError as exc:
        exc.element = ext.element
        raise


def _maps(surface, e, xi, eta):
    """x (..., 3), J (..., 3, 2) and H (..., 3, 3) of element e at the
    broadcast points (xi, eta)."""
    ext = surface.extraction(e)
    xi, eta = np.broadcast_arrays(xi, eta)
    vals, d1, d2 = basis_table(ext, np.stack([xi.ravel(), eta.ravel()], 1))
    P = surface.net.positions[ext.basis]
    x = (vals.T @ P).reshape(xi.shape + (3,))
    J = (np.moveaxis(d1, 0, -1) @ P).swapaxes(-1, -2).reshape(xi.shape + (3, 2))
    H = (np.moveaxis(d2, 0, -1) @ P).reshape(xi.shape + (3, 3))
    return x, J, H


def map_point(surface, e, xi, eta):
    """Points (..., 3) of element e at the broadcast points (xi, eta)."""
    return _maps(surface, e, xi, eta)[0]


def frame(surface, e, xi, eta):
    """Point, unit normal, metric and curvature of element e at the
    broadcast points (xi, eta); raises SingularParameterizationError at the
    first point, in C order, whose tangents are flat."""
    x, J, H = _maps(surface, e, xi, eta)
    a1, a2 = J[..., 0], J[..., 1]
    cross = np.cross(a1, a2)
    size = np.linalg.norm(cross, axis=-1)
    scale = np.maximum(np.linalg.norm(a1, axis=-1) * np.linalg.norm(a2, axis=-1),
                       DEGENERATE_TOL)
    flat = np.flatnonzero(size <= DEGENERATE_TOL * scale)
    if flat.size:
        uv = tuple(float(np.broadcast_to(c, size.shape).flat[flat[0]]) for c in (xi, eta))
        raise SingularParameterizationError(
            f"degenerate tangents at element {e}, ({uv[0]}, {uv[1]})", element=e, uv=uv)
    n = cross / size[..., None]
    b = np.einsum("...ci,...i->...c", H, n)  # (b11, b12, b22)
    return SimpleNamespace(point=x, normal=n, metric=J.swapaxes(-1, -2) @ J,
                           curvature=b[..., [0, 1, 1, 2]].reshape(b.shape[:-1] + (2, 2)))


def quad_points(p):
    rule = gauss_legendre(p + 1)
    xs, ws = rule.points, rule.weights
    pts = np.array([(xi, eta) for eta in xs for xi in xs])
    wts = np.array([wx * wy for wy in ws for wx in ws])
    return pts, wts


def element_geometry(surface, e, pts):
    """Basis ids, values, planar points, |det J| and physical gradients."""
    ext = surface.extraction(e)
    vals, grads, _ = basis_table(ext, pts)
    P = surface.net.positions[ext.basis][:, :2]
    x = np.einsum("nm,nd->md", vals, P)
    J = np.einsum("nma,nd->mda", grads, P)
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    scale = np.abs(J).max()
    if np.abs(det).min() <= 1e-14 * max(scale * scale, 1e-30):
        raise SingularParameterizationError(
            f"singular Jacobian in element {e}", element=e)
    inv = np.empty_like(J)
    inv[:, 0, 0] = J[:, 1, 1] / det
    inv[:, 0, 1] = -J[:, 0, 1] / det
    inv[:, 1, 0] = -J[:, 1, 0] / det
    inv[:, 1, 1] = J[:, 0, 0] / det
    gp = np.einsum("nma,mad->nmd", grads, inv)
    return ext.basis, vals, x, np.abs(det), gp


def assemble(surface, source=default_source):
    """(K, M, load) of the Poisson problem, element by element."""
    n = surface.cnet.n_vertices
    rows, cols, kvals, mvals = [], [], [], []
    load = np.zeros(n)
    for e in range(surface.cnet.n_faces):
        pts, wts = quad_points(surface.degree(e))
        ids, N, x, adet, gp = element_geometry(surface, e, pts)
        w = wts * adet
        rows.append(np.repeat(ids, len(ids)))
        cols.append(np.tile(ids, len(ids)))
        kvals.append(np.einsum("nmd,kmd,m->nk", gp, gp, w).reshape(-1))
        mvals.append(np.einsum("nm,km,m->nk", N, N, w).reshape(-1))
        np.add.at(load, ids, N @ (w * source(x[:, 0], x[:, 1])))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    K = sp.csr_matrix((np.concatenate(kvals), (rows, cols)), shape=(n, n))
    M = sp.csr_matrix((np.concatenate(mvals), (rows, cols)), shape=(n, n))
    return K, M, load


def errors(surface, coeffs, exact=exact_solution, exact_grad=exact_gradient,
           linf_resolution=10):
    """Relative L2, Linf and H1 errors, element by element."""
    num_l2 = den_l2 = num_h1g = den_h1g = num_inf = den_inf = 0.0
    grid = np.linspace(0.0, 1.0, linf_resolution)
    grid_pts = np.array([(xi, eta) for eta in grid for xi in grid])
    for e in range(surface.cnet.n_faces):
        pts, wts = quad_points(surface.degree(e))
        ids, N, x, adet, gp = element_geometry(surface, e, pts)
        w = wts * adet
        ue = exact(x[:, 0], x[:, 1])
        gx, gy = exact_grad(x[:, 0], x[:, 1])
        ca = coeffs[ids]
        guh = np.einsum("n,nmd->md", ca, gp)
        num_l2 += float(np.sum(w * (ca @ N - ue) ** 2))
        den_l2 += float(np.sum(w * ue**2))
        num_h1g += float(np.sum(w * ((guh[:, 0] - gx) ** 2 + (guh[:, 1] - gy) ** 2)))
        den_h1g += float(np.sum(w * (gx**2 + gy**2)))
        N2, _, _ = basis_table(surface.extraction(e), grid_pts)
        x2 = np.einsum("nm,nd->md", N2, surface.net.positions[ids][:, :2])
        ue2 = exact(x2[:, 0], x2[:, 1])
        num_inf = max(num_inf, float(np.abs(ca @ N2 - ue2).max()))
        den_inf = max(den_inf, float(np.abs(ue2).max()))
    return {"l2": math.sqrt(num_l2 / den_l2), "linf": num_inf / den_inf,
            "h1": math.sqrt((num_l2 + num_h1g) / (den_l2 + den_h1g))}


def mean_element_size(surface):
    total = 0.0
    for e in range(surface.cnet.n_faces):
        c00, c11, c10, c01 = map_point(surface, e, [0.0, 1.0, 1.0, 0.0],
                                       [0.0, 1.0, 0.0, 1.0])
        total += 0.5 * (np.linalg.norm(c11 - c00) + np.linalg.norm(c01 - c10))
    return total / surface.cnet.n_faces


def quadrature_frames(surface):
    """(elements, uv, metric, curvature) rows, element by element."""
    out = []
    for e in range(surface.cnet.n_faces):
        xs = gauss_legendre(surface.degree(e) + 1).points
        xi, eta = np.tile(xs, len(xs)), np.repeat(xs, len(xs))
        fr = frame(surface, e, xi, eta)
        out.append((np.full(len(xi), e), np.stack([xi, eta], axis=1),
                    fr.metric, fr.curvature))
    return tuple(np.concatenate(parts) for parts in zip(*out))


def principal_curvatures(fr):
    """Eigenvalues of the shape operator a^{-1} b at one point (largest
    magnitude first)."""
    shape_op = np.linalg.solve(fr.metric, fr.curvature)
    k = np.linalg.eigvals(shape_op)
    k = np.real_if_close(k)
    order = np.argsort(-np.abs(k))
    return float(k[order[0]]), float(k[order[1]])


def frames_csv(surface, resolution=4):
    """CSV of sampled frames, one ``frame`` call per point, skipping the
    points where it raises for flat tangents."""
    rows = ["element,xi,eta,x,y,z,nx,ny,nz,kappa1,kappa2"]
    r = resolution
    for e in range(surface.cnet.n_faces):
        for j in range(r + 1):
            for i in range(r + 1):
                xi, eta = i / r, j / r
                try:
                    fr = frame(surface, e, xi, eta)
                except SingularParameterizationError:
                    continue
                k1, k2 = principal_curvatures(fr)
                x, n = fr.point, fr.normal
                rows.append(
                    f"{e},{xi:.6f},{eta:.6f},{x[0]:.12g},{x[1]:.12g},{x[2]:.12g},"
                    f"{n[0]:.12g},{n[1]:.12g},{n[2]:.12g},{k1:.12g},{k2:.12g}"
                )
    return "\n".join(rows) + "\n"
