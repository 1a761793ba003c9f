"""Einsum references for the Galerkin geometry of ``gspline.solve``:
``_group_geometry`` with the physical gradients as one ``einsum`` over the
parametric axis, as the grouped assembly first computed them, and
``compute_errors`` and ``mean_element_size`` with their mapped points as one
``einsum`` each.  Same signatures, checks and error order.
"""

import math

import numpy as np

from gspline.errors import SingularParameterizationError
from gspline.evaluate import map_groups, raise_first
from gspline.extraction import group_table
from gspline.quality import gauss_legendre_2d
from gspline.solve import exact_gradient, exact_solution


def group_geometry(surface, g, pts, checks=()):
    """Values (E, n, m), physical gradients (E, n, m, 2), planar points
    (E, m, 2) and |det J| (E, m) of a group's elements at pts."""
    N, dN, _, bad_w = group_table(g, pts)
    P = surface.net.positions[g.basis][..., :2]
    J = np.einsum("enma,end->emda", dN, P)  # J[e, m, d, a] = dx_d / dxi_a
    det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    scale = np.abs(J).max(axis=(1, 2, 3))
    singular = np.abs(det).min(axis=1) <= 1e-14 * np.maximum(scale * scale, 1e-30)
    raise_first(g, [bad_w, (singular, lambda i: (
        SingularParameterizationError(f"singular Jacobian in element {g.elements[i]}",
                                      element=int(g.elements[i])))), *checks])
    inv = np.stack([J[..., 1, 1], -J[..., 0, 1], -J[..., 1, 0], J[..., 0, 0]],
                   axis=-1).reshape(J.shape) / det[..., None, None]
    gp = np.einsum("enma,emad->enmd", dN, inv)
    return N, gp, np.einsum("enm,end->emd", N, P), np.abs(det)


def compute_errors(surface, coeffs, exact=exact_solution, exact_grad=exact_gradient,
                   linf_resolution=10):
    """Relative L2, Linf and H1 errors against a closed-form solution."""
    grid = np.linspace(0.0, 1.0, linf_resolution)
    grid_pts = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)

    def sums(g):
        rule = gauss_legendre_2d(g.degree + 1)
        N2, bad_w2 = group_table(g, grid_pts, order=0)
        N, gp, x, adet = group_geometry(surface, g, rule.points, [bad_w2])
        w = rule.weights * adet
        ca = np.where(g.mask, coeffs[g.basis], 0.0)
        ue, (gx, gy) = exact(x[..., 0], x[..., 1]), exact_grad(x[..., 0], x[..., 1])
        guh = np.einsum("en,enmd->emd", ca, gp)
        x2 = np.einsum("enm,end->emd", N2, surface.net.positions[g.basis][..., :2])
        ue2 = exact(x2[..., 0], x2[..., 1])
        return np.array([
            np.sum(w * (np.einsum("en,enm->em", ca, N) - ue) ** 2),
            np.sum(w * ue**2),
            np.sum(w * ((guh[..., 0] - gx) ** 2 + (guh[..., 1] - gy) ** 2)),
            np.sum(w * (gx**2 + gy**2)),
            np.abs(np.einsum("en,enm->em", ca, N2) - ue2).max(initial=0.0),
            np.abs(ue2).max(initial=0.0)])

    per_block = np.array(map_groups(surface, sums, len(grid_pts)))
    num_l2, den_l2, num_h1g, den_h1g = per_block[:, :4].sum(axis=0).tolist()
    num_inf, den_inf = per_block[:, 4:].max(axis=0).tolist()
    return {
        "l2": math.sqrt(num_l2 / den_l2) if den_l2 else math.sqrt(num_l2),
        "linf": num_inf / den_inf if den_inf else num_inf,
        "h1": math.sqrt((num_l2 + num_h1g) / (den_l2 + den_h1g))
        if (den_l2 + den_h1g) else math.sqrt(num_l2 + num_h1g),
    }


def mean_element_size(surface):
    """Mean mapped diagonal length of the Bezier-mesh faces."""
    def diagonals(g):
        N, bad_w = group_table(g, [[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]], order=0)
        raise_first(g, [bad_w])
        c = np.einsum("enm,enc->mec", N, surface.net.positions[g.basis])
        return np.linalg.norm(c[1] - c[0], axis=-1) + np.linalg.norm(c[3] - c[2], axis=-1)

    total = float(np.concatenate(map_groups(surface, diagonals, 4)).sum())
    return 0.5 * total / surface.cnet.n_faces
