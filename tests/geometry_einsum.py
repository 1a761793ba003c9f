"""Einsum reference for ``gspline.solve._group_geometry``: the physical
gradients as one ``einsum`` over the parametric axis, as the grouped
assembly first computed them.  Same signature, checks and error order.
"""

import numpy as np

from gspline.errors import SingularParameterizationError
from gspline.evaluate import raise_first
from gspline.extraction import group_table


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
