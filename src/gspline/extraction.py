"""Bernstein algebra and extraction operators.

Each element carries an extraction matrix C of shape (n, (p+1)^2) whose row
a holds the tensor-product Bernstein coefficients of basis function a on
that element.  Bernstein coefficients are flattened with the first
parametric index fastest: column k = (p+1)*j + i for coefficient (i, j),
0-based.  Bezier control points follow as B = C^T P.

Every element is one Bezier patch, so every evaluation in the package
multiplies extraction matrices with the Bernstein table of
``bernstein_table`` at a batch of points and applies the quotient rule of
``rationalize`` on rational elements (Bezier extraction: Borden, Scott,
Evans, Hughes, IJNME 87, 2011).  A surface stores the matrices once, per
(degree, rational) class of elements, stacked and zero-padded to the
class's largest support (``evaluate.ElementGroup``).  ``group_table``, the
one evaluation kernel, evaluates such a group at points its elements
share, building the tables only up to the derivative order its caller
asks for (the values alone for sampling, error grids and collocation;
first derivatives for Galerkin geometry).  One element is the one-row
group ``ElementExtraction.group``, as in ``evaluate_basis``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import DegenerateBasisError, DomainError

SUPPORTED_DEGREES = (3, 5)


def bernstein_1d(p: int, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All univariate Bernstein polynomials of degree p with derivatives.

    Parameters
    ----------
    p : int
        Polynomial degree.
    x : float or array
        Evaluation points in [0, 1].

    Returns
    -------
    vals, d1, d2 : ndarray, shape (p+1,) + shape(x)
    """
    x = np.asarray(x, dtype=float)

    def padded(q, pad):  # degree-q basis between `pad` zero rows each side
        k = np.arange(q + 1).reshape((-1,) + (1,) * x.ndim)
        binom = np.array([comb(q, j) for j in range(q + 1)], dtype=float)
        out = np.zeros((q + 1 + 2 * pad,) + x.shape)
        out[pad:pad + q + 1] = binom.reshape(k.shape) * x**k * (1.0 - x) ** (q - k)
        return out

    lower = padded(p - 1, 1)
    lower2 = padded(p - 2, 2)
    d1 = p * (lower[:-1] - lower[1:])
    d2 = p * (p - 1) * (lower2[:-2] - 2 * lower2[1:-1] + lower2[2:])
    return padded(p, 0), d1, d2


def bernstein_eval(p: int, xi: float, eta: float):
    """``bernstein_table`` at one point: shapes (n,), (n, 2), (n, 3)."""
    vals, d1, d2 = bernstein_table(p, [[xi, eta]])
    return vals[:, 0], d1[:, 0], d2[:, 0]


def bernstein_table(p: int, pts):
    """Tensor-product Bernstein basis with first and second derivatives.

    ``pts`` is an (m, 2) array of (xi, eta) points.  Returns arrays of
    shapes (n, m), (n, m, 2) and (n, m, 3) with n = (p+1)^2; d1 columns
    are (d/dxi, d/deta) and d2 columns (xixi, xieta, etaeta).  Raises
    DomainError unless every point lies in the parent element [0,1]^2
    (NaN included).
    """
    pts = np.asarray(pts, dtype=float)
    if not ((pts >= 0.0) & (pts <= 1.0)).all():
        raise DomainError("evaluation points outside the parent element [0,1]^2")
    bu, du, d2u = bernstein_1d(p, pts[:, 0])
    bv, dv, d2v = bernstein_1d(p, pts[:, 1])

    def tensor(a, b):  # row (p+1)*j + i holds a[i] * b[j]
        return (b[:, None, :] * a[None, :, :]).reshape((p + 1) ** 2, -1)

    vals = tensor(bu, bv)
    d1 = np.stack([tensor(du, bv), tensor(bu, dv)], axis=-1)
    d2 = np.stack([tensor(d2u, bv), tensor(du, dv), tensor(bu, d2v)], axis=-1)
    return vals, d1, d2


def elevation_matrix(p: int) -> np.ndarray:
    """Bezier degree-elevation matrix from degree p to p+1, shape (p+2, p+1):
    row k takes k / (p+1) of coefficient k-1 and the rest of coefficient k."""
    a = np.arange(p + 2)[:, None] / (p + 1)
    return np.eye(p + 2, p + 1, -1) * a + np.eye(p + 2, p + 1) * (1.0 - a)


_E35 = elevation_matrix(4) @ elevation_matrix(3)  # cubic -> quintic, (6, 4)


def degree_elevate_2(coeffs) -> np.ndarray:
    """Elevate bi-cubic Bernstein coefficients twice to bi-quintic.

    Accepts a 16-vector (first index fastest) or a (4, 4) grid and returns
    the matching 36-vector or (6, 6) grid representing the same polynomial.
    Stacks (..., 16) or (..., 4, 4) elevate grid by grid to (..., 36) or
    (..., 6, 6), each with the same two products as a one-grid call.
    """
    c = np.asarray(coeffs, dtype=float)
    flat = c.shape[-1] == 16
    if flat:
        c = c.reshape(c.shape[:-1] + (4, 4)).swapaxes(-1, -2)
    out = _E35 @ c @ _E35.T
    return out.swapaxes(-1, -2).reshape(out.shape[:-2] + (36,)) if flat else out


@dataclass
class ElementExtraction:
    """Extraction operator of one element.

    ``basis`` lists the supported basis-function (vertex) ids; ``coeffs``
    holds one row of (degree+1)^2 Bernstein coefficients per basis
    function; ``rational`` marks elements evaluated through the rational
    form (restricted-support construction only).  A surface's
    ``extraction(e)`` makes one whose arrays are views of its stored
    groups.
    """

    element: int
    degree: int
    basis: np.ndarray
    coeffs: np.ndarray
    rational: bool = False

    @property
    def n_basis(self) -> int:
        return len(self.basis)

    def weight_coeffs(self) -> np.ndarray:
        """Bernstein coefficients of the denominator (column sums)."""
        return self.coeffs.sum(axis=0)

    @property
    def group(self):
        """The element as a one-row ``evaluate.ElementGroup``, unpadded."""
        from .evaluate import ElementGroup

        return ElementGroup(self.degree, self.rational, np.array([self.element]),
                            self.basis[None], np.ones((1, self.n_basis), bool),
                            self.coeffs[None])


def stacked_points(xi, eta) -> tuple[np.ndarray, tuple]:
    """Scalars or arrays ``xi`` and ``eta`` broadcast together: the (m, 2)
    points, in C order, and their shape."""
    xi, eta = np.broadcast_arrays(xi, eta)
    return np.stack([xi.ravel(), eta.ravel()], 1), xi.shape


def _polynomial_table(coeffs, p, pts, axes=None, order=2):
    """Extraction rows ``coeffs`` (..., k) times the Bernstein table of pts,
    up to derivative ``order``: shapes (..., m), (..., m, 2), (..., m, 3),
    the first order + 1 of them.  With ``axes`` (2, 2) the derivatives are
    taken along its columns: d1 @ axes and A^T H A."""
    b, db, d2b = bernstein_table(p, pts)
    if axes is not None:
        # (A^T H A)_ab from the d2 columns (H_00, H_01, H_11), for ab = 00, 01, 11
        second = np.array([[axes[0, a] * axes[0, b],
                            axes[0, a] * axes[1, b] + axes[1, a] * axes[0, b],
                            axes[1, a] * axes[1, b]] for a, b in ((0, 0), (0, 1), (1, 1))])
        db, d2b = db @ axes, d2b @ second.T
    k = b.shape[0]
    flat, lead = coeffs.reshape(-1, k), coeffs.shape[:-1]
    return tuple((flat @ t.reshape(k, -1)).reshape(lead + t.shape[1:])
                 for t in (b, db, d2b)[:order + 1])


def group_table(group, pts, axes=None, order=2):
    """Values and first/second partials of the basis functions of every
    element of an ``evaluate.ElementGroup`` at the same (m, 2) points, up to
    derivative ``order`` (0: values, 1: and first derivatives, 2: and
    second): (E, n, m), (E, n, m, 2), (E, n, m, 3), the
    first order + 1 of them, zero in unused slots, and the
    ``evaluate.raise_first`` check of the elements whose rational
    denominator is not positive there; those stay unrationalized.  Each
    table is bitwise the one of a call of higher order.  ``axes`` (2, 2)
    turns the derivatives to its columns, as in ``_polynomial_table``; the
    quotient rule commutes with that."""
    tables = _polynomial_table(group.coeffs, group.degree, pts, axes, order)
    wmin = np.full(len(group.elements), np.inf)
    if group.rational:
        wmin = tables[0].sum(axis=1).min(axis=1)
        ok = wmin > 0.0
        quotients = rationalize(*(t[ok].swapaxes(0, 1) for t in tables))
        for t, q in zip(tables, quotients):
            t[ok] = q.swapaxes(0, 1)
    return (*tables, (wmin <= 0.0, lambda i: DegenerateBasisError(
        f"basis denominator {wmin[i]} is not positive", element=int(group.elements[i]))))


def evaluate_basis(ext: ElementExtraction, xi, eta):
    """``group_table`` of the element's one-row ``group`` at scalars or
    arrays ``xi`` and ``eta`` that broadcast together to shape s: values,
    first and second partials shaped (n,) + s, (n,) + s + (2,), (n,) + s +
    (3,) for its n functions.  Raises DegenerateBasisError where the
    element's rational denominator is not positive."""
    pts, shape = stacked_points(xi, eta)
    *tables, (bad_w, error) = group_table(ext.group, pts)
    if bad_w[0]:
        raise error(0)
    return tuple(t[0].reshape(t.shape[1:2] + shape + t.shape[3:]) for t in tables)


def rationalize(values, *derivatives):
    """Divide a polynomial basis bundle by its sum, quotient-rule derivatives.

    Takes the values and, up to the highest derivative order wanted, the
    first and second derivatives, at one point, shapes (n,), (n, 2),
    (n, 3), or at m points, shapes (n, m), (n, m, 2), (n, m, 3), or with
    any further axes after n; returns as many arrays.  The denominator W
    is the sum of the values over the n functions; raises
    DegenerateBasisError when W <= 0 at any evaluation point.
    """
    values = np.asarray(values, dtype=float)
    w = values.sum(axis=0)
    if np.any(w <= 0.0):
        raise DegenerateBasisError(f"basis denominator {np.min(w)} is not positive")
    r = values / w
    if not derivatives:
        return (r,)
    d1 = np.asarray(derivatives[0], dtype=float)
    dw = d1.sum(axis=0)
    r1 = (d1 - r[..., None] * dw) / w[..., None]
    if len(derivatives) == 1:
        return r, r1
    d2 = np.asarray(derivatives[1], dtype=float)
    d2w = d2.sum(axis=0)
    r2 = np.empty_like(d2)
    # second derivatives: R_ab = (N_ab - R_a W_b - R_b W_a - R W_ab) / W
    r2[..., 0] = (d2[..., 0] - 2 * r1[..., 0] * dw[..., 0] - r * d2w[..., 0]) / w
    r2[..., 1] = (d2[..., 1] - r1[..., 0] * dw[..., 1] - r1[..., 1] * dw[..., 0]
                  - r * d2w[..., 1]) / w
    r2[..., 2] = (d2[..., 2] - 2 * r1[..., 1] * dw[..., 1] - r * d2w[..., 2]) / w
    return r, r1, r2


def bezier_points(ext: ElementExtraction, positions: np.ndarray) -> np.ndarray:
    """Bezier control points B = C^T P of the element, shape ((p+1)^2, 3)."""
    return ext.coeffs.T @ positions[ext.basis]
