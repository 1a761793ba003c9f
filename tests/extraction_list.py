"""Element groups restacked from a per-element extraction list, frozen as
a reference.

``GSplineSurface.groups`` is the stored form of a surface's extraction
operators, laid out by ``evaluate.padded_groups``.  ``groups`` here is
the code that stacked them from a list of ``ElementExtraction``s before,
element by element; the stored groups must equal it bitwise.
``from_rows`` fills that layout from the rows of all elements, and
``surface`` builds a surface from such a list (element e the e-th
extraction) through it, for tests that make or edit extractions by
hand; ``lumping_breaker`` is one such surface.
"""

import dataclasses

import numpy as np

from gspline.construct_c0 import build_c0
from gspline.errors import DomainError
from gspline.evaluate import ElementGroup, GSplineSurface, padded_groups
from gspline.extraction import SUPPORTED_DEGREES
from gspline.mesh import ControlNet

import netgen


def groups(exts) -> list[ElementGroup]:
    """The elements of ``exts`` stacked by (degree, rational)."""
    basis, coeffs = [x.basis for x in exts], [x.coeffs for x in exts]
    counts = np.fromiter(map(len, basis), int, len(exts))
    cls = np.fromiter((2 * x.degree + x.rational for x in exts), int, len(exts))
    out = []
    for c in np.unique(cls).tolist():
        p, ids = c // 2, np.flatnonzero(cls == c)
        rows = ids.tolist()
        mask = np.arange(counts[ids].max()) < counts[ids, None]
        slot = np.zeros(mask.shape, dtype=int)  # row 0: the zero padding
        slot[mask] = np.arange(1, mask.sum() + 1)
        b = np.concatenate([np.zeros(1, dtype=int)] + [basis[e] for e in rows])
        k = np.concatenate([np.zeros((1, (p + 1) ** 2))] + [coeffs[e] for e in rows])
        out.append(ElementGroup(p, bool(c % 2), ids, b[slot], mask, k[slot]))
    return out


def from_rows(net: ControlNet, variant: str, degree, rational, counts,
              basis: np.ndarray, coeffs: dict, diagnostics=None) -> GSplineSurface:
    """The surface whose element e has degree ``degree[e]``, rational flag
    ``rational[e]`` and ``counts[e]`` basis functions: ``basis`` lists the
    basis ids of all elements, element after element, and ``coeffs[p]``
    the coefficient rows of the degree-p elements, in the same order.
    ``padded_groups`` lays out the groups, which these rows then fill;
    ``diagnostics`` is stored as given."""
    degree, counts = np.asarray(degree, dtype=int), np.asarray(counts, dtype=int)
    unsupported = degree[~np.isin(degree, SUPPORTED_DEGREES)]
    if unsupported.size:
        raise DomainError(f"unsupported degree {unsupported[0]}")
    if len(basis) != counts.sum() or any(
            np.shape(coeffs.get(p)) != (counts[degree == p].sum(), (p + 1) ** 2)
            for p in set(degree.tolist())):
        raise DomainError("coefficient matrix shape does not match basis list")
    groups = padded_groups(degree, rational, counts)
    row_kind = np.repeat(2 * degree + np.asarray(rational, dtype=bool), counts)
    row_degree = np.repeat(degree, counts)
    for g in groups:
        p, rows = g.degree, row_kind == 2 * g.degree + g.rational
        if rows.all():  # one class: every row, in element order
            g.basis[g.mask], g.coeffs[g.mask] = basis, coeffs[p]
        else:  # the rows of the class, in element order
            g.basis[g.mask] = basis[rows]
            g.coeffs[g.mask] = coeffs[p][np.cumsum(row_degree == p)[rows] - 1]
    return GSplineSurface(net, groups, variant, diagnostics)


def surface(net, exts, variant) -> GSplineSurface:
    """The surface of ``net`` whose element e has extraction ``exts[e]``."""
    degree = [x.degree for x in exts]
    return from_rows(
        net, variant, degree, [x.rational for x in exts], [x.n_basis for x in exts],
        np.concatenate([x.basis for x in exts]),
        {p: np.concatenate([x.coeffs for x in exts if x.degree == p])
         for p in set(degree)})


def lumping_breaker() -> GSplineSurface:
    """The C0 surface of ``netgen.structured(4, 4)`` shifted so that its
    centre vertex sits at the origin, with that vertex's extraction rows
    negated: the geometry stays, because its control point is zero, but
    its row of the lumped mass sums to a negative number."""
    grid = netgen.structured(4, 4)
    net = ControlNet(grid.cnet, grid.positions - [0.5, 0.5, 0.0])
    centre = int(np.flatnonzero((net.positions == 0.0).all(axis=1))[0])
    exts = [dataclasses.replace(x, coeffs=np.where((x.basis == centre)[:, None],
                                                   -x.coeffs, x.coeffs))
            for x in build_c0(net).extractions]
    return surface(net, exts, "c0")
