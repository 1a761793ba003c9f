"""Element groups restacked from a per-element extraction list, frozen as
a reference.

``GSplineSurface.groups`` is the stored form of a surface's extraction
operators, stacked once by ``GSplineSurface.from_rows``.  ``groups`` here
is the code that stacked them from a list of ``ElementExtraction``s
before, element by element; the stored groups must equal it bitwise.
``surface`` builds a surface from such a list (element e the e-th
extraction) through ``from_rows``, for tests that make or edit
extractions by hand; ``lumping_breaker`` is one such surface.
"""

import dataclasses

import numpy as np

from gspline.construct_c0 import build_c0
from gspline.evaluate import ElementGroup, GSplineSurface
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


def surface(net, exts, variant) -> GSplineSurface:
    """The surface of ``net`` whose element e has extraction ``exts[e]``."""
    degree = [x.degree for x in exts]
    return GSplineSurface.from_rows(
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
