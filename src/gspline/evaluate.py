"""Surface type, geometric map, differential geometry and edge gluing.

The geometric map of element e is x(xi, eta) = sum_a P_a N_a(xi, eta) with
the element's extraction providing the basis.  Two elements meeting at an
edge are glued through per-element frame rotations so that both sides see
a common edge parameter; that gluing underlies the watertightness and
continuity diagnostics as well as the tangent-plane constraint assembly.
Every gluing is rows of the net's cached ``CNet.sides`` arrays, turned to
the chosen frame origin by ``glued_frames``; ``edge_frames`` is one row.

A surface stores its extraction operators once, as ``GSplineSurface.groups``:
the elements of each (degree, rational) class stacked into zero-padded
arrays laid out by ``padded_groups``.  ``extraction(e)`` is a view of
element e's group row.  ``GSplineSurface.select`` is the one walk that
picks elements out of the groups: all of them or those of a face list,
group by group in ascending element order, in blocks whose tables hold at
most ``BLOCK_ENTRIES`` entries.  Whole-surface passes (Galerkin assembly,
error norms, shell frames, sampling) evaluate its blocks at points their
elements share, and ``map_groups`` reports the error of the lowest
failing element, as a loop would.  Edge diagnostics select the elements
of each (side, rotation) the same way: ``edge_sums`` sums
per-basis-function terms of many edges over both sides, in one walk on
the pattern of ``GSplineSurface.incidence``, for the watertightness and
jumps of ``edge_residuals`` and the G1 residual of
``construct_g1.g1_residuals``; ``edge_normal_angles`` measures the normal
angle, as arctan2 of the normals' cross and dot products.  The one-edge
functions are the single-edge case of these.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateBasisError,
    DomainError,
    InternalError,
    ResourceError,
    SingularParameterizationError,
)
from .extraction import ElementExtraction, group_table, stacked_points
from .mesh import CNet, ControlNet

DEGENERATE_TOL = 1e-12  # relative size of |a1 x a2| below which tangents are flat
MAX_SAMPLES = 2**22  # sample points of one export, some 560 bytes of peak memory each
BLOCK_ENTRIES = 2**18  # E * n * m entries of one table of a block of elements (2 MB)
MAX_PADDING = 8  # largest ratio of a class's padded coefficient bytes to its rows' ...
PADDING_FLOOR = 2**26  # ... once the padded bytes pass 64 MB


@dataclass(frozen=True)
class ElementGroup:
    """The elements of one (degree, rational) class, stacked.

    ``elements`` (E,) lists the element ids in ascending order; ``basis``
    and ``mask`` (E, n) hold each element's basis ids and which of the n
    slots are used, ``coeffs`` (E, n, (degree+1)^2) its extraction matrix
    with zero rows in the unused slots.
    """

    degree: int
    rational: bool
    elements: np.ndarray
    basis: np.ndarray
    mask: np.ndarray
    coeffs: np.ndarray

    def take(self, rows) -> ElementGroup:
        """The group of the elements at ``rows``, an index array or a slice
        (whose rows are views)."""
        return ElementGroup(self.degree, self.rational, self.elements[rows],
                            self.basis[rows], self.mask[rows], self.coeffs[rows])

    def blocks(self, points: int, count: int | None = None,
               entries: int | None = None) -> list[slice]:
        """Consecutive slices that cut ``count`` elements (default all of
        the group's) into the fewest blocks whose tables at ``points`` points
        per element hold at most ``entries`` entries (default
        ``BLOCK_ENTRIES``; at least one element each).  The blocks differ in
        size by at most one element: a small remainder block would take
        BLAS's small-matrix kernel, whose sums round differently from those
        of one call over all."""
        count = len(self.elements) if count is None else count
        entries = BLOCK_ENTRIES if entries is None else entries
        k = -(-count // max(1, entries // (self.mask.shape[1] * points)))
        bounds = (np.arange(k + 1) * count // max(k, 1)).tolist()
        return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def checked_id(value, n: int, what: str) -> int:
    """``value`` as an id in 0..n - 1, or a DomainError: Python and numpy
    integers pass, bools and floats (integral ones too) do not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{what} {value!r} is not an integer id")
    if not 0 <= value < n:
        raise DomainError(f"{what} {value} out of range 0..{n - 1}")
    return int(value)


def padded_groups(degree, rational, counts, elements=None) -> list[ElementGroup]:
    """Zeroed groups of the elements ``elements`` (ascending, by default
    0..len(degree) - 1) of degree ``degree``, rational flag ``rational``
    and ``counts`` basis functions: one group per (degree, rational) class,
    in ascending (degree, rational) order, each element padded to its
    class's largest count and its ``mask`` set.  Builds and the archive
    reader fill ``basis`` and ``coeffs`` in place.

    A ResourceError is raised, before anything is allocated, for a class
    whose padded coefficients would take more than ``MAX_PADDING`` times
    the bytes of its rows and more than ``PADDING_FLOOR`` bytes."""
    degree, counts = np.asarray(degree, dtype=int), np.asarray(counts, dtype=int)
    elements = np.arange(len(degree)) if elements is None else np.asarray(elements)
    kind = 2 * degree + np.asarray(rational, dtype=bool)
    classes = [(c // 2, bool(c % 2), np.flatnonzero(kind == c))
               for c in np.unique(kind).tolist()]
    for p, _, ids in classes:
        padded, used = (8 * (p + 1) ** 2 * n for n in (
            len(ids) * counts[ids].max(), counts[ids].sum()))
        if padded > max(MAX_PADDING * used, PADDING_FLOOR):
            wide = ids[counts[ids].argmax()]
            raise ResourceError(
                f"element {elements[wide]} with {counts[wide]} basis functions pads the "
                f"{len(ids)} degree-{p} elements of its class to {padded / 2**20:.0f} MB, "
                f"{padded / used:.0f} times the {used / 2**20:.1f} MB of their rows")
    groups = []
    for p, flag, ids in classes:
        mask = np.arange(counts[ids].max()) < counts[ids, None]
        groups.append(ElementGroup(p, flag, elements[ids], np.zeros(mask.shape, dtype=int),
                                   mask, np.zeros(mask.shape + ((p + 1) ** 2,))))
    return groups


@dataclass
class GSplineSurface:
    """A control net with one extraction operator per element.

    ``variant`` is one of ``"c0"``, ``"g1p"``, ``"g1r"``.  ``groups`` is
    the stored form of the extraction operators: each element is a row of
    the group of its (degree, rational) class, laid out by
    ``padded_groups``; ``select`` walks it, and ``extraction``,
    ``extractions`` and ``degree`` read one element (a DomainError for
    anything but an integer id in 0..n_faces - 1, as ``checked_id``).
    ``incidence`` gives the pattern of every per-basis-function sum.
    ``diagnostics`` lists the G1 construction's per-function records
    (None on a C0 surface).
    """

    net: ControlNet
    groups: list[ElementGroup]
    variant: str
    diagnostics: list | None = None

    def __post_init__(self):
        if self.variant not in ("c0", "g1p", "g1r"):
            raise DomainError(f"unknown construction variant {self.variant!r}")
        if sum(len(g.elements) for g in self.groups) != self.net.cnet.n_faces:
            raise InternalError("one extraction required per element")

    @property
    def cnet(self) -> CNet:
        return self.net.cnet

    def extraction(self, element: int) -> ElementExtraction:
        """The element's extraction operator, its ``basis`` and ``coeffs``
        views of the used prefix of its group row: in-place edits of them
        change ``groups``."""
        g, r = self._slot(element)
        n = int(np.count_nonzero(g.mask[r]))
        return ElementExtraction(int(element), g.degree, g.basis[r, :n],
                                 g.coeffs[r, :n], g.rational)

    @property
    def extractions(self) -> list[ElementExtraction]:
        """``extraction(e)`` of every element, in element order."""
        return [self.extraction(e) for e in range(self.cnet.n_faces)]

    def degree(self, element: int) -> int:
        return self._slot(element)[0].degree

    def _slot(self, element: int) -> tuple[ElementGroup, int]:
        group_of, row_of = self.group_slots
        element = checked_id(element, len(group_of), "element")
        return self.groups[group_of[element]], row_of[element]

    @cached_property
    def group_slots(self) -> tuple[np.ndarray, np.ndarray]:
        """Index in ``groups`` and row there of every element."""
        group_of, row_of = np.empty((2, self.cnet.n_faces), dtype=int)
        for i, g in enumerate(self.groups):
            group_of[g.elements], row_of[g.elements] = i, np.arange(len(g.elements))
        return group_of, row_of

    @cached_property
    def incidence(self) -> sp.csr_matrix:
        """The element-by-basis incidence B, read-only (n_faces, n_vertices)
        CSR with sorted indices: B[e, a] = 1 where element e lists basis
        function a.  Only basis ids are read, so coefficient edits keep it."""
        import scipy.sparse as sp

        rows = [(np.repeat(g.elements, g.mask.sum(1)), g.basis[g.mask]) for g in self.groups]
        ids, basis = (np.concatenate(a) for a in zip(*rows))
        B = sp.csr_matrix((np.ones(len(ids)), (ids, basis)),
                          shape=(self.cnet.n_faces, self.cnet.n_vertices))
        B.sort_indices()
        for a in (B.data, B.indices, B.indptr):
            a.flags.writeable = False
        return B

    def select(self, faces=None, points: int | None = None):
        """The elements ``faces`` (k,), in any order and repeats allowed, or
        by default every element, group by group in blocks.

        Yields ``(at, sub)``: ``sub`` is the ``ElementGroup`` of the
        elements ``faces[at]`` (``at`` are element ids without ``faces``),
        in ascending element order within each group, stable for repeats.
        Each group's elements run in the ``ElementGroup.blocks`` of
        ``points`` points per element (default (degree + 1)^2, one Gauss
        rule), so a pass allocates memory for one block, not for the whole
        surface.  Without ``faces`` the blocks are views of ``groups``."""
        if faces is not None:
            faces = np.asarray(faces, dtype=int)
            group_of, row_of = self.group_slots
            order = np.argsort(faces, kind="stable")
            in_group = group_of[faces[order]]
        for i, g in enumerate(self.groups):
            at = g.elements if faces is None else order[in_group == i]
            for block in g.blocks(points or (g.degree + 1) ** 2, len(at)):
                yield at[block], g.take(block if faces is None else row_of[faces[at[block]]])


def pattern_keys(A) -> np.ndarray:
    """Keys row * n_cols + col of CSR matrix A's entries, ascending; sorts A's indices."""
    A.sort_indices()
    return np.repeat(np.arange(A.shape[0]) * A.shape[1], np.diff(A.indptr)) + A.indices


def map_groups(surface: GSplineSurface, fn, points: int | None = None) -> list:
    """``fn(block)`` for every block of ``surface.select(points=points)``,
    in order.  An element error from ``fn`` is raised after every block has
    run: the one of the lowest element, as a loop over the elements would
    meet it.
    """
    return map_lowest(fn, ((sub,) for _, sub in surface.select(points=points)))


def map_lowest(fn, batches) -> list:
    """``[fn(*batch) for batch in batches]``, raising as ``map_groups``."""
    out, errors = [], []
    for batch in batches:
        try:
            out.append(fn(*batch))
        except (DegenerateBasisError, SingularParameterizationError) as exc:
            errors.append(exc)
    if errors:
        raise min(errors, key=lambda exc: exc.element)
    return out


def raise_first(group: ElementGroup, checks) -> None:
    """Raise the error of the group's lowest failing element.

    ``checks`` lists ``(failed, error)`` pairs in the order that one
    element's evaluation runs them: an (E,) mask, and a function of the
    row index that makes the exception (``group_table`` returns the one
    of the rational denominators).
    """
    failed = np.array([f for f, _ in checks])
    if failed.any():
        i = int(failed.any(axis=0).argmax())
        raise next(error for f, error in checks if f[i])(i)


@dataclass(frozen=True)
class SurfaceFrame:
    """First and second fundamental data of the surface at one point (the
    shapes below) or at an array of points (its shape in front)."""

    point: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    normal: np.ndarray
    metric: np.ndarray  # (2, 2) a_{ab} = a_a . a_b
    curvature: np.ndarray  # (2, 2) b_{ab} = d a_a / d(xi, eta)_b . n


def map_point(surface: GSplineSurface, element: int, xi, eta, nderiv: int = 0):
    """Evaluate the geometric map (optionally with 1st/2nd derivatives).

    Returns ``x`` (3,), or ``(x, J)`` with J (3, 2), or ``(x, J, H)`` with H
    rows (xixi, xieta, etaeta) for ``nderiv`` 0, 1, 2.  ``xi`` and ``eta``
    may be scalars or arrays; arrays broadcast against each other and
    their shape leads every output.
    """
    if nderiv not in (0, 1, 2):
        raise DomainError("nderiv must be 0, 1 or 2")
    group = surface.extraction(element).group
    pts, shape = stacked_points(xi, eta)
    *maps, bad_w = _group_maps(surface, group, pts, nderiv)
    raise_first(group, [bad_w])
    out = tuple(m[0].reshape(shape + m.shape[2:]) for m in maps)
    return out if nderiv else out[0]


def frame(surface: GSplineSurface, element: int, xi, eta) -> SurfaceFrame:
    """Tangents, unit normal, metric and curvature coefficients.

    ``xi`` and ``eta`` broadcast as in ``map_point``.  Raises
    SingularParameterizationError at the first point whose tangents are
    linearly dependent relative to ``DEGENERATE_TOL`` (scaled by the
    tangent size).
    """
    pts, shape = stacked_points(xi, eta)
    fr = group_frames(surface, surface.extraction(element).group, pts)
    rows = (getattr(fr, f.name) for f in fields(fr))
    return SurfaceFrame(*(a[0].reshape(shape + a.shape[2:]) for a in rows))


def group_frames(surface: GSplineSurface, group: ElementGroup, pts) -> SurfaceFrame:
    """``frame`` of every element of a group at the same (m, 2) points, the
    kernel of ``frame``, which passes an element's one-row group.

    Fields are shaped (E, m, ...).  Raises for the group's lowest failing
    element: a nonpositive denominator, or its first flat point.
    """
    x, J, H, bad_w = _group_maps(surface, group, pts)
    flat = _flat_tangents(J)

    def tangent_error(i):
        e, uv = int(group.elements[i]), tuple(float(c) for c in pts[flat[i].argmax()])
        return SingularParameterizationError(
            f"degenerate tangents at element {e}, ({uv[0]}, {uv[1]})", element=e, uv=uv)

    raise_first(group, [bad_w, (flat.any(axis=1), tangent_error)])
    return _frame(x, J, H)


def _group_maps(surface: GSplineSurface, group: ElementGroup, pts, order: int = 2):
    """The geometric map x, J, H of ``map_point`` of every element of a group
    at the same (m, 2) points, shaped (E, m, 3), (E, m, 3, 2), (E, m, 3, 3),
    the first ``order`` + 1 of them, and the ``group_table`` check of the
    rational denominators."""
    vals, *ds, bad_w = group_table(group, pts, order=order)
    P = surface.net.positions[group.basis]
    # one matrix product per element and point
    maps = [vals.swapaxes(1, 2) @ P] + [np.moveaxis(d, 1, -1) @ P[:, None] for d in ds]
    if order:
        maps[1] = maps[1].swapaxes(-1, -2)  # J's columns are the partials
    return (*maps, bad_w)


def _flat_tangents(J):
    """Points whose tangents are linearly dependent relative to
    ``DEGENERATE_TOL`` (scaled by the tangent size)."""
    a1, a2 = J[..., 0], J[..., 1]
    scale = np.maximum(np.linalg.norm(a1, axis=-1) * np.linalg.norm(a2, axis=-1),
                       DEGENERATE_TOL)
    return np.linalg.norm(np.cross(a1, a2), axis=-1) <= DEGENERATE_TOL * scale


def _frame(x, J, H) -> SurfaceFrame:
    """The frame of a point x with tangents J and second derivatives H."""
    a1, a2 = J[..., 0], J[..., 1]
    cross = np.cross(a1, a2)
    n = cross / np.linalg.norm(cross, axis=-1)[..., None]
    metric = J.swapaxes(-1, -2) @ J
    b = np.einsum("...ci,...i->...c", H, n)  # (b11, b12, b22)
    curvature = b[..., [0, 1, 1, 2]].reshape(b.shape[:-1] + (2, 2))
    return SurfaceFrame(point=x, a1=a1, a2=a2, normal=n, metric=metric,
                        curvature=curvature)


def principal_curvatures(fr: SurfaceFrame):
    """Eigenvalues of the shape operator a^{-1} b (largest magnitude first):
    two floats at one point, two arrays shaped as the points at many.

    Each point's pair is ordered by magnitude as ``np.real_if_close`` would
    leave it (the real parts where both imaginary parts are below 100 eps,
    the complex moduli otherwise), and its real parts are returned."""
    k = np.linalg.eigvals(np.linalg.solve(fr.metric, fr.curvature))
    real = (np.abs(k.imag) < 100 * np.finfo(float).eps).all(axis=-1, keepdims=True)
    order = np.argsort(-np.where(real, np.abs(k.real), np.abs(k)), axis=-1)
    k1, k2 = np.moveaxis(np.take_along_axis(k.real, order, axis=-1), -1, 0)
    return (float(k1), float(k2)) if k1.ndim == 0 else (k1, k2)


# ----------------------------------------------------------------------
# edge frames: rotations of the parent square


def rotation_offset_matrix(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Affine map frame -> stored parameters for a quarter-turn index k.

    stored = offset + A @ frame, with frame corner (0,0) at stored loop
    corner k and the frame axes following the counterclockwise loop.
    """
    if k not in (0, 1, 2, 3):
        raise DomainError(f"rotation index {k} out of range")
    c, s = [(1, 0), (0, 1), (-1, 0), (0, -1)][k]  # A turns by k quarter turns
    offset = np.array([(0, 0), (1, 0), (1, 1), (0, 1)][k], float)
    return offset, np.array([[c, -s], [s, c]], float)


def rotated_params(k: int, x, y):
    """Stored (xi, eta) of frame coordinates (x, y) under rotation k.

    ``x`` and ``y`` may be scalars or arrays that broadcast together.
    """
    off, A = rotation_offset_matrix(k)
    return (off[0] + (A[0, 0] * x + A[0, 1] * y),
            off[1] + (A[1, 0] * x + A[1, 1] * y))


@dataclass(frozen=True)
class EdgeFrames:
    """The two elements at an interior edge in their gluing frames.

    ``right`` traverses v1 -> v2 in its counterclockwise loop and sees the
    edge as its eta=0 side with xi the edge parameter; ``left`` sees it as
    its xi=0 side with eta the edge parameter.  ``rot_right``/``rot_left``
    are the quarter-turn indices from frame to stored parameters.
    """

    v1: int
    v2: int
    left: int
    right: int
    rot_left: int
    rot_right: int


def glued_frames(cnet: CNet, edges, v1=None) -> tuple[np.ndarray, np.ndarray]:
    """The rows ``edges`` (k,) of ``cnet.sides``, writable, each edge glued
    at its endpoint ``v1`` (k,), by default the lower one: column 0 holds
    the right element (its loop runs v1 -> v2) and its quarter-turn index,
    column 1 the left one.  Where v1 is the higher endpoint the two
    elements swap sides and each turns a quarter the other way."""
    edges = np.asarray(edges, dtype=int)
    faces, rots = (a[edges] for a in cnet.sides)
    if v1 is not None:
        flip = np.asarray(v1, dtype=int) != cnet.edges[edges, 0]
        faces[flip] = faces[flip, ::-1]
        rots[flip] = (rots[flip, ::-1] + [-1, 1]) % 4
    return faces, rots


def edge_frames(cnet: CNet, edge: int, v1: int | None = None) -> EdgeFrames:
    """Gluing frames of an interior edge: its row of ``glued_frames``.

    ``v1`` selects the edge endpoint placed at the shared frame origin;
    by default the lower vertex index.
    """
    edge = checked_id(edge, cnet.n_edges, "edge")
    u, v = (int(x) for x in cnet.edges[edge])  # u < v
    if v1 is not None and v1 not in (u, v):
        raise DomainError(f"vertex {v1} is not an endpoint of edge {edge}")
    v1, v2 = (v, u) if v1 == v else (u, v)
    if cnet.boundary_edge[edge]:
        raise DomainError(f"edge {edge} is a boundary edge")
    faces, rots = glued_frames(cnet, [edge], [v1])  # (right, left) columns
    return EdgeFrames(v1, v2, *faces[0, ::-1].tolist(), *rots[0, ::-1].tolist())


def _edge_batches(surface: GSplineSurface, faces, rots, points: int,
                  polynomial=False):
    """The sides of k edges, in batches per (side, rotation, group).

    ``faces`` and ``rots`` are (k, 2) as from ``glued_frames``.  Yields
    ``(side, rot, rows, sub)``: ``rows`` index edges whose side element
    has that rotation, and ``sub`` is a ``GSplineSurface.select`` block of
    those elements at ``points`` points per element, polynomial (not
    rationalized) if asked, so ``raise_first`` meets each block's lowest
    failing element.
    """
    for side, rot in np.ndindex(2, 4):
        rows = np.flatnonzero(rots[:, side] == rot)
        for at, sub in surface.select(faces[rows, side], points):
            yield side, rot, rows[at], replace(sub, rational=False) if polynomial else sub


def _side_points(side: int, rot: int, ts) -> np.ndarray:
    """Stored (xi, eta), shaped (m, 2), of edge parameters ``ts`` on a side:
    eta = 0 on the right, xi = 0 on the left, in the frame of ``rot``."""
    zs = np.zeros_like(ts)
    return np.stack(rotated_params(rot, *((ts, zs) if side == 0 else (zs, ts))), axis=1)


def _jump_terms(side: int, order, vals, d1, d2):
    """One side's signed share of the jumps of a batch, shaped (E, n, m, 2),
    for ``order`` (E,) per row (-1: none).  The glued transversal
    coordinate w is eta on the right and -xi on the left."""
    out = np.zeros(vals.shape + (2,))
    o0, o1, o2 = (order == k for k in range(3))
    sign, w1, ww = (1.0, 1, 2) if side == 0 else (-1.0, 0, 0)  # d1, d2 columns of w
    out[o0, ..., 0], out[o1, ..., 0], out[o2, ..., 0] = (
        sign * vals[o0], d1[o1, ..., w1], sign * d2[o2, ..., ww])
    out[o2, ..., 1] = d2[o2, ..., 1]
    return out


def edge_sums(surface: GSplineSurface, faces, rots, ts, summed, terms, shape,
              polynomial: bool = False) -> np.ndarray:
    """The max over each edge's basis functions of a sum over its sides.

    One ``group_table`` call per ``_edge_batches`` batch of ``faces`` and
    ``rots`` at edge parameters ``ts``, with derivatives along the frame
    axes (d2 columns xx, xy, yy); ``terms(side, rows, sub, vals, d1, d2)``
    gives a batch's share, (E, n) + ``shape``, summed per (edge, basis
    function) over the ``summed`` (k,) edges.  Returns the max |sum| of
    each edge, 0 where not summed.  The (edge, basis function) slots are
    the pattern of S B, with S the (k, n_faces) edge-by-element matrix of
    the summed edges' two sides and B ``surface.incidence``; the batches
    are walked once.  An element error is raised after every batch has run,
    for the lowest element, as ``map_groups`` does.
    """
    import scipy.sparse as sp

    n, edges = surface.cnet.n_vertices, np.flatnonzero(summed)
    S = sp.csr_matrix((np.ones(2 * len(edges)), (np.repeat(edges, 2), faces[edges].ravel())),
                      shape=(len(faces), surface.cnet.n_faces))
    keys = pattern_keys(pattern := S @ surface.incidence)
    sums = np.zeros((len(keys),) + shape)

    def visit(side, rot, rows, sub):  # a call, so each batch's tables are freed
        vals, d1, d2, bad_w = group_table(sub, _side_points(side, rot, ts),
                                          axes=rotation_offset_matrix(rot)[1])
        raise_first(sub, [bad_w])
        share, used = terms(side, rows, sub, vals, d1, d2), sub.mask & summed[rows, None]
        sums[np.searchsorted(keys, (rows[:, None] * n + sub.basis)[used])] += share[used]

    map_lowest(visit, _edge_batches(surface, faces, rots, len(ts), polynomial))
    out, filled = np.zeros(len(faces)), np.diff(pattern.indptr) > 0
    peak = np.abs(sums, out=sums).max(axis=tuple(range(1, sums.ndim)), initial=0.0)
    out[filled] = np.maximum.reduceat(peak, pattern.indptr[:-1][filled])
    return out


def edge_residuals(surface: GSplineSurface, faces, rots, orders,
                   gap_samples: int = 11, jump_samples: int = 20):
    """Watertightness and basis-function jumps of k interior edges.

    ``faces`` and ``rots`` are (k, 2) gluing frames as from ``glued_frames``;
    ``orders`` (k,) the jump order of each edge: 0 compares traces, 1 the
    transversal derivative in the glued chart, 2 the transversal and
    mixed second derivatives, and -1 measures no jump.  Returns ``(gap,
    jump)``, each (k,): the max distance between the two sides' surface
    points at ``gap_samples`` edge parameters, and the max jump of any
    basis function at ``jump_samples`` (a function missing on one side
    counts as zero there), from one ``edge_sums`` pass over both sample
    sets.
    """
    faces, rots, orders = np.asarray(faces), np.asarray(rots), np.asarray(orders)
    ts = np.concatenate([np.linspace(0.0, 1.0, gap_samples),
                         np.linspace(0.0, 1.0, jump_samples)])
    points = np.zeros((2, len(faces), gap_samples, 3))

    def terms(side, rows, sub, vals, d1, d2):
        points[side, rows] = (vals[..., :gap_samples].swapaxes(1, 2)
                              @ surface.net.positions[sub.basis])
        return _jump_terms(side, orders[rows],
                           *(t[:, :, gap_samples:] for t in (vals, d1, d2)))

    jump = edge_sums(surface, faces, rots, ts, orders >= 0, terms, (jump_samples, 2))
    return np.linalg.norm(points[0] - points[1], axis=-1).max(axis=1, initial=0.0), jump


def edge_normal_angles(surface: GSplineSurface, faces, rots,
                       samples: int = 11) -> np.ndarray:
    """Max angle (radians) between the two sides' unit normals along k
    interior edges glued at ``faces``, ``rots``, at the edge parameters
    ``linspace(0.02, 0.98, samples)``: arctan2(|n_r x n_l|, n_r . n_l),
    which resolves angles below sqrt(2 eps) as arccos(n_r . n_l) cannot.
    Raises, for the lowest failing element, the error ``frame`` raises."""
    faces, rots = np.asarray(faces), np.asarray(rots)
    ts = np.linspace(0.02, 0.98, samples)
    normals = np.zeros((2, len(faces), samples, 3))

    def visit(side, rot, rows, sub):
        normals[side, rows] = group_frames(surface, sub, _side_points(side, rot, ts)).normal

    map_lowest(visit, _edge_batches(surface, faces, rots, samples))
    nr, nl = normals
    return np.arctan2(np.linalg.norm(np.cross(nr, nl), axis=-1),
                      (nr * nl).sum(axis=-1)).max(axis=1, initial=0.0)


def _one_edge(fr: EdgeFrames):
    return np.array([[fr.right, fr.left]]), np.array([[fr.rot_right, fr.rot_left]])


def edge_jumps(surface: GSplineSurface, edge: int, order: int,
               samples: int = 20, v1: int | None = None) -> float:
    """Max per-basis-function derivative jump across an interior edge:
    ``edge_residuals`` of one edge, glued at ``v1`` (default the lower
    vertex)."""
    if order not in (0, 1, 2):
        raise DomainError("order must be 0, 1 or 2")
    _, jump = edge_residuals(surface, *_one_edge(edge_frames(surface.cnet, edge, v1)),
                             [order], gap_samples=0, jump_samples=samples)
    return float(jump[0])


def edge_watertightness(surface: GSplineSurface, edge: int,
                        samples: int = 11) -> float:
    """Max distance between the two-sided surface samples along an edge:
    ``edge_residuals`` of one edge."""
    gap, _ = edge_residuals(surface, *_one_edge(edge_frames(surface.cnet, edge)),
                            [-1], gap_samples=samples, jump_samples=0)
    return float(gap[0])


def normal_jump(surface: GSplineSurface, edge: int, samples: int = 11) -> float:
    """Max angle (radians) between the two-sided unit normals along an
    edge: ``edge_normal_angles`` of one edge."""
    angle = edge_normal_angles(surface, *_one_edge(edge_frames(surface.cnet, edge)),
                               samples)
    return float(angle[0])


# ----------------------------------------------------------------------
# sampling


def _check_resolution(surface: GSplineSurface, resolution: int) -> None:
    """Raise unless 1 <= resolution and the (resolution + 1)^2 samples of
    every element stay within ``MAX_SAMPLES``."""
    if resolution < 1:
        raise DomainError("resolution must be >= 1")
    if surface.cnet.n_faces * (resolution + 1) ** 2 > MAX_SAMPLES:
        raise ResourceError(f"more than {MAX_SAMPLES} samples at resolution {resolution}")


def _sample_grid(surface: GSplineSurface, resolution: int) -> np.ndarray:
    """The (resolution + 1)^2 tensor points (xi, eta) of an element, xi
    fastest, after ``_check_resolution``."""
    _check_resolution(surface, resolution)
    grid = np.arange(resolution + 1) / resolution
    return np.stack([np.tile(grid, resolution + 1), np.repeat(grid, resolution + 1)], 1)


def sample_bezier_mesh(surface: GSplineSurface, resolution: int = 8):
    """Deterministic tensor sampling of every element.

    Returns ``(points, quads, edges)``: stacked sample points, quad
    connectivity into them, and per-element boundary polyline index loops
    (the Bezier mesh, i.e. the images of the element boundaries).
    """
    uv = _sample_grid(surface, resolution)
    r, n = resolution, surface.cnet.n_faces
    points = np.empty((n, len(uv), 3))

    def sample(sub):
        vals, bad_w = group_table(sub, uv, order=0)
        raise_first(sub, [bad_w])
        points[sub.elements] = vals.swapaxes(1, 2) @ surface.net.positions[sub.basis]

    map_groups(surface, sample, len(uv))
    t, m = np.arange(r), r + 1
    base = m * m * np.arange(n)[:, None]
    quads = (base[:, None] + m * t[:, None] + t).reshape(-1, 1) + [0, 1, m + 1, m]
    loops = base + np.concatenate([t, r + m * t, m * m - 1 - t, m * (r - t)])
    return points.reshape(-1, 3), quads.tolist(), loops.tolist()


def frames_csv(surface: GSplineSurface, resolution: int = 4) -> str:
    """CSV of sampled frames: position, unit normal, principal curvatures.

    One row per tensor point of ``sample_bezier_mesh``, element by element
    and xi fastest, from ``group_frames``'s products over blocks of
    elements.  A point with flat tangents, where ``frame`` raises, has no
    row; a nonpositive rational denominator raises for the lowest element.
    """
    uv = _sample_grid(surface, resolution)
    m = len(uv)
    table = np.empty((surface.cnet.n_faces * m, 8))
    kept = np.zeros(surface.cnet.n_faces * m, dtype=bool)

    def sample(sub):
        x, J, H, bad_w = _group_maps(surface, sub, uv)
        raise_first(sub, [bad_w])
        ok = ~_flat_tangents(J)
        fr = _frame(x[ok], J[ok], H[ok])
        at = (sub.elements[:, None] * m + np.arange(m))[ok]
        table[at] = np.column_stack([fr.point, fr.normal, *principal_curvatures(fr)])
        kept[at] = True

    map_groups(surface, sample, m)
    uv = uv.tolist()
    rows = ["element,xi,eta,x,y,z,nx,ny,nz,kappa1,kappa2"]
    # + 0.0 turns -0.0, whose sign depends on the summation path, into 0.0
    for i, (x, y, z, nx, ny, nz, k1, k2) in zip(np.flatnonzero(kept).tolist(),
                                                (table[kept] + 0.0).tolist()):
        xi, eta = uv[i % m]
        rows.append(f"{i // m},{xi:.6f},{eta:.6f},{x:.12g},{y:.12g},{z:.12g},"
                    f"{nx:.12g},{ny:.12g},{nz:.12g},{k1:.12g},{k2:.12g}")
    return "\n".join(rows) + "\n"
