"""Tangent-plane (G1) continuous constructions on top of the C0 surface.

Basis functions with support near extraordinary vertices are degree
elevated to bi-quintic on irregular elements and their Bernstein
coefficients re-solved per basis function: a linear equality system
enforces tangent-plane continuity across edges radiating from
extraordinary vertices (and plain C1 across edges between irregular
elements whose endpoints are regular, where the blend polynomial
degenerates to zero), pins the two outermost coefficient layers along
interfaces with unmodified elements, and a least-squares fairing term
keeps coefficient differences close to their elevated values.

Two variants exist: the propagated polynomial construction solves every
basis function over the full irregular-element cluster of the
extraordinary vertices it can reach, which preserves the polynomial
partition of unity but can enlarge supports; the restricted construction
keeps each function on its original support and pins the support
boundary, which requires rationalization to restore partition of unity.

The equality and fairing matrices depend only on the set of elements a
function is solved over; only the right-hand sides depend on the
function.  Functions sharing an element set are therefore solved
together: one factorization, one right-hand-side column per function.

Unknowns are numbered from integer slot keys (``slot_keys``: corner
slots by vertex, side slots by edge position, interior slots per face),
so elements share the unknowns of their common edges.  Whatever the
problems of one build share is made once, in arrays, by
``build_tables``: the irregular faces (``CNet.rings``, ``CNet.clusters``)
and their extraction rows from the C0 groups, elevated by one
stacked ``degree_elevate_2`` call; each function's support and solve set
as a row of a boolean table over the irregular faces; the slot keys of
every irregular face and the face across each of its sides; and
``glued_sides`` of every edge between two irregular faces.  Each
``ConstraintProblem`` takes its rows of these tables (a standalone one
makes the tables of its own functions) and numbers its own unknowns.
It then writes G from index arrays, the seven rows of each constrained
edge from one stencil table (``_EDGE_STENCIL``) with one ``np.add.at``
and an identity row per pinned unknown, and keeps what it knows: the
pinned unknowns, and the 60 fairing differences of each element as slot
pairs (a, b), F c = c[a] - c[b], with no dense F.  ``assemble`` is the
dense view of the same parts, F and the per-row tags included.
``solve`` gives each function's (elements, 36) rows, stored as they
are.

``solve_constrained_ls`` fixes the pinned unknowns first, takes the rank
of the other rows over the free unknowns from an SVD, and solves the
fairing problem in their nullspace, by Cholesky or by ``lstsq``; the
``lstsq`` fallback returns the solution nearest the C0 target.  A
problem hands it its pins and its pairs; a dense ``ConstraintSystem``,
any G and F, has its pins found in G and its fairing block cut from F,
and both then take the same steps, bitwise.
Only numpy's LAPACK is used: scipy links its own OpenBLAS, and mixing
the two here was slower.  A system whose reduced equality matrix has
fewer than ``ONE_THREAD_ENTRIES`` entries (2^18, near the measured
crossover of about 500 x 900) is solved on one thread of numpy's own
OpenBLAS (``openblas_set_num_threads_local``, looked up on the first
such solve and restored after it); below that size a second thread
costs more than it saves, and on one thread the bits no longer depend
on the machine's core count.  Where numpy links no OpenBLAS with that
setter, and for larger systems, the count is left as it is.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, InfeasibleConstraintError, InternalError
from .evaluate import GSplineSurface, edge_frames, edge_sums, glued_frames, padded_groups
from .extraction import degree_elevate_2
from .mesh import CNet, irregular_basis_vertices

P = 5  # irregular elements are bi-quintic
# The fairing normal equations are solved only when the Cholesky factor's
# smallest diagonal entry exceeds this fraction of its largest.
PIVOT_MIN = 1e-2
# Relative tolerances of solve_constrained_ls: singular values below RANK_TOL
# times the largest count as zero, equality residuals above EQ_TOL fail.
RANK_TOL = 1e-10
EQ_TOL = 1e-9
# Systems whose reduced equality matrix has fewer entries than this are
# solved on one BLAS thread; a second thread costs more than it saves up
# to about 500 x 900.
ONE_THREAD_ENTRIES = 2**18

COPY_ROWS = 2**8  # C0 rows that build_g1 copies into its cubic group at a time


@dataclass(frozen=True)
class EdgeGeometryData:
    """Blend data of one constrained edge.

    ``v1``/``v2`` are the edge endpoints in frame order, ``mu`` their
    valences and ``a`` the angle multipliers (2 for interior endpoints,
    1 for boundary ones); omega_i = cos(a_i pi / mu_i).  Regular endpoints
    give omega = 0, so edges between irregular elements with regular
    endpoints carry plain C1 coupling.
    """

    edge: int
    v1: int
    v2: int
    a1: int
    a2: int
    mu1: int
    mu2: int
    omega1: float
    omega2: float


def edge_geometry(cnet: CNet, edge: int) -> EdgeGeometryData:
    """Blend weights of an edge from its endpoint valences.  The frame
    origin v1 is the extraordinary endpoint if exactly one is, otherwise
    the lower vertex index."""
    u, v = (int(x) for x in cnet.edges[edge])  # u < v
    v1, v2 = (v, u) if cnet.extraordinary[v] and not cnet.extraordinary[u] else (u, v)
    a1 = 1 if cnet.boundary_vertex[v1] else 2
    a2 = 1 if cnet.boundary_vertex[v2] else 2
    mu1, mu2 = int(cnet.valence[v1]), int(cnet.valence[v2])
    return EdgeGeometryData(
        edge=edge, v1=v1, v2=v2, a1=a1, a2=a2, mu1=mu1, mu2=mu2,
        omega1=math.cos(a1 * math.pi / mu1),
        omega2=math.cos(a2 * math.pi / mu2),
    )


def blend_polynomial(omega1, omega2, v) -> np.ndarray:
    """The quadratic edge blend -2*omega1*(1-v)^2 + 2*omega2*v^2; the
    three arguments broadcast together."""
    v = np.asarray(v, dtype=float)
    return -2.0 * omega1 * (1.0 - v) ** 2 + 2.0 * omega2 * v**2


def glued_sides(cnet: CNet, edges):
    """``evaluate.glued_frames`` of ``edges``, each glued at
    ``edge_geometry``'s v1, and their (k, 2) blend weights (omega1,
    omega2): ``math.cos`` of ``edge_geometry``, one call per (a, mu)."""
    edges = np.asarray(edges, dtype=int)
    u, v = cnet.edges[edges].T  # u < v
    v1 = np.where(cnet.extraordinary[v] & ~cnet.extraordinary[u], v, u)
    ends = np.column_stack([v1, u + v - v1])
    a, mu = np.where(cnet.boundary_vertex[ends], 1, 2), cnet.valence[ends]
    cos = np.array([[math.cos(k * math.pi / m) for m in range(1, mu.max(initial=0) + 1)]
                    for k in (1, 2)])
    faces, rots = glued_frames(cnet, edges, v1)
    return faces, rots, cos[a - 1, mu - 1]


# ----------------------------------------------------------------------
# irregular faces and their clusters


def analyze_net(cnet: CNet) -> tuple[np.ndarray, np.ndarray]:
    """The irregular faces, ascending, and their ``CNet.clusters``.  g1p
    solves a function over every cluster it touches, so all functions on
    an element see one equality system and sum to one exactly."""
    faces = np.flatnonzero(cnet.rings == 1)
    return faces, cnet.clusters[faces]


# ----------------------------------------------------------------------
# node bookkeeping


# flat index i + (P + 1) * j of grid slot (i, j), the layout of a row of
# extraction coefficients
_SLOT = np.arange((P + 1) ** 2).reshape(P + 1, P + 1, order="F")

# the two outermost layers along each side, trace row first; the trace
# rows of sides 2 and 3 run against the face loop
_SIDE_SLOTS = np.array([_SLOT.T[[0, 1]], _SLOT[[P, P - 1]],
                        _SLOT.T[[P, P - 1]], _SLOT[[0, 1]]]).reshape(4, -1)
# the P - 1 inner slots of each side's trace row, along the face loop
_SIDE_TRACE = np.concatenate([_SIDE_SLOTS[:2, 1:P], _SIDE_SLOTS[2:, P - 1:0:-1]])

# slot pairs whose coefficient differences the fairing rows preserve
_FAIR_A = np.concatenate([_SLOT[:P].T.ravel(), _SLOT[:, :P].T.ravel()])
_FAIR_B = np.concatenate([_SLOT[1:].T.ravel(), _SLOT[:, 1:].T.ravel()])

# stored flat slot of 0-based frame slot (i, j) of an element turned by k
# quarter turns, at [k, i, j]: for k = 1 the stored grid slot (P - j, i)
_ROT_SLOT = np.array([np.rot90(_SLOT, -k) for k in range(4)])

# The seven rows of a constrained edge, one entry per line:
# (row, side, i, j, c0, c_w1, c_w2) puts c0 + c_w1 omega1 + c_w2 omega2 on
# 1-based frame slot (i, j) of the right (side 0) or left (side 1)
# element.  Rows 0-5 are the tangent-plane conditions, row 6 makes the
# edge curve quartic; entries of a row are summed in the order listed.
_EDGE_STENCIL = np.array([
    (0, 1, 2, 1, 5, 0, 0), (0, 0, 1, 1, -10, 10, 0), (0, 0, 2, 1, 0, -10, 0),
    (0, 0, 1, 2, 5, 0, 0),
    (1, 1, 2, 2, 5, 0, 0), (1, 0, 2, 1, -10, 10, 0), (1, 0, 3, 1, 0, -8, 0),
    (1, 0, 1, 1, 0, -2, 0), (1, 0, 2, 2, 5, 0, 0),
    (2, 1, 2, 3, 5, 0, 0), (2, 0, 3, 1, -10, 0, 0), (2, 0, 5, 1, 0, -5, 0),
    (2, 0, 4, 1, 0, 4, 0), (2, 0, 6, 1, 0, 1, 0), (2, 0, 2, 1, 0, 0, 1),
    (2, 0, 1, 1, 0, 0, -1), (2, 0, 3, 2, 5, 0, 0),
    (3, 1, 2, 4, 5, 0, 0), (3, 0, 4, 1, -10, 0, 0), (3, 0, 6, 1, 0, -1, 0),
    (3, 0, 5, 1, 0, 1, 0), (3, 0, 3, 1, 0, 0, 4), (3, 0, 2, 1, 0, 0, -5),
    (3, 0, 1, 1, 0, 0, 1), (3, 0, 4, 2, 5, 0, 0),
    (4, 1, 2, 5, 5, 0, 0), (4, 0, 5, 1, -10, 0, 10), (4, 0, 4, 1, 0, 0, -8),
    (4, 0, 6, 1, 0, 0, -2), (4, 0, 5, 2, 5, 0, 0),
    (5, 1, 2, 6, 5, 0, 0), (5, 0, 6, 1, -10, 0, 10), (5, 0, 5, 1, 0, 0, -10),
    (5, 0, 6, 2, 5, 0, 0),
    (6, 0, 1, 1, -1, 0, 0), (6, 0, 2, 1, 5, 0, 0), (6, 0, 3, 1, -10, 0, 0),
    (6, 0, 4, 1, 10, 0, 0), (6, 0, 5, 1, -5, 0, 0), (6, 0, 6, 1, 1, 0, 0),
], dtype=float)
_ST_ROW, _ST_SIDE, _ST_I, _ST_J = (
    _EDGE_STENCIL[:, :4].astype(int) - [0, 0, 1, 1]).T
_ST_C0, _ST_W1, _ST_W2 = _EDGE_STENCIL[:, 4:].T


def slot_keys(cnet: CNet, faces) -> np.ndarray:
    """Globally shared integer identity of each slot of the quintic grids
    of ``faces``: an (len(faces), 36) int64 table, slot (i, j) at column
    i + (P + 1) * j.

    Corner slots map to the corner vertex id, side slots to
    ``n_vertices + (P - 1) * edge + t - 1`` with t the position along the
    edge from its lower-index endpoint, interior slots to face-local keys
    above both.  Adjacent elements therefore share their edge-row
    unknowns, which builds C0 continuity into the constraint systems.
    """
    faces = np.asarray(faces, dtype=np.int64)
    loop = cnet.faces[faces]
    n_side = cnet.n_vertices + (P - 1) * cnet.n_edges
    keys = n_side + (P + 1) ** 2 * faces[:, None] + np.arange((P + 1) ** 2)
    keys[:, _SLOT[[0, P, P, 0], [0, 0, P, P]]] = loop
    t = np.arange(1, P)  # slot positions along an edge from its lower endpoint
    along = np.where((loop < loop[:, [1, 2, 3, 0]])[..., None], t, P - t)
    keys[:, _SIDE_TRACE] = (cnet.n_vertices - 1 + along
                            + (P - 1) * cnet.face_edges[faces][..., None])
    return keys


@dataclass
class ConstraintSystem:
    """Assembled equality (G, g) and fairing (F, f) pairs of one solve.

    ``g`` and ``f`` hold one right-hand side (1-D) or one column per basis
    function solved over the same element set (2-D), and ``ctilde``, when
    given, the C0 target of the same shape as the solution.
    """

    G: np.ndarray
    g: np.ndarray
    F: np.ndarray
    f: np.ndarray
    tags: list  # provenance per equality row (edge id or pin description)
    ctilde: np.ndarray | None = None

    def pins(self):
        """The pinned unknowns (ascending), the row that pins each (its
        first single-entry row) and a mask of the other rows."""
        G = self.G
        single = np.flatnonzero(np.count_nonzero(G, axis=1) == 1)
        pinned, first = np.unique(np.argmax(G[single] != 0, axis=1),
                                  return_index=True)
        rest = np.ones(G.shape[0], dtype=bool)
        rest[single[first]] = False
        return pinned, single[first], rest

    def fairing(self, free):
        """``(touch, times, block)`` over the ``free`` unknowns: the mask of
        the fairing rows that touch one, ``times(x, rows)`` = F[rows] x and
        ``block(Z)`` = F[touch][:, free] Z."""
        F = self.F
        Fr = F[:, free]
        touch = Fr.any(axis=1)
        return touch, lambda x, rows=slice(None): F[rows] @ x, lambda Z: Fr[touch] @ Z


def _c0_rows(c0: GSplineSurface, faces: np.ndarray):
    """Element, basis id and cubic coefficients (16,) of every extraction
    row of the ``faces``, by element then row, taken from the groups of
    ``c0``: the one group of a C0 surface holds them all."""
    subs = [g.take(np.flatnonzero(np.isin(g.elements, faces))) for g in c0.groups]
    return tuple(np.concatenate(p) for p in zip(*(
        (np.repeat(s.elements, s.mask.sum(axis=1)), s.basis[s.mask], s.coeffs[s.mask])
        for s in subs)))


@dataclass(frozen=True)
class BuildTables:
    """What the constraint problems of one G1 build share, made once by
    ``build_tables``; each problem takes its rows.

    ``faces`` are the irregular faces, ascending.  ``rows`` holds, for
    every extraction row of theirs (by face, then row), the index of its
    face in ``faces``, its basis id and its cubic coefficients elevated
    to bi-quintic (36,).  ``support`` and
    ``solved`` are (len(functions), len(faces)) tables over the ascending
    ``functions``: each function's support, and the faces it is solved
    over: its support (g1r) or every face of the clusters its support
    touches (g1p).  ``keys`` is ``slot_keys`` of ``faces``.
    ``side_edges[r, s]`` is the edge of side s of ``faces[r]``, and
    ``across[r, s]`` the index in ``faces`` of the irregular face across
    it, ``TRANSITION`` across any other face and ``BOUNDARY`` on the
    domain boundary.  ``glued`` is (edges, faces, rots, omega): every edge
    between two irregular faces, ascending, and its ``glued_sides`` rows.
    """

    TRANSITION = -1
    BOUNDARY = -2

    variant: str
    faces: np.ndarray
    rows: tuple
    functions: np.ndarray
    support: np.ndarray
    solved: np.ndarray
    keys: np.ndarray
    side_edges: np.ndarray
    across: np.ndarray
    glued: tuple


def build_tables(c0: GSplineSurface, functions, variant: str) -> BuildTables:
    """The ``BuildTables`` of the basis ``functions`` of ``c0`` in
    ``variant``: one ``_c0_rows``, one ``slot_keys``, one
    ``degree_elevate_2`` and one ``glued_sides`` call."""
    cnet = c0.cnet
    faces, cluster = analyze_net(cnet)
    element, basis_at, coeffs = _c0_rows(c0, faces)
    at = np.searchsorted(faces, element)
    ids = np.unique(np.asarray(functions, dtype=np.int64))
    hit = np.isin(basis_at, ids, kind="sort")
    fn = np.searchsorted(ids, basis_at[hit])
    support = np.zeros((ids.size, faces.size), dtype=bool)
    support[fn, at[hit]] = True
    solved = support
    if variant == "g1p":
        names, ring = np.unique(cluster, return_inverse=True)
        touched = np.zeros((ids.size, names.size), dtype=bool)
        touched[fn, ring[at[hit]]] = True
        solved = np.ascontiguousarray(touched[:, ring])

    side_edges = cnet.face_edges[faces]
    pair = cnet.edge_faces[side_edges]
    other = np.where(pair[..., 0] == faces[:, None], pair[..., 1], pair[..., 0])
    across = np.where(other < 0, BuildTables.BOUNDARY,
                      np.where(cnet.rings[other] == 1, np.searchsorted(faces, other),
                               BuildTables.TRANSITION))
    between = np.unique(side_edges[across >= 0])
    return BuildTables(
        variant, faces,
        (at, basis_at, degree_elevate_2(coeffs)),
        ids, support, solved, slot_keys(cnet, faces), side_edges, across,
        (between, *glued_sides(cnet, between)))


class ConstraintProblem:
    """Unknowns, targets and equations of the solve of one basis function,
    or of several functions solved over the same element set.

    ``basisfn`` is one id (1-D targets and right-hand sides) or a sequence
    of ids (one column per function); ids are integers.  ``variant``
    selects the constrained edge set: "g1p" couples every edge between two
    in-cluster irregular elements, "g1r" couples only edges interior to the
    function's original support and pins the rest.  ``tables`` are the
    ``build_tables`` of ``c0`` in ``variant`` over functions that include
    these (by default those of these functions alone); the problem takes
    its rows of them and numbers its own unknowns.

    ``elements`` (the faces solved over) and ``constrained_edges`` are
    ascending id arrays; ``supports`` are boolean rows over the irregular
    faces; ``slot_nodes[r, i + 6 j]`` is the unknown of slot (i, j) of
    element ``elements[r]``; the three ``*_sides`` are (k, 2) (element,
    side) arrays.

    The problem is the system ``solve_constrained_ls`` reads.  ``G`` and
    ``g`` are those of ``ConstraintSystem``: seven rows per constrained
    edge, then one identity row per pinned unknown.  ``pinned`` are the
    pinned unknowns, ascending, and ``pin_rows`` the identity row of each.
    Fairing row i is the slot pair (a[i], b[i]), 60 per element: F c =
    c[a] - c[b].  The dense ``F`` and the ``tags`` are made when first
    read, which the solve does only to raise.
    """

    def __init__(self, c0: GSplineSurface, basisfn, variant: str,
                 tables: BuildTables | None = None):
        if c0.variant != "c0":
            raise DomainError("constraint problems start from a C0 surface")
        if variant not in ("g1p", "g1r"):
            raise DomainError(f"unknown construction variant {variant!r}")
        fns = np.atleast_1d(np.asarray(basisfn))
        if fns.size and fns.dtype.kind not in "iu":
            raise DomainError(f"basis function ids must be integers, not {basisfn!r}")
        fns = fns.astype(np.int64)
        self.c0 = c0
        self.functions = fns.tolist()
        cols = () if np.ndim(basisfn) == 0 else (fns.size,)
        self.variant = variant
        named = f"basis functions {self.functions}"

        self.tables = t = build_tables(c0, fns, variant) if tables is None else tables
        held = np.searchsorted(t.functions, fns)  # rows of the function tables
        if (t.variant != variant or (held == t.functions.size).any()
                or (t.functions[held] != fns).any()):
            raise DomainError(f"the build tables do not hold {variant} {named}")
        self.supports, solved = t.support[held], t.solved[held]
        if not solved.any():
            raise DomainError(f"{named} support no irregular element")
        if (solved != solved[0]).any():
            raise DomainError(f"{named} are solved over different element sets")
        mine = np.flatnonzero(solved[0])  # rows of the face tables
        self.elements = els = t.faces[mine]

        # unknowns numbered by first appearance of their slot key, element
        # by element, j then i
        _, first, inverse = np.unique(t.keys[mine], return_index=True,
                                      return_inverse=True)
        nodes = first.argsort().argsort()[inverse.ravel()]
        self.slot_nodes = nodes.reshape(-1, (P + 1) ** 2)  # row per element
        self.n = first.size

        # elevated targets from the first cubic row of every (element,
        # function) pair; each unknown's slots must all agree
        at, basis, elevated = t.rows
        rows = np.flatnonzero(solved[0][at])
        row, k = np.nonzero(basis[rows, None] == fns)
        row = rows[row]
        e = np.searchsorted(mine, at[row])
        _, pair = np.unique(e * fns.size + k, return_index=True)
        values = np.zeros((els.size, fns.size, (P + 1) ** 2))
        values[e[pair], k[pair]] = elevated[row[pair]]
        values = values.swapaxes(1, 2).reshape(-1, fns.size)  # slot by slot
        ctilde = values[np.sort(first)]
        bad = (np.abs(values - ctilde[nodes]) > 1e-9).any(axis=1)
        if bad.any():
            raise InternalError(
                "inconsistent elevated coefficients at a shared node of "
                f"element {els[bad.argmax() // (P + 1) ** 2]}")
        self.ctilde = ctilde.reshape((self.n,) + cols)

        # Classify the sides of every element.  Edges interior to the
        # unknown set carry tangent-plane equations.  Sides against
        # transition elements pin two coefficient layers to their elevated
        # values (keeps C1 with the unmodified neighbor).  Sides against
        # irregular elements outside the unknown set (restricted variant
        # only) pin two layers to zero so the function dies C1 at its
        # support boundary; away from boundary EPs the elevated values
        # already vanish there, so both readings coincide.  Domain-boundary
        # sides pin only the trace row (the boundary curve), leaving the
        # cross-derivative free for the constraints at boundary EPs.
        across = t.across[mine]
        # TRANSITION and BOUNDARY read the two appended False
        inside = np.append(solved[0], [False, False])[across]

        def sides(mask):
            f, s = np.nonzero(mask)
            return np.column_stack([els[f], s])

        self.constrained_edges = np.unique(t.side_edges[mine][inside])
        self.frozen_sides = sides((across >= 0) & ~inside)
        self.pinned_sides = sides(across == t.TRANSITION)
        self.boundary_sides = sides(across == t.BOUNDARY)

        # Pins: two coefficient layers per side, the trace row alone on
        # domain-boundary sides.  Frozen (zero) pins come first so shared
        # corner slots obey the stronger support-boundary condition; each
        # unknown is pinned once, by its first side.
        pins = np.concatenate([
            self.slot_nodes[np.searchsorted(self.elements, sides[:, 0])[:, None],
                            _SIDE_SLOTS[sides[:, 1], :width]].ravel()
            for _, sides, width in self._pin_sides()])
        keep = np.sort(np.unique(pins, return_index=True)[1])
        pinned = pins[keep]
        pin_rhs = self.ctilde[pinned]
        pin_rhs[keep < (2 * P + 2) * len(self.frozen_sides)] = 0.0

        # Edge rows from the stencil table, each edge glued at its v1
        edges = self.constrained_edges
        between, *glued = t.glued
        faces, rots, omega = (a[np.searchsorted(between, edges)] for a in glued)
        w1, w2 = omega[:, :1], omega[:, 1:]
        side_rows = np.searchsorted(els, faces)[:, _ST_SIDE]
        cols = self.slot_nodes[side_rows,
                               _ROT_SLOT[rots[:, _ST_SIDE], _ST_I, _ST_J]]
        n_edge_rows = 7 * edges.size
        self.G = G = np.zeros((n_edge_rows + pinned.size, self.n))
        # unbuffered, in entry order: repeated slots of a row sum as listed
        np.add.at(G, (7 * np.arange(edges.size)[:, None] + _ST_ROW, cols),
                  _ST_C0 + _ST_W1 * w1 + _ST_W2 * w2)
        G[n_edge_rows + np.arange(pinned.size), pinned] = 1.0
        self.g = np.concatenate([np.zeros((n_edge_rows,) + pin_rhs.shape[1:]),
                                 pin_rhs])
        order = pinned.argsort()
        self.pinned, self.pin_rows = pinned[order], n_edge_rows + order
        self._keep = keep

        self.a = self.slot_nodes[:, _FAIR_A].ravel()
        self.b = self.slot_nodes[:, _FAIR_B].ravel()
        self.f = self.ctilde[self.a] - self.ctilde[self.b]

    # -- the system as solve_constrained_ls reads it ---------------------

    @functools.cached_property
    def F(self) -> np.ndarray:
        F = np.zeros((self.a.size, self.n))
        F[np.arange(self.a.size), self.a] = 1.0
        F[np.arange(self.a.size), self.b] = -1.0
        return F

    @functools.cached_property
    def tags(self) -> list:
        return self._tags(self._keep)

    def pins(self):
        """``ConstraintSystem.pins``: the identity rows, which come last."""
        return self.pinned, self.pin_rows, slice(0, self.G.shape[0] - self.pinned.size)

    def fairing(self, free):
        """``ConstraintSystem.fairing`` from the slot pairs: each fairing
        row holds one +1 and one -1, so F x is exactly x[a] - x[b] (the
        + 0.0 makes the -0 of (-0) - (+0) the +0 of a BLAS sum) and F_U Z
        is the same on Z padded with a zero row per pinned unknown."""
        a, b = self.a, self.b
        touch = free[a] | free[b]

        def times(x, rows=slice(None)):
            out = x[a[rows]] - x[b[rows]]
            out += 0.0
            return out

        def block(Z):
            padded = np.zeros((free.size, Z.shape[1]))
            padded[free] = Z
            return times(padded, touch)

        return touch, times, block

    def _pin_sides(self):
        """(tag, sides, pinned slots per side) of the three pin kinds, in
        pinning order."""
        return (("frozen", self.frozen_sides, 2 * P + 2),
                ("pin", self.pinned_sides, 2 * P + 2),
                ("trace", self.boundary_sides, P + 1))

    def _tags(self, keep):
        """The provenance of each equality row: ``("edge", e)``, or the
        pin kind and (element, side) of the side that pinned the unknown;
        ``keep`` indexes the side slots that pin, in pin row order."""
        tags = [(kind, f, s) for kind, sides, width in self._pin_sides()
                for f, s in sides.tolist() for _ in range(width)]
        return [("edge", e) for e in self.constrained_edges.tolist()
                for _ in range(7)] + [tags[k] for k in keep.tolist()]

    def assemble(self) -> ConstraintSystem:
        """The dense view of the problem: its G and g, the fairing rows as
        a dense F and the per-row tags."""
        return ConstraintSystem(G=self.G, g=self.g, F=self.F, f=self.f,
                                tags=self.tags, ctilde=self.ctilde)

    def solve(self):
        """``(rows, diag)`` of the function, or a list of them (one per
        function) when built from a sequence of ids; ``rows`` are its
        (len(elements), 36) coefficients, laid out as ``slot_nodes``."""
        c, infos = solve_constrained_ls(self, return_info=True)
        infos = infos if self.ctilde.ndim > 1 else [infos]
        for a, support, diag in zip(self.functions, self.supports, infos):
            diag.update(basis=a, n_unknowns=self.n,
                        n_constrained_edges=len(self.constrained_edges),
                        n_pinned_sides=len(self.pinned_sides),
                        support_before=int(support.sum()),
                        support_after=len(self.elements))
        out = list(zip(np.moveaxis(c.reshape(self.n, -1)[self.slot_nodes], -1, 0), infos))
        return out if self.ctilde.ndim > 1 else out[0]


@functools.cache
def _openblas_threads():
    """``openblas_set_num_threads_local`` of the OpenBLAS bundled with
    numpy (``numpy.libs`` on Linux and Windows wheels, ``numpy/.dylibs`` on
    macOS), or None where numpy links another BLAS or an OpenBLAS without
    it.  The library is already loaded, so this only finds its handle."""
    root = Path(np.__file__).parent
    for lib in sorted([*root.parent.glob("numpy.libs/*openblas*"),
                       *root.glob(".dylibs/*openblas*")]):
        try:
            set_threads = ctypes.CDLL(str(lib)).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], ctypes.c_int
        return set_threads
    return None


# On OpenBLAS's pthreads builds (numpy's Linux wheels) the thread count is
# the process's, not the calling thread's: the first open one-thread scope
# saves it and the last one to close restores it.
_SCOPES = threading.Lock()
_scopes = [0, 0]  # open scopes, and the count before the first opened


@contextlib.contextmanager
def _blas_threads(entries: int):
    """Run numpy's BLAS on one thread while a system of ``entries`` below
    ``ONE_THREAD_ENTRIES`` is solved, and restore the previous count after,
    also when solves run in several threads at once."""
    set_threads = _openblas_threads() if entries < ONE_THREAD_ENTRIES else None
    if set_threads is None:
        yield
        return
    with _SCOPES:
        if not _scopes[0]:
            _scopes[1] = set_threads(1)
        _scopes[0] += 1
    try:
        yield
    finally:
        with _SCOPES:
            _scopes[0] -= 1
            if not _scopes[0]:
                set_threads(_scopes[1])


def solve_constrained_ls(system: ConstraintSystem | ConstraintProblem,
                         return_info: bool = False):
    """Minimize the fairing residual subject to the equality constraints.

    ``system`` is a dense ``ConstraintSystem``, any G and F, or a
    ``ConstraintProblem``, which names its pins and gives its fairing
    rows as slot pairs, with no dense F.  A problem and its dense view
    ``assemble()`` solve to the same bits.

    Pins are eliminated first (Lawson & Hanson, ch. 21): ``system.pins()``
    names the pinned unknowns, the row that pins each and the other rows.
    A dense system finds them in G: an equality row with a single nonzero
    entry a c_j = g_i fixes c_j = g_i / a, and the first such row of an
    unknown is the one used.  A problem's are its identity rows, and no
    edge row has a single entry.  The other rows, restricted to the free
    unknowns with the pinned part moved to the right-hand side, go
    through a rank-revealing SVD whose tolerance ``RANK_TOL`` is relative
    to the largest singular value of that reduced matrix; the
    least-squares problem is then solved in the nullspace
    parameterization (Lawson & Hanson, ch. 20), without the fairing rows
    that touch no free unknown (``system.fairing``).  The reported
    ``rank`` is the number of pinned unknowns plus the rank of the
    reduced rows, which is the rank of G.

    The nullspace problem min |B z - r| is solved from the normal
    equations (B^T B) z = B^T r when ``np.linalg.cholesky(B^T B)``
    succeeds and the smallest diagonal entry of its factor exceeds
    ``PIVOT_MIN`` times the largest; B then has full column rank and is
    well conditioned.  Otherwise (a rank-deficient B, a bad pivot or no
    free direction) it falls back to ``np.linalg.lstsq`` and returns the
    minimizer nearest the C0 target ``ctilde`` (the minimum-norm one
    without it): z = z~ + lstsq(B, r - B z~), z~ = Z^T (ctilde - c)[free]
    for the particular solution c.  On nets that pin nothing (the closed
    cube) constants lie in the null space, and only the target's shift
    keeps the basis summing to one.  On the Cholesky path z is unique.
    Each info dict names the path in ``"fairing"``:
    ``"cholesky"`` or ``"lstsq"``.  Only numpy is called here; scipy's
    LAPACK runs on a second OpenBLAS and made these small solves slower.
    When the reduced matrix has fewer than ``ONE_THREAD_ENTRIES`` entries,
    everything from the pinned values on (the SVD, the Cholesky or
    ``lstsq`` step and the residual products) runs on one thread of
    numpy's OpenBLAS, restored in a ``finally`` (``_blas_threads``); such
    a solve gives the same bits at any starting thread count.

    ``g`` and ``f`` are one right-hand side (1-D; returns a vector and one
    info dict) or one column per right-hand side (2-D; returns one column
    and one info dict per right-hand side), all sharing one factorization.
    Residuals are checked on the full G, pin rows included, against
    ``EQ_TOL`` times the column's largest |g| (at least 1).  Inconsistent
    constraints of any column raise InfeasibleConstraintError listing that
    column's offending edges, with the rows that pinned the unknowns of
    the offending rows; only then are the ``tags`` read.
    """
    G = system.G
    f = np.asarray(system.f, dtype=float)
    cols = f.shape[1:]
    f = f.reshape(f.shape[0], -1)
    g = np.asarray(system.g, dtype=float).reshape(G.shape[0], f.shape[1])

    pinned, pin_rows, rest = system.pins()
    free = np.ones(G.shape[1], dtype=bool)
    free[pinned] = False
    Gr = G[rest]
    Gf = Gr[:, free]
    live = Gf.any(axis=1)  # rows on pinned unknowns only: checked below
    with _blas_threads(int(live.sum()) * Gf.shape[1]):
        c = np.zeros((G.shape[1], f.shape[1]))
        c[pinned] = g[pin_rows] / G[pin_rows, pinned][:, None]
        gr = g[rest] - Gr @ c
        U, s, Vt = np.linalg.svd(Gf[live], full_matrices=True)
        rank = int(np.sum(s > RANK_TOL * s[0])) if s.size and s[0] > 0 else 0
        c[free] = Vt[:rank].T @ ((U[:, :rank].T @ gr[live]) / s[:rank, None])
        scale = np.maximum(1.0, np.abs(g).max(axis=0, initial=0.0))
        eq_residual = np.abs(G @ c - g)
        bad = eq_residual > EQ_TOL * scale
        if bad.any():
            col = int(np.flatnonzero(bad.any(axis=0))[0])
            rows = np.flatnonzero(bad[:, col])
            pins = pin_rows[G[np.ix_(rows, pinned)].any(axis=0)]
            edges = sorted({system.tags[i][1] for i in np.union1d(rows, pins)
                            if system.tags[i][0] == "edge"})
            raise InfeasibleConstraintError(
                f"equality constraints inconsistent (max residual "
                f"{eq_residual[:, col].max():.3e})", edges=edges)
        Z = Vt[rank:].T
        touch, times, block = system.fairing(free)
        B = block(Z)
        r = f[touch] - times(c, touch)
        A = B.T @ B
        try:
            d = np.diag(np.linalg.cholesky(A))
            normal = d.size > 0 and d.min() > PIVOT_MIN * d.max()
        except np.linalg.LinAlgError:
            normal = False
        if normal:
            z = np.linalg.solve(A, B.T @ r)
        else:  # the minimizer nearest the C0 target (z~ = 0 without one)
            target = c if system.ctilde is None else system.ctilde.reshape(c.shape)
            zt = Z.T @ (target - c)[free]
            z = zt + np.linalg.lstsq(B, r - B @ zt, rcond=None)[0]
        c[free] += Z @ z
        final = np.abs(G @ c - g).max(axis=0, initial=0.0)
        if (final > EQ_TOL * scale).any():
            raise InfeasibleConstraintError(
                f"constraint residual {final.max():.3e} after solve", edges=[])
        if not return_info:
            return c.reshape((-1,) + cols)
        ls_residual = np.linalg.norm(times(c) - f, axis=0)
        infos = [{"rank": pinned.size + rank, "n_equality": int(G.shape[0]),
                  "ls_residual": float(ls), "eq_residual": float(eq),
                  "fairing": "cholesky" if normal else "lstsq"}
                 for ls, eq in zip(ls_residual, final)]
        return c.reshape((-1,) + cols), (infos if cols else infos[0])


# ----------------------------------------------------------------------
# whole-surface driver


def elevate_irregular(c0: GSplineSurface):
    """Degree-elevated bi-quintic coefficients of every basis function on
    every irregular element it supports: dict (basis, element) -> (6, 6),
    element by element in extraction-row order."""
    tables = build_tables(c0, [], "g1r")  # no function tables needed
    at, basis, elevated = tables.rows
    grids = elevated.reshape(-1, P + 1, P + 1).swapaxes(1, 2)
    return dict(zip(zip(basis.tolist(), tables.faces[at].tolist()), grids))


def build_g1(c0: GSplineSurface, variant: str) -> GSplineSurface:
    """Upgrade a C0 surface to a tangent-plane continuous construction.

    ``variant`` is "g1p" (polynomial, propagated support) or "g1r"
    (restricted support, rational on irregular elements).  Regular and
    transition elements keep their bi-cubic extraction.
    """
    if c0.variant != "c0":
        raise DomainError("build_g1 expects the preliminary C0 surface")
    if variant not in ("g1p", "g1r"):
        raise DomainError(f"unknown construction variant {variant!r}")
    functions = np.array(sorted(irregular_basis_vertices(c0.cnet)), dtype=np.int64)
    tables = build_tables(c0, functions, variant)
    faces, (at, basis, _), solved = tables.faces, tables.rows, tables.solved
    extra = ~np.isin(basis, functions)
    if extra.any():
        j = at[extra.argmax()]  # the lowest such element
        raise InternalError(
            f"regular basis functions {np.unique(basis[extra & (at == j)]).tolist()}"
            f" supported on irregular element {faces[j]}")

    # One solve, a column per function, per distinct solve set, in the order
    # of each set's first function; row slot[a, j] is function a on face j,
    # face by face, so the rows are those of the rational group in order.
    sets = solved.view(f"V{solved.shape[1]}").ravel()  # each row as one bytes key
    _, first, group = np.unique(sets, return_index=True, return_inverse=True)
    face_of, fn = np.nonzero(solved.T)
    slot = np.zeros(solved.shape, dtype=np.int64)
    slot[fn, face_of] = np.arange(fn.size)
    coeffs = np.zeros((fn.size, (P + 1) ** 2))
    diagnostics = np.empty(functions.size, dtype=object)
    for g in np.argsort(first):
        members = np.flatnonzero(group == g)
        # unbound, so each problem's G is freed before the next is built
        rows, diagnostics[members] = zip(
            *ConstraintProblem(c0, functions[members], variant, tables).solve())
        coeffs[slot[members][:, solved[members[0]]]] = rows

    # The groups, laid out once the solves are done: the other faces keep
    # their C0 rows, copied ``COPY_ROWS`` at a time.
    solved_face = c0.cnet.rings == 1
    counts = np.zeros(c0.cnet.n_faces, dtype=int)
    for kept in c0.groups:
        counts[kept.elements] = kept.mask.sum(axis=1)
    counts[faces] = solved.sum(axis=0)
    groups = padded_groups(np.where(solved_face, P, 3), solved_face & (variant == "g1r"),
                           counts)
    for g in groups:
        if g.degree == P:
            g.basis[g.mask], g.coeffs[g.mask] = functions[fn], coeffs
            continue
        for src in c0.groups:
            at = np.flatnonzero(~solved_face[src.elements])
            w = min(src.mask.shape[1], g.mask.shape[1])
            for part in (at[i:i + COPY_ROWS] for i in range(0, len(at), COPY_ROWS)):
                row = np.searchsorted(g.elements, src.elements[part])
                g.basis[row, :w], g.coeffs[row, :w] = src.basis[part, :w], src.coeffs[part, :w]
    return GSplineSurface(c0.net, groups, variant, diagnostics.tolist())


# ----------------------------------------------------------------------
# residual diagnostics


def g1_residuals(surface: GSplineSurface, edges, samples: int = 50) -> np.ndarray:
    """``g1_residual`` of each of the interior ``edges``, in one
    ``evaluate.edge_sums`` pass."""
    faces, rots, omega = glued_sides(surface.cnet, edges)
    ts = np.linspace(0.0, 1.0, samples)
    blend, scale = blend_polynomial(omega[:, :1], omega[:, 1:], ts), np.ones(len(faces))

    def terms(side, rows, sub, vals, d1, d2):  # right (0): blend f_r,x + f_r,y; left: f_l,x
        scale[rows] = np.maximum(scale[rows], np.abs(d1).max(axis=(1, 2, 3), initial=0.0))
        return d1[..., 0] if side else blend[rows, None] * d1[..., 0] + d1[..., 1]

    return edge_sums(surface, faces, rots, ts, np.ones(len(faces), dtype=bool), terms,
                     ts.shape, polynomial=True) / scale


def g1_residual(surface: GSplineSurface, edge: int, samples: int = 50) -> float:
    """Max sampled tangent-plane defect of all basis functions at an edge:
    |f_l,x + blend f_r,x + f_r,y| with the edge's blend polynomial, in the
    frame axes of both flanking elements (polynomial coefficients, before
    any rationalization), over the largest such gradient if above 1."""
    edge_frames(surface.cnet, edge)  # a DomainError on a boundary edge
    return float(g1_residuals(surface, [edge], samples)[0])
