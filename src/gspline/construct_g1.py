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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DomainError,
    InfeasibleConstraintError,
    InternalError,
)
from .evaluate import (
    GSplineSurface,
    edge_frames,
    edge_pair_tables,
    rotate_grid_index,
)
from .extraction import ElementExtraction, degree_elevate_2
from .mesh import (
    CNet,
    ElementClass,
    classify_elements,
    classify_vertices,
    extraordinary_vertices,
    irregular_basis_vertices,
    spoke_edges,
)

P = 5  # irregular elements are bi-quintic

NodeKey = tuple


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


def frame_vertex1(cnet: CNet, edge: int, vclass=None) -> int:
    """Endpoint placed at the frame origin: the extraordinary endpoint if
    exactly one is extraordinary, otherwise the lower vertex index."""
    if vclass is None:
        vclass = classify_vertices(cnet)
    u, v = (int(x) for x in cnet.edges[edge])
    eu, ev = vclass[u].is_extraordinary, vclass[v].is_extraordinary
    if eu != ev:
        return u if eu else v
    return min(u, v)


def edge_geometry(cnet: CNet, edge: int, vclass=None) -> EdgeGeometryData:
    """Blend weights of an edge from its endpoint valences."""
    if vclass is None:
        vclass = classify_vertices(cnet)
    v1 = frame_vertex1(cnet, edge, vclass)
    u, v = (int(x) for x in cnet.edges[edge])
    v2 = v if v1 == u else u
    a1 = 1 if vclass[v1].is_boundary else 2
    a2 = 1 if vclass[v2].is_boundary else 2
    mu1, mu2 = vclass[v1].valence, vclass[v2].valence
    return EdgeGeometryData(
        edge=edge, v1=v1, v2=v2, a1=a1, a2=a2, mu1=mu1, mu2=mu2,
        omega1=math.cos(a1 * math.pi / mu1),
        omega2=math.cos(a2 * math.pi / mu2),
    )


def blend_polynomial(geom: EdgeGeometryData, v) -> np.ndarray:
    """The quadratic edge blend -2*omega1*(1-v)^2 + 2*omega2*v^2."""
    v = np.asarray(v, dtype=float)
    return -2.0 * geom.omega1 * (1.0 - v) ** 2 + 2.0 * geom.omega2 * v**2


# ----------------------------------------------------------------------
# per-net analysis shared by all basis-function solves


@dataclass
class NetAnalysis:
    cnet: CNet
    vclass: list
    labels: list
    eps: list
    spokes: set
    irregular_faces: set
    face_cluster: dict  # irregular face -> cluster id
    cluster_rings: dict  # cluster id -> sorted list of irregular faces


def analyze_net(cnet: CNet) -> NetAnalysis:
    vclass = classify_vertices(cnet)
    labels = classify_elements(cnet)
    eps = extraordinary_vertices(cnet)
    irregular = {f for f, lab in enumerate(labels) if lab is ElementClass.IRREGULAR}

    # Cluster extraordinary vertices whose one-rings share a face or an
    # edge; every basis function touching a cluster is solved over the
    # cluster's whole one-ring so that all functions on an element see the
    # same equality system (this is what keeps partition of unity exact
    # for the propagated construction).
    parent = {ep: ep for ep in eps}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    ep_set = set(eps)
    face_eps = [
        [int(v) for v in quad if int(v) in ep_set] for quad in cnet.faces
    ]
    for f in range(cnet.n_faces):
        for i in range(1, len(face_eps[f])):
            union(face_eps[f][0], face_eps[f][i])
    for e in range(cnet.n_edges):
        if cnet.boundary_edge[e]:
            continue
        f, g = cnet.edge_faces[e]
        for x in face_eps[f]:
            for y in face_eps[g]:
                union(x, y)

    face_cluster = {}
    cluster_rings: dict[int, set] = {}
    for f in irregular:
        if not face_eps[f]:
            raise InternalError(f"irregular face {f} has no extraordinary corner")
        cid = find(face_eps[f][0])
        face_cluster[f] = cid
    for ep in eps:
        cid = find(ep)
        cluster_rings.setdefault(cid, set()).update(cnet.vertex_faces[ep])
    cluster_rings = {cid: sorted(fs) for cid, fs in cluster_rings.items()}

    return NetAnalysis(
        cnet=cnet, vclass=vclass, labels=labels, eps=eps,
        spokes=spoke_edges(cnet), irregular_faces=irregular,
        face_cluster=face_cluster, cluster_rings=cluster_rings,
    )


# ----------------------------------------------------------------------
# node bookkeeping


def node_key(cnet: CNet, face: int, i: int, j: int) -> NodeKey:
    """Globally shared identity of grid slot (i, j) on a face's quintic grid.

    Corner slots map to the corner vertex, side slots to a canonical
    position along the edge, interior slots stay face-local.  Adjacent
    elements therefore share their edge-row unknowns, which builds C0
    continuity into the constraint systems.
    """
    loop = [int(v) for v in cnet.faces[face]]
    on_i = i in (0, P)
    on_j = j in (0, P)
    if on_i and on_j:
        corner = {(0, 0): 0, (P, 0): 1, (P, P): 2, (0, P): 3}[(i, j)]
        return ("v", loop[corner])
    if on_j or on_i:
        if j == 0:
            s, t = 0, i
        elif i == P:
            s, t = 1, j
        elif j == P:
            s, t = 2, P - i
        else:
            s, t = 3, P - j
        a, b = loop[s], loop[(s + 1) % 4]
        e = int(cnet.face_edges[face][s])
        return ("e", e, t if a < b else P - t)
    return ("f", face, i, j)


_SIDE_SLOTS = {
    0: [(i, j) for j in (0, 1) for i in range(P + 1)],
    1: [(i, j) for i in (P, P - 1) for j in range(P + 1)],
    2: [(i, j) for j in (P, P - 1) for i in range(P + 1)],
    3: [(i, j) for i in (0, 1) for j in range(P + 1)],
}

_SIDE_TRACE_SLOTS = {
    0: [(i, 0) for i in range(P + 1)],
    1: [(P, j) for j in range(P + 1)],
    2: [(i, P) for i in range(P + 1)],
    3: [(0, j) for j in range(P + 1)],
}


# slot pairs whose coefficient differences the fairing rows preserve
_FAIRING_PAIRS = (
    [((i, j), (i + 1, j)) for j in range(P + 1) for i in range(P)]
    + [((i, j), (i, j + 1)) for j in range(P) for i in range(P + 1)]
)


@dataclass
class ConstraintSystem:
    """Assembled equality (G, g) and fairing (F, f) pairs of one solve.

    ``g`` and ``f`` hold one right-hand side (1-D) or one column per basis
    function solved over the same element set (2-D).
    """

    G: np.ndarray
    g: np.ndarray
    F: np.ndarray
    f: np.ndarray
    tags: list  # provenance per equality row (edge id or pin description)
    nodes: list = field(default_factory=list)


def basis_supports(c0: GSplineSurface, info: NetAnalysis, functions) -> dict:
    """Irregular elements supporting each of ``functions``: id -> set."""
    out = {int(a): set() for a in functions}
    for f in info.irregular_faces:
        for a in c0.extraction(f).basis:
            if int(a) in out:
                out[int(a)].add(f)
    return out


def solve_elements(info: NetAnalysis, support: set, variant: str) -> list[int]:
    """Sorted elements a function is solved over: its support (g1r) or the
    union of the cluster rings its support touches (g1p)."""
    if variant == "g1r":
        return sorted(support)
    return sorted({f for s in support
                   for f in info.cluster_rings[info.face_cluster[s]]})


class ConstraintProblem:
    """Unknowns, targets and equations of the solve of one basis function,
    or of several functions solved over the same element set.

    ``basisfn`` is one id (1-D targets and right-hand sides) or a sequence
    of ids (one column per function).  ``variant`` selects the constrained
    edge set: "g1p" couples every edge between two in-cluster irregular
    elements, "g1r" couples only edges interior to the function's original
    support and pins the rest.
    """

    def __init__(self, c0: GSplineSurface, basisfn, variant: str,
                 analysis: NetAnalysis | None = None):
        if c0.variant != "c0":
            raise DomainError("constraint problems start from a C0 surface")
        if variant not in ("g1p", "g1r"):
            raise DomainError(f"unknown construction variant {variant!r}")
        self.c0 = c0
        self.functions = [int(a) for a in np.atleast_1d(basisfn)]
        cols = () if np.ndim(basisfn) == 0 else (len(self.functions),)
        self.variant = variant
        self.info = analysis if analysis is not None else analyze_net(c0.cnet)
        cnet = c0.cnet

        supports = basis_supports(c0, self.info, self.functions)
        self.supports = [supports[a] for a in self.functions]
        element_sets = {tuple(solve_elements(self.info, s, variant))
                        for s in self.supports}
        if len(element_sets) > 1:
            raise DomainError(
                f"basis functions {self.functions} are solved over "
                "different element sets")
        self.elements = list(element_sets.pop()) if element_sets else []
        self.element_set = set(self.elements)

        # unknown numbering over shared nodes; grid_nodes[f][i, j] is the
        # unknown of slot (i, j) on element f
        node_index: dict[NodeKey, int] = {}
        self.grid_nodes: dict[int, np.ndarray] = {}
        for f in self.elements:
            grid = np.empty((P + 1, P + 1), dtype=int)
            for j in range(P + 1):
                for i in range(P + 1):
                    grid[i, j] = node_index.setdefault(
                        node_key(cnet, f, i, j), len(node_index))
            self.grid_nodes[f] = grid
        self.nodes: list[NodeKey] = list(node_index)
        self.n = len(self.nodes)

        # degree-elevated targets, checked for consistency on shared nodes
        self.ctilde = np.zeros((self.n,) + cols)
        self._zero = np.zeros(cols)
        have = np.zeros(self.n, dtype=bool)
        for f in self.elements:
            idx = self.grid_nodes[f]
            grid = self._elevated_grid(f).reshape((P + 1, P + 1) + cols)
            seen = have[idx]
            if (np.abs(self.ctilde[idx[seen]] - grid[seen]) > 1e-9).any():
                raise InternalError(
                    "inconsistent elevated coefficients at a "
                    f"shared node of element {f}"
                )
            self.ctilde[idx[~seen]] = grid[~seen]
            have[idx] = True

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
        self.constrained_edges: list[int] = []
        self.pinned_sides: list[tuple[int, int]] = []
        self.frozen_sides: list[tuple[int, int]] = []
        self.boundary_sides: list[tuple[int, int]] = []
        seen_edges = set()
        for f in self.elements:
            for s in range(4):
                e = int(cnet.face_edges[f][s])
                other = cnet.face_across(f, e)
                if other is None:
                    self.boundary_sides.append((f, s))
                elif other in self.element_set:
                    if e not in seen_edges:
                        seen_edges.add(e)
                        self.constrained_edges.append(e)
                elif self.info.labels[other] is ElementClass.IRREGULAR:
                    self.frozen_sides.append((f, s))
                else:
                    self.pinned_sides.append((f, s))
        self.constrained_edges.sort()

    # -- pieces ---------------------------------------------------------

    def _elevated_grid(self, face: int) -> np.ndarray:
        """(6, 6, k) elevated coefficients of the k functions on a face."""
        ext = self.c0.extraction(face)
        grid = np.zeros((P + 1, P + 1, len(self.functions)))
        for k, a in enumerate(self.functions):
            rows = np.flatnonzero(ext.basis == a)
            if rows.size:
                cubic = ext.coeffs[rows[0]].reshape(4, 4, order="F")
                grid[..., k] = degree_elevate_2(cubic)
        return grid

    def _node(self, face: int, rot: int, i: int, j: int) -> int:
        """Unknown index of 1-based frame slot (i, j) of a rotated element."""
        si, sj = rotate_grid_index(rot, P, i - 1, j - 1)
        return int(self.grid_nodes[face][si, sj])

    def g1_edge_equations(self, edge: int):
        """The six tangent-plane rows plus the quartic-boundary row of an edge.

        Returns ``(coeff_dict, rhs)`` pairs with coefficients keyed by
        unknown index.
        """
        cnet = self.c0.cnet
        geom = edge_geometry(cnet, edge, self.info.vclass)
        fr = edge_frames(cnet, edge, v1=geom.v1)
        if fr.left not in self.element_set or fr.right not in self.element_set:
            raise InternalError(
                f"edge {edge} flanked by an element outside the unknown set"
            )
        if (self.info.labels[fr.left] is not ElementClass.IRREGULAR
                or self.info.labels[fr.right] is not ElementClass.IRREGULAR):
            raise InternalError(
                f"edge {edge} is not between two irregular elements"
            )
        w1, w2 = geom.omega1, geom.omega2

        def r(i, j):
            return self._node(fr.right, fr.rot_right, i, j)

        def l(i, j):
            return self._node(fr.left, fr.rot_left, i, j)

        def row(pairs):
            d: dict[int, float] = {}
            for idx, c in pairs:
                d[idx] = d.get(idx, 0.0) + c
            return d

        eqs = [
            row([(l(2, 1), 5.0), (r(1, 1), 10 * w1 - 10.0), (r(2, 1), -10 * w1),
                 (r(1, 2), 5.0)]),
            row([(l(2, 2), 5.0), (r(2, 1), 10 * w1 - 10.0), (r(3, 1), -8 * w1),
                 (r(1, 1), -2 * w1), (r(2, 2), 5.0)]),
            row([(l(2, 3), 5.0), (r(3, 1), -10.0), (r(5, 1), -5 * w1),
                 (r(4, 1), 4 * w1), (r(6, 1), w1), (r(2, 1), w2),
                 (r(1, 1), -w2), (r(3, 2), 5.0)]),
            row([(l(2, 4), 5.0), (r(4, 1), -10.0), (r(6, 1), -w1),
                 (r(5, 1), w1), (r(3, 1), 4 * w2), (r(2, 1), -5 * w2),
                 (r(1, 1), w2), (r(4, 2), 5.0)]),
            row([(l(2, 5), 5.0), (r(5, 1), 10 * w2 - 10.0), (r(4, 1), -8 * w2),
                 (r(6, 1), -2 * w2), (r(5, 2), 5.0)]),
            row([(l(2, 6), 5.0), (r(6, 1), 10 * w2 - 10.0), (r(5, 1), -10 * w2),
                 (r(6, 2), 5.0)]),
            row([(r(1, 1), -1.0), (r(2, 1), 5.0), (r(3, 1), -10.0),
                 (r(4, 1), 10.0), (r(5, 1), -5.0), (r(6, 1), 1.0)]),
        ]
        return [(eq, self._zero) for eq in eqs]

    def c1_interface_equations(self, element: int, side: int,
                               zero: bool = False):
        """Pin the two outermost coefficient layers along one side.

        With ``zero`` the layers are pinned to zero instead of their
        elevated values (support-boundary spoke edges, where the trace
        already vanishes and the cross-derivative must follow).
        """
        return self._pins(element, _SIDE_SLOTS[side], zero)

    def boundary_trace_equations(self, element: int, side: int):
        """Pin the trace row of a domain-boundary side."""
        return self._pins(element, _SIDE_TRACE_SLOTS[side], False)

    def _pins(self, element: int, slots, zero: bool):
        nodes = [int(self.grid_nodes[element][s]) for s in slots]
        return [({idx: 1.0}, self._zero if zero else self.ctilde[idx])
                for idx in nodes]

    def fairing_equations(self, element: int):
        """Difference-preserving least-squares rows of one element (60)."""
        nodes = self.grid_nodes[element]
        out = []
        for s, t in _FAIRING_PAIRS:
            a, b = int(nodes[s]), int(nodes[t])
            out.append(({a: 1.0, b: -1.0}, self.ctilde[a] - self.ctilde[b]))
        return out

    # -- assembly and solve ----------------------------------------------

    def assemble(self) -> ConstraintSystem:
        eq_rows: list[dict] = []
        eq_rhs: list = []
        tags: list = []
        for e in self.constrained_edges:
            for coeffs, rhs in self.g1_edge_equations(e):
                eq_rows.append(coeffs)
                eq_rhs.append(rhs)
                tags.append(("edge", e))
        pinned_nodes = set()

        def add_pins(sides, kind, zero=False):
            for f, s in sides:
                rows = (self.c1_interface_equations(f, s, zero=zero)
                        if kind != "trace"
                        else self.boundary_trace_equations(f, s))
                for coeffs, rhs in rows:
                    (idx,) = coeffs
                    if idx in pinned_nodes:
                        continue
                    pinned_nodes.add(idx)
                    eq_rows.append(coeffs)
                    eq_rhs.append(rhs)
                    tags.append((kind, f, s))

        # frozen (zero) pins first so shared corner slots obey the
        # stronger support-boundary condition
        add_pins(self.frozen_sides, "frozen", zero=True)
        add_pins(self.pinned_sides, "pin")
        add_pins(self.boundary_sides, "trace")

        fair_rows: list[dict] = []
        fair_rhs: list = []
        for f in self.elements:
            for coeffs, rhs in self.fairing_equations(f):
                fair_rows.append(coeffs)
                fair_rhs.append(rhs)

        def dense(rows):
            M = np.zeros((len(rows), self.n))
            for r_, coeffs in enumerate(rows):
                for idx, c in coeffs.items():
                    M[r_, idx] = c
            return M

        def rhs(values):
            return np.asarray(values, dtype=float).reshape(
                (len(values),) + self._zero.shape)

        return ConstraintSystem(
            G=dense(eq_rows), g=rhs(eq_rhs), F=dense(fair_rows),
            f=rhs(fair_rhs), tags=tags, nodes=list(self.nodes),
        )

    def solve(self):
        """``(grids, diag)`` of the function, or a list of them (one per
        function) when built from a sequence of ids; ``grids`` maps each
        element to its (6, 6) coefficient grid."""
        c, infos = solve_constrained_ls(self.assemble(), return_info=True)
        c = c.reshape(self.n, -1)
        out = []
        infos = infos if self._zero.shape else [infos]
        for k, (a, support, diag) in enumerate(
                zip(self.functions, self.supports, infos)):
            grids = {f: c[self.grid_nodes[f], k] for f in self.elements}
            diag.update(
                basis=a,
                n_unknowns=self.n,
                n_constrained_edges=len(self.constrained_edges),
                n_pinned_sides=len(self.pinned_sides),
                support_before=len(support),
                support_after=len(self.elements),
            )
            out.append((grids, diag))
        return out if self._zero.shape else out[0]


def solve_constrained_ls(system: ConstraintSystem, rank_tol: float = 1e-10,
                         eq_tol: float = 1e-9, return_info: bool = False):
    """Minimize the fairing residual subject to the equality constraints.

    Redundant equality rows are removed by a rank-revealing SVD; the
    least-squares problem is then solved in the nullspace
    parameterization (Lawson & Hanson, ch. 20).  ``g`` and ``f`` are one
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

    U, s, Vt = np.linalg.svd(G, full_matrices=True)
    rank = int(np.sum(s > rank_tol * s[0])) if s.size and s[0] > 0 else 0
    cp = Vt[:rank].T @ ((U[:, :rank].T @ g) / s[:rank, None])
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
    z, *_ = np.linalg.lstsq(F @ Z, f - F @ cp, rcond=None)
    c = cp + Z @ z
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


# ----------------------------------------------------------------------
# whole-surface driver


def elevate_irregular(c0: GSplineSurface):
    """Degree-elevated bi-quintic coefficients of every basis function on
    every irregular element it supports: dict (basis, element) -> (6, 6)."""
    info = analyze_net(c0.cnet)
    out = {}
    for f in sorted(info.irregular_faces):
        ext = c0.extraction(f)
        for row, a in enumerate(ext.basis):
            cubic = ext.coeffs[row].reshape(4, 4, order="F")
            out[(int(a), f)] = degree_elevate_2(cubic)
    return out


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
    info = analyze_net(c0.cnet)
    functions = sorted(irregular_basis_vertices(c0.cnet))
    fn_set = set(functions)
    for f in info.irregular_faces:
        extra = set(int(a) for a in c0.extraction(f).basis) - fn_set
        if extra:
            raise InternalError(
                f"regular basis functions {sorted(extra)} supported on "
                f"irregular element {f}"
            )

    # functions solved over the same elements share G and F: one solve
    # with a column per function
    groups: dict[tuple, list[int]] = {}
    for a, support in basis_supports(c0, info, functions).items():
        key = tuple(solve_elements(info, support, variant))
        groups.setdefault(key, []).append(a)
    results = {}
    for group in groups.values():
        problem = ConstraintProblem(c0, group, variant, analysis=info)
        results.update(zip(group, problem.solve()))

    # functions ascend, so every element's rows come in basis-id order
    per_element: dict[int, list[tuple[int, np.ndarray]]] = {
        f: [] for f in info.irregular_faces
    }
    for a in functions:
        for f, grid in results[a][0].items():
            per_element[f].append((a, grid))

    extractions = []
    for f in range(c0.cnet.n_faces):
        if info.labels[f] is ElementClass.IRREGULAR:
            rows = per_element[f]
            basis = np.array([a for a, _ in rows], dtype=int)
            coeffs = np.array([grid.reshape(36, order="F") for _, grid in rows])
            extractions.append(
                ElementExtraction(element=f, degree=P, basis=basis,
                                  coeffs=coeffs,
                                  rational=(variant == "g1r"))
            )
        else:
            old = c0.extraction(f)
            extractions.append(
                ElementExtraction(element=f, degree=old.degree,
                                  basis=old.basis.copy(),
                                  coeffs=old.coeffs.copy())
            )
    surface = GSplineSurface(net=c0.net, extractions=extractions, variant=variant)
    surface.diagnostics = [results[a][1] for a in functions]
    return surface


# ----------------------------------------------------------------------
# residual diagnostics


def g1_residual(surface: GSplineSurface, edge: int, samples: int = 50) -> float:
    """Max sampled tangent-plane defect of all basis functions at an edge.

    Evaluates the cross-derivative relation with the edge's blend
    polynomial on both flanking elements (polynomial coefficients, before
    any rationalization) and normalizes by the largest basis gradient
    magnitude seen on the edge.
    """
    cnet = surface.cnet
    geom = edge_geometry(cnet, edge)
    fr = edge_frames(cnet, edge, v1=geom.v1)
    ts = np.linspace(0.0, 1.0, samples)
    # frame-axis gradients of the polynomial (unrationalized) functions
    (_, gr, _), (_, gl, _) = edge_pair_tables(
        fr, replace(surface.extraction(fr.right), rational=False),
        replace(surface.extraction(fr.left), rational=False), ts)
    res = gl[..., 0] + blend_polynomial(geom, ts) * gr[..., 0] + gr[..., 1]
    scale = max(float(np.abs(gr).max(initial=0.0)),
                float(np.abs(gl).max(initial=0.0)))
    return float(np.abs(res).max(initial=0.0)) / max(scale, 1.0)
