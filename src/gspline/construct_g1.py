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
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
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


@dataclass
class ConstraintSystem:
    """Assembled equality (G, g) and fairing (F, f) pairs of one solve."""

    G: np.ndarray
    g: np.ndarray
    F: np.ndarray
    f: np.ndarray
    tags: list  # provenance per equality row (edge id or pin description)
    nodes: list = field(default_factory=list)


class ConstraintProblem:
    """Unknowns, targets and equations of one basis function's solve.

    ``variant`` selects the constrained edge set: "g1p" couples every
    edge between two in-cluster irregular elements, "g1r" couples only
    edges interior to the function's original support and pins the rest.
    """

    def __init__(self, c0: GSplineSurface, basisfn: int, variant: str,
                 analysis: NetAnalysis | None = None):
        if c0.variant != "c0":
            raise DomainError("constraint problems start from a C0 surface")
        if variant not in ("g1p", "g1r"):
            raise DomainError(f"unknown construction variant {variant!r}")
        self.c0 = c0
        self.basisfn = int(basisfn)
        self.variant = variant
        self.info = analysis if analysis is not None else analyze_net(c0.cnet)
        cnet = c0.cnet

        support = {
            f for f in self.info.irregular_faces
            if self.basisfn in c0.extraction(f).basis
        }
        self.support0 = support
        if variant == "g1r":
            elements = set(support)
        else:
            clusters = {self.info.face_cluster[f] for f in support}
            elements = set()
            for cid in clusters:
                elements.update(self.info.cluster_rings[cid])
        self.elements = sorted(elements)
        el_set = set(self.elements)
        self.element_set = el_set

        # unknown numbering over shared nodes
        self.node_index: dict[NodeKey, int] = {}
        self.nodes: list[NodeKey] = []
        self.slot_node = {}  # (face, i, j) -> node index
        for f in self.elements:
            for j in range(P + 1):
                for i in range(P + 1):
                    key = node_key(cnet, f, i, j)
                    idx = self.node_index.get(key)
                    if idx is None:
                        idx = len(self.nodes)
                        self.node_index[key] = idx
                        self.nodes.append(key)
                    self.slot_node[(f, i, j)] = idx
        self.n = len(self.nodes)

        # degree-elevated targets, checked for consistency on shared nodes
        self.ctilde = np.zeros(self.n)
        have = np.zeros(self.n, dtype=bool)
        for f in self.elements:
            grid = self._elevated_grid(f)
            for j in range(P + 1):
                for i in range(P + 1):
                    idx = self.slot_node[(f, i, j)]
                    if have[idx]:
                        if abs(self.ctilde[idx] - grid[i, j]) > 1e-9:
                            raise InternalError(
                                "inconsistent elevated coefficients at a "
                                f"shared node of element {f}"
                            )
                    else:
                        self.ctilde[idx] = grid[i, j]
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
                elif other in el_set:
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
        ext = self.c0.extraction(face)
        rows = np.flatnonzero(ext.basis == self.basisfn)
        if rows.size == 0:
            return np.zeros((P + 1, P + 1))
        cubic = ext.coeffs[rows[0]].reshape(4, 4, order="F")
        return degree_elevate_2(cubic)

    def _node(self, face: int, rot: int, i: int, j: int) -> int:
        """Unknown index of 1-based frame slot (i, j) of a rotated element."""
        si, sj = rotate_grid_index(rot, P, i - 1, j - 1)
        return self.slot_node[(face, si, sj)]

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
        return [(eq, 0.0) for eq in eqs]

    def c1_interface_equations(self, element: int, side: int,
                               zero: bool = False):
        """Pin the two outermost coefficient layers along one side.

        With ``zero`` the layers are pinned to zero instead of their
        elevated values (support-boundary spoke edges, where the trace
        already vanishes and the cross-derivative must follow).
        """
        out = []
        for i, j in _SIDE_SLOTS[side]:
            idx = self.slot_node[(element, i, j)]
            out.append(({idx: 1.0}, 0.0 if zero else float(self.ctilde[idx])))
        return out

    def boundary_trace_equations(self, element: int, side: int):
        """Pin the trace row of a domain-boundary side."""
        out = []
        for i, j in _SIDE_TRACE_SLOTS[side]:
            idx = self.slot_node[(element, i, j)]
            out.append(({idx: 1.0}, float(self.ctilde[idx])))
        return out

    def fairing_equations(self, element: int):
        """Difference-preserving least-squares rows of one element (60)."""
        out = []
        for j in range(P + 1):
            for i in range(P):
                a = self.slot_node[(element, i, j)]
                b = self.slot_node[(element, i + 1, j)]
                out.append(({a: 1.0, b: -1.0},
                            float(self.ctilde[a] - self.ctilde[b])))
        for j in range(P):
            for i in range(P + 1):
                a = self.slot_node[(element, i, j)]
                b = self.slot_node[(element, i, j + 1)]
                out.append(({a: 1.0, b: -1.0},
                            float(self.ctilde[a] - self.ctilde[b])))
        return out

    # -- assembly and solve ----------------------------------------------

    def assemble(self) -> ConstraintSystem:
        eq_rows: list[dict] = []
        eq_rhs: list[float] = []
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
        fair_rhs: list[float] = []
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

        return ConstraintSystem(
            G=dense(eq_rows), g=np.asarray(eq_rhs, dtype=float),
            F=dense(fair_rows), f=np.asarray(fair_rhs, dtype=float),
            tags=tags, nodes=list(self.nodes),
        )

    def solve(self):
        system = self.assemble()
        c, diag = solve_constrained_ls(system, return_info=True)
        grids = {}
        for f in self.elements:
            grid = np.empty((P + 1, P + 1))
            for j in range(P + 1):
                for i in range(P + 1):
                    grid[i, j] = c[self.slot_node[(f, i, j)]]
            grids[f] = grid
        diag.update(
            basis=self.basisfn,
            n_unknowns=self.n,
            n_constrained_edges=len(self.constrained_edges),
            n_pinned_sides=len(self.pinned_sides),
            support_before=len(self.support0),
            support_after=len(self.elements),
        )
        return grids, diag


def solve_constrained_ls(system: ConstraintSystem, rank_tol: float = 1e-10,
                         eq_tol: float = 1e-9, return_info: bool = False):
    """Minimize the fairing residual subject to the equality constraints.

    Redundant equality rows are removed by a rank-revealing SVD; the
    least-squares problem is then solved in the nullspace
    parameterization.  Inconsistent constraints raise
    InfeasibleConstraintError listing the offending edges.
    """
    G, g, F, f = system.G, system.g, system.F, system.f
    n = F.shape[1]
    if G.shape[0] == 0:
        c, *_ = np.linalg.lstsq(F, f, rcond=None)
        rank = 0
        resid = float(np.linalg.norm(F @ c - f))
        if return_info:
            return c, {"rank": 0, "n_equality": 0, "ls_residual": resid,
                       "eq_residual": 0.0}
        return c

    U, s, Vt = np.linalg.svd(G, full_matrices=True)
    if s.size and s[0] > 0:
        rank = int(np.sum(s > rank_tol * s[0]))
    else:
        rank = 0
    cp = Vt[:rank].T @ ((U[:, :rank].T @ g) / s[:rank]) if rank else np.zeros(n)
    eq_residual = np.abs(G @ cp - g)
    scale = max(1.0, float(np.abs(g).max()) if g.size else 1.0)
    if eq_residual.size and eq_residual.max() > eq_tol * scale:
        bad = np.flatnonzero(eq_residual > eq_tol * scale)
        edges = sorted({system.tags[i][1] for i in bad
                        if system.tags[i][0] == "edge"})
        raise InfeasibleConstraintError(
            f"equality constraints inconsistent (max residual "
            f"{eq_residual.max():.3e})", edges=edges)
    Z = Vt[rank:].T
    if Z.shape[1]:
        z, *_ = np.linalg.lstsq(F @ Z, f - F @ cp, rcond=None)
        c = cp + Z @ z
    else:
        c = cp
    final = float(np.abs(G @ c - g).max()) if g.size else 0.0
    if final > eq_tol * scale:
        raise InfeasibleConstraintError(
            f"constraint residual {final:.3e} after solve", edges=[])
    if return_info:
        return c, {
            "rank": rank,
            "n_equality": int(G.shape[0]),
            "ls_residual": float(np.linalg.norm(F @ c - f)),
            "eq_residual": final,
        }
    return c


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


def build_g1(c0: GSplineSurface, variant: str, threads: int = 1) -> GSplineSurface:
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

    def solve_one(a):
        problem = ConstraintProblem(c0, a, variant, analysis=info)
        return a, problem.solve()

    results = {}
    if threads and threads > 1 and len(functions) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for a, res in pool.map(solve_one, functions):
                results[a] = res
    else:
        for a in functions:
            results[a] = solve_one(a)[1]

    per_element: dict[int, list[tuple[int, np.ndarray]]] = {
        f: [] for f in info.irregular_faces
    }
    diagnostics = []
    for a in functions:
        grids, diag = results[a]
        diagnostics.append(diag)
        for f, grid in grids.items():
            per_element[f].append((a, grid))

    extractions = []
    for f in range(c0.cnet.n_faces):
        if info.labels[f] is ElementClass.IRREGULAR:
            rows = sorted(per_element[f], key=lambda t: t[0])
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
    surface.diagnostics = diagnostics
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
