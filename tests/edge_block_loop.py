"""Loop-based reference for ``ConstraintProblem`` in
``gspline.construct_g1``: the sides of every element classified through
scalar ``face_across`` calls, every frame slot of a constrained edge
resolved through a scalar ``node`` lookup and each edge's seven rows
written one coefficient at a time into a (7, n) block, then the pin rows
and the fairing rows as ``assemble`` wrote them before its edge blocks
came from stencil tables.  Element classes come from
``topology_loop.classify_elements``, not from the package's net
classification, and each edge's gluing from ``topology_loop.edge_frames``.
The package must produce bitwise-equal systems.
"""

import numpy as np

from gspline.construct_g1 import (
    _FAIR_A,
    _FAIR_B,
    _SIDE_SLOTS,
    P,
    ConstraintProblem,
    ConstraintSystem,
    edge_geometry,
)
from gspline.errors import DomainError, InternalError
from gspline.mesh import ElementClass

from topology_loop import classify_elements, edge_frames, loop_net


def face_across(cnet, face: int, edge: int) -> int | None:
    """Face on the other side of ``edge``, or None at the boundary."""
    f, g = cnet.edge_faces[edge].tolist()
    if g < 0:
        return None
    return f if g == face else g


def classify_sides(problem: ConstraintProblem):
    """``(constrained_edges, pinned_sides, frozen_sides, boundary_sides)``
    of a problem's elements, as lists of edge ids and (element, side)."""
    cnet = problem.c0.cnet
    labels = classify_elements(loop_net(cnet))
    elements = problem.elements.tolist()
    element_set = set(elements)
    constrained_edges, pinned_sides, frozen_sides, boundary_sides = [], [], [], []
    seen_edges = set()
    for f in elements:
        for s in range(4):
            e = int(cnet.face_edges[f][s])
            other = face_across(cnet, f, e)
            if other is None:
                boundary_sides.append((f, s))
            elif other in element_set:
                if e not in seen_edges:
                    seen_edges.add(e)
                    constrained_edges.append(e)
            elif labels[other] is ElementClass.IRREGULAR:
                frozen_sides.append((f, s))
            else:
                pinned_sides.append((f, s))
    constrained_edges.sort()
    return constrained_edges, pinned_sides, frozen_sides, boundary_sides


def rotate_grid_index(k: int, p: int, i: int, j: int) -> tuple[int, int]:
    """Stored (i, j) grid slot of frame slot (i, j) on a (p+1)^2 grid."""
    if k == 0:
        return i, j
    if k == 1:
        return p - j, i
    if k == 2:
        return p - i, p - j
    if k == 3:
        return j, p - i
    raise DomainError(f"rotation index {k} out of range")


def node(problem: ConstraintProblem, face: int, rot: int, i: int, j: int) -> int:
    """Unknown index of 1-based frame slot (i, j) of a rotated element."""
    si, sj = rotate_grid_index(rot, P, i - 1, j - 1)
    row = problem.elements.tolist().index(face)
    return int(problem.slot_nodes[row, si + (P + 1) * sj])


def edge_block(problem: ConstraintProblem, edge: int) -> np.ndarray:
    """The six tangent-plane rows plus the quartic-boundary row of an
    edge, as a (7, n) block; their right-hand sides are zero."""
    cnet = problem.c0.cnet
    geom = edge_geometry(cnet, edge)
    fr = edge_frames(cnet, edge, v1=geom.v1)
    element_set = set(problem.elements.tolist())
    if fr.left not in element_set or fr.right not in element_set:
        raise InternalError(
            f"edge {edge} flanked by an element outside the unknown set"
        )
    labels = classify_elements(loop_net(cnet))
    if (labels[fr.left] is not ElementClass.IRREGULAR
            or labels[fr.right] is not ElementClass.IRREGULAR):
        raise InternalError(
            f"edge {edge} is not between two irregular elements"
        )
    w1, w2 = geom.omega1, geom.omega2

    def r(i, j):
        return node(problem, fr.right, fr.rot_right, i, j)

    def l(i, j):
        return node(problem, fr.left, fr.rot_left, i, j)

    eqs = [
        [(l(2, 1), 5.0), (r(1, 1), 10 * w1 - 10.0), (r(2, 1), -10 * w1),
         (r(1, 2), 5.0)],
        [(l(2, 2), 5.0), (r(2, 1), 10 * w1 - 10.0), (r(3, 1), -8 * w1),
         (r(1, 1), -2 * w1), (r(2, 2), 5.0)],
        [(l(2, 3), 5.0), (r(3, 1), -10.0), (r(5, 1), -5 * w1),
         (r(4, 1), 4 * w1), (r(6, 1), w1), (r(2, 1), w2),
         (r(1, 1), -w2), (r(3, 2), 5.0)],
        [(l(2, 4), 5.0), (r(4, 1), -10.0), (r(6, 1), -w1),
         (r(5, 1), w1), (r(3, 1), 4 * w2), (r(2, 1), -5 * w2),
         (r(1, 1), w2), (r(4, 2), 5.0)],
        [(l(2, 5), 5.0), (r(5, 1), 10 * w2 - 10.0), (r(4, 1), -8 * w2),
         (r(6, 1), -2 * w2), (r(5, 2), 5.0)],
        [(l(2, 6), 5.0), (r(6, 1), 10 * w2 - 10.0), (r(5, 1), -10 * w2),
         (r(6, 2), 5.0)],
        [(r(1, 1), -1.0), (r(2, 1), 5.0), (r(3, 1), -10.0),
         (r(4, 1), 10.0), (r(5, 1), -5.0), (r(6, 1), 1.0)],
    ]
    block = np.zeros((len(eqs), problem.n))
    for row, pairs in zip(block, eqs):
        for idx, c in pairs:
            row[idx] += c
    return block


def assemble(problem: ConstraintProblem) -> ConstraintSystem:
    """Equality rows (seven per constrained edge, then one identity row
    per pinned unknown) and fairing rows (60 per element)."""
    flat = dict(zip(problem.elements.tolist(), problem.slot_nodes))

    pins, tags = [np.zeros(0, dtype=int)], []
    for kind, sides, width in (("frozen", problem.frozen_sides, 2 * P + 2),
                               ("pin", problem.pinned_sides, 2 * P + 2),
                               ("trace", problem.boundary_sides, P + 1)):
        for f, s in sides.tolist():
            pins.append(flat[f][_SIDE_SLOTS[s, :width]])
            tags += [(kind, f, s)] * width
    pins = np.concatenate(pins)
    keep = np.sort(np.unique(pins, return_index=True)[1])
    pinned = pins[keep]
    pin_rhs = problem.ctilde[pinned]
    pin_rhs[keep < (2 * P + 2) * len(problem.frozen_sides)] = 0.0
    pin_rows = np.zeros((pinned.size, problem.n))
    pin_rows[np.arange(pinned.size), pinned] = 1.0

    edges = problem.constrained_edges.tolist()
    G = np.vstack([edge_block(problem, e) for e in edges] + [pin_rows])
    g = np.concatenate([np.zeros((7 * len(edges),) + pin_rhs.shape[1:]),
                        pin_rhs])
    tags = [("edge", e) for e in edges for _ in range(7)] + [
        tags[k] for k in keep]

    grids = np.array([flat[f] for f in problem.elements.tolist()], dtype=int)
    a = grids[:, _FAIR_A].ravel()
    b = grids[:, _FAIR_B].ravel()
    F = np.zeros((a.size, problem.n))
    F[np.arange(a.size), a] = 1.0
    F[np.arange(a.size), b] = -1.0
    return ConstraintSystem(G=G, g=g, F=F,
                            f=problem.ctilde[a] - problem.ctilde[b], tags=tags)
