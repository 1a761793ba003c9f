"""Loop-based reference for the set-up half of ``ConstraintProblem`` in
``gspline.construct_g1``: slot keys built face by face with a per-side
loop, supports from a loop over the faces with an extraordinary corner,
each function's element set from its own ``solve_elements`` call on the
union-find clusters of ``topology_loop.clusters``, and the elevated
targets written element by element, each element's cubic rows elevated
one ``degree_elevate_2`` call at a time and checked against the values
already on its shared nodes.  ``elevate_irregular`` is the same per-row
loop over every irregular element.  Nothing here reads the package's net
analysis.  The package must give bitwise-equal tables and raise the same
``InternalError``.
"""

from types import SimpleNamespace

import numpy as np

from gspline.errors import DomainError, InternalError
from gspline.extraction import degree_elevate_2

import topology_loop

P = 5
_SLOT = np.arange((P + 1) ** 2).reshape(P + 1, P + 1, order="F")
_SIDE_SLOTS = np.array([_SLOT.T[[0, 1]], _SLOT[[P, P - 1]],
                        _SLOT.T[[P, P - 1]], _SLOT[[0, 1]]]).reshape(4, -1)


def slot_keys(cnet, face: int) -> np.ndarray:
    """Shared integer identity of each slot of one face's quintic grid."""
    loop = cnet.faces[face]
    n_side = cnet.n_vertices + (P - 1) * cnet.n_edges
    keys = n_side + (P + 1) ** 2 * face + np.arange((P + 1) ** 2)
    keys[_SLOT[[0, P, P, 0], [0, 0, P, P]]] = loop
    t = np.arange(1, P)
    for s, e in enumerate(cnet.face_edges[face]):
        slots = _SIDE_SLOTS[s, t if s < 2 else P - t]
        along = t if loop[s] < loop[(s + 1) % 4] else P - t
        keys[slots] = cnet.n_vertices + (P - 1) * e + along - 1
    return keys


def irregular_faces(cnet) -> list[int]:
    """Faces with an extraordinary corner, ascending."""
    return [f for f in range(cnet.n_faces)
            if any(cnet.extraordinary[v] for v in cnet.faces[f])]


def clusters(cnet) -> tuple[dict, dict]:
    """``topology_loop.clusters`` of the net's loop-built twin."""
    return topology_loop.clusters(topology_loop.LoopCNet(cnet.n_vertices, cnet.faces))


def basis_supports(c0, functions) -> dict:
    """Irregular elements supporting each of ``functions``: id -> set."""
    out = {int(a): set() for a in functions}
    for f in irregular_faces(c0.cnet):
        for a in c0.extraction(f).basis:
            if int(a) in out:
                out[int(a)].add(f)
    return out


def solve_elements(rings, support: set, variant: str) -> list[int]:
    """Sorted support (g1r) or union of the touched cluster rings (g1p);
    ``rings`` is the ``(face_cluster, cluster_rings)`` of ``clusters``."""
    if variant == "g1r":
        return sorted(support)
    face_cluster, cluster_rings = rings
    return sorted({f for s in support for f in cluster_rings[face_cluster[s]]})


def elevated_grid(c0, functions, face: int) -> np.ndarray:
    """(6, 6, k) elevated coefficients of the k functions on a face."""
    ext = c0.extraction(face)
    grid = np.zeros((P + 1, P + 1, len(functions)))
    for k, a in enumerate(functions):
        rows = np.flatnonzero(ext.basis == a)
        if rows.size:
            cubic = ext.coeffs[rows[0]].reshape(4, 4, order="F")
            grid[..., k] = degree_elevate_2(cubic)
    return grid


def setup(c0, basisfn, variant: str, rings=None) -> SimpleNamespace:
    """``elements``, ``supports``, ``slot_nodes``, ``grid_nodes``, ``n``
    and ``ctilde`` of the problem ``ConstraintProblem(c0, basisfn,
    variant)``, computed by loops; ``rings`` is ``clusters(c0.cnet)``,
    computed here if not given."""
    functions = [int(a) for a in np.atleast_1d(basisfn)]
    cols = () if np.ndim(basisfn) == 0 else (len(functions),)
    cnet = c0.cnet
    rings = rings if rings is not None else clusters(cnet)

    found = basis_supports(c0, functions)
    supports = [found[a] for a in functions]
    element_sets = {tuple(solve_elements(rings, s, variant)) for s in supports}
    if len(element_sets) > 1:
        raise DomainError(
            f"basis functions {functions} are solved over "
            "different element sets")
    elements = list(element_sets.pop()) if element_sets else []

    keys = np.array([slot_keys(cnet, f) for f in elements], dtype=int)
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    nodes = first.argsort().argsort()[inverse.ravel()]
    slot_nodes = nodes.reshape(-1, (P + 1) ** 2)
    grid_nodes = {f: grid.reshape(P + 1, P + 1, order="F")
                  for f, grid in zip(elements, slot_nodes)}
    n = first.size

    ctilde = np.zeros((n,) + cols)
    have = np.zeros(n, dtype=bool)
    for f in elements:
        idx = grid_nodes[f]
        grid = elevated_grid(c0, functions, f).reshape((P + 1, P + 1) + cols)
        seen = have[idx]
        if (np.abs(ctilde[idx[seen]] - grid[seen]) > 1e-9).any():
            raise InternalError(
                "inconsistent elevated coefficients at a "
                f"shared node of element {f}"
            )
        ctilde[idx[~seen]] = grid[~seen]
        have[idx] = True
    return SimpleNamespace(elements=elements, supports=supports,
                           slot_nodes=slot_nodes, grid_nodes=grid_nodes,
                           n=n, ctilde=ctilde)


def elevate_irregular(c0) -> dict:
    """(basis, element) -> (6, 6) elevated grid, element by element."""
    out = {}
    for f in irregular_faces(c0.cnet):
        ext = c0.extraction(f)
        for row, a in enumerate(ext.basis):
            cubic = ext.coeffs[row].reshape(4, 4, order="F")
            out[(int(a), f)] = degree_elevate_2(cubic)
    return out
