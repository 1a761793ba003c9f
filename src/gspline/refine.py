"""Global uniform refinement with extended Catmull-Clark control rules.

Each face splits into four; new control points come from affine masks:
face points average the four corners, edge and vertex points use the
extended rules that keep the boundary curve a cubic B-spline of the
boundary control polygon and hold corner control points fixed.  No
book-keeping is involved: a refined net is rebuilt by the same
construction algorithms as any other net, and the extraordinary-vertex
count never changes.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InternalError, ResourceError
from .mesh import CNet, ControlNet

MAX_LEVELS = 8


def _interior_vertex_mask(mu: int) -> tuple[float, float, float]:
    """Weights (own, each edge neighbor, each face diagonal) for an
    interior vertex of valence mu; reproduces bi-cubic B-spline subdivision
    at mu = 4 (9/16, 3/32, 1/64)."""
    return 1.0 - 7.0 / (4.0 * mu), 3.0 / (2.0 * mu * mu), 1.0 / (4.0 * mu * mu)


def refine(net: ControlNet) -> ControlNet:
    """One level of global uniform refinement."""
    cnet = net.cnet
    pos = net.positions

    n_v, n_f, n_e = cnet.n_vertices, cnet.n_faces, cnet.n_edges
    new_pos = np.empty((n_v + n_f + n_e, 3))

    # updated old vertices
    for v in range(n_v):
        if cnet.boundary_vertex[v] and cnet.valence[v] == 1:  # corner
            new_pos[v] = pos[v]
        elif cnet.boundary_vertex[v]:
            nbrs = []
            for e in cnet.vertex_edges[v]:
                if cnet.boundary_edge[e]:
                    a, b = (int(x) for x in cnet.edges[e])
                    nbrs.append(b if a == v else a)
            if len(nbrs) != 2:
                raise InternalError(f"boundary vertex {v} lacks two boundary edges")
            new_pos[v] = 0.75 * pos[v] + 0.125 * (pos[nbrs[0]] + pos[nbrs[1]])
        else:
            mu = int(cnet.valence[v])
            w_own, w_edge, w_diag = _interior_vertex_mask(mu)
            acc = w_own * pos[v]
            for e in cnet.vertex_edges[v]:
                a, b = (int(x) for x in cnet.edges[e])
                acc = acc + w_edge * pos[b if a == v else a]
            for f in cnet.vertex_faces[v]:
                loop = [int(x) for x in cnet.faces[f]]
                acc = acc + w_diag * pos[loop[(loop.index(v) + 2) % 4]]
            new_pos[v] = acc

    # new face points
    for f in range(n_f):
        new_pos[n_v + f] = pos[np.asarray(cnet.faces[f], dtype=int)].mean(axis=0)

    # new edge points
    for e in range(n_e):
        u, v = (int(x) for x in cnet.edges[e])
        if cnet.boundary_edge[e]:
            new_pos[n_v + n_f + e] = 0.5 * (pos[u] + pos[v])
            continue

        def bend(w):
            # boundary endpoints shift weight toward themselves
            if cnet.boundary_vertex[w]:
                return 0.25 * math.cos(math.pi / int(cnet.valence[w]))
            return 0.0

        su, sv = bend(u), bend(v)
        wu = 0.375 + su - sv
        wv = 0.375 + sv - su
        acc = wu * pos[u] + wv * pos[v]
        wings = 0.0
        for f in cnet.edge_faces[e]:
            for w in (int(x) for x in cnet.faces[f]):
                if w != u and w != v:
                    acc = acc + 0.0625 * pos[w]
                    wings += 0.0625
        if abs(wu + wv + wings - 1.0) > 1e-12:
            raise InternalError("edge mask weights do not sum to one")
        new_pos[n_v + n_f + e] = acc

    # quadrisection connectivity
    faces = []
    for f in range(n_f):
        loop = [int(x) for x in cnet.faces[f]]
        fp = n_v + f
        ep = [n_v + n_f + int(cnet.face_edges[f][s]) for s in range(4)]
        for s in range(4):
            faces.append((loop[s], ep[s], fp, ep[(s - 1) % 4]))
    return ControlNet(CNet(n_v + n_f + n_e, faces), new_pos)


def refine_n(net: ControlNet, levels: int):
    """Iterated refinement; returns the final net and per-level counts."""
    if levels > MAX_LEVELS:
        raise ResourceError(f"refusing {levels} refinement levels (> {MAX_LEVELS})")
    stats = []
    current = net
    for _ in range(max(levels, 0)):
        current = refine(current)
        stats.append({
            "n_vertices": current.cnet.n_vertices,
            "n_faces": current.cnet.n_faces,
            "n_extraordinary": int(current.cnet.extraordinary.sum()),
        })
    return current, stats
