"""Per-edge reference for the batched ``gspline.cli.surface_check``: one
``element_loop`` call (``basis_table``, ``map_point`` or ``frame``) per
element and edge side, one Python iteration per edge, and the dense
collocation matrix with its full SVD.  Each edge is glued by
``topology_loop.edge_frames`` and each element classed by
``topology_loop.classify_elements``.  The edge parameters of a side
(``edge_side_params``) and the per-element normal angle (``normal_jump``)
are frozen here.
"""

from dataclasses import replace

import numpy as np

from gspline.construct_g1 import blend_polynomial, edge_geometry
from gspline.errors import DomainError
from gspline.evaluate import rotated_params, rotation_offset_matrix
from gspline.mesh import ElementClass, spoke_edges

from element_loop import basis_table, frame, map_point
from topology_loop import classify_elements, edge_frames, loop_net


def edge_side_params(frames, t, side):
    """Stored (xi, eta) of edge parameter t on the given side ("left"/"right")."""
    if side == "right":
        return rotated_params(frames.rot_right, t, 0.0)
    if side == "left":
        return rotated_params(frames.rot_left, 0.0, t)
    raise DomainError(f"side must be 'left' or 'right', not {side!r}")


def edge_side_table(ext, rot, frame_pts):
    """Basis values and frame-axis derivatives of one element at frame points."""
    frame_pts = np.asarray(frame_pts, dtype=float)
    uv = rotated_params(rot, frame_pts[:, 0], frame_pts[:, 1])
    vals, d1, d2 = basis_table(ext, np.stack(uv, axis=1))
    _, A = rotation_offset_matrix(rot)
    Hs = d2[..., [0, 1, 1, 2]].reshape(d2.shape[:-1] + (2, 2))
    Hf = A.T @ Hs @ A
    return vals, d1 @ A, Hf[..., [0, 0, 1], [0, 1, 1]]


def edge_pair_tables(fr, ext_r, ext_l, ts):
    """Both sides' tables on the sorted union of the two basis lists."""
    ids = np.union1d(ext_r.basis, ext_l.basis)
    zs = np.zeros_like(ts)
    sides = []
    for ext, rot, pts in ((ext_r, fr.rot_right, np.stack([ts, zs], axis=1)),
                          (ext_l, fr.rot_left, np.stack([zs, ts], axis=1))):
        rows = np.searchsorted(ids, ext.basis)
        tables = []
        for table in edge_side_table(ext, rot, pts):
            full = np.zeros((len(ids),) + table.shape[1:])
            full[rows] = table
            tables.append(full)
        sides.append(tables)
    return sides


def edge_jumps(surface, edge, order, samples=20):
    fr = edge_frames(surface.cnet, edge)
    (vals_r, d1_r, d2_r), (vals_l, d1_l, d2_l) = edge_pair_tables(
        fr, surface.extraction(fr.right), surface.extraction(fr.left),
        np.linspace(0.0, 1.0, samples))
    if order == 0:
        jumps = [vals_r - vals_l]
    elif order == 1:
        jumps = [d1_r[..., 1] + d1_l[..., 0]]
    else:
        jumps = [d2_r[..., 2] - d2_l[..., 0], d2_r[..., 1] + d2_l[..., 1]]
    return max(float(np.abs(j).max(initial=0.0)) for j in jumps)


def edge_watertightness(surface, edge, samples=11):
    fr = edge_frames(surface.cnet, edge)
    ts = np.linspace(0.0, 1.0, samples)
    xr = map_point(surface, fr.right, *edge_side_params(fr, ts, "right"))
    xl = map_point(surface, fr.left, *edge_side_params(fr, ts, "left"))
    return float(np.linalg.norm(xr - xl, axis=-1).max(initial=0.0))


def g1_residual(surface, edge, samples=50):
    cnet = surface.cnet
    geom = edge_geometry(cnet, edge)
    fr = edge_frames(cnet, edge, v1=geom.v1)
    ts = np.linspace(0.0, 1.0, samples)
    (_, gr, _), (_, gl, _) = edge_pair_tables(
        fr, replace(surface.extraction(fr.right), rational=False),
        replace(surface.extraction(fr.left), rational=False), ts)
    blend = blend_polynomial(geom.omega1, geom.omega2, ts)
    res = gl[..., 0] + blend * gr[..., 0] + gr[..., 1]
    scale = max(float(np.abs(gr).max(initial=0.0)),
                float(np.abs(gl).max(initial=0.0)))
    return float(np.abs(res).max(initial=0.0)) / max(scale, 1.0)


def normal_jump(surface, edge, samples=11):
    """Max angle between the two sides' unit normals, one ``frame`` call
    per side, measured as arctan2(|n_r x n_l|, n_r . n_l)."""
    fr = edge_frames(surface.cnet, edge)
    ts = np.linspace(0.02, 0.98, samples)
    nr = frame(surface, fr.right, *edge_side_params(fr, ts, "right")).normal
    nl = frame(surface, fr.left, *edge_side_params(fr, ts, "left")).normal
    return float(np.arctan2(np.linalg.norm(np.cross(nr, nl), axis=-1),
                            np.einsum("mi,mi->m", nr, nl)).max(initial=0.0))


def collocation_matrix(surface):
    """The dense collocation matrix, element by element: one row per
    interior tensor point, one column per basis function."""
    n = surface.cnet.n_vertices
    rows = []
    for e in range(surface.cnet.n_faces):
        p = surface.degree(e)
        ts = (np.arange(p + 1) + 0.5) / (p + 1)
        pts = np.array([(xi, eta) for eta in ts for xi in ts])
        ext = surface.extraction(e)
        vals, _, _ = basis_table(ext, pts)
        block = np.zeros((pts.shape[0], n))
        block[:, ext.basis] = vals.T
        rows.append(block)
    return np.vstack(rows)


def collocation_singular_values(surface):
    """All singular values of the dense collocation matrix."""
    return np.linalg.svd(collocation_matrix(surface), compute_uv=False)


def surface_check(surface, samples=12):
    """The invariant report of ``gspline.cli.surface_check``, edge by edge."""
    cnet = surface.cnet
    labels = classify_elements(loop_net(cnet))
    spokes = spoke_edges(cnet)
    report = {"variant": surface.variant}
    watertight = c1_interface = c2_regular = g1_spoke = normal_kink = 0.0
    for e in range(cnet.n_edges):
        if cnet.boundary_edge[e]:
            continue
        watertight = max(watertight, edge_watertightness(surface, e))
        f, g = cnet.edge_faces[e]
        kinds = {labels[f], labels[g]}
        if e in spokes:
            g1_spoke = max(g1_spoke, g1_residual(surface, e))
            if surface.variant in ("g1p", "g1r"):
                normal_kink = max(normal_kink, normal_jump(surface, e, samples=5))
        elif kinds == {ElementClass.IRREGULAR, ElementClass.TRANSITION}:
            c1_interface = max(c1_interface, edge_jumps(surface, e, 1, samples))
        elif ElementClass.IRREGULAR not in kinds:
            c2_regular = max(c2_regular, edge_jumps(surface, e, 2, samples))
    report["watertightness"] = watertight
    report["g1_residual_spoke_edges"] = g1_spoke
    report["c1_residual_irregular_transition"] = c1_interface
    report["c2_residual_smooth_edges"] = c2_regular
    if surface.variant in ("g1p", "g1r"):
        report["normal_jump_spoke_edges"] = normal_kink

    pou = 0.0
    wmin, wmax = np.inf, -np.inf
    for ext in surface.extractions:
        sums = ext.coeffs.sum(axis=0)
        if ext.rational:
            wmin = min(wmin, float(sums.min()))
            wmax = max(wmax, float(sums.max()))
        else:
            pou = max(pou, float(np.abs(sums - 1.0).max()))
    report["partition_of_unity_defect"] = pou
    if np.isfinite(wmin):
        report["rational_weight_range"] = [wmin, wmax]

    sv = collocation_singular_values(surface)
    report["collocation_sv_ratio"] = float(sv.min() / sv.max())
    if surface.diagnostics:
        report["construction"] = surface.diagnostics
    return report
