"""Batch command-line front end.

Subcommands cover the pipeline: ``build`` a surface archive from an OBJ
control net, ``refine`` nets or archives, ``quality`` for the
minimum-invalid-thickness report, ``poisson`` for the convergence study,
``eigen`` for membrane eigenvalues and ``check`` for the invariant
diagnostics of an archive, whose collocation Gram matrix comes from
``solve.assemble_pattern`` on the pattern of K.  All commands are
deterministic for identical inputs, and builds whose G1 systems are under
``construct_g1.ONE_THREAD_ENTRIES`` also across BLAS thread counts;
errors, a malformed argument
included, exit with one machine-readable JSON line on stderr (exit codes:
2 input format, 3 topology, 4 construction infeasible, 5 numeric or an
unexpected exception).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .archive import archive_pieces, read_archive
from .construct_g1 import g1_residuals
from .errors import (
    FormatError,
    GSplineError,
    InfeasibleConstraintError,
    ResourceError,
    finite_json,
)
from .evaluate import (
    GSplineSurface,
    edge_normal_angles,
    edge_residuals,
    glued_frames,
    map_groups,
    raise_first,
)
from .extraction import bezier_points, group_table
from .mesh import (
    ControlNet,
    load_obj,
    obj_text,
    save_obj,
    spoke_mask,
)
from .quality import min_invalid_thickness
from .refine import refine_n
from .solve import (
    assemble_membrane_eigen,
    assemble_pattern,
    build_variant,
    convergence_study,
    solve_generalized_eigen,
    spd_solver,
)

def _load_net(path: str) -> ControlNet:
    return load_obj(Path(path).read_bytes())


def _load_surface(path: str) -> GSplineSurface:
    """The archive at ``path``, parsed from the open file."""
    with open(path, encoding="utf-8") as file:
        try:
            return read_archive(file)
        except UnicodeDecodeError as exc:
            raise FormatError(f"archive is not UTF-8 text: {exc}") from exc


def _write(path: str | None, text) -> None:
    """``text``, a string or its pieces (``archive_pieces``), written
    piece by piece to the file ``path`` or, for None or "-", to stdout,
    then a newline unless the last piece ends in one.  No piece is joined
    to another, so an archive is never held whole."""
    pieces = [text] if isinstance(text, str) else text
    out = sys.stdout if path is None or path == "-" else open(path, "w")
    try:
        last = ""
        for last in pieces:
            out.write(last)
        if not last.endswith("\n"):
            out.write("\n")
    finally:
        if out is not sys.stdout:
            out.close()


def surface_check(surface: GSplineSurface) -> dict:
    """The invariant suite of a surface: continuity residuals, partition
    of unity, watertightness and numerical linear independence.

    All interior edges go through one batched ``edge_residuals`` call:
    watertightness everywhere, order-1 jumps between irregular and
    transition elements and order-2 jumps between elements that are not
    irregular.  Spoke edges (at an extraordinary vertex) get the G1
    residual instead of jumps, from one batched ``g1_residuals`` call,
    and on G1 variants the normal angle (arctan2 of the normals' cross
    and dot products) from one ``edge_normal_angles`` call.
    """
    cnet = surface.cnet
    interior = np.flatnonzero(~cnet.boundary_edge)
    spoke = spoke_mask(cnet)[interior]
    faces, rots = glued_frames(cnet, interior)
    irr, trans = cnet.rings[faces] == 1, cnet.rings[faces] == 2
    orders = np.select([spoke, (irr & trans[:, ::-1]).any(axis=1), ~irr.any(axis=1)],
                       [-1, 1, 2], -1)
    gap, jump = edge_residuals(surface, faces, rots, orders, jump_samples=12)
    report: dict = {"variant": surface.variant}
    report["watertightness"] = float(gap.max(initial=0.0))
    report["g1_residual_spoke_edges"] = float(
        g1_residuals(surface, interior[spoke]).max(initial=0.0))
    report["c1_residual_irregular_transition"] = float(jump[orders == 1].max(initial=0.0))
    report["c2_residual_smooth_edges"] = float(jump[orders == 2].max(initial=0.0))
    if surface.variant in ("g1p", "g1r"):
        report["normal_jump_spoke_edges"] = float(edge_normal_angles(
            surface, faces[spoke], rots[spoke], samples=5).max(initial=0.0))

    pou = 0.0
    wmin, wmax = np.inf, -np.inf
    for g in surface.groups:
        sums = g.coeffs.sum(axis=1)  # padded rows add zero
        if g.rational:
            wmin, wmax = min(wmin, float(sums.min())), max(wmax, float(sums.max()))
        else:
            pou = max(pou, float(np.abs(sums - 1.0).max()))
    report["partition_of_unity_defect"] = pou
    if np.isfinite(wmin):
        report["rational_weight_range"] = [wmin, wmax]

    smax, smin = collocation_singular_values(surface)
    report["collocation_sv_ratio"] = float(smin / smax)
    if surface.diagnostics:
        report["construction"] = surface.diagnostics
    return report


GRAM_FLOOR = 1e-7  # least sqrt(lambda_min / lambda_max) the Gram matrix resolves
DENSE_COLLOCATION_BYTES = 2**28  # largest dense collocation matrix below the floor


def _collocation_values(g) -> np.ndarray:
    """Values (E, n, m) of a block's basis at its elements' interior tensor
    points, xi fastest.  Raises for the lowest nonpositive denominator."""
    ts = (np.arange(g.degree + 1) + 0.5) / (g.degree + 1)
    vals, bad_w = group_table(
        g, np.stack([np.tile(ts, len(ts)), np.repeat(ts, len(ts))], axis=1), order=0)
    raise_first(g, [bad_w])
    return vals


def collocation_gram(surface: GSplineSurface):
    """The Gram matrix A^T A = sum_e V_e V_e^T of the collocation matrix A
    (one row per interior tensor point of each element, one column per
    basis function), by ``assemble_pattern`` on the pattern of K and M."""
    return assemble_pattern(surface, lambda g: [
        (vals := _collocation_values(g)) @ vals.transpose(0, 2, 1)])[0]


def collocation_singular_values(surface: GSplineSurface) -> np.ndarray:
    """Largest and smallest singular value of the basis collocation matrix
    A at the interior tensor points of every element, in that order.

    They are the square roots of the extreme eigenvalues of the sparse
    n x n Gram matrix A^T A: ARPACK for the largest, shift-invert at zero
    with the ``spd_solver`` factor for the smallest, from one fixed start
    vector, so the result is deterministic.  The Gram matrix squares the
    condition number, so below a ratio of ``GRAM_FLOOR`` (or where it is
    singular) the values come from the dense SVD of A, and a dense A larger
    than ``DENSE_COLLOCATION_BYTES`` is a ResourceError.
    """
    import scipy.sparse.linalg as spla

    gram = collocation_gram(surface)
    v0 = np.ones(gram.shape[0])
    try:
        (lmax,) = spla.eigsh(gram, k=1, which="LA", v0=v0, return_eigenvectors=False)
        (lmin,) = spla.eigsh(gram, k=1, sigma=0.0, which="LM", v0=v0,
                             OPinv=spd_solver(gram), return_eigenvectors=False)
    except (RuntimeError, spla.ArpackError):  # a singular Gram matrix
        lmin = lmax = 0.0
    if lmin > 0.0 and lmin >= GRAM_FLOOR**2 * lmax:
        return np.sqrt([lmax, lmin])
    n = gram.shape[0]
    rows = sum(len(g.elements) * (g.degree + 1) ** 2 for g in surface.groups)
    if rows * n * 8 > DENSE_COLLOCATION_BYTES:  # checked before allocating
        raise ResourceError(f"collocation ratio below {GRAM_FLOOR:g} needs a dense "
                            f"{rows} x {n} matrix, over {DENSE_COLLOCATION_BYTES} bytes")

    def dense_rows(g):  # the block's rows of A, element by element
        vals = _collocation_values(g)
        block = np.zeros((len(vals), vals.shape[2], n))
        e, k = np.nonzero(g.mask)
        block[e, :, g.basis[e, k]] = vals[e, k]
        return block.reshape(-1, n)

    A = np.concatenate(map_groups(surface, dense_rows))
    return np.linalg.svd(A, compute_uv=False)[[0, -1]]


# ----------------------------------------------------------------------
# subcommands


def cmd_build(args) -> int:
    net = _load_net(args.input)
    surface = build_variant(net, args.variant)
    _write(args.output, archive_pieces(surface))
    if args.bezier:
        records = [{"element": int(ext.element), "degree": int(ext.degree),
                    "points": bezier_points(ext, surface.net.positions).tolist()}
                   for ext in surface.extractions]
        _write(args.bezier, json.dumps(records, indent=1, sort_keys=True))
    if args.sample_obj:
        from .evaluate import sample_bezier_mesh

        pts, quads, _ = sample_bezier_mesh(surface, resolution=args.resolution)
        _write(args.sample_obj, obj_text(pts, quads))
    if args.frames_csv:
        from .evaluate import frames_csv

        _write(args.frames_csv, frames_csv(surface, resolution=args.resolution))
    return 0


def cmd_refine(args) -> int:
    src = Path(args.input)
    out = Path(args.output) if args.output else None
    if src.suffix == ".obj":
        net = _load_net(args.input)
        refined, stats = refine_n(net, args.levels)
        if args.output == "-" or (out is not None and out.suffix == ".json"):
            surface = build_variant(refined, args.variant)
            _write(args.output, archive_pieces(surface))
        else:
            _write(args.output, save_obj(refined))
    else:
        surface = _load_surface(args.input)
        refined, stats = refine_n(surface.net, args.levels)
        if out is not None and out.suffix == ".obj":
            _write(args.output, save_obj(refined))
        else:
            rebuilt = build_variant(refined, surface.variant)
            _write(args.output, archive_pieces(rebuilt))
    sys.stderr.write(json.dumps({"levels": stats}) + "\n")
    return 0


def cmd_quality(args) -> int:
    surface = _load_surface(args.input)
    report = min_invalid_thickness(surface, t_lo=args.t_lo, t_hi=args.t_hi)
    _write(args.output, report.to_json())
    if args.csv:
        _write(args.csv, report.to_csv_row())
    return 0


def cmd_poisson(args) -> int:
    if args.input.endswith(".obj"):
        net = _load_net(args.input)
        variant = args.variant or "g1p"
    else:
        surface = _load_surface(args.input)
        net = surface.net
        variant = args.variant or surface.variant
    report = convergence_study(net, variant, args.levels)
    _write(args.output, report.to_json())
    if args.csv:
        _write(args.csv, report.to_csv())
    if args.dat:
        _write(args.dat, report.to_dat())
    return 0


def cmd_eigen(args) -> int:
    surface = _load_surface(args.input)
    system = assemble_membrane_eigen(surface, args.mass)
    report = solve_generalized_eigen(system, k=args.k)
    _write(args.output, report.to_json())
    if args.csv:
        _write(args.csv, report.to_csv())
    return 0


def cmd_check(args) -> int:
    report = surface_check(_load_surface(args.input))
    _write(args.output, finite_json("check", report))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a malformed argument: a JSON line, exit 2
        raise FormatError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gspline",
        description="Smooth spline surfaces on unstructured quad control nets",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a surface archive from an OBJ net")
    p.add_argument("input")
    p.add_argument("--variant", choices=("c0", "g1p", "g1r"), required=True)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--bezier", default=None,
                   help="also export per-element Bezier control points (JSON)")
    p.add_argument("--sample-obj", default=None,
                   help="also export a sampled surface mesh (OBJ)")
    p.add_argument("--frames-csv", default=None,
                   help="also export sampled frames: point, normal, curvatures")
    p.add_argument("--resolution", type=int, default=8,
                   help="samples per element edge for the exports")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("refine", help="globally refine a net or archive")
    p.add_argument("input")
    p.add_argument("--levels", type=int, default=1)
    p.add_argument("--variant", choices=("c0", "g1p", "g1r"), default="c0",
                   help="construction when converting an OBJ to an archive")
    p.add_argument("-o", "--output", default=None,
                   help="a .obj path for a net, else an archive; '-' writes an archive "
                        "to stdout, and no -o an OBJ input's refined net")
    p.set_defaults(fn=cmd_refine)

    p = sub.add_parser("quality", help="minimum invalid shell thickness")
    p.add_argument("input")
    p.add_argument("--t-lo", type=float, default=0.01)
    p.add_argument("--t-hi", type=float, default=100.0)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(fn=cmd_quality)

    p = sub.add_parser("poisson", help="Poisson convergence study")
    p.add_argument("input")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--variant", choices=("c0", "g1p", "g1r"), default=None)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--csv", default=None)
    p.add_argument("--dat", default=None)
    p.set_defaults(fn=cmd_poisson)

    p = sub.add_parser("eigen", help="membrane eigenvalues of an archive")
    p.add_argument("input")
    p.add_argument("-k", type=int, default=6)
    p.add_argument("--mass", choices=("consistent", "lumped"),
                   default="consistent")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(fn=cmd_eigen)

    p = sub.add_parser("check", help="invariant diagnostics of an archive")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_check)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # an overflow surfaces as a typed error (a non-finite check value, a
        # singular Jacobian), not as a numpy warning ahead of the JSON line
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args)
    except GSplineError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, InfeasibleConstraintError) and exc.edges:
            payload["edges"] = exc.edges
        sys.stderr.write(json.dumps(payload) + "\n")
        return exc.exit_code
    except OSError as exc:
        sys.stderr.write(json.dumps({"error": "OSError", "message": str(exc)})
                         + "\n")
        return 2
    except Exception as exc:  # a defect: still one JSON line
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)})
                         + "\n")
        return 5


if __name__ == "__main__":
    sys.exit(main())
