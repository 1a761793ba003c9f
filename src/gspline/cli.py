"""Batch command-line front end.

Subcommands cover the pipeline: ``build`` a surface archive from an OBJ
control net, ``refine`` nets or archives, ``quality`` for the
minimum-invalid-thickness report, ``poisson`` for the convergence study,
``eigen`` for membrane eigenvalues and ``check`` for the invariant
diagnostics of an archive.  All commands are deterministic for identical
inputs; errors exit with machine-readable JSON on stderr (exit codes:
2 input format, 3 topology, 4 construction infeasible, 5 numeric).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .archive import surface_from_json, surface_to_json
from .construct_c0 import build_c0, geometry_continuity_residual
from .construct_g1 import build_g1, g1_residual
from .errors import (
    DegenerateBasisError,
    DomainError,
    EigensolverError,
    EmptyError,
    FormatError,
    GSplineError,
    InfeasibleConstraintError,
    LumpingError,
    ResourceError,
    SingularParameterizationError,
    TopologyError,
)
from .evaluate import GSplineSurface, edge_watertightness, normal_jump
from .mesh import ControlNet, ElementClass, classify_elements, load_obj, save_obj, spoke_edges
from .quality import min_invalid_thickness
from .refine import refine_n
from .solve import (
    assemble_membrane_eigen,
    convergence_study,
    solve_generalized_eigen,
)

_EXIT_CODES = (
    (2, (FormatError, EmptyError, DomainError)),
    (3, (TopologyError,)),
    (4, (InfeasibleConstraintError, DegenerateBasisError)),
    (5, (SingularParameterizationError, EigensolverError, LumpingError,
         ResourceError)),
)


def _exit_code(exc: GSplineError) -> int:
    for code, kinds in _EXIT_CODES:
        if isinstance(exc, kinds):
            return code
    return 5


def _load_net(path: str) -> ControlNet:
    return load_obj(Path(path).read_bytes())


def _load_surface(path: str) -> GSplineSurface:
    return surface_from_json(Path(path).read_text())


def _build_surface(net: ControlNet, variant: str) -> GSplineSurface:
    c0 = build_c0(net)
    if variant == "c0":
        return c0
    return build_g1(c0, variant)


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        Path(path).write_text(text if text.endswith("\n") else text + "\n")


def surface_check(surface: GSplineSurface, samples: int = 12) -> dict:
    """The invariant suite of a surface: continuity residuals, partition
    of unity, watertightness and numerical linear independence."""
    cnet = surface.cnet
    labels = classify_elements(cnet)
    spokes = spoke_edges(cnet)
    report: dict = {"variant": surface.variant}

    watertight = 0.0
    c1_interface = 0.0
    c2_regular = 0.0
    g1_spoke = 0.0
    normal_kink = 0.0
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
            c1_interface = max(
                c1_interface,
                geometry_continuity_residual(surface, e, 1, samples=samples))
        elif ElementClass.IRREGULAR not in kinds:
            c2_regular = max(
                c2_regular,
                geometry_continuity_residual(surface, e, 2, samples=samples))
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
    if getattr(surface, "diagnostics", None):
        report["construction"] = surface.diagnostics
    return report


def collocation_singular_values(surface: GSplineSurface) -> np.ndarray:
    """Singular values of the basis collocation matrix at interior
    tensor sample points of every element."""
    from .solve import element_tables

    n = surface.cnet.n_vertices
    rows = []
    for e in range(surface.cnet.n_faces):
        p = surface.degree(e)
        ts = (np.arange(p + 1) + 0.5) / (p + 1)
        pts = np.array([(xi, eta) for eta in ts for xi in ts])
        ids, vals, _ = element_tables(surface, e, pts)
        block = np.zeros((pts.shape[0], n))
        block[:, np.asarray(ids, dtype=int)] = vals.T
        rows.append(block)
    matrix = np.vstack(rows)
    return np.linalg.svd(matrix, compute_uv=False)


# ----------------------------------------------------------------------
# subcommands


def cmd_build(args) -> int:
    net = _load_net(args.input)
    surface = _build_surface(net, args.variant)
    _write(args.output, surface_to_json(surface))
    if args.bezier:
        from .extraction import bezier_points_record

        records = [bezier_points_record(ext, surface.net.positions)
                   for ext in surface.extractions]
        _write(args.bezier, json.dumps(records, indent=1, sort_keys=True))
    if args.sample_obj:
        from .evaluate import sample_bezier_mesh, sampled_mesh_obj

        pts, quads, _ = sample_bezier_mesh(surface, resolution=args.resolution)
        _write(args.sample_obj, sampled_mesh_obj(pts, quads))
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
        if out is not None and out.suffix == ".json":
            surface = _build_surface(refined, args.variant)
            _write(args.output, surface_to_json(surface))
        else:
            _write(args.output, save_obj(refined))
    else:
        surface = _load_surface(args.input)
        refined, stats = refine_n(surface.net, args.levels)
        if out is not None and out.suffix == ".obj":
            _write(args.output, save_obj(refined))
        else:
            rebuilt = _build_surface(refined, surface.variant)
            _write(args.output, surface_to_json(rebuilt))
    sys.stderr.write(json.dumps({"levels": stats}) + "\n")
    return 0


def cmd_quality(args) -> int:
    surface = _load_surface(args.input)
    report = min_invalid_thickness(surface, t_lo=args.t_lo, t_hi=args.t_hi,
                                   tol=args.tol)
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
    surface = _load_surface(args.input)
    report = surface_check(surface)
    _write(args.output, json.dumps(report, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_refine)

    p = sub.add_parser("quality", help="minimum invalid shell thickness")
    p.add_argument("input")
    p.add_argument("--t-lo", type=float, default=0.01)
    p.add_argument("--t-hi", type=float, default=100.0)
    p.add_argument("--tol", type=float, default=0.005)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except GSplineError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, InfeasibleConstraintError) and exc.edges:
            payload["edges"] = exc.edges
        sys.stderr.write(json.dumps(payload) + "\n")
        return _exit_code(exc)
    except OSError as exc:
        sys.stderr.write(json.dumps({"error": "OSError", "message": str(exc)})
                         + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
