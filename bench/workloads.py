"""Benchmark workloads: inputs, timed CLI commands and output checks.

Each workload drives the real entry point, ``gspline.cli.main``, in
this process, times every command and checks every output.  ``run.py``
starts this file as a child process once per measurement:

    python3 bench/workloads.py --workload W --seed N --mode setup|measure \
        --seconds S --trace 0|1 --work DIR [--trace-out FILE]

and reads the one JSON line it prints.  ``setup`` mode stops before the
first timed command; ``measure`` mode runs one whole pass of the workload and
then goes on through further passes until ``--seconds`` have gone by,
stopping at a command boundary.  With ``--trace 1`` it runs whole pairs
of an untraced and a traced pass instead.

The untraced processes also sample the CPU speed they get, from before the
program's imports on (``speed.SpeedProbe``): each timed interval, set-up
included, carries the speed scale sampled inside it, by which ``run.py``
gives it at the reference speed.

The thread count is the CLI default: ``GSPLINE_THREADS`` is unset and no
``--threads`` flag is passed, so the construction uses ``os.cpu_count()``
workers while OpenBLAS keeps its own default thread count.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import speed  # noqa: E402

# Set-up time includes the imports below, so sampling starts before them.
PROBE = speed.SpeedProbe().start()

import nets  # noqa: E402
import spans  # noqa: E402

import gspline  # noqa: E402
from gspline import archive, cli  # noqa: E402

if Path(gspline.__file__).resolve().parent != ROOT / "src" / "gspline":
    sys.exit(f"gspline imported from {gspline.__file__}, not from {ROOT / 'src'}")


@dataclass
class Command:
    kind: str  # the CLI subcommand; its times add up to <kind>_s
    argv: list
    output: Path
    check: Callable[[Path], list[str]]  # problems found in the output


class SetupError(RuntimeError):
    pass


def run_cli(argv) -> tuple[int | None, float, str]:
    """Run one CLI command in-process: exit code (None if it raised),
    wall seconds and captured stderr."""
    err = io.StringIO()
    args = [str(a) for a in argv]
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(args)
    except Exception:
        code = None
        err.write(traceback.format_exc())
    return code, time.perf_counter() - t0, err.getvalue()


def setup_cli(argv) -> None:
    code, _, err = run_cli(argv)
    if code != 0:
        raise SetupError(f"set-up command {argv} exited {code}: {err[-2000:]}")


# -- output checks: the acceptance contract, for any seed -------------------


def check_poisson(levels: int):
    def check(path: Path) -> list[str]:
        report = json.loads(path.read_text())
        rows = report["levels"]
        if len(rows) != levels:
            return [f"poisson: {len(rows)} levels, expected {levels}"]
        out = []
        for key in ("l2", "linf", "h1"):
            errs = [r[key] for r in rows]
            if not all(math.isfinite(e) and e > 0 for e in errs):
                out.append(f"poisson: {key} errors not finite positive: {errs}")
            elif any(b >= a for a, b in zip(errs, errs[1:])):
                out.append(f"poisson: {key} errors do not fall strictly: {errs}")
        return out
    return check


def dirichlet_square_eigenvalues(k: int) -> list[float]:
    return sorted((i * i + j * j) * math.pi**2
                  for i in range(1, 8) for j in range(1, 8))[:k]


def check_eigen(k: int):
    def check(path: Path) -> list[str]:
        report = json.loads(path.read_text())
        out = []
        res = report["residuals"]
        if len(res) != k or not all(r < 1e-8 for r in res):
            out.append(f"eigen: residuals {res}")
        lams = report["eigenvalues"]
        exact = dirichlet_square_eigenvalues(k)
        if len(lams) != k or any(abs(a - b) / b > 0.005
                                 for a, b in zip(lams, exact)):
            out.append(f"eigen: eigenvalues {lams} vs analytic {exact}")
        return out
    return check


def check_archive(n_faces: int, variant: str):
    """The archive loads back with one element per face of the net."""
    def check(path: Path) -> list[str]:
        surface = archive.surface_from_json(path.read_text())
        if (surface.cnet.n_faces, len(surface.extractions)) != (n_faces, n_faces):
            return [f"archive {path.name}: {surface.cnet.n_faces} faces, "
                    f"{len(surface.extractions)} elements, expected {n_faces}"]
        if surface.variant != variant:
            return [f"archive {path.name}: variant {surface.variant}"]
        return []
    return check


def check_quality(radius: float | None):
    def check(path: Path) -> list[str]:
        report = json.loads(path.read_text())
        t = report["min_invalid_thickness"]
        thickness = math.inf if t is None else t
        out = []
        if not report["valid_up_to"] < thickness:
            out.append(f"quality: valid_up_to {report['valid_up_to']} "
                       f"not below thickness {thickness}")
        if radius is not None and not abs(thickness - radius) / radius < 0.05:
            out.append(f"quality: thickness {thickness} not within 5% of "
                       f"the radius {radius}")
        return out
    return check


def check_invariants(path: Path) -> list[str]:
    report = json.loads(path.read_text())
    limits = [("watertightness", "<", 1e-9),
              ("g1_residual_spoke_edges", "<", 1e-8),
              ("partition_of_unity_defect", "<", 1e-10),
              ("collocation_sv_ratio", ">", 1e-8)]
    out = []
    for key, op, bound in limits:
        value = report[key]
        if not (value < bound if op == "<" else value > bound):
            out.append(f"check: {key} = {value}, expected {op} {bound}")
    return out


def obj_faces(path: Path) -> int:
    return sum(1 for line in path.read_text().splitlines()
               if line.startswith("f "))


# -- workloads -----------------------------------------------------------------
#
# A workload is a set-up function (inputs, untimed) and a pass function
# that lists the timed commands writing into one output directory.  Why
# each workload exists, and which layers it stresses, is recorded in the
# ``why`` fields of BENCHMARK.json and in bench/layers.json.


def analysis_setup(inputs: Path) -> dict:
    return {"net": inputs / "rot44.obj"}


def analysis_pass(ctx: dict, out: Path) -> list[Command]:
    net, l4 = ctx["net"], out / "L4.json"
    return [
        Command("poisson", ["poisson", net, "--levels", 4, "--variant", "g1r",
                            "-o", out / "poisson.json"],
                out / "poisson.json", check_poisson(4)),
        Command("refine", ["refine", net, "--levels", 4, "--variant", "g1r",
                           "-o", l4],
                l4, check_archive(obj_faces(net) * 4**4, "g1r")),
        Command("eigen", ["eigen", l4, "-k", 6, "-o", out / "eigen.json"],
                out / "eigen.json", check_eigen(6)),
    ]


COARSE_NETS = ["fan3", "fan5", "fan6", "boundary_ep3", "val33", "val333",
               "open_box", "cube", "rot44"]
COARSE_REFINED = ["rot44_bumped", "val333", "open_box"]


def coarse_setup(inputs: Path) -> dict:
    paths = [inputs / f"{n}.obj" for n in COARSE_NETS]
    for name in COARSE_REFINED:
        dst = inputs / f"{name}_L1.obj"
        setup_cli(["refine", inputs / f"{name}.obj", "--levels", 1, "-o", dst])
        paths.append(dst)
    return {"nets": [(p, obj_faces(p)) for p in paths]}


def coarse_pass(ctx: dict, out: Path) -> list[Command]:
    cmds = []
    for path, faces in ctx["nets"]:
        for variant in ("g1p", "g1r"):
            dst = out / f"{path.stem}_{variant}.json"
            cmds.append(Command("build", ["build", path, "--variant", variant,
                                          "-o", dst],
                                dst, check_archive(faces, variant)))
    return cmds


# archive name -> (net, levels, variant, radius the quality check expects)
SHELLS = {
    "rot44_bumped_L2_g1p": ("rot44_bumped", 2, "g1p", None),
    "cylinder_L1_c0": ("cylinder", 1, "c0", nets.CYLINDER_RADIUS),
    "val333_bumped_L1_g1r": ("val333_bumped", 1, "g1r", None),
}


def shell_setup(inputs: Path) -> dict:
    for name, (net, levels, variant, _) in SHELLS.items():
        setup_cli(["refine", inputs / f"{net}.obj", "--levels", levels,
                   "--variant", variant, "-o", inputs / f"{name}.json"])
    return {"inputs": inputs}


def shell_pass(ctx: dict, out: Path) -> list[Command]:
    cmds = []
    for name, (_, _, _, radius) in SHELLS.items():
        src = ctx["inputs"] / f"{name}.json"
        q, c = out / f"{name}_quality.json", out / f"{name}_check.json"
        cmds.append(Command("quality", ["quality", src, "-o", q], q,
                            check_quality(radius)))
        cmds.append(Command("check", ["check", src, "-o", c], c,
                            check_invariants))
    return cmds


WORKLOADS = {
    "analysis-rot44": (analysis_setup, analysis_pass),
    "g1-coarse": (coarse_setup, coarse_pass),
    "inspect-shell": (shell_setup, shell_pass),
}


# -- passes ---------------------------------------------------------------------


def digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def run_pass(commands: list[Command], tracer=None,
             deadline: float | None = None,
             probe: speed.SpeedProbe | None = None) -> list[dict]:
    """Time each command (tracing only inside the command when a tracer is
    given, and taking its speed scale when a probe is), then check its
    output and digest it.  Past ``deadline`` no further command starts."""
    records = []
    for cmd in commands:
        if deadline is not None and time.monotonic() >= deadline:
            break
        gc.collect()
        if tracer is not None:
            tracer.recording = True
        if probe is not None:
            probe.samples.clear()
        code, seconds, err = run_cli(cmd.argv)
        scale = probe.scale() if probe is not None else 1.0
        if tracer is not None:
            tracer.recording = False
        problems = [f"exit {code}: {err[-2000:]}"] if code != 0 else []
        if not problems:
            try:
                problems = cmd.check(cmd.output)
            except Exception:
                problems = [f"output check raised: {traceback.format_exc()}"]
        records.append({"kind": cmd.kind, "seconds": seconds,
                        "speed_scale": scale, "problems": problems,
                        "digest": digest(cmd.output)})
    return records


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "threads_resolved": os.cpu_count() or 1,
            "GSPLINE_THREADS": os.environ.get("GSPLINE_THREADS"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}


def measure(workload: str, work: Path, seconds: float, trace: bool,
            trace_out: Path | None, ctx: dict,
            probe: speed.SpeedProbe | None) -> dict:
    """Untraced: the first pass runs whole, later ones stop at the first
    command boundary after ``seconds``.  Traced: whole pairs of an untraced
    and a traced pass until ``seconds`` have gone by."""
    make_pass = WORKLOADS[workload][1]
    passes, traced, layers = [], [], []
    deadline = time.monotonic() + seconds
    while not passes or time.monotonic() < deadline:
        k = len(passes)
        cmds = make_pass(ctx, fresh_dir(work / f"pass{k}"))
        passes.append(run_pass(cmds, probe=probe,
                               deadline=None if trace or not k else deadline))
        if trace:
            cmds = make_pass(ctx, fresh_dir(work / f"traced{k}"))
            with spans.Tracer() as tracer:
                traced.append(run_pass(cmds, tracer))
            layers.append(spans.layer_metrics(tracer))
            if trace_out is not None and k == 0:
                trace_out.write_text(json.dumps(tracer.dump()))
    return {"passes": passes, "traced": traced,
            "layers": layers, "env": environment(),
            "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def fresh_dir(path: Path) -> Path:
    path.mkdir()
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description="one benchmark workload process")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args()

    # The traced process runs without the probe, so that no probe time
    # lands in a span's self time.
    probe = None if args.trace else PROBE
    if probe is None:
        PROBE.stop()
    inputs = args.work / "inputs"
    nets.write_nets(args.seed, inputs)
    try:
        ctx = WORKLOADS[args.workload][0](inputs)
    except SetupError as exc:
        print(json.dumps({"error": str(exc)}))
        return 1
    result = {"setup_end": time.monotonic(),
              "setup_speed_scale": probe.scale() if probe else 1.0}
    if args.mode == "measure":
        result.update(measure(args.workload, args.work, args.seconds,
                              bool(args.trace), args.trace_out, ctx, probe))
    PROBE.stop()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
