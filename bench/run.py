"""gspline benchmark: one workload, timed end to end or traced by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/gspline`` must exist).  The
workload runs in child processes started from ``bench/workloads.py``:
untraced, first ``SETUP_SAMPLES - 1`` processes that only set up, then
one that sets up and measures.  Set-up time runs from starting a process to its
first timed command, and ``setup_s`` is the median over all of them.
``pass_s`` is one pass of the workload: the sum over its CLI commands of
each command's median time over the passes of the run.  ``peak_rss_mb``
is the measuring process's peak resident memory.

The CPU speed of a shared host changes from second to second, so both
times are given at a reference speed: each timed interval is its wall
time times the speed scale ``speed.SpeedProbe`` sampled inside it.
The wall times themselves are in the report line (``wall``).

Every line but the last is a report for people: the environment, each
CLI command's median time (``build_s``, ``refine_s``, ...) and the
output problems found.  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones of ``bench/layers.json``.  Full results go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("analysis-rot44", "g1-coarse", "inspect-shell")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # a run must end within 180 s
# Thread settings removed from the children's environment, so that every
# run uses the CLI's default thread resolution and OpenBLAS's default.
THREAD_VARS = ("GSPLINE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    layers = json.loads((BENCH / "layers.json").read_text())
    return {name: unit for layer in layers.values()
            for name, unit in layer["metrics"].items()}


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gspline").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def child(args, mode: str, work: Path, deadline: float,
          trace_out: Path | None = None) -> tuple[dict, tuple[float, float]]:
    """Run one workload process; returns its JSON line and its set-up wall
    time and time at the reference speed."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    cmd = [sys.executable, str(BENCH / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"{mode} process of {args.workload} timed out")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{mode} process of {args.workload} exited "
                         f"{proc.returncode}: {(err or out)[-3000:]}")
    result = json.loads(lines[-1])
    wall = result["setup_end"] - started
    return result, (wall, wall * result["setup_speed_scale"])


def command_failures(passes: list[list[dict]]) -> list[bool]:
    """Per command run: a non-zero exit, a failed output check, or an
    output differing from the same command's in the first pass."""
    reference = [c["digest"] for c in passes[0]]
    return [bool(c["problems"]) or c["digest"] != ref
            for p in passes for c, ref in zip(p, reference)]


def command_medians(passes: list[list[dict]], wall: bool = False) -> list[float]:
    """Median time of each command of a pass over the passes that ran it,
    at the reference speed or, with ``wall``, as wall time."""
    def seconds(c: dict) -> float:
        return c["seconds"] if wall else c["seconds"] * c["speed_scale"]
    return [statistics.median(seconds(p[i]) for p in passes if len(p) > i)
            for i in range(len(passes[0]))]


def kind_times(passes: list[list[dict]], wall: bool = False) -> dict[str, float]:
    """``<subcommand>_s``: the summed median times of its commands."""
    out: dict[str, float] = {}
    for c, t in zip(passes[0], command_medians(passes, wall)):
        out[f"{c['kind']}_s"] = out.get(f"{c['kind']}_s", 0.0) + t
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "gspline" / "cli.py").is_file():
        print(f"no gspline sources under {ROOT / 'src'}: run the benchmark "
              "from the root of a source checkout", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_root = OUT / f"work-{tag}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    trace_out = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    try:
        setups = [child(args, "setup", work_root / f"setup{k}", deadline)[1]
                  for k in range(0 if args.trace else SETUP_SAMPLES - 1)]
        result, setup_s = child(args, "measure", work_root / "measure",
                                deadline, trace_out if args.trace else None)
        setups.append(setup_s)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    passes, traced = result["passes"], result["traced"]
    failures = command_failures(passes + traced)
    attempted, failed = len(failures), sum(failures)
    pass_s = sum(command_medians(passes))
    if args.trace:
        units = per_layer_units()
        layers = result["layers"]
        values = {name: statistics.median(m.get(name, 0) for m in layers)
                  for name in units}
        values["trace.overhead_frac"] = (sum(command_medians(traced, True))
                                         / sum(command_medians(passes, True)) - 1)
    else:
        units = END_TO_END
        values = {"pass_s": pass_s,
                  "setup_s": statistics.median(s for _, s in setups),
                  "peak_rss_mb": result["maxrss_mb"]}
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}

    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "env": {**result["env"], "nproc": len(os.sched_getaffinity(0)),
                "cpu_count": os.cpu_count(),
                "caller": {k: os.environ.get(k) for k in THREAD_VARS}},
        "commands_run": [len(p) for p in passes],
        "setup_s": [s for _, s in setups], "command_s": kind_times(passes),
        "wall": {"pass_s": sum(command_medians(passes, True)),
                 "setup_s": [w for w, _ in setups],
                 "command_s": kind_times(passes, True)},
        "failed_frac": failed / attempted,
        "problems": [c["problems"] for p in passes + traced for c in p
                     if c["problems"]],
        "metrics": metrics,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({k: v for k, v in report.items() if k != "metrics"}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
