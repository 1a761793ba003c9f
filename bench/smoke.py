"""Smoke test of the benchmark itself.

    python3 bench/smoke.py [--seed N]

Runs every workload once untraced and once traced, with the shortest run
length (one pass each), and fails unless:

- the end-to-end metric names printed match ``BENCHMARK.json`` and every
  value is a positive number with its declared unit;
- the per-layer names printed match ``BENCHMARK.json`` and
  ``bench/layers.json``;
- every command's output passed its check (``correct``, ``failed`` = 0);
- ``run.py`` exits non-zero, printing no result, in a directory that
  holds only ``BENCHMARK.json`` and ``bench/``.

It prints every metric with its unit, one table per workload.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(cwd: Path, workload: str, seed: int, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=200)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((BENCH / "layers.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    layer_units = {n: u for layer in layers.values()
                   for n, u in layer["metrics"].items()}
    if layer_units != expected[1]:
        problems.append("bench/layers.json and BENCHMARK.json per_layer differ")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = run(ROOT, workload, args.seed, trace)
            if done.returncode != 0:
                problems.append(f"{workload} trace {trace}: exit "
                                f"{done.returncode}: {done.stderr[-2000:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            metrics = result["metrics"]
            print(f"\n{workload} (trace {trace}): attempted "
                  f"{result['attempted']}, failed {result['failed']}")
            for name, m in metrics.items():
                print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
            units = {n: m["unit"] for n, m in metrics.items()}
            if units != expected[trace]:
                problems.append(f"{workload} trace {trace}: metric names or "
                                "units differ from BENCHMARK.json")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: failed outputs")
            if trace == 0 and not all(m["value"] > 0 for m in metrics.values()):
                problems.append(f"{workload}: an end-to-end metric is not > 0")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run(bare, spec["workloads"][0]["name"], args.seed, 0)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        problems.append("run.py did not fail without the sources")

    for p in problems:
        print("FAIL:", p)
    print("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
