"""Building, refining and quality reports run on numpy alone.

Each run is a fresh interpreter that calls ``gspline.cli.main`` for a
list of commands.  With ``sys.modules["scipy"] = None`` any scipy import
fails, so the blocked run exits 0 on every command only if none of them
loads scipy; its files must be byte for byte those of an unblocked run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gspline.mesh import save_obj

import netgen

SRC = Path(__file__).resolve().parent.parent / "src"

RUN = """
import json, sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None
from gspline import cli
codes = [cli.main(args) for args in json.loads(sys.argv[2])]
print(json.dumps(codes))
"""

COMMANDS = [
    *(["build", "val333.obj", "--variant", v, "-o", f"{v}.json", "--bezier", f"{v}_bez.json",
       "--sample-obj", f"{v}_sample.obj", "--frames-csv", f"{v}_frames.csv",
       "--resolution", "3"] for v in ("c0", "g1p", "g1r")),
    ["refine", "open_box.obj", "--levels", "2", "-o", "box2.obj"],
    ["refine", "open_box.obj", "--levels", "1", "--variant", "g1r", "-o", "box1.json"],
    ["refine", "box1.json", "--levels", "1", "-o", "box2.json"],
    ["quality", "box2.json", "-o", "quality.json", "--csv", "quality.csv"],
]


def python(*args, cwd=None) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def outputs(directory: Path, mode: str) -> dict:
    directory.mkdir()
    for name in ("val333", "open_box"):
        (directory / f"{name}.obj").write_text(save_obj(getattr(netgen, name)()))
    codes = json.loads(python("-c", RUN, mode, json.dumps(COMMANDS), cwd=directory))
    assert codes == [0] * len(COMMANDS)
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("module", ["gspline", "gspline.cli"])
def test_import_loads_no_scipy(module):
    loaded = python("-c", f"import sys, {module}; "
                    "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert loaded.strip() == "[]"


def test_build_refine_and_quality_without_scipy(tmp_path):
    blocked, free = outputs(tmp_path / "blocked", "blocked"), outputs(tmp_path / "free", "free")
    assert len(blocked) == 2 + 3 * 4 + 3 + 2  # the inputs and every output
    assert blocked.keys() == free.keys()
    for name in blocked:
        assert blocked[name] == free[name], name
