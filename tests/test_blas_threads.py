"""Small G1 constraint systems are solved on one BLAS thread.

``construct_g1.solve_constrained_ls`` runs the dense linear algebra of a
system whose reduced equality matrix is under ``ONE_THREAD_ENTRIES`` on
one thread of numpy's own OpenBLAS, and restores the previous count
after.  So builds of such systems do not depend on the thread count the
process starts with, and the count is the same after a build as before.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from gspline import construct_g1
from gspline.archive import surface_to_json
from gspline.construct_c0 import build_c0
from gspline.construct_g1 import ConstraintSystem, build_g1, solve_constrained_ls
from gspline.errors import InfeasibleConstraintError
from gspline.mesh import save_obj

import netgen

SRC = Path(__file__).resolve().parent.parent / "src"

RUN = """
import json, sys
from gspline import cli
codes = [cli.main(args) for args in json.loads(sys.argv[1])]
print(json.dumps(codes))
"""

COMMANDS = [
    args
    for net in ("rot44", "open_box")
    for v in ("g1p", "g1r")
    for args in (["build", f"{net}.obj", "--variant", v, "-o", f"{net}_{v}_L0.json"],
                 ["refine", f"{net}.obj", "--levels", "1", "--variant", v,
                  "-o", f"{net}_{v}_L1.json"])
]


def python(*args, cwd=None, threads=None) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def archives(directory: Path, threads: int) -> dict:
    directory.mkdir()
    for name in ("rot44", "open_box"):
        (directory / f"{name}.obj").write_text(save_obj(getattr(netgen, name)()))
    codes = json.loads(python("-c", RUN, json.dumps(COMMANDS), cwd=directory, threads=threads))
    assert codes == [0] * len(COMMANDS)
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.json"))}


def test_archives_do_not_depend_on_the_thread_count(tmp_path):
    """At two threads the SVD of rot44's g1p system rounded differently,
    so its L0 archive was not that of one thread."""
    one, two = archives(tmp_path / "one", 1), archives(tmp_path / "two", 2)
    assert len(one) == len(COMMANDS)
    assert one.keys() == two.keys()
    for name in one:
        assert one[name] == two[name], name


def test_the_library_is_looked_up_on_the_first_small_solve():
    found = python("-c", (
        "import numpy as np, gspline.cli, gspline.construct_g1 as g\n"
        "before = g._openblas_threads.cache_info().currsize\n"
        "g.solve_constrained_ls(g.ConstraintSystem(G=np.ones((1, 2)), g=np.ones(1), "
        "F=np.array([[1.0, -1.0]]), f=np.zeros(1), tags=[('edge', 0)]))\n"
        "print(before, g._openblas_threads.cache_info().currsize)"))
    assert found.split() == ["0", "1"]


needs_openblas = pytest.mark.skipif(construct_g1._openblas_threads() is None,
                                    reason="numpy links no OpenBLAS with a thread setter")


def threads() -> int:
    set_threads = construct_g1._openblas_threads()
    n = set_threads(1)
    set_threads(n)
    return n


@pytest.fixture
def two_threads():
    """The process at two BLAS threads, as on a two-core machine."""
    set_threads = construct_g1._openblas_threads()
    before = set_threads(2)
    yield threads()
    set_threads(before)


@needs_openblas
def test_small_systems_run_on_one_thread(two_threads, monkeypatch):
    seen = []
    svd = np.linalg.svd

    def spy(*args, **kwargs):
        seen.append(threads())
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    build_g1(build_c0(netgen.rot44()), "g1p")
    assert seen and set(seen) == {1}
    assert threads() == two_threads


@needs_openblas
def test_the_count_is_restored_after_an_infeasible_solve(two_threads):
    with pytest.raises(InfeasibleConstraintError):
        solve_constrained_ls(ConstraintSystem(
            G=np.array([[1.0, 0.0], [1.0, 0.0]]), g=np.array([0.0, 1.0]),
            F=np.eye(2), f=np.zeros(2), tags=[("edge", 7), ("edge", 9)]))
    assert threads() == two_threads


@needs_openblas
def test_the_count_is_restored_after_builds_in_parallel_threads(two_threads):
    """The count is the process's, so two overlapping solves that each
    saved and restored it left it at one."""
    c0s = [build_c0(netgen.rot44()), build_c0(netgen.open_box())] * 2
    errors = []

    def work(c0):
        try:
            for _ in range(5):
                build_g1(c0, "g1r")
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=work, args=(c0,)) for c0 in c0s]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers) and not errors
    assert threads() == two_threads


@needs_openblas
def test_systems_over_the_bound_keep_their_threads(two_threads):
    with construct_g1._blas_threads(construct_g1.ONE_THREAD_ENTRIES):
        assert threads() == two_threads
    with construct_g1._blas_threads(construct_g1.ONE_THREAD_ENTRIES - 1):
        assert threads() == 1
    assert threads() == two_threads


def test_without_the_library_a_build_is_the_same(monkeypatch):
    c0 = build_c0(netgen.rot44())
    with construct_g1._blas_threads(0):  # both builds on one thread
        expected = surface_to_json(build_g1(c0, "g1p"))
        monkeypatch.setattr(construct_g1, "_openblas_threads", lambda: None)
        assert surface_to_json(build_g1(c0, "g1p")) == expected
