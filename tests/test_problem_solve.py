"""``ConstraintProblem.solve`` on the problem's own structure.

The solve of a problem reads its pinned unknowns and its fairing rows as
slot pairs (F c = c[a] - c[b]); it must give bitwise the coefficients and
the diagnostics of the public dense solve of ``assemble()``, and raise the
same error on an infeasible problem.  The per-row tags are made only when
a solve raises."""

import numpy as np
import pytest

from gspline.construct_c0 import build_c0
from gspline.construct_g1 import ConstraintProblem, build_g1, solve_constrained_ls
from gspline.errors import InfeasibleConstraintError
from gspline.refine import refine_n

import netgen

NETS = [(name, net, 0) for name, net in sorted(netgen.continuity_suite().items())]
NETS += [("cube", netgen.cube(), 0)] + [("rot44", netgen.rot44(), level) for level in range(3)]


def build_problems(c0, variant, monkeypatch):
    """Each problem ``build_g1`` solves and what its ``solve`` returned."""
    seen = []
    solve = ConstraintProblem.solve

    def recorded(self):
        out = solve(self)
        seen.append((self, out))
        return out

    monkeypatch.setattr(ConstraintProblem, "solve", recorded)
    build_g1(c0, variant)
    return seen


@pytest.mark.parametrize("variant", ["g1p", "g1r"])
@pytest.mark.parametrize("name, net, level", NETS, ids=[f"{n}-L{k}" for n, _, k in NETS])
def test_problem_solve_is_the_dense_solve(name, net, level, variant, monkeypatch):
    c0 = build_c0(refine_n(net, level)[0])
    problems = build_problems(c0, variant, monkeypatch)
    assert problems
    for problem, out in problems:
        system = problem.assemble()
        # an edge row with one entry would pin in the dense solve
        edge_rows = system.G[[tag[0] == "edge" for tag in system.tags]]
        assert (np.count_nonzero(edge_rows, axis=1) != 1).all()
        c, infos = solve_constrained_ls(system, return_info=True)
        columns = np.moveaxis(c.reshape(problem.n, -1)[problem.slot_nodes], -1, 0)
        assert len(out) == len(infos) == len(problem.functions)
        for (rows, diag), want, info in zip(out, columns, infos):
            assert rows.dtype == want.dtype and rows.shape == want.shape
            assert rows.tobytes() == want.tobytes(), (name, problem.functions)
            assert {k: diag[k] for k in info} == info


def test_no_tags_unless_raising(monkeypatch):
    calls = []
    tags = ConstraintProblem._tags

    def counted(self, keep):
        calls.append(keep.size)
        return tags(self, keep)

    monkeypatch.setattr(ConstraintProblem, "_tags", counted)
    build_g1(build_c0(refine_n(netgen.rot44(), 1)[0]), "g1r")
    assert not calls


def over_pinned_row(problem):
    """(edge row, unknown): an edge row all of whose unknowns are pinned,
    and one of them pinned to its C0 target, not to zero."""
    system = problem.assemble()
    pin_kind = {int(np.flatnonzero(row)[0]): tag[0]
                for row, tag in zip(system.G, system.tags) if tag[0] != "edge"}
    for r, tag in enumerate(system.tags):
        if tag[0] != "edge":
            break
        cols = np.flatnonzero(system.G[r]).tolist()
        targets = [j for j in cols if pin_kind.get(j) in ("pin", "trace")]
        if targets and all(j in pin_kind for j in cols):
            return r, targets[0]
    return None


@pytest.mark.parametrize("variant", ["g1p", "g1r"])
def test_infeasible_problem_raises_the_dense_error(variant, monkeypatch):
    c0 = build_c0(refine_n(netgen.rot44(), 1)[0])
    found = [(p, hit) for p, _ in build_problems(c0, variant, monkeypatch)
             if (hit := over_pinned_row(p)) is not None]
    assert found
    for problem, (row, unknown) in found[:3]:
        # the pin no longer meets the edge row
        problem.g[problem.pin_rows[np.searchsorted(problem.pinned, unknown)]] += 1.0
        with pytest.raises(InfeasibleConstraintError) as fast:
            problem.solve()
        system = problem.assemble()
        with pytest.raises(InfeasibleConstraintError) as dense:
            solve_constrained_ls(system)
        assert str(fast.value) == str(dense.value)
        assert fast.value.edges == dense.value.edges
        assert system.tags[row][1] in fast.value.edges
