"""``build_g1``'s set-up pass over all its solve sets, and the reuse of
each distinct system's solve.

Every problem a build makes must be bitwise the loop reference
``problem_loop.setup`` of its functions, and a build on bad tables must
raise what the first failing set, in set order, raises alone.  A set
whose system is bitwise that of an earlier set takes that set's rows,
which are bitwise its own standalone solve; sets that differ only in f
or g are solved apart.  Digest collisions change no build."""

import numpy as np
import pytest

from gspline import construct_g1, distinct
from gspline.construct_c0 import build_c0
from gspline.construct_g1 import ConstraintProblem, build_g1, build_tables
from gspline.errors import InternalError
from gspline.mesh import irregular_basis_vertices
from gspline.refine import refine_n

import netgen
import problem_loop

CASES = [("rot44", level) for level in range(4)] + [
    ("val333", 0), ("val333", 1), ("open_box", 0), ("open_box", 1),
    ("cube", 0), ("cube", 1), ("boundary_ep3", 0)]


def bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def c0_of(name, level):
    """The C0 surface of the net ``name`` refined ``level`` times; for
    ``ep_dense`` the number is its k, with no refinement."""
    if name == "ep_dense":
        return build_c0(netgen.ep_dense(level))
    return build_c0(refine_n(getattr(netgen, name)(), level)[0])


def recorded(monkeypatch):
    """The problems each later build makes, in order."""
    made = []
    init = ConstraintProblem.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(ConstraintProblem, "__init__", record)
    return made


def counted_solves(monkeypatch):
    calls = []
    solve = construct_g1.solve_constrained_ls

    def counted(*args, **kwargs):
        calls.append(args[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(construct_g1, "solve_constrained_ls", counted)
    return calls


def same_surface(a, b):
    assert a.diagnostics == b.diagnostics
    for g, h in zip(a.groups, b.groups, strict=True):
        assert bitwise(g.elements, h.elements) and bitwise(g.basis, h.basis)
        assert bitwise(g.coeffs, h.coeffs)


@pytest.mark.parametrize("variant", ["g1p", "g1r"])
@pytest.mark.parametrize("name, level", CASES)
def test_every_set_of_a_build_equals_the_loop(name, level, variant, monkeypatch):
    c0 = c0_of(name, level)
    rings = problem_loop.clusters(c0.cnet)
    made = recorded(monkeypatch)
    build_g1(c0, variant)
    functions = sorted(irregular_basis_vertices(c0.cnet))
    assert sorted(a for p in made for a in p.functions) == functions
    assert [p.functions[0] for p in made] == sorted(p.functions[0] for p in made)
    for problem in made:
        ref = problem_loop.setup(c0, problem.functions, variant, rings)
        assert problem.elements.tolist() == ref.elements
        assert [set(problem.tables.faces[row].tolist()) for row in problem.supports] \
            == ref.supports
        assert problem.n == ref.n
        assert bitwise(problem.slot_nodes, ref.slot_nodes)
        assert bitwise(problem.ctilde, ref.ctilde), problem.functions


def move_shared_corner(c0, variant, skip=0):
    """Move a C0 coefficient at an extraordinary corner that another
    element of the function's solve set shares; ``skip`` passes over the
    first such places.  Returns the function."""
    cnet, rings = c0.cnet, problem_loop.clusters(c0.cnet)
    functions = sorted(irregular_basis_vertices(cnet))
    supports = problem_loop.basis_supports(c0, functions)
    found = (
        (a, f, k) for a in functions for f in sorted(supports[a])
        for k in np.flatnonzero(cnet.extraordinary[cnet.faces[f]])
        if sum(cnet.faces[f][k] in cnet.faces[g] for g in
               problem_loop.solve_elements(rings, supports[a], variant)) > 1)
    for _ in range(skip):
        next(found)
    a, f, corner = next(found)
    ext = c0.extraction(f)
    ext.coeffs[np.flatnonzero(ext.basis == a)[0], [0, 3, 15, 12][corner]] += 1e-3
    return a


@pytest.mark.parametrize("variant", ["g1p", "g1r"])
@pytest.mark.parametrize("name", ["rot44", "val333", "open_box"])
def test_bad_tables_raise_for_the_first_failing_set(name, variant):
    """Two sets made inconsistent: the build raises the loop's error of
    the first of them in set order, before any later set is solved."""
    c0 = c0_of(name, 0)
    moved = {move_shared_corner(c0, variant), move_shared_corner(c0, variant, skip=5)}
    rings = problem_loop.clusters(c0.cnet)
    functions = sorted(irregular_basis_vertices(c0.cnet))
    tables = build_tables(c0, functions, variant)
    sets = {}
    for a, row in zip(functions, tables.solved):
        sets.setdefault(row.tobytes(), []).append(a)
    expected = None
    for group in sets.values():  # in the order of each set's first function
        try:
            problem_loop.setup(c0, group, variant, rings)
        except InternalError as err:
            expected = str(err)
            break
    assert expected is not None and moved
    with pytest.raises(InternalError) as mine:
        build_g1(c0, variant)
    assert str(mine.value) == expected


def test_rot44_l3_solves_each_distinct_system_once(monkeypatch):
    """36 solve sets, 9 distinct systems."""
    c0 = c0_of("rot44", 3)
    made, solves = recorded(monkeypatch), counted_solves(monkeypatch)
    build_g1(c0, "g1r")
    assert len(made) == 36 and len(solves) == 9
    assert len({p.functions[0] for p in solves}) == 9


@pytest.mark.parametrize("name, level", [("rot44", 2), ("rot44", 3), ("val333", 1),
                                         ("ep_dense", 4)])
def test_reused_rows_are_the_standalone_solve(name, level):
    """Each set's rows and diagnostics, solved or reused, are bitwise those
    of the problem of its functions set up and solved alone."""
    c0 = c0_of(name, level)
    surface = build_g1(c0, "g1r")
    diagnostics = {d["basis"]: d for d in surface.diagnostics}
    functions = sorted(diagnostics)
    sets = {}
    for a, row in zip(functions, build_tables(c0, functions, "g1r").solved):
        sets.setdefault(row.tobytes(), []).append(a)
    for group in sets.values():
        problem = ConstraintProblem(c0, group, "g1r")
        for a, (rows, ref) in zip(group, problem.solve()):
            assert diagnostics[a] == ref
            for f, coeffs in zip(problem.elements.tolist(), rows):
                ext = surface.extraction(f)
                assert bitwise(ext.coeffs[np.flatnonzero(ext.basis == a)[0]], coeffs), (a, f)


def twin_sets(c0):
    """Two sets of the rot44 L3 g1r build with one system: the first set
    that repeats an earlier one, and that earlier set."""
    functions = sorted(irregular_basis_vertices(c0.cnet))
    sets = build_tables(c0, functions, "g1r").sets
    number, first = distinct.segments(sets.systems())
    later = int(np.flatnonzero(first[number] != np.arange(number.size))[0])
    return int(first[number[later]]), later


@pytest.mark.parametrize("change", ["f", "g"])
def test_sets_with_equal_G_but_other_f_or_g_are_solved_apart(change, monkeypatch):
    """The target of one free slot (f) or of one pinned unknown (g) of the
    later of two twin sets moved in its set-up: G stays equal, and both
    sets are solved."""
    c0 = c0_of("rot44", 3)
    earlier, later = twin_sets(c0)
    set_up = construct_g1._set_up

    def moved(tables):
        sets, s = set_up(tables), later
        if change == "g":
            sets.pin_rhs[sets.pin_rhs_off[s]] += 0.25
        else:  # slot (2, 2) of its first element: never pinned
            sets.ctilde[sets.ctilde_off[s] + sets.nodes[sets.element_off[s], 14]] += 0.25
        return sets

    monkeypatch.setattr(construct_g1, "_set_up", moved)
    solves = counted_solves(monkeypatch)
    build_g1(c0, "g1r")
    assert len(solves) == 10
    pair = [p for p in solves
            if p.tables.set_of[np.searchsorted(p.tables.functions, p.functions[0])]
            in (earlier, later)]
    assert len(pair) == 2
    assert bitwise(pair[0].G, pair[1].G)
    assert not (bitwise(pair[0].f, pair[1].f) and bitwise(pair[0].g, pair[1].g))


@pytest.mark.parametrize("variant", ["g1p", "g1r"])
@pytest.mark.parametrize("name, level", [("rot44", 1), ("rot44", 3), ("cube", 2), ("ep_dense", 3)])
def test_digest_collisions_change_nothing(name, level, variant, monkeypatch):
    """One digest for every system, so each set is compared bitwise with
    the first set of every distinct system before it: the same surface
    from the same number of solves."""
    c0 = c0_of(name, level)
    solves = counted_solves(monkeypatch)
    whole = build_g1(c0, variant)
    n_solves = len(solves)
    monkeypatch.setattr(distinct, "weights", lambda size: np.zeros(size, dtype=np.uint64))
    solves.clear()
    same_surface(build_g1(c0, variant), whole)
    assert len(solves) == n_solves


@pytest.mark.parametrize("k, variant, n_functions, n_sets, n_solves",
                         [(4, "g1r", 113, 113, 78), (3, "g1p", 67, 1, 1)])
def test_ep_dense_solves(k, variant, n_functions, n_sets, n_solves, monkeypatch):
    """About half the vertices of the EP-dense net are EPs.  At k = 4 the
    g1r sets have 78 distinct systems; at k = 3 g1p's clusters merge into
    one set."""
    c0 = c0_of("ep_dense", k)
    made, solves = recorded(monkeypatch), counted_solves(monkeypatch)
    surface = build_g1(c0, variant)
    assert len(surface.diagnostics) == n_functions
    assert len(made) == n_sets and len(solves) == n_solves
