"""``build_g1``'s shared set-up tables.

A problem that takes its rows of the build's ``build_tables`` must be
bitwise the problem that builds its own tables, and one build computes
each table once.  Basis function ids that are not integers are a
``DomainError``."""

import numpy as np
import pytest

from gspline import construct_g1
from gspline.construct_c0 import build_c0
from gspline.construct_g1 import ConstraintProblem, build_g1, build_tables
from gspline.errors import DomainError
from gspline.mesh import irregular_basis_vertices
from gspline.refine import refine_n

import netgen

NETS = dict(netgen.continuity_suite(), rot44=netgen.rot44(), cube=netgen.cube(),
            cylinder=netgen.cylinder(), structured=netgen.structured(3, 2))


def bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def shared_problems(c0, variant):
    """The problems of one build, as ``build_g1`` makes them from its tables."""
    functions = np.array(sorted(irregular_basis_vertices(c0.cnet)), dtype=np.int64)
    tables = build_tables(c0, functions, variant)
    groups = {}
    for a, row in zip(functions.tolist(), tables.solved):
        groups.setdefault(row.tobytes(), []).append(a)
    return [ConstraintProblem(c0, group, variant, tables) for group in groups.values()]


@pytest.mark.parametrize("variant", ["g1p", "g1r"])
@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("name", sorted(NETS))
def test_shared_tables_give_the_standalone_problem(name, level, variant):
    c0 = build_c0(refine_n(NETS[name], level)[0])
    found = shared_problems(c0, variant)
    assert bool(found) == bool(c0.cnet.extraordinary.any())
    for shared in found:
        alone = ConstraintProblem(c0, shared.functions, variant)
        assert shared.tables is not alone.tables
        assert shared.n == alone.n
        for key in ("elements", "supports", "slot_nodes", "ctilde", "constrained_edges",
                    "frozen_sides", "pinned_sides", "boundary_sides"):
            assert bitwise(getattr(shared, key), getattr(alone, key)), key
        mine, ref = shared.assemble(), alone.assemble()
        for key in ("G", "g", "F", "f"):
            assert bitwise(getattr(mine, key), getattr(ref, key)), (shared.functions, key)
        assert mine.tags == ref.tags


@pytest.mark.parametrize("name, level, variant", [
    ("rot44", 1, "g1r"), ("open_box", 1, "g1r"), ("cube", 2, "g1r"), ("cube", 2, "g1p")])
def test_one_build_makes_each_table_once(name, level, variant, monkeypatch):
    """Each build solves several problems: the nets' g1p builds at L0-L1
    solve one cluster, but the twice refined cube's eight clusters stay
    apart."""
    calls = {}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] = calls.get(fn.__name__, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for fn in ("_c0_rows", "slot_keys", "degree_elevate_2", "glued_sides"):
        monkeypatch.setattr(construct_g1, fn, counted(getattr(construct_g1, fn)))
    problems = []
    init = ConstraintProblem.__init__

    def recorded(self, *args, **kwargs):
        problems.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ConstraintProblem, "__init__", recorded)
    build_g1(build_c0(refine_n(NETS[name], level)[0]), variant)
    assert len(problems) > 1
    assert calls == {"_c0_rows": 1, "slot_keys": 1, "degree_elevate_2": 1, "glued_sides": 1}


@pytest.mark.parametrize("bad", [0.5, True, "0", np.float64(1.0), np.bool_(True),
                                 [0, 1.5], [True]],
                         ids=["half", "True", "str", "float64", "bool_", "mixed", "bools"])
def test_non_integer_ids_are_a_domain_error(bad):
    c0 = build_c0(netgen.rot44())
    with pytest.raises(DomainError, match="must be integers"):
        ConstraintProblem(c0, bad, "g1r")


@pytest.mark.parametrize("a", [np.int64(1), np.int32(1), np.uint8(1)])
def test_numpy_integer_ids_are_accepted(a):
    c0 = build_c0(netgen.rot44())
    mine, ref = ConstraintProblem(c0, a, "g1r"), ConstraintProblem(c0, 1, "g1r")
    assert mine.functions == [1]
    assert bitwise(mine.elements, ref.elements) and bitwise(mine.ctilde, ref.ctilde)
    many = ConstraintProblem(c0, [a], "g1r")
    assert bitwise(many.ctilde, ref.ctilde[:, None])


def test_tables_of_other_functions_or_variant_are_a_domain_error():
    c0 = build_c0(netgen.rot44())
    functions = sorted(irregular_basis_vertices(c0.cnet))
    a, b = functions[0], functions[-1]
    with pytest.raises(DomainError, match="do not hold"):
        ConstraintProblem(c0, b, "g1r", build_tables(c0, [a], "g1r"))
    with pytest.raises(DomainError, match="do not hold"):
        ConstraintProblem(c0, a, "g1p", build_tables(c0, [a], "g1r"))
    with pytest.raises(DomainError, match="do not hold"):
        ConstraintProblem(c0, a, "g1r", build_tables(c0, [], "g1r"))
