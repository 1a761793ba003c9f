"""Analysis passes in bounded memory: ``group_table`` built only to the
derivative order a caller uses, every pass in the element blocks of
``GSplineSurface.select`` at one table budget (``evaluate.BLOCK_ENTRIES``),
K, M and the collocation Gram matrix scattered into one CSR pattern, the
frames CSV on ``group_frames``, the padded class size of
``padded_groups`` bounded, ``build_g1`` without a dense fairing matrix
or a second live constraint problem, builds that fill their groups in
place, and archives written in pieces and read from the open file."""

import base64
import dataclasses
import functools
import json
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from gspline import cli, evaluate, quality
from gspline.archive import surface_from_json, surface_to_json
from gspline.cli import collocation_gram, main, surface_check
from gspline.construct_c0 import build_c0
from gspline.construct_g1 import ConstraintProblem, build_g1
from gspline.errors import DegenerateBasisError, ResourceError, SingularParameterizationError
from gspline.evaluate import (
    frame,
    frames_csv,
    map_groups,
    principal_curvatures,
    rotation_offset_matrix,
)
from gspline.extraction import group_table, rationalize
from gspline.mesh import ControlNet, save_obj
from gspline.refine import refine_n
from gspline.solve import (
    assemble_membrane_eigen,
    assemble_poisson,
    compute_errors,
    mean_element_size,
    solve_poisson,
)

import archive_v2
import coo_assembly
import edge_loop
import element_loop
import extraction_list
import netgen


@functools.cache
def rot44(level, variant):
    c0 = build_c0(refine_n(netgen.rot44(), level)[0])
    return c0 if variant == "c0" else build_g1(c0, variant)


@functools.cache
def quad(level, variant):
    c0 = build_c0(refine_n(netgen.structured(1, 1), level)[0])
    return c0 if variant == "c0" else build_g1(c0, variant)


CASES = [(0, "c0"), (1, "g1p"), (1, "g1r"), (2, "g1r")]


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def tiny_blocks(monkeypatch, entries=1):
    """A budget so small that every block holds one element."""
    monkeypatch.setattr(evaluate, "BLOCK_ENTRIES", entries)


def close(a, b, rel=1e-14):
    """Equal up to rounding: BLAS sums a product of a few rows through
    another kernel than a large one."""
    return a.shape == b.shape and np.abs(a - b).max(initial=0.0) <= rel * np.abs(b).max()


def same_report(a, b, rel=1e-12):
    assert a.keys() == b.keys()
    for key, x in a.items():
        if isinstance(x, float) or (isinstance(x, list) and isinstance(x[0], float)):
            assert np.allclose(x, b[key], rtol=rel, atol=0.0), key
        else:
            assert x == b[key], key


class TestDerivativeOrder:
    @pytest.mark.parametrize("rot", [None, 1, 2])
    @pytest.mark.parametrize("level, variant", CASES)
    def test_lower_orders_are_the_leading_tables(self, level, variant, rot):
        pts = np.random.default_rng(3).uniform(0.0, 1.0, (7, 2))
        axes = None if rot is None else rotation_offset_matrix(rot)[1]
        kinds = set()
        for g in rot44(level, variant).groups:
            kinds.add(g.rational)
            *full, (bad, _) = group_table(g, pts, axes)
            for order in (0, 1, 2):
                *tables, (bad_k, _) = group_table(g, pts, axes, order=order)
                assert len(tables) == order + 1
                assert all(same_bits(a, b) for a, b in zip(tables, full))
                assert same_bits(bad_k, bad)
        assert kinds == ({False, True} if variant == "g1r" else {False})

    def test_rationalize_to_each_order(self):
        rng = np.random.default_rng(7)
        vals = rng.uniform(0.1, 1.0, (9, 5))
        d1, d2 = rng.normal(size=(9, 5, 2)), rng.normal(size=(9, 5, 3))
        full = rationalize(vals, d1, d2)
        for given in ((vals,), (vals, d1)):
            got = rationalize(*given)
            assert len(got) == len(given)
            assert all(same_bits(a, b) for a, b in zip(got, full))


def per_element(surface, points):
    """Every element's (values, first, second derivative) tables at points,
    from ``map_groups``, keyed by element."""
    out = {}

    def visit(sub):
        vals, d1, d2, _ = group_table(sub, points)
        for i, e in enumerate(sub.elements.tolist()):
            out[e] = (vals[i], d1[i], d2[i])
        return len(sub.elements)

    return out, map_groups(surface, visit, len(points))


GRID = np.stack(np.meshgrid(np.linspace(0.0, 1.0, 10), np.linspace(0.0, 1.0, 10)),
                axis=-1).reshape(-1, 2)


class TestBlocks:
    @pytest.mark.parametrize("level, variant", [(3, "c0"), (3, "g1r"), (4, "g1p")])
    def test_blocked_tables_equal_one_call_per_group(self, level, variant):
        """At the default budget, as ``compute_errors`` cuts its 10 x 10 grid:
        the values and first derivatives, the tables of the Galerkin passes,
        are bitwise those of one call over the group.  The 300 columns of
        the second derivatives can differ in the last bits, since BLAS cuts
        a larger product into other row ranges."""
        surf = rot44(level, variant)
        blocked, sizes = per_element(surf, GRID)
        assert len(sizes) > len(surf.groups) + 4 and sum(sizes) == surf.cnet.n_faces
        for g in surf.groups:
            vals, d1, d2, _ = group_table(g, GRID)
            for i, e in enumerate(g.elements.tolist()):
                assert same_bits(blocked[e][0], vals[i]) and same_bits(blocked[e][1], d1[i]), e
                assert close(blocked[e][2], d2[i]), e

    @pytest.mark.parametrize("level, variant", CASES)
    def test_one_element_blocks(self, level, variant, monkeypatch):
        surf = rot44(level, variant)
        pts = quality.gauss_legendre_2d(4).points
        tiny_blocks(monkeypatch)
        blocked, sizes = per_element(surf, pts)
        assert sizes == [1] * surf.cnet.n_faces
        for g in surf.groups:
            whole = group_table(g, pts)[:3]
            for i, e in enumerate(g.elements.tolist()):
                assert all(close(a, b[i]) for a, b in zip(blocked[e], whole)), e

    def test_blocks_are_near_equal(self):
        g = rot44(1, "g1r").groups[0]
        for count in (0, 1, 5, 48, 49, 1000):
            for points in (1, 16, 100, 10**6):
                blocks = g.blocks(points, count)
                sizes = [b.stop - b.start for b in blocks]
                assert sum(sizes) == count and blocks == sorted(blocks, key=lambda b: b.start)
                assert all(size * g.mask.shape[1] * points <= evaluate.BLOCK_ENTRIES
                           for size in sizes if size > 1)
                assert not sizes or max(sizes) - min(sizes) <= 1

    def test_blocks_keep_to_the_budget(self):
        surf = rot44(3, "g1r")
        blocks = map_groups(surf, lambda sub: (sub.elements, sub.mask.shape[1]), 100)
        assert np.array_equal(np.concatenate([e for e, _ in blocks]),
                              np.concatenate([g.elements for g in surf.groups]))
        assert len(blocks) > len(surf.groups)
        assert all(len(e) * n * 100 <= evaluate.BLOCK_ENTRIES for e, n in blocks)

    def test_passes_unchanged_by_the_block_size(self, monkeypatch):
        surf = rot44(2, "g1r")
        system = assemble_poisson(surf, with_mass=True)
        u = solve_poisson(system)
        errs, size = compute_errors(surf, u), mean_element_size(surf)
        frames = quality._quadrature_frames(surf)
        tiny_blocks(monkeypatch)
        small = assemble_poisson(surf, with_mass=True)
        assert close(small.load, system.load)
        for a, b in ((small.K, system.K), (small.M, system.M)):
            assert same_bits(a.indices, b.indices) and same_bits(a.indptr, b.indptr)
            assert close(a.data, b.data)
        small_errs = compute_errors(surf, u)
        assert all(abs(small_errs[k] - errs[k]) <= 1e-15 for k in errs)
        assert abs(mean_element_size(surf) - size) <= 1e-14 * size
        assert all(close(a, b) for a, b in zip(quality._quadrature_frames(surf), frames))

    def test_lowest_failing_element_in_a_later_block(self, monkeypatch):
        """The rational group runs after the cubic one, so its lower failing
        element sits in a later block than the cubic element's."""
        surf = rot44(1, "g1r")
        rational = [e for e, x in enumerate(surf.extractions) if x.rational]
        cubic = [e for e, x in enumerate(surf.extractions) if not x.rational]
        d = rational[2]
        s = min(e for e in cubic if e > d)
        exts = list(surf.extractions)
        exts[s] = dataclasses.replace(exts[s], coeffs=0.0 * exts[s].coeffs)
        exts[d] = dataclasses.replace(exts[d], coeffs=-exts[d].coeffs)
        bad = extraction_list.surface(surf.net, exts, surf.variant)
        tiny_blocks(monkeypatch)
        u = np.zeros(surf.cnet.n_vertices)
        for fn, args in ((assemble_poisson, ()), (compute_errors, (u,)),
                         (mean_element_size, ()), (quality._quadrature_frames, ())):
            with pytest.raises(DegenerateBasisError) as info:
                fn(bad, *args)
            assert info.value.element == d, fn


class TestSelect:
    @pytest.mark.parametrize("points", [None, 100])
    def test_unsorted_faces_with_repeats(self, points):
        surf = rot44(3, "g1r")
        faces = np.random.default_rng(5).integers(0, surf.cnet.n_faces, 3 * surf.cnet.n_faces)
        walked = list(surf.select(faces, points))
        assert len(walked) > len(surf.groups)
        for g in surf.groups:
            ats = [at for at, sub in walked if (sub.degree, sub.rational) == (g.degree, g.rational)]
            at = np.concatenate(ats)
            assert (np.lexsort((at, faces[at])) == np.arange(at.size)).all()
            assert np.isin(faces[at], g.elements).all()
        for at, sub in walked:
            assert same_bits(sub.elements, faces[at])
            assert len(at) == 1 or len(at) * sub.mask.shape[1] * (
                points or (sub.degree + 1) ** 2) <= evaluate.BLOCK_ENTRIES
            for i, e in enumerate(sub.elements.tolist()):
                ext = surf.extraction(e)
                assert same_bits(sub.basis[i, :ext.n_basis], ext.basis)
                assert same_bits(sub.coeffs[i, :ext.n_basis], ext.coeffs)
        assert same_bits(np.sort(np.concatenate([at for at, _ in walked])),
                         np.arange(faces.size))

    def test_no_faces(self):
        assert list(rot44(1, "g1r").select(np.array([], dtype=int))) == []

    def test_every_element_as_views(self):
        surf = rot44(3, "g1r")
        walked = list(surf.select(points=100))
        for g in surf.groups:
            subs = [(at, sub) for at, sub in walked if sub.degree == g.degree
                    and sub.rational == g.rational]
            assert same_bits(np.concatenate([at for at, _ in subs]), g.elements)
            for at, sub in subs:
                assert same_bits(at, sub.elements)
                assert all(np.shares_memory(getattr(sub, k), getattr(g, k))
                           for k in ("elements", "basis", "mask", "coeffs"))


@functools.cache
def archived_check(level, variant):
    surface = surface_from_json(surface_to_json(rot44(level, variant)))
    return surface, surface_check(surface)


class TestEdgeBlocks:
    @pytest.mark.parametrize("variant", ["c0", "g1p", "g1r"])
    def test_check_report_unchanged_by_the_block_size(self, variant, monkeypatch):
        surface, report = archived_check(1, variant)
        tiny_blocks(monkeypatch, 16 * 31 * 2)
        same_report(surface_check(surface), report)

    @pytest.mark.parametrize("pair", [(0, 1), (1, 4), (3, 5), (0, 7)])
    def test_lowest_failing_element_in_a_later_block(self, pair, monkeypatch):
        surface, _ = archived_check(1, "g1r")
        exts = list(surface.extractions)
        rational = [i for i, x in enumerate(exts) if x.rational]
        lo, hi = (rational[i] for i in pair)
        for e in (lo, hi):
            exts[e] = dataclasses.replace(exts[e], coeffs=-exts[e].coeffs)
        bad = extraction_list.surface(surface.net, exts, "g1r")
        with pytest.raises(DegenerateBasisError) as whole:
            surface_check(bad)
        tiny_blocks(monkeypatch)
        with pytest.raises(DegenerateBasisError) as blocked:
            surface_check(bad)
        assert whole.value.element == blocked.value.element == lo


class TestSharedPattern:
    @pytest.mark.parametrize("level, variant", CASES)
    def test_pattern_and_entries_match_the_coo_assembly(self, level, variant):
        surf = rot44(level, variant)
        system = assemble_poisson(surf, with_mass=True)
        K, M, load = coo_assembly.assemble(surf)
        for ours, ref in ((system.K, K), (system.M, M)):
            assert ref.has_canonical_format
            assert same_bits(ours.indptr, ref.indptr)
            assert same_bits(ours.indices, ref.indices)
            assert np.abs(ours.data - ref.data).max() <= 1e-15 * np.abs(ref.data).max()
        assert same_bits(system.load, load)
        assert np.shares_memory(system.K.indices, system.M.indices)
        assert np.shares_memory(system.K.indptr, system.M.indptr)
        # the collocation Gram matrix of ``check``, against A^T A of the
        # dense collocation rows built element by element
        gram = collocation_gram(surf)
        assert same_bits(gram.indptr, K.indptr)
        assert same_bits(gram.indices, K.indices)
        A = edge_loop.collocation_matrix(surf)
        ref = A.T @ A
        assert np.abs(gram.toarray() - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_without_mass(self):
        surf = rot44(1, "g1r")
        system = assemble_poisson(surf)
        K, _, load = coo_assembly.assemble(surf, with_mass=False)
        assert system.M is None
        assert same_bits(system.K.indices, K.indices) and same_bits(system.load, load)

    def test_membrane_assembly_memory(self):
        """rot44 L4 g1r: 82.7 MB with the whole-surface triplets, about 30 MB
        in blocks."""
        surface = rot44(4, "g1r")
        surface.group_slots  # noqa: B018 - computed before measuring
        tracemalloc.start()
        try:
            system = assemble_membrane_eigen(surface)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 45e6
        assert system.K.nnz == system.M.nnz > 0


class TestG1BuildMemory:
    @pytest.mark.parametrize("variant", ["g1p", "g1r"])
    def test_no_dense_fairing_matrix(self, variant):
        """rot44 L1: with a dense F per solve the build peaked at 3.8 (g1p)
        and 3.2 (g1r) times the bytes of its largest system's F, 60 E x n
        doubles; the fairing pairs take it to 1.8 and 1.3 times."""
        c0 = rot44(1, "c0")
        build_g1(c0, variant)  # the surface's lazy tables, before measuring
        tracemalloc.start()
        try:
            surface = build_g1(c0, variant)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dense_f = max(60 * d["support_after"] * d["n_unknowns"] * 8
                      for d in surface.diagnostics)
        assert peak < 2.5 * dense_f

    @pytest.mark.parametrize("variant", ["g1p", "g1r"])
    def test_one_problem_alive_at_a_time(self, variant, monkeypatch):
        """A problem holds its dense G, so ``build_g1`` keeps none alive
        while it builds the next.  rot44 L2 has 9 g1p and 27 g1r problems
        (L1 has one g1p problem)."""
        alive, alive_at_start = weakref.WeakSet(), []
        init = ConstraintProblem.__init__

        def tracked(self, *args, **kwargs):
            alive_at_start.append(len(alive))
            init(self, *args, **kwargs)
            alive.add(self)

        monkeypatch.setattr(ConstraintProblem, "__init__", tracked)
        build_g1(rot44(2, "c0"), variant)
        assert len(alive_at_start) > 1
        assert not any(alive_at_start)


def parsed(text):
    lines = text.splitlines()
    return lines[0], np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


class TestFramesCsv:
    @pytest.mark.parametrize("surface", [
        pytest.param(lambda: rot44(0, "c0"), id="rot44_c0"),
        pytest.param(lambda: rot44(0, "g1p"), id="rot44_g1p"),
        pytest.param(lambda: rot44(0, "g1r"), id="rot44_g1r"),
        pytest.param(lambda: quad(2, "g1r"), id="quad_L2_g1r"),
        pytest.param(lambda: build_c0(netgen.cylinder(n_theta=8, n_z=2)), id="cylinder_c0"),
    ])
    def test_equals_the_point_loop(self, surface):
        """Same rows and points; the values agree to the last of the 12
        printed digits (the zeros of a flat normal may change sign)."""
        surf = surface()
        head, ours = parsed(frames_csv(surf, 5))
        ref_head, ref = parsed(element_loop.frames_csv(surf, 5))
        assert head == ref_head and ours.shape == ref.shape
        assert np.array_equal(ours[:, :3], ref[:, :3])
        np.testing.assert_allclose(ours[:, 3:], ref[:, 3:], rtol=1e-11, atol=1e-12)

    def test_no_negative_zero(self):
        """Planar points have zero normal components whose sign depends on
        the summation path; no field is written as -0."""
        text = frames_csv(rot44(0, "c0"), 8)
        lines = text.splitlines()[1:]
        assert len(lines) == 16 * 81
        assert not any(field.startswith("-0") and float(field) == 0.0
                       for line in lines for field in line.split(","))

    def test_flat_points_are_skipped(self):
        net = netgen.structured(1, 1)
        pos = np.array(net.positions)
        pos[1] = pos[0]  # one side of the element collapses to a point
        surf = build_c0(ControlNet(net.cnet, pos))
        with pytest.raises(SingularParameterizationError):
            frame(surf, 0, 0.5, 0.0)
        head, rows = parsed(frames_csv(surf, 4))
        ref_head, ref = parsed(element_loop.frames_csv(surf, 4))
        assert 0 < len(rows) < 25 and np.array_equal(rows[:, :3], ref[:, :3])
        np.testing.assert_allclose(rows[:, 3:], ref[:, 3:], rtol=1e-11, atol=1e-12)

    def test_lowest_degenerate_element_raises(self, monkeypatch):
        surf = rot44(1, "g1r")
        exts = list(surf.extractions)
        rational = [e for e, x in enumerate(exts) if x.rational]
        for e in (rational[5], rational[1]):
            exts[e] = dataclasses.replace(exts[e], coeffs=-exts[e].coeffs)
        bad = extraction_list.surface(surf.net, exts, "g1r")
        tiny_blocks(monkeypatch)
        for fn in (frames_csv, element_loop.frames_csv):
            with pytest.raises(DegenerateBasisError) as info:
                fn(bad, 2)
            assert info.value.element == rational[1]

    def test_batched_principal_curvatures_are_the_pointwise_ones(self):
        surf = build_c0(netgen.bumped(netgen.cylinder(n_theta=6, n_z=2)))
        xi, eta = np.meshgrid(np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 5))
        for e in range(surf.cnet.n_faces):
            fr = frame(surf, e, xi, eta)
            k1, k2 = principal_curvatures(fr)
            for j in range(xi.size):
                at = (fr.metric.reshape(-1, 2, 2)[j], fr.curvature.reshape(-1, 2, 2)[j])
                ref = element_loop.principal_curvatures(SimpleNamespace(
                    metric=at[0], curvature=at[1]))
                assert (k1.flat[j], k2.flat[j]) == ref


def widened(level=3):
    """rot44 L3 c0 format-2 archive text with element 0 widened to every
    vertex id, zero rows but for its own."""
    payload = json.loads(archive_v2.surface_to_json(rot44(level, "c0")))
    record = payload["elements"][0]
    n = len(payload["net"]["positions"])
    rows = np.zeros((n, 16))
    own = np.frombuffer(base64.b64decode(record["coeffs"]), dtype="<f8").reshape(-1, 16)
    rows[record["basis"]] = own
    record["basis"] = list(range(n))
    record["coeffs"] = base64.b64encode(rows.astype("<f8").tobytes()).decode("ascii")
    return json.dumps(payload)


class TestPaddingBound:
    def test_widened_element_is_a_resource_error(self, tmp_path):
        text = widened()
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match="element 0 with 1089 basis functions"):
                surface_from_json(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6  # the padded class alone would be 143 MB
        path = tmp_path / "wide.json"
        path.write_text(text)
        assert main(["check", str(path), "-o", str(tmp_path / "out.json")]) == 5

    def test_widened_small_surface_still_loads(self):
        """Below the 64 MB floor a wide element is only padding."""
        surface = surface_from_json(widened(level=1))
        assert surface.groups[0].mask.shape[1] == surface.cnet.n_vertices

    def test_ratio_and_floor(self, monkeypatch):
        surf = rot44(1, "g1r")
        args = dict(degree=[x.degree for x in surf.extractions],
                    rational=[x.rational for x in surf.extractions],
                    counts=[x.n_basis for x in surf.extractions],
                    basis=np.concatenate([x.basis for x in surf.extractions]),
                    coeffs={p: np.concatenate([x.coeffs for x in surf.extractions
                                               if x.degree == p]) for p in (3, 5)})
        monkeypatch.setattr(evaluate, "PADDING_FLOOR", 0)
        evaluate.GSplineSurface.from_rows(surf.net, "g1r", **args)  # within 8 times
        monkeypatch.setattr(evaluate, "MAX_PADDING", 1)
        with pytest.raises(ResourceError):
            evaluate.GSplineSurface.from_rows(surf.net, "g1r", **args)


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def group_bytes(surface, fields=("elements", "basis", "mask", "coeffs")):
    return sum(getattr(g, f).nbytes for g in surface.groups for f in fields)


class TestArchiveAndBuildMemory:
    """rot44 L3 g1r (1024 elements, a 3.0 MB archive).  Before the streamed
    writer, the file reader and the in-place builds: the CLI write peaked
    at 12.5 MB above the surface, the read at 11.2 MB above the text (14.1
    MB through the CLI) and build_c0 and build_g1 at 3.1 and 3.3 times
    their result."""

    @functools.cached_property
    def net(self):
        return refine_n(netgen.rot44(), 3)[0]

    def test_cli_write_holds_a_few_pieces(self, tmp_path, monkeypatch):
        """About three pieces of 0.7 MB at once, whatever the archive's size."""
        surface = rot44(3, "g1r")
        obj, out = tmp_path / "net.obj", tmp_path / "a.json"
        obj.write_text(save_obj(surface.net))
        monkeypatch.setattr(cli, "build_variant", lambda net, variant: surface)
        code, peak = traced_peak(main, ["build", str(obj), "--variant", "g1r", "-o", str(out)])
        assert code == 0
        # its 111 shared blocks make the text 0.56 MB; the test below writes
        # 3.1 MB of distinct blocks under the same bound
        assert peak < 2.5e6

    def test_cli_write_of_distinct_blocks_holds_a_few_pieces(self, tmp_path, monkeypatch):
        """The same bound when no two elements share a block: the writer
        numbers the blocks by digest and compares rows in place, so it
        keeps no copy of the coefficients."""
        surface = rot44(3, "g1r")
        scale = [1 + 2.0**-40 * (1 + g.elements[:, None, None]) for g in surface.groups]
        surface = dataclasses.replace(surface, groups=[
            dataclasses.replace(g, coeffs=g.coeffs * s) for g, s in zip(surface.groups, scale)])
        obj, out = tmp_path / "net.obj", tmp_path / "a.json"
        obj.write_text(save_obj(surface.net))
        monkeypatch.setattr(cli, "build_variant", lambda net, variant: surface)
        code, peak = traced_peak(main, ["build", str(obj), "--variant", "g1r", "-o", str(out)])
        assert code == 0
        text = out.read_text()
        assert len(json.loads(text)["blocks"]) == surface.cnet.n_faces
        assert peak < 2.5e6 < len(text)

    def test_read_holds_the_payload_and_one_coefficient_copy(self, tmp_path):
        """The parsed payload, the groups filled in place and their index
        tables; through the CLI the text is freed before conversion."""
        text = surface_to_json(rot44(3, "g1r"))
        payload = traced_peak(json.loads, text)[1]
        surface, peak = traced_peak(surface_from_json, text)
        bound = payload + 1.5 * group_bytes(surface, ["coeffs"])
        assert peak < bound
        path = tmp_path / "a.json"
        path.write_text(text + "\n")
        assert traced_peak(cli._load_surface, str(path))[1] < bound

    def test_build_c0_below_twice_its_result(self):
        build_c0(self.net)  # the net's lazy tables, before measuring
        surface, peak = traced_peak(build_c0, self.net)
        assert peak < 2 * group_bytes(surface)

    def test_build_g1_below_twice_its_result(self):
        c0 = build_c0(self.net)
        build_g1(c0, "g1r")  # the surface's lazy tables, before measuring
        surface, peak = traced_peak(build_g1, c0, "g1r")
        assert peak < 2 * group_bytes(surface)
