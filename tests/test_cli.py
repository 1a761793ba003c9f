import base64
import functools
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gspline import cli, errors, quality, solve
from gspline.archive import surface_from_json, surface_to_json
from gspline.cli import main, surface_check
from gspline.construct_c0 import build_c0
from gspline.construct_g1 import build_g1
from gspline.errors import FormatError, GSplineError
from gspline.evaluate import map_point
from gspline.extraction import bezier_points
from gspline.mesh import ControlNet, load_obj, save_obj
from gspline.refine import refine

import archive_v1
import archive_v2
import extraction_list
import netgen


SINGLE_QUAD_OBJ = """v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
f 1 2 3 4
"""

TRIANGLE_OBJ = """v 0 0 0
v 1 0 0
v 0 1 0
f 1 2 3
"""


@pytest.fixture
def quad_obj(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text(SINGLE_QUAD_OBJ)
    return path


@pytest.fixture
def ep_obj(tmp_path):
    path = tmp_path / "ep.obj"
    path.write_text(save_obj(netgen.val33()))
    return path


class TestBuild:
    def test_single_quad(self, quad_obj, tmp_path):
        out = tmp_path / "quad.json"
        assert main(["build", str(quad_obj), "--variant", "c0",
                     "-o", str(out)]) == 0
        surface = surface_from_json(out.read_text())
        assert surface.cnet.n_faces == 1
        assert surface.variant == "c0"

    def test_ep_net_with_diagnostics(self, ep_obj, tmp_path):
        out = tmp_path / "ep.json"
        assert main(["build", str(ep_obj), "--variant", "g1p",
                     "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["diagnostics"]
        assert {d["basis"] for d in payload["diagnostics"]}

    def test_triangle_exit_2(self, tmp_path, capsys):
        path = tmp_path / "tri.obj"
        path.write_text(TRIANGLE_OBJ)
        code = main(["build", str(path), "--variant", "c0", "-o",
                     str(tmp_path / "out.json")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FormatError"

    def test_nonmanifold_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.obj"
        path.write_text(
            "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nv 2 0 0\nv 2 1 0\n"
            "f 1 2 3 4\nf 2 3 6 5\n")  # same-direction shared edge
        code = main(["build", str(path), "--variant", "c0", "-o",
                     str(tmp_path / "out.json")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "TopologyError"

    def test_archive_roundtrip_evaluation(self, ep_obj, tmp_path):
        out = tmp_path / "ep.json"
        main(["build", str(ep_obj), "--variant", "g1r", "-o", str(out)])
        surface = surface_from_json(out.read_text())
        reference = build_g1(build_c0(netgen.val33()), "g1r")
        rng = np.random.default_rng(50)
        for f in range(surface.cnet.n_faces):
            xi, eta = rng.uniform(0, 1, 2)
            np.testing.assert_allclose(
                map_point(surface, f, xi, eta),
                map_point(reference, f, xi, eta), atol=1e-12)

    def test_deterministic_output(self, ep_obj, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["build", str(ep_obj), "--variant", "g1p", "-o", str(a)])
        main(["build", str(ep_obj), "--variant", "g1p", "-o", str(b)])
        assert a.read_text() == b.read_text()

    def test_auxiliary_exports(self, ep_obj, tmp_path):
        out = tmp_path / "s.json"
        bez = tmp_path / "bezier.json"
        obj = tmp_path / "sampled.obj"
        csv = tmp_path / "frames.csv"
        assert main(["build", str(ep_obj), "--variant", "g1p", "-o", str(out),
                     "--bezier", str(bez), "--sample-obj", str(obj),
                     "--frames-csv", str(csv), "--resolution", "3"]) == 0
        records = json.loads(bez.read_text())
        assert len(records) == 4
        assert {r["degree"] for r in records} == {5}  # all faces irregular
        assert len(records[0]["points"]) == 36
        assert obj.read_text().startswith("v ")
        assert csv.read_text().startswith("element,")

    def test_bezier_records_of_two_groups_in_element_order(self, tmp_path):
        # rot44 g1r: polynomial cubics and rational quintics, whose group
        # elements interleave in element order
        obj = tmp_path / "rot44.obj"
        obj.write_text(save_obj(netgen.rot44()))
        out, bez = tmp_path / "s.json", tmp_path / "bezier.json"
        assert main(["build", str(obj), "--variant", "g1r", "-o", str(out),
                     "--bezier", str(bez)]) == 0
        surface = surface_from_json(out.read_text())
        assert {(g.degree, g.rational) for g in surface.groups} == {(3, False), (5, True)}
        records = json.loads(bez.read_text())
        assert [r["element"] for r in records] == list(range(surface.cnet.n_faces))
        for e, r in enumerate(records):
            ext = surface.extraction(e)
            assert r["degree"] == ext.degree
            points = bezier_points(ext, surface.net.positions)
            assert np.array(r["points"]).tobytes() == points.tobytes()

    def test_frames_csv_zero_resolution_exit_2(self, quad_obj, tmp_path,
                                               capsys):
        code = main(["build", str(quad_obj), "--variant", "c0",
                     "-o", str(tmp_path / "q.json"),
                     "--frames-csv", str(tmp_path / "f.csv"),
                     "--resolution", "0"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "DomainError"

    @pytest.mark.parametrize("export", ["--sample-obj", "--frames-csv"])
    def test_sampling_beyond_budget_exit_5(self, tmp_path, capsys, export):
        obj = tmp_path / "rot44.obj"
        obj.write_text(save_obj(netgen.rot44()))
        out = tmp_path / "s.out"
        code = main(["build", str(obj), "--variant", "c0", "-o", str(tmp_path / "s.json"),
                     export, str(out), "--resolution", "100000"])
        assert code == 5
        assert json.loads(capsys.readouterr().err)["error"] == "ResourceError"
        assert not out.exists()

    def test_obj_not_utf8_exit_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.obj"
        path.write_bytes(SINGLE_QUAD_OBJ.encode() + "# caf\xe9\n".encode("latin-1"))
        code = main(["build", str(path), "--variant", "c0", "-o",
                     str(tmp_path / "out.json")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "FormatError"

    def test_obj_face_index_beyond_int64_exit_2(self, tmp_path, capsys):
        path = tmp_path / "huge.obj"
        path.write_text(SINGLE_QUAD_OBJ.replace(
            "f 1 2 3 4", "f 1 2 3 99999999999999999999999"))
        code = main(["build", str(path), "--variant", "c0", "-o",
                     str(tmp_path / "out.json")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "FormatError"


class TestArguments:
    @pytest.mark.parametrize("argv", [
        ["eigen", "a.json", "-k", "abc"],
        ["build", "x.obj"],
        [],
        ["nonsense"],
    ])
    def test_malformed_argument_exit_2_with_one_json_line(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and captured.out == ""
        assert json.loads(lines[0])["error"] == "FormatError"

    @pytest.mark.parametrize("flag", ["--version", "-h"])
    def test_version_and_help_exit_0(self, flag, capsys):
        with pytest.raises(SystemExit) as info:
            main([flag])
        assert info.value.code == 0
        assert capsys.readouterr().out

    def test_missing_input_exit_2(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "missing.json")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "OSError"

    def test_report_goes_to_stdout_without_output(self, quad_obj, tmp_path, capsys):
        arc = tmp_path / "q.json"
        assert main(["build", str(quad_obj), "--variant", "c0", "-o", str(arc)]) == 0
        capsys.readouterr()
        assert main(["check", str(arc)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["variant"] == "c0"


class TestRefine:
    def test_obj_to_obj(self, ep_obj, tmp_path, capsys):
        out = tmp_path / "refined.obj"
        assert main(["refine", str(ep_obj), "--levels", "2",
                     "-o", str(out)]) == 0
        stats = json.loads(capsys.readouterr().err)["levels"]
        assert [s["n_faces"] for s in stats] == [16, 64]
        assert all(s["n_extraordinary"] == 2 for s in stats)

    def test_archive_to_archive(self, ep_obj, tmp_path):
        arc = tmp_path / "a.json"
        main(["build", str(ep_obj), "--variant", "g1p", "-o", str(arc)])
        out = tmp_path / "refined.json"
        assert main(["refine", str(arc), "--levels", "1", "-o", str(out)]) == 0
        refined = surface_from_json(out.read_text())
        assert refined.variant == "g1p"
        assert refined.cnet.n_faces == 16

    @pytest.mark.parametrize("argv", [["refine", "grid.obj", "--levels", "8", "-o", "x.obj"],
                                      ["refine", "grid.obj", "--levels", "8", "-o", "x.json"],
                                      ["poisson", "grid.obj", "--levels", "6", "-o", "x.json"]])
    def test_too_many_faces_exit_5(self, argv, tmp_path, capsys, monkeypatch):
        """16 faces refined 8 times would be 2^20 faces, and the last level
        of a 6-level study of 272 faces 278528: one ResourceError line."""
        grid = netgen.structured(4, 4) if argv[0] == "refine" else netgen.structured(17, 16)
        (tmp_path / "grid.obj").write_text(save_obj(grid))
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 5
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "ResourceError"
        assert not (tmp_path / argv[-1]).exists()

    def test_too_many_levels_exit_5(self, ep_obj, tmp_path, capsys):
        code = main(["refine", str(ep_obj), "--levels", "9",
                     "-o", str(tmp_path / "x.obj")])
        assert code == 5
        assert json.loads(capsys.readouterr().err)["error"] == "ResourceError"


class TestQuality:
    def test_flat_net_inf(self, quad_obj, tmp_path):
        arc = tmp_path / "a.json"
        main(["build", str(quad_obj), "--variant", "c0", "-o", str(arc)])
        out = tmp_path / "q.json"
        csv = tmp_path / "q.csv"
        assert main(["quality", str(arc), "-o", str(out),
                     "--csv", str(csv)]) == 0
        payload = json.loads(out.read_text())
        assert payload["min_invalid_thickness"] is None
        assert csv.read_text().startswith("c0,inf")

    def test_bad_bracket_exit_2(self, tmp_path, capsys):
        net = netgen.cylinder(n_theta=12, n_z=2, radius=0.01, height=0.05)
        arc = tmp_path / "cyl.json"
        arc.write_text(surface_to_json(build_c0(net)))
        code = main(["quality", str(arc), "--t-lo", "5.0"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "DomainError"

    @pytest.mark.parametrize("bracket", [["--t-hi", "nan"],
                                         ["--t-hi", "inf"],
                                         ["--t-lo", "0.5", "--t-hi", "0.5"],
                                         ["--t-lo", "0.5", "--t-hi", "0.1"],
                                         ["--t-lo", "0"],
                                         ["--t-lo", "-1"]])
    def test_bad_t_hi_exit_2(self, quad_obj, tmp_path, capsys, bracket):
        arc = tmp_path / "a.json"
        main(["build", str(quad_obj), "--variant", "c0", "-o", str(arc)])
        out = tmp_path / "q.json"
        capsys.readouterr()
        assert main(["quality", str(arc), "-o", str(out), *bracket]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DomainError"
        assert "element" not in err["message"]  # the bracket is at fault, no element
        assert not out.exists()


class TestPoissonAndEigen:
    def test_poisson_reports(self, tmp_path):
        obj = tmp_path / "grid.obj"
        obj.write_text(save_obj(netgen.structured(3, 3)))
        out = tmp_path / "conv.json"
        csv = tmp_path / "conv.csv"
        dat = tmp_path / "conv.dat"
        assert main(["poisson", str(obj), "--levels", "2", "--variant", "c0",
                     "-o", str(out), "--csv", str(csv), "--dat", str(dat)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["levels"]) == 2
        assert payload["levels"][1]["l2"] < payload["levels"][0]["l2"]
        assert csv.read_text().startswith("level,")
        assert dat.read_text().startswith("# h")

    def test_poisson_from_archive_uses_variant(self, tmp_path):
        obj = tmp_path / "net.obj"
        obj.write_text(save_obj(netgen.rot44()))
        arc = tmp_path / "net.json"
        main(["build", str(obj), "--variant", "g1p", "-o", str(arc)])
        out = tmp_path / "conv.json"
        assert main(["poisson", str(arc), "--levels", "1",
                     "-o", str(out)]) == 0
        assert json.loads(out.read_text())["variant"] == "g1p"

    def test_eigen_report(self, tmp_path):
        obj = tmp_path / "grid.obj"
        obj.write_text(save_obj(netgen.structured(6, 6)))
        arc = tmp_path / "grid.json"
        main(["build", str(obj), "--variant", "c0", "-o", str(arc)])
        out = tmp_path / "eig.json"
        assert main(["eigen", str(arc), "-k", "3", "--mass", "consistent",
                     "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["eigenvalues"]) == 3
        assert payload["eigenvalues"][0] == pytest.approx(
            2 * np.pi**2, rel=0.05)

    def test_eigen_lumped(self, tmp_path):
        obj = tmp_path / "grid.obj"
        obj.write_text(save_obj(netgen.structured(6, 6)))
        arc = tmp_path / "grid.json"
        main(["build", str(obj), "--variant", "c0", "-o", str(arc)])
        out = tmp_path / "eig.json"
        assert main(["eigen", str(arc), "-k", "2", "--mass", "lumped",
                     "-o", str(out)]) == 0
        assert json.loads(out.read_text())["mass"] == "lumped"

    def test_negative_lumped_row_exit_5(self, tmp_path, capsys):
        arc = tmp_path / "broken.json"
        arc.write_text(surface_to_json(extraction_list.lumping_breaker()))
        out = tmp_path / "eig.json"
        assert main(["eigen", str(arc), "--mass", "lumped", "-o", str(out)]) == 5
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "LumpingError"
        assert not out.exists()


class TestCheck:
    @pytest.mark.parametrize("variant", ["g1p", "g1r"])
    def test_check_report(self, ep_obj, tmp_path, variant):
        arc = tmp_path / "a.json"
        main(["build", str(ep_obj), "--variant", variant, "-o", str(arc)])
        out = tmp_path / "check.json"
        assert main(["check", str(arc), "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["watertightness"] < 1e-9
        assert payload["g1_residual_spoke_edges"] < 1e-8
        assert payload["c1_residual_irregular_transition"] < 1e-9
        assert payload["collocation_sv_ratio"] > 1e-8
        if variant == "g1p":
            assert payload["partition_of_unity_defect"] < 1e-10

    @pytest.mark.parametrize("make, fairing", [(netgen.val33, "cholesky"),
                                               (netgen.cube, "lstsq")])
    def test_check_reports_the_fairing_solve(self, tmp_path, make, fairing):
        obj, arc = tmp_path / "net.obj", tmp_path / "a.json"
        obj.write_text(save_obj(make()))
        assert main(["build", str(obj), "--variant", "g1p",
                     "-o", str(arc)]) == 0
        out = tmp_path / "check.json"
        assert main(["check", str(arc), "-o", str(out)]) == 0
        construction = json.loads(out.read_text())["construction"]
        assert construction
        assert {d["fairing"] for d in construction} == {fairing}

    def test_archive_without_fairing_key_loads_and_checks(self, ep_obj,
                                                          tmp_path):
        arc = tmp_path / "a.json"
        main(["build", str(ep_obj), "--variant", "g1r", "-o", str(arc)])
        payload = json.loads(arc.read_text())
        for d in payload["diagnostics"]:
            del d["fairing"]
        arc.write_text(json.dumps(payload))
        loaded = surface_from_json(arc.read_text())
        assert loaded.diagnostics == payload["diagnostics"]
        out = tmp_path / "check.json"
        assert main(["check", str(arc), "-o", str(out)]) == 0
        construction = json.loads(out.read_text())["construction"]
        assert construction and all("fairing" not in d for d in construction)

    def test_surface_check_c0(self):
        surface = build_c0(netgen.rot44())
        report = surface_check(surface)
        assert report["partition_of_unity_defect"] < 1e-10
        assert report["c2_residual_smooth_edges"] < 1e-9

    def test_overflowing_report_exit_5(self, tmp_path, capsys):
        # a finite control point so large that the watertightness norm overflows
        payload = json.loads(surface_to_json(build_c0(netgen.val33())))
        payload["net"]["positions"][0][0] = 1e308
        arc, out = tmp_path / "a.json", tmp_path / "check.json"
        arc.write_text(json.dumps(payload))
        assert main(["check", str(arc), "-o", str(out)]) == 5
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "NonFiniteError",
                       "message": "check report value 'watertightness' is not finite"}
        assert not out.exists()

    @pytest.mark.parametrize("command, make, coordinate", [
        ("quality", netgen.val33, 2),
        ("eigen", lambda: refine(netgen.rot44()), 0),
    ])
    def test_overflowing_point_exit_5_without_warning(self, tmp_path, capsys,
                                                      command, make, coordinate):
        payload = json.loads(surface_to_json(build_c0(make())))
        payload["net"]["positions"][0][coordinate] = 1e308
        arc = tmp_path / "a.json"
        arc.write_text(json.dumps(payload))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, str(arc)]) == 5
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "SingularParameterizationError"


class TestBadArchives:
    def test_not_json_exit_2(self, tmp_path, capsys):
        arc = tmp_path / "text.json"
        arc.write_text("not an archive")
        assert main(["check", str(arc)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FormatError" and "not valid JSON" in err["message"]

    def test_json_list_exit_2(self, tmp_path, capsys):
        arc = tmp_path / "list.json"
        arc.write_text("[]")
        assert main(["check", str(arc)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "FormatError"

    def test_basis_id_out_of_range_exit_2(self, ep_obj, tmp_path, capsys):
        arc = tmp_path / "a.json"
        main(["build", str(ep_obj), "--variant", "g1p", "-o", str(arc)])
        payload = json.loads(arc.read_text())
        n_vertices = len(payload["net"]["positions"])
        payload["elements"][0]["basis"][0] = n_vertices
        arc.write_text(json.dumps(payload))
        assert main(["eigen", str(arc)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "FormatError"

    def test_nonpositive_rational_denominator_exit_4(self, ep_obj, tmp_path,
                                                     capsys):
        def negate(payload):
            record = next(r for r in payload["elements"] if r["rational"])
            record["coeffs"] = [[-c for c in row] for row in record["coeffs"]]

        arc = self._mutated_archive(ep_obj, tmp_path, negate, version=1)
        assert main(["eigen", str(arc)]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DegenerateBasisError"

    def test_nonpositive_rational_denominator_in_a_block_exit_4(self, ep_obj,
                                                                tmp_path, capsys):
        def negate(payload):
            record = next(r for r in payload["elements"] if r["rational"])
            rows = np.frombuffer(base64.b64decode(record["coeffs"]), dtype="<f8")
            record["coeffs"] = base64.b64encode((-rows).tobytes()).decode("ascii")

        arc = self._mutated_archive(ep_obj, tmp_path, negate, version=2)
        assert main(["eigen", str(arc)]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DegenerateBasisError"

    def _mutated_archive(self, obj, tmp_path, mutate, variant="g1r", version=3):
        """An archive built by the CLI, written again by the frozen
        format-1 or format-2 writer if ``version`` is 1 or 2, with
        ``mutate`` applied to its JSON."""
        arc = tmp_path / "a.json"
        main(["build", str(obj), "--variant", variant, "-o", str(arc)])
        text = arc.read_text()
        if version in (1, 2):
            writer = archive_v1 if version == 1 else archive_v2
            text = writer.surface_to_json(surface_from_json(text))
        payload = json.loads(text)
        mutate(payload)
        arc.write_text(json.dumps(payload))
        return arc

    def _assert_format_error(self, argv, capsys):
        capsys.readouterr()
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "FormatError"

    def test_element_ids_not_a_permutation_exit_2(self, ep_obj, tmp_path,
                                                  capsys):
        def duplicate_id(payload):
            ids = [r["element"] for r in payload["elements"]]
            payload["elements"][ids.index(1)]["element"] = 0

        arc = self._mutated_archive(ep_obj, tmp_path, duplicate_id)
        self._assert_format_error(["check", str(arc)], capsys)

    def test_missing_element_record_exit_2(self, ep_obj, tmp_path, capsys):
        def drop_last(payload):
            payload["elements"].pop()

        arc = self._mutated_archive(ep_obj, tmp_path, drop_last)
        self._assert_format_error(["check", str(arc)], capsys)

    def test_repeated_basis_id_exit_2(self, ep_obj, tmp_path, capsys):
        def repeat_basis(payload):
            basis = payload["elements"][0]["basis"]
            basis[1] = basis[0]

        arc = self._mutated_archive(ep_obj, tmp_path, repeat_basis)
        self._assert_format_error(["check", str(arc)], capsys)
        self._assert_format_error(["quality", str(arc)], capsys)

    @pytest.mark.parametrize("field", ["coeffs", "positions", "coeff bytes"])
    def test_nonfinite_number_exit_2(self, ep_obj, tmp_path, capsys, field):
        def put_nan(payload):
            if field == "coeffs":
                payload["elements"][0]["coeffs"][0][0] = float("nan")
            elif field == "coeff bytes":
                rows = np.frombuffer(base64.b64decode(payload["elements"][0]["coeffs"]),
                                     dtype="<f8").copy()
                rows[0] = np.nan
                payload["elements"][0]["coeffs"] = base64.b64encode(
                    rows.tobytes()).decode("ascii")
            else:
                payload["net"]["positions"][0][0] = float("nan")

        arc = self._mutated_archive(ep_obj, tmp_path, put_nan,
                                    version={"coeffs": 1, "coeff bytes": 2}.get(field, 3))
        self._assert_format_error(["check", str(arc)], capsys)
        self._assert_format_error(["quality", str(arc)], capsys)

    @pytest.mark.parametrize("field", ["degree", "faces"])
    def test_field_of_wrong_type_exit_2(self, ep_obj, tmp_path, capsys, field):
        def wrong_type(payload):
            if field == "degree":
                payload["elements"][0]["degree"] = "x"
            else:
                payload["net"]["faces"] = "abc"

        arc = self._mutated_archive(ep_obj, tmp_path, wrong_type)
        self._assert_format_error(["check", str(arc)], capsys)
        self._assert_format_error(["quality", str(arc)], capsys)

    @pytest.mark.parametrize("net, variant", [("val33", "c0"), ("rot44", "g1r")])
    def test_rational_element_outside_g1r_quintics_exit_2(self, tmp_path, capsys,
                                                          net, variant):
        obj = tmp_path / f"{net}.obj"
        obj.write_text(save_obj(getattr(netgen, net)()))

        def make_cubic_rational(payload):
            cubic = next(r for r in payload["elements"] if r["degree"] == 3)
            cubic["rational"] = True

        arc = self._mutated_archive(obj, tmp_path, make_cubic_rational, variant)
        self._assert_format_error(["check", str(arc)], capsys)
        self._assert_format_error(["quality", str(arc)], capsys)

    def test_archive_not_utf8_exit_2(self, ep_obj, tmp_path, capsys):
        arc = tmp_path / "a.json"
        main(["build", str(ep_obj), "--variant", "c0", "-o", str(arc)])
        arc.write_bytes(arc.read_bytes().replace(b'"c0"', b'"c\xe9"'))
        self._assert_format_error(["check", str(arc)], capsys)

    @pytest.mark.parametrize("field, value", [
        ("faces", 10**30), ("basis", 10**30), ("basis", -10**30),
        ("element", float("inf")), ("degree", float("inf")),
        ("degree", float("-inf"))])
    def test_number_beyond_int64_exit_2(self, ep_obj, tmp_path, capsys,
                                        field, value):
        def put(payload):
            if field == "faces":
                payload["net"]["faces"][0][0] = value
            elif field == "basis":
                payload["elements"][0]["basis"][0] = value
            else:
                payload["elements"][0][field] = value

        arc = self._mutated_archive(ep_obj, tmp_path, put, "c0")
        self._assert_format_error(["check", str(arc)], capsys)
        self._assert_format_error(["quality", str(arc)], capsys)

    @pytest.mark.parametrize("mutation", ["degree", "row_length", "ragged"])
    def test_bad_element_shape_names_the_element(self, ep_obj, tmp_path,
                                                 capsys, mutation):
        def reshape(payload):
            record = payload["elements"][2]
            if mutation == "degree":
                record["degree"] = 4
            elif mutation == "row_length":
                record["coeffs"] = [row[:-1] for row in record["coeffs"]]
            else:
                record["coeffs"][0] = record["coeffs"][0][:-1]

        arc = self._mutated_archive(ep_obj, tmp_path, reshape, "c0",
                                    version=2 if mutation == "degree" else 1)
        capsys.readouterr()
        assert main(["check", str(arc)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FormatError"
        assert "element 2" in err["message"]


    @pytest.mark.parametrize("field", ["element", "degree", "basis", "faces"])
    def test_non_integral_number_names_the_field(self, ep_obj, tmp_path, capsys,
                                                 field):
        def put(payload):
            if field == "faces":
                payload["net"]["faces"][0] = [0.9, 1.9, 3.9, 2.9]
            elif field == "basis":
                payload["elements"][0]["basis"][0] += 0.5
            else:
                payload["elements"][0][field] = {"element": 0.5, "degree": 3.7}[field]

        arc = self._mutated_archive(ep_obj, tmp_path, put, "c0")
        capsys.readouterr()
        assert main(["check", str(arc)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FormatError"
        assert repr("net.faces" if field == "faces" else field) in err["message"]

    def test_unknown_variant_exit_2(self, ep_obj, tmp_path, capsys):
        arc = self._mutated_archive(ep_obj, tmp_path,
                                    lambda payload: payload.update(variant="g2"), "c0")
        capsys.readouterr()
        assert main(["quality", str(arc)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FormatError"
        assert "'variant'" in err["message"]


class TestBadNumbers:
    @pytest.mark.parametrize("levels", ["-1", "-4"])
    def test_negative_refinement_levels_exit_2(self, ep_obj, tmp_path, capsys,
                                               levels):
        out = tmp_path / "x.obj"
        assert main(["refine", str(ep_obj), "--levels", levels, "-o", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "DomainError"
        assert not out.exists()

    def test_zero_refinement_levels_convert_obj_to_archive(self, ep_obj, tmp_path):
        out = tmp_path / "x.json"
        assert main(["refine", str(ep_obj), "--levels", "0", "-o", str(out)]) == 0
        assert surface_from_json(out.read_text()).cnet.n_faces == 4

    @pytest.mark.parametrize("levels", ["0", "-2"])
    def test_empty_poisson_study_exit_2(self, ep_obj, tmp_path, capsys, levels):
        out = tmp_path / "conv.json"
        assert main(["poisson", str(ep_obj), "--levels", levels, "--variant", "c0",
                     "-o", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "DomainError"
        assert not out.exists()

    def test_singular_poisson_system_exit_5(self, tmp_path, capsys, monkeypatch):
        assemble = solve.assemble_poisson

        def singular(surface, **kwargs):  # first active dof without stiffness
            system = assemble(surface, **kwargs)
            K = system.K.tolil()
            K[system.active[0], :] = K[:, system.active[0]] = 0.0
            system.K = K.tocsr()
            return system

        monkeypatch.setattr(solve, "assemble_poisson", singular)
        obj, out = tmp_path / "rot44.obj", tmp_path / "conv.json"
        obj.write_text(save_obj(netgen.rot44()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["poisson", str(obj), "--levels", "1", "--variant", "g1r",
                         "-o", str(out)]) == 5
        assert json.loads(capsys.readouterr().err)["error"] == "SingularSystemError"
        assert not out.exists()

    @pytest.mark.parametrize("k, code", [("0", 2), ("-3", 2), ("8", 0), ("9", 2),
                                         ("40", 2)])
    def test_eigenvalue_count_outside_active_dofs_exit_2(self, tmp_path, capsys,
                                                         k, code):
        # the c0 surface of rot44 has 9 active dofs
        arc = tmp_path / "a.json"
        arc.write_text(surface_to_json(build_c0(netgen.rot44())))
        out = tmp_path / "eig.json"
        capsys.readouterr()
        assert main(["eigen", str(arc), "-k", k, "-o", str(out)]) == code
        if code == 0:
            assert len(json.loads(out.read_text())["eigenvalues"]) == 8
        else:
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "DomainError"
            assert "< 9" in err["message"]
            assert not out.exists()

    @pytest.mark.parametrize("mass", ["consistent", "lumped"])
    def test_no_active_dofs_exit_2(self, tmp_path, capsys, mass):
        # every function of the one-quad c0 surface is on the boundary
        arc = tmp_path / "a.json"
        arc.write_text(surface_to_json(build_c0(netgen.structured(1, 1))))
        out = tmp_path / "eig.json"
        capsys.readouterr()
        assert main(["eigen", str(arc), "--mass", mass, "-o", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "DomainError"
        assert "< 0" in err["message"]
        assert not out.exists()


class TestUnexpectedException:
    def test_exit_5_with_json(self, ep_obj, tmp_path, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("not a GSplineError")

        monkeypatch.setattr(cli, "cmd_build", broken)
        assert main(["build", str(ep_obj), "--variant", "c0",
                     "-o", str(tmp_path / "a.json")]) == 5
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "RuntimeError", "message": "not a GSplineError"}


EXIT_CODES = {"GSplineError": 5, "FormatError": 2, "EmptyError": 2, "DomainError": 2,
              "TopologyError": 3, "InfeasibleConstraintError": 4,
              "DegenerateBasisError": 4, "InternalError": 5,
              "SingularParameterizationError": 5, "ResourceError": 5, "LumpingError": 5,
              "SingularSystemError": 5, "EigensolverError": 5, "NonFiniteError": 5}


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_main_exits_with_the_error_types_code(name, ep_obj, tmp_path, capsys,
                                              monkeypatch):
    kind = getattr(errors, name)

    def failing(args):
        raise kind("failed")

    monkeypatch.setattr(cli, "cmd_build", failing)
    assert main(["build", str(ep_obj), "--variant", "c0",
                 "-o", str(tmp_path / "a.json")]) == kind.exit_code == EXIT_CODES[name]
    assert json.loads(capsys.readouterr().err)["error"] == name


def test_every_error_type_has_its_code_listed():
    kinds = {k for k, v in vars(errors).items()
             if isinstance(v, type) and issubclass(v, GSplineError)}
    assert kinds == set(EXIT_CODES)


# -- property tests over mutated inputs -----------------------------------

JSON_LEAVES = (
    st.none() | st.booleans() | st.integers()
    | st.sampled_from([2**63, -2**63 - 1, 10**30, -10**30, 10**400])
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(st.text(max_size=6), kids, max_size=4)),
    max_leaves=8)


@functools.cache
def small_archive(variant, version=2):
    """val33 as an archive of format ``version``: 1 and 2 by the frozen
    writers, 3 by ``surface_to_json``."""
    c0 = build_c0(netgen.val33())
    write = {1: archive_v1.surface_to_json, 2: archive_v2.surface_to_json,
             3: surface_to_json}[version]
    return write(c0 if variant == "c0" else build_g1(c0, variant))


@functools.cache
def shared_block_archive(variant):
    """val333 refined once as a format-3 text, some of whose elements
    share a block."""
    c0 = build_c0(refine(netgen.val333()))
    return surface_to_json(c0 if variant == "c0" else build_g1(c0, variant))


CORRUPTIONS = ["truncated", "appended", "character", "non-finite", "not a string"]


def corrupted(text, kind, data):
    """The base64 coefficient string ``text`` corrupted in the way ``kind``."""
    if kind == "truncated":
        return text[:data.draw(st.integers(0, len(text) - 1), label="length")]
    if kind == "appended":
        return text + data.draw(st.text(min_size=1, max_size=8), label="tail")
    if kind == "character":
        at = data.draw(st.integers(0, len(text.rstrip("=")) - 1), label="at")
        return text[:at] + data.draw(st.characters().filter(
            lambda c: not (c.isascii() and c.isalnum()) and c not in "+/"),
            label="character") + text[at + 1:]
    if kind == "non-finite":
        bits = np.frombuffer(base64.b64decode(text), dtype="<u8").copy()
        slot = data.draw(st.integers(0, len(bits) - 1), label="slot")
        bits[slot] = (data.draw(st.booleans(), label="sign") << 63 | 0x7FF << 52
                      | data.draw(st.integers(0, 2**52 - 1), label="mantissa"))
        return base64.b64encode(bits.astype("<u8").tobytes()).decode("ascii")
    return data.draw(JSON_VALUES.filter(lambda v: not isinstance(v, str)), label="value")


def assert_loads_or_exit_2_or_3(load, data):
    """``load(data)`` returns, or raises a GSplineError the CLI reports
    with exit code 2 (input format) or 3 (topology)."""
    try:
        load(data)
    except GSplineError as exc:
        assert exc.exit_code in (2, 3), repr(exc)


class TestMutatedInputs:
    @settings(max_examples=300, deadline=None)
    @given(variant=st.sampled_from(["c0", "g1r"]), version=st.sampled_from([1, 2, 3]),
           data=st.data())
    def test_archive_with_one_field_replaced(self, variant, version, data):
        payload = json.loads(small_archive(variant, version))
        # walk down from the root, then replace the node reached
        parent, key, node = None, None, payload
        while (isinstance(node, (dict, list)) and node
               and data.draw(st.booleans(), label="descend")):
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, data.draw(st.sampled_from(keys), label="key")
            node = node[key]
        value = data.draw(JSON_VALUES, label="value")
        if parent is None:
            payload = value
        else:
            parent[key] = value
        assert_loads_or_exit_2_or_3(surface_from_json, json.dumps(payload))

    @settings(max_examples=300, deadline=None)
    @given(variant=st.sampled_from(["c0", "g1r"]),
           field=st.sampled_from(["element", "degree", "basis", "net.faces"]),
           value=st.floats().filter(lambda x: not (math.isfinite(x) and x.is_integer())),
           version=st.sampled_from([1, 2, 3]), data=st.data())
    def test_non_integral_float_in_an_integer_field(self, variant, field, value,
                                                    version, data):
        payload = json.loads(small_archive(variant, version))
        if field == "net.faces":
            parent = data.draw(st.sampled_from(payload["net"]["faces"]), label="face")
            key = data.draw(st.integers(0, 3), label="corner")
        else:
            record = data.draw(st.sampled_from(payload["elements"]), label="record")
            parent, key = (record["basis"], data.draw(st.integers(
                0, len(record["basis"]) - 1), label="slot")) if field == "basis" \
                else (record, field)
        parent[key] = value
        with pytest.raises(FormatError, match=repr(field)):
            surface_from_json(json.dumps(payload))

    @settings(max_examples=300, deadline=None)
    @given(variant=st.sampled_from(["c0", "g1r"]),
           field=st.sampled_from(["coeffs", "net.positions"]),
           value=st.booleans() | st.floats(allow_nan=False).map(repr)
           | st.integers().map(str),
           data=st.data())
    def test_string_or_boolean_in_a_number_field(self, variant, field, value, data):
        # format-1 coefficients are JSON numbers; formats 2 and 3 hold them in strings
        payload = json.loads(small_archive(variant, 1 if field == "coeffs" else 3))
        rows = payload["net"]["positions"] if field == "net.positions" else \
            data.draw(st.sampled_from(payload["elements"]), label="record")["coeffs"]
        row = data.draw(st.sampled_from(rows), label="row")
        row[data.draw(st.integers(0, len(row) - 1), label="slot")] = value
        with pytest.raises(FormatError, match=repr(field)):
            surface_from_json(json.dumps(payload))

    @settings(max_examples=300, deadline=None)
    @given(variant=st.sampled_from(["c0", "g1r"]),
           kind=st.sampled_from(CORRUPTIONS),
           data=st.data())
    def test_corrupted_coefficient_string(self, variant, kind, data):
        payload = json.loads(small_archive(variant))
        record = data.draw(st.sampled_from(payload["elements"]), label="record")
        record["coeffs"] = corrupted(record["coeffs"], kind, data)
        with pytest.raises(FormatError) as info:
            surface_from_json(json.dumps(payload))
        assert info.value.exit_code == 2
        assert re.findall(r"element (\d+)", str(info.value))[:1] == \
            [str(record["element"])]

    @settings(max_examples=300, deadline=None)
    @given(variant=st.sampled_from(["c0", "g1r"]), kind=st.sampled_from(CORRUPTIONS),
           data=st.data())
    def test_corrupted_block(self, variant, kind, data):
        """A corrupted block of a format-3 text fails every element that
        uses it; the error names the lowest one."""
        payload = json.loads(shared_block_archive(variant))
        i = data.draw(st.integers(0, len(payload["blocks"]) - 1), label="block")
        payload["blocks"][i] = corrupted(payload["blocks"][i], kind, data)
        with pytest.raises(FormatError) as info:
            surface_from_json(json.dumps(payload))
        assert info.value.exit_code == 2
        users = [r["element"] for r in payload["elements"] if r["coeffs"] == i]
        assert re.findall(r"element (\d+)", str(info.value))[:1] == [str(min(users))]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_obj_with_one_token_replaced(self, data):
        lines = [line.split() for line in save_obj(netgen.val33()).splitlines()]
        row = data.draw(st.integers(0, len(lines) - 1), label="line")
        col = data.draw(st.integers(0, len(lines[row]) - 1), label="token")
        lines[row][col] = data.draw(
            st.text(max_size=8)
            | st.integers().map(str)
            | st.sampled_from(["99999999999999999999999", "-10000000000000000000",
                               "nan", "inf", "-inf", "1e999", "1/2/3", "0"])
            | st.floats(allow_nan=True, allow_infinity=True).map(repr),
            label="token value")
        text = "\n".join(" ".join(line) for line in lines) + "\n"
        assert_loads_or_exit_2_or_3(load_obj, text.encode("utf-8", "surrogatepass"))


@pytest.mark.parametrize("text", ["", "{}", "{}\n", "a\nb", "a\n\n"])
def test_write_ends_in_one_newline(text, tmp_path, capsys):
    want = text if text.endswith("\n") else text + "\n"
    path = tmp_path / "out.txt"
    cli._write(str(path), text)
    assert path.read_bytes() == want.encode()
    cli._write(None, text)
    cli._write("-", text)
    assert capsys.readouterr().out == 2 * want


def test_write_does_not_copy_the_text(tmp_path):
    """Appending the newline to a 4 MB text made a second 4 MB string."""
    text = "0123456789abcdef" * 2**18
    tracemalloc.start()
    try:
        cli._write(str(tmp_path / "big.txt"), text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * len(text)
    assert (tmp_path / "big.txt").read_text() == text + "\n"


def scaled_obj(tmp_path, net, factor):
    """An OBJ of ``net`` with every position times ``factor``."""
    path = tmp_path / "scaled.obj"
    path.write_text(save_obj(ControlNet(net.cnet, net.positions * factor)))
    return path


class TestFiniteReports:
    """Every JSON report is finite or a NonFiniteError (exit 5) naming the
    command and the key: JSON has no NaN or infinity (RFC 8259, section 6)."""

    @pytest.mark.parametrize("variant", ["c0", "g1r"])
    def test_overflowing_error_norm_exit_5(self, variant, tmp_path, capsys):
        """val33 x 1e100: the level-2 l2 error overflows, and the study
        exited 0 with Infinity and NaN in its report."""
        out = tmp_path / "conv.json"
        assert main(["poisson", str(scaled_obj(tmp_path, netgen.val33(), 1e100)),
                     "--levels", "3", "--variant", variant, "-o", str(out)]) == 5
        assert json.loads(capsys.readouterr().err) == {
            "error": "NonFiniteError", "message": "poisson report value 'levels' is not finite"}
        assert not out.exists()

    @pytest.mark.parametrize("variant", ["c0", "g1p", "g1r"])
    def test_no_log_of_a_zero_error_ratio(self, variant, tmp_path, capsys):
        """boundary_ep3 x 1e100: the l2 errors are 1.0, then infinity, and
        the order took the log of their ratio, 0, and exited 5 with a
        ValueError."""
        out = tmp_path / "conv.json"
        assert main(["poisson", str(scaled_obj(tmp_path, netgen.boundary_ep3(), 1e100)),
                     "--levels", "3", "--variant", variant, "-o", str(out)]) == 5
        assert json.loads(capsys.readouterr().err) == {
            "error": "NonFiniteError", "message": "poisson report value 'levels' is not finite"}
        assert not out.exists()

    def test_orders_of_zero_or_infinite_errors_are_null(self):
        errs = [1.0, 0.25, 0.0, 0.5, math.inf, 2.0, math.nan, 1e-300, 1e300]
        report = solve.ConvergenceReport(
            "c0", [{"l2": e, "linf": e, "h1": e} for e in errs]).finalize()
        assert report.orders["l2"] == [math.log(4.0) / math.log(2.0), None, None, None,
                                       None, None, None, None]
        report.levels = report.levels[:2]
        assert json.loads(report.finalize().to_json())["orders"]["h1"] == [2.0]

    @pytest.mark.parametrize("report, name, key", [
        (lambda: solve.EigenReport("consistent", [1.0, math.nan], [0.0, 0.0]), "eigen",
         "eigenvalues"),
        (lambda: quality.QualityReport("c0", 1.0, math.inf, None), "quality",
         "valid_up_to"),
    ])
    def test_every_report_names_its_command(self, report, name, key):
        with pytest.raises(errors.NonFiniteError,
                           match=f"^{name} report value '{key}' is not finite$"):
            report().to_json()


def _merge_first_two(p):
    q = p.copy()
    q[1] = q[0]
    return q


# position maps of the finite-report sweep; the topology is unchanged
POSITION_MAPS = {
    "x1e100": lambda p: p * 1e100,  # error norms overflow
    "x1e150": lambda p: p * 1e150,  # so do the eigenvalues
    "x1e-150": lambda p: p * 1e-150,  # tangents underflow
    "zero": lambda p: p * 0.0,
    "flat": lambda p: p * [1.0, 1.0, 0.0],
    "line": lambda p: p * [1.0, 0.0, 0.0],
    "merged": _merge_first_two,
    "noise": lambda p: p + np.random.default_rng(0).normal(scale=0.3, size=p.shape),
}

# (net, map, variant), chosen by what each covers: a boundary EP and
# valence-3 EPs at x 1e100 in every variant; merged EP clusters (val333);
# several EPs on a boundary (open_box); closed nets without a boundary for
# poisson and eigen, one of them on the lstsq fairing path (cube, pillow);
# a periodic strip (cylinder)
SWEEP = [
    *(("boundary_ep3", "x1e100", v) for v in ("c0", "g1p", "g1r")),
    *(("val33", "x1e100", v) for v in ("c0", "g1p", "g1r")),
    ("val333", "x1e150", "g1p"),
    ("val333", "flat", "g1r"),
    ("val333", "merged", "c0"),
    ("open_box", "x1e150", "g1r"),
    ("open_box", "x1e-150", "g1p"),
    ("open_box", "line", "g1r"),
    ("open_box", "noise", "c0"),
    ("cube", "zero", "g1p"),
    ("cube", "noise", "g1r"),
    ("pillow", "merged", "g1p"),
    ("cylinder", "noise", "g1r"),
    ("cylinder", "x1e100", "c0"),
]


def _no_constant(name):
    raise AssertionError(f"non-finite JSON constant {name}")


@pytest.mark.parametrize("net, mapping, variant", SWEEP)
def test_finite_report_sweep(net, mapping, variant, tmp_path, capsys):
    """Every command on a mapped net writes finite JSON (exit 0) or exits
    with one JSON line that names a ``GSplineError`` and its code."""
    base = getattr(netgen, net)()
    obj = tmp_path / "net.obj"
    obj.write_text(save_obj(ControlNet(base.cnet, POSITION_MAPS[mapping](base.positions))))
    archive = tmp_path / "surface.json"
    commands = [
        ["build", str(obj), "--variant", variant, "-o", str(archive)],
        ["check", str(archive)],
        ["quality", str(archive)],
        ["eigen", str(archive), "-k", "3"],
        ["poisson", str(obj), "--levels", "2", "--variant", variant],
        ["refine", str(archive)],
    ]
    for i, args in enumerate(commands):
        if i and args[1] == str(archive) and not archive.exists():
            continue  # the build failed, as checked below
        out = tmp_path / f"{args[0]}_out.json"
        code = main(args if i == 0 else args + ["-o", str(out)])
        err = capsys.readouterr().err
        if code == 0:
            json.loads((archive if i == 0 else out).read_text(), parse_constant=_no_constant)
            continue
        lines = err.splitlines()
        assert len(lines) == 1, (args, err)
        name = json.loads(lines[0])["error"]
        error = getattr(errors, name, None)
        assert isinstance(error, type) and issubclass(error, GSplineError), (args, err)
        assert code == error.exit_code, (args, err)
