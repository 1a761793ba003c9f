import json

import numpy as np
import pytest

from gspline.archive import surface_from_json, surface_to_json
from gspline.cli import main, surface_check
from gspline.construct_c0 import build_c0
from gspline.construct_g1 import build_g1
from gspline.evaluate import map_point
from gspline.mesh import save_obj

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

    def test_surface_check_c0(self):
        surface = build_c0(netgen.rot44())
        report = surface_check(surface)
        assert report["partition_of_unity_defect"] < 1e-10
        assert report["c2_residual_smooth_edges"] < 1e-9


class TestBadArchives:
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
        arc = tmp_path / "a.json"
        main(["build", str(ep_obj), "--variant", "g1r", "-o", str(arc)])
        payload = json.loads(arc.read_text())
        record = next(r for r in payload["elements"] if r["rational"])
        record["coeffs"] = [[-c for c in row] for row in record["coeffs"]]
        arc.write_text(json.dumps(payload))
        assert main(["eigen", str(arc)]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DegenerateBasisError"

    def _mutated_g1r_archive(self, ep_obj, tmp_path, mutate):
        arc = tmp_path / "a.json"
        main(["build", str(ep_obj), "--variant", "g1r", "-o", str(arc)])
        payload = json.loads(arc.read_text())
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

        arc = self._mutated_g1r_archive(ep_obj, tmp_path, duplicate_id)
        self._assert_format_error(["check", str(arc)], capsys)

    def test_repeated_basis_id_exit_2(self, ep_obj, tmp_path, capsys):
        def repeat_basis(payload):
            basis = payload["elements"][0]["basis"]
            basis[1] = basis[0]

        arc = self._mutated_g1r_archive(ep_obj, tmp_path, repeat_basis)
        self._assert_format_error(["check", str(arc)], capsys)
        self._assert_format_error(["quality", str(arc)], capsys)

    @pytest.mark.parametrize("field", ["coeffs", "positions"])
    def test_nonfinite_number_exit_2(self, ep_obj, tmp_path, capsys, field):
        def put_nan(payload):
            if field == "coeffs":
                payload["elements"][0]["coeffs"][0][0] = float("nan")
            else:
                payload["net"]["positions"][0][0] = float("nan")

        arc = self._mutated_g1r_archive(ep_obj, tmp_path, put_nan)
        self._assert_format_error(["check", str(arc)], capsys)
        self._assert_format_error(["quality", str(arc)], capsys)
