import functools
import json
import re

import numpy as np
import pytest

from gspline.archive import FORMAT_VERSION, surface_from_json, surface_to_json
from gspline.cli import _exit_code, main
from gspline.construct_c0 import build_c0
from gspline.construct_g1 import build_g1
from gspline.errors import FormatError
from gspline.refine import refine_n

import netgen


@functools.cache
def surface(net, levels, variant):
    c0 = build_c0(refine_n(getattr(netgen, net)(), levels)[0])
    return c0 if variant == "c0" else build_g1(c0, variant)


def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


def assert_same_surface(loaded, written):
    assert loaded.variant == written.variant
    assert_bitwise(loaded.net.positions, written.net.positions)
    assert_bitwise(loaded.cnet.faces, written.cnet.faces)
    assert len(loaded.extractions) == len(written.extractions)
    for got, want in zip(loaded.extractions, written.extractions):
        assert (got.element, got.degree, got.rational) == \
            (want.element, want.degree, want.rational)
        assert type(got.rational) is bool
        assert_bitwise(got.basis, want.basis)
        assert_bitwise(got.coeffs, want.coeffs)
    # float reprs are exact, so equal dumps mean bitwise equal numbers
    assert json.dumps(loaded.diagnostics, sort_keys=True) == \
        json.dumps(getattr(written, "diagnostics", None), sort_keys=True)


CASES = [("rot44", levels, variant) for levels in (0, 1, 2)
         for variant in ("c0", "g1p", "g1r")] + [("val333", 0, "g1r")]


class TestRoundTrip:
    @pytest.mark.parametrize("net, levels, variant", CASES)
    def test_loads_bitwise_equal(self, net, levels, variant):
        written = surface(net, levels, variant)
        assert_same_surface(surface_from_json(surface_to_json(written)), written)

    @pytest.mark.parametrize("net, levels, variant", CASES[-4:])
    def test_indented_archive_loads_as_the_compact_one(self, net, levels, variant):
        written = surface(net, levels, variant)
        compact = surface_to_json(written)
        indented = json.dumps(json.loads(compact), indent=1, sort_keys=True)
        assert len(indented) > len(compact)
        assert_same_surface(surface_from_json(indented), written)

    def test_text_is_deterministic_and_one_line(self):
        c0 = build_c0(netgen.val333())
        texts = [surface_to_json(build_g1(c0, "g1r")) for _ in range(2)]
        assert texts[0] == texts[1]
        assert "\n" not in texts[0]
        assert json.loads(texts[0])["format_version"] == FORMAT_VERSION == 1

    def test_absent_rational_flag_means_polynomial(self):
        written = surface("rot44", 0, "g1p")
        payload = json.loads(surface_to_json(written))
        for record in payload["elements"]:
            del record["rational"]
        assert_same_surface(surface_from_json(json.dumps(payload)), written)


def load_error(payload) -> FormatError:
    with pytest.raises(FormatError) as info:
        surface_from_json(json.dumps(payload))
    assert _exit_code(info.value) == 2
    return info.value


class TestFieldTypes:
    @pytest.mark.parametrize("value", ["false", 1, 0, [], None, {}])
    def test_rational_must_be_a_boolean(self, value):
        payload = json.loads(surface_to_json(surface("val33", 0, "g1r")))
        payload["elements"][2]["rational"] = value
        message = str(load_error(payload))
        assert "'rational'" in message and "element 2" in message

    @pytest.mark.parametrize("value", [True, 1.0])
    def test_format_version_must_be_the_integer_1(self, value):
        payload = json.loads(surface_to_json(surface("val33", 0, "c0")))
        payload["format_version"] = value
        assert "format version" in str(load_error(payload))

    @pytest.mark.parametrize("value", [5, "none", {}, True])
    def test_diagnostics_must_be_null_or_a_list(self, value, tmp_path, capsys):
        payload = json.loads(surface_to_json(surface("val33", 0, "g1p")))
        payload["diagnostics"] = value
        assert "'diagnostics'" in str(load_error(payload))
        arc = tmp_path / "a.json"
        arc.write_text(json.dumps(payload))
        assert main(["check", str(arc)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FormatError" and "'diagnostics'" in err["message"]

    @pytest.mark.parametrize("field", ["basis", "net.faces"])
    def test_boolean_is_not_an_integer(self, field):
        payload = json.loads(surface_to_json(surface("val33", 0, "c0")))
        if field == "net.faces":
            payload["net"]["faces"][0][1] = True
        else:
            payload["elements"][0]["basis"][0] = True
        assert repr(field) in str(load_error(payload))


# One way each for an element record to fail.  A record that cannot be
# read (wrong type or shape) is reported before any whose values fail a
# check; within each kind the lowest failing element is named.
def _set(field, value):
    return lambda record, n_vertices: record.__setitem__(field, value)


UNREADABLE = {
    "degree type": _set("degree", "x"),
    "degree value": _set("degree", 4),
    "rational type": _set("rational", "false"),
    "basis type": lambda r, n: r["basis"].__setitem__(0, 0.5),
    "coeffs shape": lambda r, n: r.__setitem__("coeffs", r["coeffs"][:-1]),
}
INVALID = {
    "basis range": lambda r, n: r["basis"].__setitem__(0, n),
    "basis repeated": lambda r, n: r["basis"].__setitem__(1, r["basis"][0]),
    "coeff not finite": lambda r, n: r["coeffs"][0].__setitem__(0, float("nan")),
    "rational misplaced": _set("rational", True),
}


def two_bad_records(lower, higher):
    payload = json.loads(surface_to_json(surface("val33", 0, "c0")))
    n_vertices = len(payload["net"]["positions"])
    kinds = {**UNREADABLE, **INVALID}
    kinds[lower](payload["elements"][1], n_vertices)
    kinds[higher](payload["elements"][3], n_vertices)
    payload["elements"].reverse()
    return payload


def named_elements(message):
    return [int(e) for e in re.findall(r"element (\d+)", message)]


class TestLowestFailingElement:
    @pytest.mark.parametrize("lower", UNREADABLE)
    @pytest.mark.parametrize("higher", UNREADABLE)
    def test_unreadable_records(self, lower, higher):
        assert named_elements(str(load_error(two_bad_records(lower, higher)))) == [1]

    @pytest.mark.parametrize("lower", INVALID)
    @pytest.mark.parametrize("higher", INVALID)
    def test_invalid_records(self, lower, higher):
        assert named_elements(str(load_error(two_bad_records(lower, higher)))) == [1]

    @pytest.mark.parametrize("lower", INVALID)
    @pytest.mark.parametrize("higher", UNREADABLE)
    def test_unreadable_record_comes_first(self, lower, higher):
        assert named_elements(str(load_error(two_bad_records(lower, higher)))) == [3]
