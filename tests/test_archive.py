import base64
import functools
import json
import re

import numpy as np
import pytest

from gspline import archive, cli
from gspline.archive import FORMAT_VERSION, archive_pieces, surface_from_json, surface_to_json
from gspline.cli import main
from gspline.construct_c0 import build_c0
from gspline.construct_g1 import build_g1
from gspline.errors import FormatError
from gspline.evaluate import ElementGroup, GSplineSurface
from gspline.mesh import save_obj
from gspline.refine import refine_n

import archive_v1
import archive_v2
import netgen


@functools.cache
def surface(net, levels, variant):
    c0 = build_c0(refine_n(getattr(netgen, net)(), levels)[0])
    return c0 if variant == "c0" else build_g1(c0, variant)


def payload_v1(net, levels, variant):
    """The surface as a format-1 archive payload: coefficients as lists."""
    return json.loads(archive_v1.surface_to_json(surface(net, levels, variant)))


def block(values) -> str:
    """A coefficient string of format 2 or a block of format 3."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def unblock(text, n_columns) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text), dtype="<f8").reshape(-1, n_columns)


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


def assert_same_groups(loaded, written):
    """Byte for byte the same group arrays: elements, basis, mask and coeffs."""
    assert len(loaded.groups) == len(written.groups) > 0
    for a, b in zip(loaded.groups, written.groups):
        assert (a.degree, a.rational) == (b.degree, b.rational)
        for field in ("elements", "basis", "mask", "coeffs"):
            assert_bitwise(getattr(a, field), getattr(b, field))


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
        assert json.loads(texts[0])["format_version"] == FORMAT_VERSION == 3

    @pytest.mark.parametrize("net, levels, variant", CASES)
    def test_version_1_and_2_texts_load_bitwise_equal(self, net, levels, variant):
        """Formats 1, 2 and 3 load to the same surface, group arrays and all."""
        written = surface(net, levels, variant)
        v1 = surface_from_json(archive_v1.surface_to_json(written))
        v2 = surface_from_json(archive_v2.surface_to_json(written))
        v3 = surface_from_json(surface_to_json(written))
        assert_same_surface(v1, written)
        assert_same_surface(v2, v1)
        assert_same_surface(v3, v1)
        for loaded in (v1, v2, v3):
            assert_same_groups(loaded, written)

    def test_coeffs_are_base64_of_little_endian_rows(self):
        written = surface("val333", 0, "g1r")
        records = json.loads(archive_v2.surface_to_json(written))["elements"]
        for record, ext in zip(records, written.extractions):
            text = record["coeffs"]
            assert text.isascii() and len(text) % 4 == 0
            assert_bitwise(unblock(text, (ext.degree + 1) ** 2), ext.coeffs)

    @pytest.mark.parametrize("net, levels, variant", CASES)
    def test_text_round_trips_with_distinct_blocks_in_first_use_order(self, net, levels,
                                                                      variant):
        """The text of the loaded surface is the text; each record's
        ``coeffs`` indexes the base64 of its rows; no two blocks are
        equal, and each block's first user is later than the previous
        block's."""
        written = surface(net, levels, variant)
        text = surface_to_json(written)
        assert surface_to_json(surface_from_json(text)) == text
        payload = json.loads(text)
        blocks, index = payload["blocks"], [r["coeffs"] for r in payload["elements"]]
        assert all(type(i) is int for i in index)
        assert len(set(blocks)) == len(blocks) == len(set(index))
        firsts = [index.index(i) for i in range(len(blocks))]
        assert firsts == sorted(firsts)
        for i, ext in zip(index, written.extractions):
            assert_bitwise(unblock(blocks[i], (ext.degree + 1) ** 2), ext.coeffs)

    def test_shared_blocks_shrink_the_text(self):
        written = surface("rot44", 2, "g1r")
        payload = json.loads(surface_to_json(written))
        assert len(payload["blocks"]) < len(payload["elements"]) / 3
        assert 2 * len(surface_to_json(written)) < len(archive_v2.surface_to_json(written))

    def test_equal_blocks_of_two_classes_are_one_block(self):
        """Blocks are compared as bytes, whatever the class of their
        elements: 9 bicubic rows of zeros are the bytes of 4 quintic rows
        of zeros."""
        net = netgen.structured(2, 2)

        def group(p, elements, n):
            return ElementGroup(p, False, np.array(elements), np.tile(np.arange(n), (2, 1)),
                                np.ones((2, n), dtype=bool), np.zeros((2, n, (p + 1) ** 2)))

        groups = [group(3, [0, 2], 9), group(5, [1, 3], 4)]
        text = surface_to_json(GSplineSurface(net, groups, "c0"))
        payload = json.loads(text)
        assert payload["blocks"] == [block(np.zeros(9 * 16))]
        assert [r["coeffs"] for r in payload["elements"]] == [0, 0, 0, 0]
        for got, want in zip(surface_from_json(text).groups, groups):
            assert (got.degree, got.rational) == (want.degree, want.rational)
            assert_bitwise(got.coeffs, want.coeffs)

    def test_digest_collisions_are_split_by_bytes(self, monkeypatch):
        """The digest only proposes equal blocks; the bytes decide, so a
        constant digest gives the same text."""
        written = surface("rot44", 1, "g1r")
        text = surface_to_json(written)
        monkeypatch.setattr(archive, "_weights", lambda size: np.zeros(size, dtype=np.uint64))
        assert surface_to_json(written) == text

    def test_absent_rational_flag_means_polynomial(self):
        written = surface("rot44", 0, "g1p")
        payload = json.loads(surface_to_json(written))
        for record in payload["elements"]:
            del record["rational"]
        assert_same_surface(surface_from_json(json.dumps(payload)), written)


def load_error(payload) -> FormatError:
    with pytest.raises(FormatError) as info:
        surface_from_json(json.dumps(payload))
    assert info.value.exit_code == 2
    return info.value


class TestFieldTypes:
    @pytest.mark.parametrize("value", ["false", 1, 0, [], None, {}])
    def test_rational_must_be_a_boolean(self, value):
        payload = json.loads(surface_to_json(surface("val33", 0, "g1r")))
        payload["elements"][2]["rational"] = value
        message = str(load_error(payload))
        assert "'rational'" in message and "element 2" in message

    @pytest.mark.parametrize("value", [True, 1.0, 2.0, 0, 4, "2", None])
    def test_format_version_must_be_the_integer_1_or_2(self, value):
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

    @pytest.mark.parametrize("value", [{}, {"0": {"element": 0}}, "elements", 5, None])
    def test_elements_must_be_a_list(self, value, tmp_path, capsys):
        payload = json.loads(surface_to_json(surface("val33", 0, "c0")))
        payload["elements"] = value
        assert "'elements'" in str(load_error(payload))
        arc = tmp_path / "a.json"
        arc.write_text(json.dumps(payload))
        assert main(["quality", str(arc)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FormatError" and "'elements'" in err["message"]

    @pytest.mark.parametrize("field", ["basis", "net.faces"])
    def test_boolean_is_not_an_integer(self, field):
        payload = json.loads(surface_to_json(surface("val33", 0, "c0")))
        if field == "net.faces":
            payload["net"]["faces"][0][1] = True
        else:
            payload["elements"][0]["basis"][0] = True
        assert repr(field) in str(load_error(payload))

    @pytest.mark.parametrize("value", ["0.5", "1", True, False, None])
    @pytest.mark.parametrize("field", ["coeffs", "net.positions"])
    def test_number_fields_hold_json_numbers(self, field, value, tmp_path, capsys):
        if field == "coeffs":
            payload = payload_v1("val33", 0, "c0")
            payload["elements"][2]["coeffs"][1][3] = value
        else:
            payload = json.loads(surface_to_json(surface("val33", 0, "c0")))
            payload["net"]["positions"][4][1] = value
        message = str(load_error(payload))
        assert repr(field) in message and repr(value) in message
        assert ("element 2" in message) == (field == "coeffs")
        arc = tmp_path / "a.json"
        arc.write_text(json.dumps(payload))
        assert main(["check", str(arc)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "FormatError"

    def test_integral_numbers_still_load_as_floats(self):
        written = surface("val33", 0, "c0")
        payload = payload_v1("val33", 0, "c0")
        payload["net"]["positions"] = [[int(x) if x.is_integer() else x for x in row]
                                       for row in payload["net"]["positions"]]
        for record in payload["elements"]:
            record["coeffs"] = [[int(x) if x.is_integer() else x for x in row]
                                for row in record["coeffs"]]
        assert_same_surface(surface_from_json(json.dumps(payload)), written)


# One way each for an element record to fail.  A record that cannot be
# read (wrong type or shape) is reported before any whose values fail a
# check; within each kind the lowest failing element is named.  These
# mutate format-1 records, whose coefficients are lists of rows.
def _set(field, value):
    return lambda record, n_vertices: record.__setitem__(field, value)


UNREADABLE = {
    "degree type": _set("degree", "x"),
    "degree value": _set("degree", 4),
    "rational type": _set("rational", "false"),
    "basis type": lambda r, n: r["basis"].__setitem__(0, 0.5),
    "coeffs shape": lambda r, n: r.__setitem__("coeffs", r["coeffs"][:-1]),
    "coeff string": lambda r, n: r["coeffs"][0].__setitem__(0, "0.5"),
    "coeff boolean": lambda r, n: r["coeffs"][-1].__setitem__(-1, True),
}
INVALID = {
    "basis range": lambda r, n: r["basis"].__setitem__(0, n),
    "basis repeated": lambda r, n: r["basis"].__setitem__(1, r["basis"][0]),
    "coeff not finite": lambda r, n: r["coeffs"][0].__setitem__(0, float("nan")),
    "rational misplaced": _set("rational", True),
}


def two_bad_records(lower, higher, version=1):
    if version == 1:
        payload, kinds = payload_v1("val33", 0, "c0"), {**UNREADABLE, **INVALID}
    else:
        payload = json.loads(archive_v2.surface_to_json(surface("val33", 0, "c0")))
        kinds = {**UNREADABLE_V2, **INVALID_V2}
    n_vertices = len(payload["net"]["positions"])
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


# The same for format-2 records, whose coefficients are one base64 string,
# on the text of the frozen format-2 writer.
def _recoded(edit):
    """Rewrite a record's coefficient block: ``edit`` maps its rows (an
    array) to the values to encode."""
    def mutate(record, n_vertices):
        rows = unblock(record["coeffs"], (record["degree"] + 1) ** 2).copy()
        record["coeffs"] = block(edit(rows))
    return mutate


def _spliced(index, text):
    """Replace the character of a record's coefficient string at ``index``."""
    def mutate(record, n_vertices):
        old = record["coeffs"]
        record["coeffs"] = old[:index] + text + old[index + 1:]
    return mutate


def _put(value):
    def edit(rows):
        rows.flat[5] = value
        return rows
    return _recoded(edit)


UNREADABLE_V2 = {
    **{kind: UNREADABLE[kind] for kind in
       ("degree type", "degree value", "rational type", "basis type")},
    "coeffs cut string": lambda r, n: r.__setitem__("coeffs", r["coeffs"][:-1]),
    "coeffs one value short": _recoded(lambda rows: rows.ravel()[:-1]),
    "coeffs one row long": _recoded(lambda rows: np.vstack([rows, rows[:1]])),
    "coeffs text appended": lambda r, n: r.__setitem__("coeffs", r["coeffs"] + "AAAA"),
    "coeffs outside alphabet": _spliced(10, "*"),
    "coeffs padding inside": _spliced(8, "="),
    "coeffs extra padding": lambda r, n: r.__setitem__(
        "coeffs", r["coeffs"].rstrip("=")[:-1] + "=" * (r["coeffs"].count("=") + 1)),
    "coeffs non-ASCII": _spliced(10, "\u00e9"),
    "coeffs list": lambda r, n: r.__setitem__(
        "coeffs", unblock(r["coeffs"], (r["degree"] + 1) ** 2).tolist()),
    "coeffs number": _set("coeffs", 0.5),
}
INVALID_V2 = {
    **{kind: INVALID[kind] for kind in
       ("basis range", "basis repeated", "rational misplaced")},
    "coeff NaN bytes": _put(np.nan),
    "coeff +Inf bytes": _put(np.inf),
    "coeff -Inf bytes": _put(-np.inf),
}


class TestLowestFailingElementVersion2:
    @pytest.mark.parametrize("lower", UNREADABLE_V2)
    @pytest.mark.parametrize("higher", UNREADABLE_V2)
    def test_unreadable_records(self, lower, higher):
        payload = two_bad_records(lower, higher, version=2)
        assert named_elements(str(load_error(payload))) == [1]

    @pytest.mark.parametrize("lower", INVALID_V2)
    @pytest.mark.parametrize("higher", INVALID_V2)
    def test_invalid_records(self, lower, higher):
        payload = two_bad_records(lower, higher, version=2)
        assert named_elements(str(load_error(payload))) == [1]

    @pytest.mark.parametrize("lower", INVALID_V2)
    @pytest.mark.parametrize("higher", UNREADABLE_V2)
    def test_unreadable_record_comes_first(self, lower, higher):
        payload = two_bad_records(lower, higher, version=2)
        assert named_elements(str(load_error(payload))) == [3]

    @pytest.mark.parametrize("kind", [*UNREADABLE_V2, *INVALID_V2])
    def test_exit_2_through_the_cli(self, kind, tmp_path, capsys):
        arc = tmp_path / "a.json"
        arc.write_text(json.dumps(two_bad_records(kind, kind, version=2)))
        assert main(["check", str(arc)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FormatError"
        assert named_elements(err["message"]) == [1]

    @pytest.mark.parametrize("kind, message", [
        ("coeffs cut string", "characters is not the base64"),
        ("coeffs one value short", "characters is not the base64"),
        ("coeffs one row long", "characters is not the base64"),
        ("coeffs text appended", "characters is not the base64"),
        ("coeffs outside alphabet", "is not ASCII base64"),
        ("coeffs padding inside", "is not ASCII base64"),
        ("coeffs non-ASCII", "is not ASCII base64"),
        ("coeffs extra padding", "bytes does not hold"),
        ("coeffs list", "must be a base64 string"),
        ("coeffs number", "must be a base64 string"),
        ("coeff NaN bytes", "non-finite coefficient"),
        ("coeff +Inf bytes", "non-finite coefficient"),
        ("coeff -Inf bytes", "non-finite coefficient"),
    ])
    def test_each_coefficient_mutation_fails_its_own_check(self, kind, message):
        payload = json.loads(archive_v2.surface_to_json(surface("val33", 0, "c0")))
        {**UNREADABLE_V2, **INVALID_V2}[kind](payload["elements"][2], 0)
        error = str(load_error(payload))
        assert message in error and named_elements(error) == [2]


# The same for format-3 records, whose coefficients are an index into the
# table of blocks.  A kind mutates ``(payload, record)``; one that edits
# coefficients gives the record a block of its own first, so no other
# record changes and no block is left unused.
def _own_block(payload, record) -> int:
    users = [r for r in payload["elements"] if r["coeffs"] == record["coeffs"]]
    if len(users) > 1:
        payload["blocks"].append(payload["blocks"][record["coeffs"]])
        record["coeffs"] = len(payload["blocks"]) - 1
    return record["coeffs"]


def _block_set(make):
    """Replace the record's own block by ``make(old block, record)``."""
    def mutate(payload, record):
        i = _own_block(payload, record)
        payload["blocks"][i] = make(payload["blocks"][i], record)
    return mutate


def _block_rows(edit):
    """Re-encode the record's own block: ``edit`` maps its rows to the
    values to encode."""
    return _block_set(lambda text, r: block(edit(
        unblock(text, (r["degree"] + 1) ** 2).copy())))


def _record_kind(mutate):
    """A record-level mutation of format 1 or 2 on a format-3 record."""
    return lambda payload, record: mutate(record, len(payload["net"]["positions"]))


def _put_v3(value):
    def edit(rows):
        rows.flat[5] = value
        return rows
    return _block_rows(edit)


UNREADABLE_V3 = {
    **{kind: _record_kind(UNREADABLE[kind]) for kind in
       ("degree type", "degree value", "rational type", "basis type")},
    "index true": lambda p, r: r.__setitem__("coeffs", True),
    "index 1.5": lambda p, r: r.__setitem__("coeffs", 1.5),
    "index -1": lambda p, r: r.__setitem__("coeffs", -1),
    "index past the table": lambda p, r: r.__setitem__("coeffs", len(p["blocks"])),
    "index string": lambda p, r: r.__setitem__("coeffs", p["blocks"][r["coeffs"]]),
    "block number": _block_set(lambda text, r: 0.5),
    "block null": _block_set(lambda text, r: None),
    "block list": _block_set(lambda text, r: unblock(text, (r["degree"] + 1) ** 2).tolist()),
    "block outside alphabet": _block_set(lambda text, r: text[:10] + "*" + text[11:]),
    "block non-ASCII": _block_set(lambda text, r: text[:10] + "\u00e9" + text[11:]),
    "block cut": _block_set(lambda text, r: text[:-1]),
    "block one row short": _block_rows(lambda rows: rows[:-1]),
    "block one row long": _block_rows(lambda rows: np.vstack([rows, rows[:1]])),
}
INVALID_V3 = {
    **{kind: _record_kind(INVALID[kind]) for kind in
       ("basis range", "basis repeated", "rational misplaced")},
    "block NaN bytes": _put_v3(np.nan),
    "block +Inf bytes": _put_v3(np.inf),
    "block -Inf bytes": _put_v3(-np.inf),
}


def two_bad_records_v3(lower, higher):
    payload = json.loads(surface_to_json(surface("val33", 0, "c0")))
    kinds = {**UNREADABLE_V3, **INVALID_V3}
    kinds[lower](payload, payload["elements"][1])
    kinds[higher](payload, payload["elements"][3])
    payload["elements"].reverse()
    return payload


class TestLowestFailingElementVersion3:
    @pytest.mark.parametrize("lower", UNREADABLE_V3)
    @pytest.mark.parametrize("higher", UNREADABLE_V3)
    def test_unreadable_records(self, lower, higher):
        assert named_elements(str(load_error(two_bad_records_v3(lower, higher)))) == [1]

    @pytest.mark.parametrize("lower", INVALID_V3)
    @pytest.mark.parametrize("higher", INVALID_V3)
    def test_invalid_records(self, lower, higher):
        assert named_elements(str(load_error(two_bad_records_v3(lower, higher)))) == [1]

    @pytest.mark.parametrize("lower", INVALID_V3)
    @pytest.mark.parametrize("higher", UNREADABLE_V3)
    def test_unreadable_record_comes_first(self, lower, higher):
        assert named_elements(str(load_error(two_bad_records_v3(lower, higher)))) == [3]

    @pytest.mark.parametrize("kind", [*UNREADABLE_V3, *INVALID_V3])
    def test_exit_2_through_the_cli(self, kind, tmp_path, capsys):
        arc = tmp_path / "a.json"
        arc.write_text(json.dumps(two_bad_records_v3(kind, kind)))
        assert main(["check", str(arc)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FormatError"
        assert named_elements(err["message"]) == [1]

    @pytest.mark.parametrize("kind, message", [
        ("index true", "'coeffs' holds True"),
        ("index 1.5", "'coeffs' holds 1.5"),
        ("index -1", "block -1 is outside the table of 4 blocks"),
        ("index past the table", "block 4 is outside the table of 4 blocks"),
        ("index string", "not a 64-bit integer"),
        ("block number", "archive block 2 must be a base64 string"),
        ("block null", "archive block 2 must be a base64 string"),
        ("block list", "archive block 2 must be a base64 string"),
        ("block outside alphabet", "archive block 2 is not ASCII base64"),
        ("block non-ASCII", "archive block 2 is not ASCII base64"),
        ("block cut", "characters is not the base64"),
        ("block one row short", "characters is not the base64"),
        ("block one row long", "characters is not the base64"),
        ("block NaN bytes", "non-finite coefficient"),
        ("block +Inf bytes", "non-finite coefficient"),
        ("block -Inf bytes", "non-finite coefficient"),
    ])
    def test_each_mutation_fails_its_own_check(self, kind, message):
        payload = json.loads(surface_to_json(surface("val33", 0, "c0")))
        {**UNREADABLE_V3, **INVALID_V3}[kind](payload, payload["elements"][2])
        error = str(load_error(payload))
        assert message in error and named_elements(error) == [2]

    @pytest.mark.parametrize("make, message", [
        (lambda text, n: text[:-4], "characters is not the base64"),
        (lambda text, n: 7, "must be a base64 string"),
        (lambda text, n: block(np.r_[unblock(text, n).flat[:5], np.nan,
                                     unblock(text, n).flat[6:]]), "non-finite coefficient"),
    ])
    def test_shared_block_names_its_lowest_user(self, make, message):
        """Elements 19 and 23 of val333 refined once share a block, so a
        fault in it fails both, and the error names 19."""
        payload = json.loads(surface_to_json(surface("val333", 1, "c0")))
        records = payload["elements"]
        shared = records[19]["coeffs"]
        assert [r["element"] for r in records if r["coeffs"] == shared] == [19, 23]
        payload["blocks"][shared] = make(payload["blocks"][shared], 16)
        error = str(load_error(payload))
        assert message in error and named_elements(error) == [19]

    @pytest.mark.parametrize("blocks", ["missing", {}, "AAAA", None, 5])
    def test_block_table_must_be_a_list(self, blocks, tmp_path, capsys):
        payload = json.loads(surface_to_json(surface("val33", 0, "c0")))
        if blocks == "missing":
            del payload["blocks"]
        else:
            payload["blocks"] = blocks
        assert "'blocks'" in str(load_error(payload))
        arc = tmp_path / "a.json"
        arc.write_text(json.dumps(payload))
        assert main(["check", str(arc)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FormatError" and "'blocks'" in err["message"]

    @pytest.mark.parametrize("extra", [block(np.zeros(16)), "not base64", 5])
    def test_unused_block(self, extra, tmp_path, capsys):
        """A block no record uses, whatever it holds, is a FormatError."""
        payload = json.loads(surface_to_json(surface("val33", 0, "c0")))
        payload["blocks"].insert(2, extra)
        for record in payload["elements"]:
            record["coeffs"] += record["coeffs"] >= 2
        assert str(load_error(payload)) == "archive block 2 is used by no element"
        arc = tmp_path / "a.json"
        arc.write_text(json.dumps(payload))
        assert main(["check", str(arc)]) == 2
        assert "used by no element" in json.loads(capsys.readouterr().err)["message"]

    def test_unused_block_after_every_record_error(self):
        """An element that fails is named before an unused block."""
        payload = json.loads(surface_to_json(surface("val33", 0, "c0")))
        payload["blocks"].append(block(np.zeros(16)))
        INVALID_V3["block NaN bytes"](payload, payload["elements"][3])
        assert named_elements(str(load_error(payload))) == [3]


def net_obj(tmp_path, net, levels):
    """An OBJ file of the net ``net`` of ``netgen`` refined ``levels`` times:
    17 significant digits load back to the same doubles."""
    path = tmp_path / f"{net}_L{levels}.obj"
    path.write_text(save_obj(refine_n(getattr(netgen, net)(), levels)[0]))
    return path


class TestCliArchives:
    """The CLI writes an archive piece by piece (``archive_pieces``), to a
    file or to stdout, and reads it from the open file; the bytes are
    those of ``surface_to_json`` and one newline."""

    @pytest.mark.parametrize("output", ["file", "stdout"])
    @pytest.mark.parametrize("command", ["build", "refine"])
    @pytest.mark.parametrize("net, levels, variant", CASES)
    def test_written_bytes(self, net, levels, variant, command, output, tmp_path, capsys):
        if command == "build":  # the refined net's OBJ, built as it is
            argv = ["build", str(net_obj(tmp_path, net, levels)), "--variant", variant]
        else:
            argv = ["refine", str(net_obj(tmp_path, net, 0)), "--levels", str(levels),
                    "--variant", variant]
        path = tmp_path / "out.json"
        assert main([*argv, "-o", str(path) if output == "file" else "-"]) == 0
        written = path.read_text() if output == "file" else capsys.readouterr().out
        assert written == surface_to_json(surface(net, levels, variant)) + "\n"

    @pytest.mark.parametrize("net, levels, variant", CASES)
    def test_file_read_gives_the_groups_of_the_text(self, net, levels, variant, tmp_path):
        text = surface_to_json(surface(net, levels, variant)) + "\n"
        path = tmp_path / "a.json"
        path.write_text(text)
        ours, ref = cli._load_surface(str(path)), surface_from_json(text)
        assert len(ours.groups) == len(ref.groups) > 0
        assert {g.rational for g in ours.groups} == {variant == "g1r", False}
        for a, b in zip(ours.groups, ref.groups):
            assert (a.degree, a.rational) == (b.degree, b.rational)
            for field in ("elements", "basis", "mask", "coeffs"):
                assert_bitwise(getattr(a, field), getattr(b, field))
        assert_same_surface(ours, ref)

    @pytest.mark.parametrize("net, levels, variant", CASES)
    def test_pieces_join_to_the_text(self, net, levels, variant, monkeypatch):
        written = surface(net, levels, variant)
        text = surface_to_json(written)
        assert "".join(archive_pieces(written)) == text
        monkeypatch.setattr(archive, "RECORD_VALUES", 1)  # a piece per record
        monkeypatch.setattr(archive, "NET_ROWS", 3)
        pieces = list(archive_pieces(written))
        assert "".join(pieces) == text
        assert len(pieces) > 2 * written.cnet.n_faces
