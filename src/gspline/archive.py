"""Self-contained JSON surface archives.

An archive stores the control net, every element extraction, the
construction variant and the construction diagnostics, with a format
version for forward compatibility.  It is written as compact one-line
JSON with sorted keys, format version 1; JSON readers ignore whitespace,
so older indented archives of the same version load unchanged.  Floats
round-trip exactly (shortest representation that parses back to the same
double).

The reader converts each element field once over all records and checks
the results as arrays.  An error about one element names the lowest
failing element: a record whose fields cannot be read (wrong type or
shape) is reported before a record whose values fail a check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import FormatError
from .evaluate import GSplineSurface
from .extraction import SUPPORTED_DEGREES, ElementExtraction
from .mesh import CNet, ControlNet

FORMAT_VERSION = 1

# What reading a malformed element record can raise
_READ_ERRORS = (FormatError, KeyError, ValueError, TypeError, OverflowError)


def surface_to_json(surface: GSplineSurface) -> str:
    payload = {
        "format_version": FORMAT_VERSION,
        "variant": surface.variant,
        "net": {
            "positions": surface.net.positions.tolist(),
            "faces": surface.cnet.faces.tolist(),
        },
        "elements": [
            {
                "element": int(ext.element),
                "degree": int(ext.degree),
                "rational": bool(ext.rational),
                "basis": ext.basis.tolist(),
                "coeffs": ext.coeffs.tolist(),
            }
            for ext in surface.extractions
        ],
        "diagnostics": getattr(surface, "diagnostics", None),
    }
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


def surface_from_json(text: str) -> GSplineSurface:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"archive is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FormatError("archive is not a JSON object")
    version = payload.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise FormatError(f"unsupported archive format version {version!r:.60}")
    diagnostics = payload.get("diagnostics")
    if diagnostics is not None and type(diagnostics) is not list:
        raise FormatError("archive field 'diagnostics' must be null or a list, "
                          f"not {diagnostics!r:.60}")
    try:
        net = ControlNet(
            CNet(len(payload["net"]["positions"]),
                 _integers(payload["net"]["faces"], "net.faces", 2)),
            np.asarray(payload["net"]["positions"], dtype=float),
        )
        records = payload["elements"]
        ids = _integers([r["element"] for r in records], "element", 1)
        order = np.argsort(ids, kind="stable")
        ids, records = ids[order], [records[i] for i in order]
        elements = _read_elements(ids, records)
        variant = payload["variant"]
    except KeyError as exc:
        raise FormatError(f"archive is missing field {exc}") from exc
    except (ValueError, TypeError, OverflowError) as exc:
        raise FormatError(
            f"archive field has the wrong type or is out of range: {exc}"
        ) from exc
    _validate(net, ids, elements, variant)
    surface = GSplineSurface(net=net, extractions=elements.extractions(),
                             variant=variant)
    surface.diagnostics = diagnostics
    return surface


def _integers(value, field: str, ndim: int) -> np.ndarray:
    """Archive integers nested ``ndim`` (1 or 2) lists deep, as int64;
    FormatError naming the field for anything else, such as a boolean or
    a number that is not integral.  A flat list holds one field's values,
    and the error shows the first wrong one."""
    arr = np.asarray(value)
    if (arr.dtype.kind == "f" and (np.round(arr) == arr).all()
            and (np.abs(arr) < 2.0**63).all()):
        arr = arr.astype(int)
    if (arr.dtype.kind == "i" and arr.ndim == ndim
            and bool not in set(map(type, value if ndim == 1
                                    else chain.from_iterable(value)))):
        return arr
    if ndim == 2:
        raise FormatError(f"archive field {field!r} must be a list of integer "
                          f"lists, not {value!r:.60}")
    wrong = next((x for x in value if not _is_int64(x)), value)
    raise FormatError(
        f"archive field {field!r} holds {wrong!r:.60}, not a 64-bit integer")


def _is_int64(x) -> bool:
    return ((type(x) is int and -2**63 <= x < 2**63)
            or (type(x) is float and x.is_integer() and abs(x) < 2.0**63))


@dataclass
class _Elements:
    """The element records as arrays, sorted by element id.

    Record i supports ``counts[i]`` basis functions.  ``basis`` holds the
    basis ids of all records, record after record; ``coeffs[p]`` the
    coefficient rows of the degree-p records, in the same order.
    """

    degree: np.ndarray
    rational: np.ndarray
    counts: np.ndarray
    basis: np.ndarray
    coeffs: dict[int, np.ndarray]

    def extractions(self) -> list[ElementExtraction]:
        """One extraction per record, record i as element i, its arrays
        views into these."""
        basis = np.split(self.basis, np.cumsum(self.counts)[:-1])
        coeffs = [None] * len(basis)
        for p, rows in self.coeffs.items():
            members = np.flatnonzero(self.degree == p)
            for i, c in zip(members.tolist(),
                            np.split(rows, np.cumsum(self.counts[members])[:-1])):
                coeffs[i] = c
        return [
            ElementExtraction(element=e, degree=p, rational=rational,
                              basis=b, coeffs=c)
            for e, (p, rational, b, c) in enumerate(zip(
                self.degree.tolist(), self.rational.tolist(), basis, coeffs))
        ]


def _read_elements(ids: np.ndarray, records: list) -> _Elements:
    """``_convert`` over all records (sorted by id) at once.  If that
    fails, the error names the lowest element whose record fails alone."""
    try:
        return _convert(records)
    except _READ_ERRORS:
        for element, record in zip(ids.tolist(), records):
            try:
                _convert([record])
            except KeyError:
                raise
            except _READ_ERRORS as exc:
                raise FormatError(f"element {element}: {exc}") from exc
        raise


def _convert(records: list) -> _Elements:
    """Each field of the records converted once for all of them: degrees,
    rational flags, basis ids and, per degree, coefficient rows.  Raises
    on a wrong type or shape."""
    degree = _integers([r["degree"] for r in records], "degree", 1)
    unsupported = ~np.isin(degree, SUPPORTED_DEGREES)
    if unsupported.any():
        raise FormatError(f"unsupported degree {degree[unsupported][0]}")
    rational = [r.get("rational", False) for r in records]
    wrong = [x for x in rational if type(x) is not bool]
    if wrong:
        raise FormatError("archive field 'rational' must be true or false, "
                          f"not {wrong[0]!r:.60}")
    basis = [r["basis"] for r in records]
    wrong = [x for x in basis if type(x) is not list]
    if wrong:
        raise FormatError("archive field 'basis' must be a list of integers, "
                          f"not {wrong[0]!r:.60}")
    counts = np.array([len(b) for b in basis], dtype=int)
    coeffs = [r["coeffs"] for r in records]
    if (any(type(c) is not list for c in coeffs) or (counts == 0).any()
            or [len(c) for c in coeffs] != counts.tolist()):
        raise FormatError("coefficient matrix shape does not match basis list")
    stacked = {}
    for p in np.unique(degree).tolist():
        members = np.flatnonzero(degree == p)
        stacked[p] = np.array(
            list(chain.from_iterable(coeffs[i] for i in members.tolist())),
            dtype=float)
        if stacked[p].shape != (counts[members].sum(), (p + 1) ** 2):
            raise FormatError("coefficient matrix shape does not match basis list")
    return _Elements(
        degree=degree, rational=np.array(rational, dtype=bool),
        counts=counts,
        basis=_integers(list(chain.from_iterable(basis)), "basis", 1),
        coeffs=stacked)


def _validate(net: ControlNet, ids: np.ndarray, elements: _Elements,
              variant: str) -> None:
    """Raise FormatError unless the records describe every face once, with
    in-range, distinct basis ids, finite numbers, a known variant and rational
    elements only where the g1r construction makes them (degree 5).  A
    per-element error names the lowest failing element."""
    if variant not in ("c0", "g1p", "g1r"):
        raise FormatError(f"archive field 'variant' is {variant!r:.60}, "
                          "not one of c0, g1p, g1r")
    if not np.isfinite(net.positions).all():
        raise FormatError("archive has a non-finite control point position")
    n_faces = net.cnet.n_faces
    if not np.array_equal(ids, np.arange(n_faces)):
        raise FormatError(
            f"element ids are not a permutation of 0..{n_faces - 1}")

    n, basis, degree = net.cnet.n_vertices, elements.basis, elements.degree
    owner = np.repeat(np.arange(n_faces), elements.counts)
    out_of_range = np.zeros(n_faces, dtype=bool)
    out_of_range[owner[(basis < 0) | (basis >= n)]] = True
    by_element = np.lexsort((basis, owner))
    sorted_owner = owner[by_element]
    same = (np.diff(basis[by_element]) == 0) & (np.diff(sorted_owner) == 0)
    repeated = np.zeros(n_faces, dtype=bool)
    repeated[sorted_owner[1:][same]] = True
    nonfinite = np.zeros(n_faces, dtype=bool)
    for p, rows in elements.coeffs.items():
        members = np.flatnonzero(degree == p)
        rows_owner = np.repeat(members, elements.counts[members])
        nonfinite[rows_owner[~np.isfinite(rows).all(axis=1)]] = True
    misplaced = elements.rational & ((variant != "g1r") | (degree != 5))

    failing = np.array([out_of_range, repeated, nonfinite, misplaced])
    if failing.any():
        e = int(np.argmax(failing.any(axis=0)))
        raise FormatError([
            f"element {e} has a basis id outside 0..{n - 1}",
            f"element {e} repeats a basis id",
            f"element {e} has a non-finite coefficient",
            f"element {e} of a {variant} archive "
            f"cannot be rational at degree {degree[e]}",
        ][int(np.argmax(failing[:, e]))])
