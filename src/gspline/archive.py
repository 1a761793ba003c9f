"""Self-contained JSON surface archives.

An archive stores the control net, every element extraction, the
construction variant and the construction diagnostics, with a format
version for forward compatibility.  It is written as compact one-line
JSON with sorted keys, format version 2; JSON readers ignore whitespace,
so indented archives load unchanged.

Format 2 stores each element's ``coeffs`` as one string: the standard
base64 (RFC 4648, padded, ASCII) of its row-major (n_basis, (p+1)^2)
array of little-endian float64 values, so coefficients round-trip
bitwise and load without parsing a decimal per number.  Every other
field is a JSON value: positions are floats (shortest representation
that parses back to the same double), ids and faces are integers.
Format 1, where ``coeffs`` is a list of rows of JSON numbers, still
loads; the writer no longer produces it.  Base64 takes 4 characters per
3 bytes, so format 2 is a few percent larger than the shortest decimals
(11.9 against 11.5 MB for 4096 g1r elements) and much faster to write
and read.

The reader converts each element field once over all records and checks
the results as arrays.  An error about one element names the lowest
failing element: a record whose fields cannot be read (wrong type or
shape, or a ``coeffs`` string that is not base64 of the right length) is
reported before a record whose values fail a check, such as a non-finite
coefficient.  Numbers must be JSON numbers: a numeric string or a boolean
where a position, an integer or a format-1 coefficient belongs is a
FormatError.
"""

from __future__ import annotations

import base64
import json
from itertools import chain

import numpy as np

from .errors import FormatError
from .evaluate import GSplineSurface
from .extraction import SUPPORTED_DEGREES
from .mesh import CNet, ControlNet

FORMAT_VERSION = 2
READABLE_VERSIONS = (1, 2)

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
        "elements": _records(surface),
        "diagnostics": surface.diagnostics,
    }
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


def _records(surface: GSplineSurface) -> list[dict]:
    """One record per element, in element order, from ``surface.groups``."""
    records = [None] * surface.cnet.n_faces
    for g in surface.groups:
        coeffs = g.coeffs.astype("<f8", copy=False)
        for e, basis, c, n in zip(g.elements.tolist(), g.basis.tolist(), coeffs,
                                  g.mask.sum(axis=1).tolist()):
            records[e] = {"element": e, "degree": g.degree, "rational": g.rational,
                          "basis": basis[:n],
                          "coeffs": base64.b64encode(c[:n].tobytes()).decode("ascii")}
    return records


def surface_from_json(text: str) -> GSplineSurface:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"archive is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FormatError("archive is not a JSON object")
    version = payload.get("format_version")
    if type(version) is not int or version not in READABLE_VERSIONS:
        raise FormatError(f"unsupported archive format version {version!r:.60}")
    diagnostics = payload.get("diagnostics")
    if diagnostics is not None and type(diagnostics) is not list:
        raise FormatError("archive field 'diagnostics' must be null or a list, "
                          f"not {diagnostics!r:.60}")
    try:
        positions = payload["net"]["positions"]
        _numbers(list(chain.from_iterable(positions)), "net.positions")
        net = ControlNet(
            CNet(len(positions), _integers(payload["net"]["faces"], "net.faces", 2)),
            np.asarray(positions, dtype=float),
        )
        records = payload["elements"]
        if type(records) is not list:
            raise FormatError("archive field 'elements' must be a list of element "
                              f"records, not {records!r:.60}")
        ids = _integers([r["element"] for r in records], "element", 1)
        order = np.argsort(ids, kind="stable")
        ids, records = ids[order], [records[i] for i in order]
        rows = _read_elements(ids, records, version)
        variant = payload["variant"]
    except KeyError as exc:
        raise FormatError(f"archive is missing field {exc}") from exc
    except (ValueError, TypeError, OverflowError) as exc:
        raise FormatError(
            f"archive field has the wrong type or is out of range: {exc}"
        ) from exc
    _validate(net, ids, variant)
    surface = GSplineSurface.from_rows(net, variant, **rows, diagnostics=diagnostics)
    _validate_elements(surface)
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


def _numbers(values: list, field: str) -> list:
    """``values`` if every one is a JSON number (an int or a float), else
    FormatError naming the field and the first wrong value, such as a
    numeric string or a boolean."""
    wrong = set(map(type, values)) - {int, float}
    if wrong:
        bad = next(x for x in values if type(x) in wrong)
        raise FormatError(f"archive field {field!r} holds {bad!r:.60}, not a number")
    return values


def _is_int64(x) -> bool:
    return ((type(x) is int and -2**63 <= x < 2**63)
            or (type(x) is float and x.is_integer() and abs(x) < 2.0**63))


def _read_elements(ids: np.ndarray, records: list, version: int) -> dict:
    """``_convert`` over all records (sorted by id) at once.  If that
    fails, the error names the lowest element whose record fails alone."""
    try:
        return _convert(records, version)
    except _READ_ERRORS:
        for element, record in zip(ids.tolist(), records):
            try:
                _convert([record], version)
            except KeyError:
                raise
            except _READ_ERRORS as exc:
                raise FormatError(f"element {element}: {exc}") from exc
        raise


def _convert(records: list, version: int) -> dict:
    """Each field of the records converted once for all of them: the rows
    of ``GSplineSurface.from_rows``, that is degrees, rational flags, basis
    counts, basis ids and, per degree, coefficient rows (format
    ``version``).  Raises on a wrong type or shape."""
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
    if (counts == 0).any():
        raise FormatError("coefficient matrix shape does not match basis list")
    if version == 2:
        stacked = _coeff_blocks(coeffs, degree, counts)
    else:
        stacked = _coeff_rows(coeffs, degree, counts)
    return dict(degree=degree, rational=np.array(rational, dtype=bool), counts=counts,
                basis=_integers(list(chain.from_iterable(basis)), "basis", 1),
                coeffs=stacked)


def _coeff_rows(coeffs: list, degree: np.ndarray,
                counts: np.ndarray) -> dict[int, np.ndarray]:
    """Format 1: per degree, the coefficient rows of its records stacked,
    from lists of rows of JSON numbers."""
    if (any(type(c) is not list for c in coeffs)
            or [len(c) for c in coeffs] != counts.tolist()):
        raise FormatError("coefficient matrix shape does not match basis list")
    stacked = {}
    for p in np.unique(degree).tolist():
        rows = list(chain.from_iterable(coeffs[i] for i in np.flatnonzero(degree == p)))
        if (any(type(r) is not list for r in rows)
                or set(map(len, rows)) != {(p + 1) ** 2}):
            raise FormatError("coefficient matrix shape does not match basis list")
        stacked[p] = np.array(_numbers(list(chain.from_iterable(rows)), "coeffs"),
                              dtype=float).reshape(len(rows), (p + 1) ** 2)
    return stacked


def _coeff_blocks(coeffs: list, degree: np.ndarray,
                  counts: np.ndarray) -> dict[int, np.ndarray]:
    """Format 2: per degree, the coefficient rows of its records stacked,
    each record's base64 block decoded straight into its slice of one
    array.  A block must be the padded base64 of exactly counts[i] rows
    of (p+1)^2 little-endian float64 values: checking the string length
    as well rejects excess padding and text after it on any Python."""
    wrong = [c for c in coeffs if type(c) is not str]
    if wrong:
        raise FormatError("archive field 'coeffs' must be a base64 string, "
                          f"not {wrong[0]!r:.60}")
    stacked = {}
    for p in np.unique(degree).tolist():
        members = np.flatnonzero(degree == p)
        row_bytes = 8 * (p + 1) ** 2
        rows = np.empty((int(counts[members].sum()), (p + 1) ** 2), dtype="<f8")
        out, start = rows.view(np.uint8).reshape(-1), 0
        for i, size in zip(members.tolist(), (counts[members] * row_bytes).tolist()):
            if len(coeffs[i]) != 4 * -(-size // 3):
                raise FormatError(
                    f"coefficient string of {len(coeffs[i])} characters is not "
                    f"the base64 of {counts[i]} rows of {row_bytes} bytes")
            try:
                block = base64.b64decode(coeffs[i], validate=True)
            except ValueError as exc:  # binascii.Error, or a non-ASCII string
                raise FormatError(
                    f"archive field 'coeffs' is not ASCII base64: {exc}") from exc
            if len(block) != size:
                raise FormatError(
                    f"coefficient block of {len(block)} bytes does not hold "
                    f"{counts[i]} rows of {row_bytes} bytes")
            out[start:start + size] = np.frombuffer(block, dtype=np.uint8)
            start += size
        stacked[p] = rows.astype(float, copy=False)
    return stacked


def _validate(net: ControlNet, ids: np.ndarray, variant: str) -> None:
    """Raise FormatError unless the variant is known and the records
    describe every face once (``ControlNet`` checks the positions)."""
    if variant not in ("c0", "g1p", "g1r"):
        raise FormatError(f"archive field 'variant' is {variant!r:.60}, "
                          "not one of c0, g1p, g1r")
    n_faces = net.cnet.n_faces
    if not np.array_equal(ids, np.arange(n_faces)):
        raise FormatError(
            f"element ids are not a permutation of 0..{n_faces - 1}")


def _validate_elements(surface: GSplineSurface) -> None:
    """Raise FormatError unless every element has in-range, distinct basis
    ids and finite coefficients, and is rational only where the g1r
    construction makes it (degree 5).  The error names the lowest failing
    element."""
    n, variant = surface.cnet.n_vertices, surface.variant
    failing = np.zeros((4, surface.cnet.n_faces), dtype=bool)
    for g in surface.groups:
        # unused slots get distinct negative ids: no repeat among them
        padded = np.where(g.mask, g.basis, -1 - np.arange(g.mask.shape[1]))
        failing[:3, g.elements] = [
            (g.mask & ((g.basis < 0) | (g.basis >= n))).any(axis=1),
            (np.diff(np.sort(padded, axis=1), axis=1) == 0).any(axis=1),
            ~np.isfinite(g.coeffs).all(axis=(1, 2))]
        failing[3, g.elements] = g.rational and (variant != "g1r" or g.degree != 5)
    if failing.any():
        e = int(np.argmax(failing.any(axis=0)))
        raise FormatError([
            f"element {e} has a basis id outside 0..{n - 1}",
            f"element {e} repeats a basis id",
            f"element {e} has a non-finite coefficient",
            f"element {e} of a {variant} archive "
            f"cannot be rational at degree {surface.degree(e)}",
        ][int(np.argmax(failing[:, e]))])
