"""Self-contained JSON surface archives.

An archive stores the control net, every element extraction, the
construction variant and the construction diagnostics, with a format
version for forward compatibility.  It is written as compact one-line
JSON with sorted keys, format version 3; JSON readers ignore whitespace,
so indented archives load unchanged.

Format 3 stores each distinct coefficient block once, in the top-level
list ``blocks``, and each element record's ``coeffs`` is the index of its
block there.  A block is the standard base64 (RFC 4648, padded, ASCII) of
an element's row-major (n_basis, (p+1)^2) array of little-endian float64
values, so coefficients round-trip bitwise and load without parsing a
decimal per number.  Blocks are byte-wise distinct and ordered by first
use in ascending element id.  Regular faces away from an extraordinary
vertex keep one bicubic extraction, so few blocks are distinct: 125 of
the 4096 elements of rot44 refined four times (g1r), whose archive is
1.26 MB against 11.9 MB in format 2.  Every other field is a JSON value:
positions are floats (shortest representation that parses back to the
same double), ids and faces are integers.  Format 2, where each record's
``coeffs`` is its own base64 string, and format 1, where it is a list of
rows of JSON numbers, still load; the writer produces neither.

The writer streams: ``archive_pieces`` yields the text in pieces.  It
first numbers the blocks (``block_numbers``): each element is keyed by a
digest of its rows and compared bitwise with the first element of its
key, so it holds an index per element and no copy of the coefficients.
Then it yields the block table, from the group rows; the diagnostics;
the element records, formatted straight from the group arrays with no
dict per element; and the tail with the format version, the net
(``NET_ROWS`` rows a piece) and the variant.  Blocks and records come a
run of about ``RECORD_VALUES`` coefficients at a time.  The CLI writes
the pieces as they come, so it never holds the whole text;
``surface_to_json`` is their join.  ``read_archive`` parses an open file,
whose text is freed before the records are converted;
``surface_from_json`` parses a string.  Either way each distinct block is
decoded once and assigned to the rows of all its elements in the groups
that ``padded_groups`` lays out, so the reader holds the parsed payload
and one copy of the coefficients.

The reader converts each element field once over all records and checks
the results as arrays.  An error about one element names the lowest
failing element: a record whose fields cannot be read (wrong type or
shape, a block index outside the table, or a block that is not base64 of
the right length) is reported before a record whose values fail a check,
such as a non-finite coefficient; a faulty shared block fails every
element that uses it.  A block no record uses is a FormatError once
every record passes.  Numbers must be JSON numbers: a numeric string or
a boolean where a position, an integer or a format-1 coefficient belongs
is a FormatError.  A class of elements too wide to pad is a
ResourceError, raised before its groups are allocated.
"""

from __future__ import annotations

import base64
import json
from itertools import chain

import numpy as np

from .errors import FormatError
from .evaluate import GSplineSurface, padded_groups
from .extraction import SUPPORTED_DEGREES
from .mesh import CNet, ControlNet

FORMAT_VERSION = 3
READABLE_VERSIONS = (1, 2, 3)
RECORD_VALUES = 2**16  # coefficients of one piece of blocks or records (0.7 MB)
NET_ROWS = 2**10  # positions or faces of one piece of the net

# What reading a malformed element record can raise
_READ_ERRORS = (FormatError, KeyError, ValueError, TypeError, OverflowError)

_dumps = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


def archive_pieces(surface: GSplineSurface):
    """The archive text of ``surface`` in pieces, keys in sorted order:
    the block table and the element records, each a run of about
    ``RECORD_VALUES`` coefficients at a time, with the diagnostics between
    them; and the tail, with the net a block of ``NET_ROWS`` rows at a
    time.  Their concatenation is ``surface_to_json(surface)``."""
    index, firsts = block_numbers(surface)
    counts, values = _sizes(surface)
    # the decimal text of every vertex id, for the basis lists
    names = np.array(_dumps(list(range(surface.cnet.n_vertices)))[1:-1].split(","),
                     dtype=object)
    yield '{"blocks":['
    yield from _runs(values[firsts], lambda lo, hi: _blocks(surface, firsts[lo:hi], counts))
    yield '],"diagnostics":' + _dumps(surface.diagnostics) + ',"elements":['
    yield from _runs(values, lambda lo, hi: _records(surface, index, names, lo, hi))
    yield f'],"format_version":{FORMAT_VERSION},"net":{{"faces":'
    yield from _row_pieces(surface.cnet.faces)
    yield ',"positions":'
    yield from _row_pieces(surface.net.positions)
    yield '},"variant":' + _dumps(surface.variant) + "}"


def _row_pieces(array: np.ndarray):
    """``_dumps(array.tolist())`` of a 2-D array, in blocks of rows."""
    yield "["
    for start in range(0, len(array), NET_ROWS):
        if start:
            yield ","
        yield _dumps(array[start:start + NET_ROWS].tolist())[1:-1]
    yield "]"


def block_numbers(surface: GSplineSurface) -> tuple[np.ndarray, np.ndarray]:
    """Each element's index in the block table, and the element that first
    uses each block.  The blocks are the byte-wise distinct coefficient
    blocks, numbered by first use in ascending element id.  An element is
    keyed by a digest of its rows and its value count, and its rows are
    compared bitwise with those of the first element of its key; only
    where they differ are the bytes of that key's elements held, to split
    it.  So the digest needs no strength, and no copy of the coefficients
    is kept."""
    n = surface.cnet.n_faces
    weights = _weights(max(g.mask.shape[1] * (g.degree + 1) ** 2 for g in surface.groups))
    keys = np.empty(n, dtype=np.uint64)
    for g, rows, bits in _row_bits(surface):
        values = (g.mask[rows].sum(axis=1) * (g.degree + 1) ** 2).astype(np.uint64)
        keys[g.elements[rows]] = bits @ weights[:bits.shape[1]] + values  # wraps mod 2^64
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    group_of, row_of = surface.group_slots
    head = first[inverse]  # the first element of each element's key
    same = group_of[head] == group_of
    for g, rows, bits in _row_bits(surface):
        at = g.elements[rows]
        twin = np.where(same[at], row_of[head[at]], np.arange(len(g.elements))[rows])
        twin = g.coeffs[twin].astype("<f8", copy=False).view("<u8")
        same[at] &= (bits == twin.reshape(len(at), -1)).all(axis=1)
    if not same.all():  # a digest collision, or equal blocks of two classes
        split = np.zeros(n, dtype=np.int64)
        for key in np.unique(inverse[~same]).tolist():
            seen = {}
            for e in np.flatnonzero(inverse == key).tolist():
                rows = surface.extraction(e).coeffs.astype("<f8", copy=False).tobytes()
                split[e] = seen.setdefault(rows, len(seen))
        _, first, inverse = np.unique(inverse * (split.max() + 1) + split,
                                      return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    return number[inverse], first[order]


def _weights(size: int) -> np.ndarray:
    """Pseudo-random uint64 weights of a digest of up to ``size`` values,
    the splitmix64 outputs 1..size: the same on every call, and each a
    prefix of the longer ones, so equal blocks of two classes get equal
    digests.  (``numpy.random`` would add an import to every write.)"""
    z = np.arange(1, size + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _row_bits(surface: GSplineSurface):
    """``(g, rows, bits)`` for each group ``g`` in runs of rows of about
    ``RECORD_VALUES`` padded coefficients: ``bits`` is the (len(rows),
    n * (p+1)^2) uint64 view of their little-endian float64 values."""
    for g in surface.groups:
        step = max(1, RECORD_VALUES // (g.mask.shape[1] * (g.degree + 1) ** 2))
        for lo in range(0, len(g.elements), step):
            rows = slice(lo, lo + step)
            coeffs = g.coeffs[rows].astype("<f8", copy=False)
            yield g, rows, coeffs.view("<u8").reshape(len(coeffs), -1)


def _runs(values: np.ndarray, piece):
    """``piece(lo, hi)`` of consecutive runs of items, comma-separated, of
    ``values`` coefficients each: a new run starts where the running
    total passes a multiple of ``RECORD_VALUES``."""
    run = (np.cumsum(values) - values) // RECORD_VALUES  # where each item starts
    bounds = [0, *(np.flatnonzero(np.diff(run)) + 1).tolist(), len(values)]
    for lo, hi in zip(bounds, bounds[1:]):
        if lo:
            yield ","
        yield piece(lo, hi)


def _sizes(surface: GSplineSurface) -> tuple[np.ndarray, np.ndarray]:
    """Each element's basis count and coefficient count."""
    counts, values = np.zeros((2, surface.cnet.n_faces), dtype=np.int64)
    for g in surface.groups:
        counts[g.elements] = g.mask.sum(axis=1)
        values[g.elements] = counts[g.elements] * (g.degree + 1) ** 2
    return counts, values


def _blocks(surface: GSplineSurface, elements: np.ndarray, counts: np.ndarray) -> str:
    """The blocks of the rows of ``elements``, comma-separated."""
    group_of, row_of = surface.group_slots
    texts = []
    for g, r, n in zip(group_of[elements].tolist(), row_of[elements].tolist(),
                       counts[elements].tolist()):
        rows = surface.groups[g].coeffs[r, :n].astype("<f8", copy=False)
        texts.append(f'"{base64.b64encode(rows).decode("ascii")}"')
    return ",".join(texts)


def _records(surface: GSplineSurface, index: np.ndarray, names: np.ndarray,
             lo: int, hi: int) -> str:
    """The records of the elements lo..hi - 1, comma-separated, formatted
    from the rows of the groups with no dict per element: ``coeffs`` is
    the element's ``index`` in the block table."""
    records = [""] * (hi - lo)
    for g in surface.groups:
        a, b = np.searchsorted(g.elements, [lo, hi]).tolist()
        if a == b:
            continue
        record = (f'{{"basis":[%s],"coeffs":%d,"degree":{g.degree},"element":%d,'
                  f'"rational":{"true" if g.rational else "false"}}}')
        elements = g.elements[a:b]
        texts = map(record.__mod__, zip(_basis_texts(g.basis[a:b], g.mask[a:b], names),
                                        index[elements].tolist(), elements.tolist()))
        for at, text in zip((elements - lo).tolist(), texts):
            records[at] = text
    return ",".join(records)


def _basis_texts(basis: np.ndarray, mask: np.ndarray, names: np.ndarray) -> list:
    """The used ids of each row of ``basis``, as comma-separated text:
    ids in 0..len(names) - 1 take their ``names``, others ``str``."""
    ids = basis[mask]
    texts = names.take(ids, mode="clip").tolist()
    for i in np.flatnonzero((ids < 0) | (ids >= len(names))).tolist():
        texts[i] = str(ids[i])
    ends = np.cumsum(mask.sum(axis=1)).tolist()
    return [",".join(texts[lo:hi]) for lo, hi in zip([0, *ends], ends)]


def surface_to_json(surface: GSplineSurface) -> str:
    """The archive text of ``surface``: compact JSON with sorted keys."""
    return "".join(archive_pieces(surface))


def surface_from_json(text: str) -> GSplineSurface:
    """The surface of the archive ``text``."""
    return _surface(_parsed(json.loads, text))


def read_archive(file) -> GSplineSurface:
    """The surface of the archive in the open text ``file``, parsed from
    it: its text is freed before the records are converted."""
    return _surface(_parsed(json.load, file))


def _parsed(load, source):
    try:
        return load(source)
    except json.JSONDecodeError as exc:
        raise FormatError(f"archive is not valid JSON: {exc}") from exc


def _surface(payload) -> GSplineSurface:
    """The surface of a parsed archive: the coefficients are decoded
    straight into the rows of the ``padded_groups``."""
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
        blocks = payload["blocks"] if version == 3 else None
        if version == 3 and type(blocks) is not list:
            raise FormatError("archive field 'blocks' must be a list of base64 strings, "
                              f"not {blocks!r:.60}")
        ids = _integers([r["element"] for r in records], "element", 1)
        order = np.argsort(ids, kind="stable")
        ids, records = ids[order], [records[i] for i in order.tolist()]
        groups, index = _read_elements(ids, records, version, blocks)
        variant = payload["variant"]
    except KeyError as exc:
        raise FormatError(f"archive is missing field {exc}") from exc
    except (ValueError, TypeError, OverflowError) as exc:
        raise FormatError(
            f"archive field has the wrong type or is out of range: {exc}"
        ) from exc
    _validate(net, ids, variant)
    surface = GSplineSurface(net, groups, variant, diagnostics)
    _validate_elements(surface)
    if version == 3:
        _check_blocks_used(len(blocks), index)
    return surface


def _integers(value, field: str, ndim: int) -> np.ndarray:
    """Archive integers nested ``ndim`` (1 or 2) lists deep, as int64;
    FormatError naming the field for anything else, such as a boolean or
    a number that is not integral.  A flat list holds one field's values,
    and the error shows the first wrong one."""
    try:  # the usual case, plain ints, converted without inferring a dtype
        if set(map(type, value if ndim == 1 else chain.from_iterable(value))) == {int}:
            arr = np.array(value, dtype=np.int64)
            if arr.ndim == ndim:
                return arr
    except (OverflowError, ValueError, TypeError):  # too large, ragged or not nested
        pass
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


def _read_elements(ids: np.ndarray, records: list, version: int, blocks) -> tuple:
    """``_convert`` over all records (sorted by id) at once.  If that
    fails, the error names the lowest element whose record fails alone."""
    try:
        return _convert(ids, records, version, blocks)
    except _READ_ERRORS:
        for element, record in zip(ids.tolist(), records):
            try:
                _convert(ids[:1], [record], version, blocks)
            except KeyError:
                raise
            except _READ_ERRORS as exc:
                raise FormatError(f"element {element}: {exc}") from exc
        raise


def _convert(ids: np.ndarray, records: list, version: int, blocks) -> tuple:
    """The ``padded_groups`` of the elements ``ids`` filled from their
    records (format ``version``; format 3 with the table ``blocks``), and
    the records' block indices (None before format 3): each field is
    checked once for all of them, then the coefficients are decoded into
    the group rows.  Raises on a wrong type or shape."""
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
    if (counts == 0).any():
        raise FormatError("coefficient matrix shape does not match basis list")
    basis = _integers(list(chain.from_iterable(basis)), "basis", 1)
    index = None
    if version == 3:
        index = _integers([r["coeffs"] for r in records], "coeffs", 1)
        outside = (index < 0) | (index >= len(blocks))
        if outside.any():
            raise FormatError(f"coefficient block {index[outside][0]} is outside "
                              f"the table of {len(blocks)} blocks")
    rational = np.array(rational, dtype=bool)
    groups = padded_groups(degree, rational, counts, ids)
    decode = _coeff_block if version == 2 else _coeff_rows
    kind = 2 * degree + rational
    for g in groups:
        g.basis[g.mask] = basis[np.repeat(kind, counts) == 2 * g.degree + g.rational]
        members = np.flatnonzero(kind == 2 * g.degree + g.rational)
        if version == 3:
            _fill_from_blocks(g, blocks, index[members], counts[members])
            continue
        for row, (i, n) in enumerate(zip(members.tolist(), counts[members].tolist())):
            g.coeffs[row, :n] = decode(records[i]["coeffs"], n, g.degree)
    return groups, index


def _fill_from_blocks(g, blocks: list, index: np.ndarray, counts: np.ndarray) -> None:
    """Format 3: the rows of group ``g`` from the table ``blocks``, row r
    holding ``counts[r]`` rows of block ``index[r]``.  Each distinct
    (block, count) is decoded once and assigned to all its rows."""
    rows = {}
    for row, pair in enumerate(zip(index.tolist(), counts.tolist())):
        rows.setdefault(pair, []).append(row)
    for (i, n), at in rows.items():
        g.coeffs[at if len(at) > 1 else at[0], :n] = _coeff_block(
            blocks[i], n, g.degree, f"archive block {i}")


def _check_blocks_used(n_blocks: int, index: np.ndarray) -> None:
    """Raise FormatError unless the records' block ``index`` uses every
    block of the table."""
    used = np.zeros(n_blocks, dtype=bool)
    used[index] = True
    if not used.all():
        raise FormatError(f"archive block {int(np.argmin(used))} is used by no element")


def _coeff_rows(rows, count: int, p: int) -> np.ndarray:
    """Format 1: ``count`` rows of (p+1)^2 JSON numbers, as an array."""
    if (type(rows) is not list or len(rows) != count
            or any(type(r) is not list or len(r) != (p + 1) ** 2 for r in rows)):
        raise FormatError("coefficient matrix shape does not match basis list")
    return np.array(_numbers(list(chain.from_iterable(rows)), "coeffs"),
                    dtype=float).reshape(count, -1)


def _coeff_block(text, count: int, p: int, name: str = "archive field 'coeffs'") -> np.ndarray:
    """Formats 2 and 3: the padded base64 of exactly ``count`` rows of
    (p+1)^2 little-endian float64 values, as an array over the decoded
    bytes; ``name`` says where the string is.  Checking the string length
    as well rejects excess padding and text after it on any Python."""
    if type(text) is not str:
        raise FormatError(f"{name} must be a base64 string, not {text!r:.60}")
    row_bytes = 8 * (p + 1) ** 2
    size = count * row_bytes
    if len(text) != 4 * -(-size // 3):
        raise FormatError(f"coefficient string of {len(text)} characters is not "
                          f"the base64 of {count} rows of {row_bytes} bytes")
    try:
        block = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise FormatError(f"{name} is not ASCII base64: {exc}") from exc
    if len(block) != size:
        raise FormatError(f"coefficient block of {len(block)} bytes does not hold "
                          f"{count} rows of {row_bytes} bytes")
    return np.frombuffer(block, dtype="<f8").reshape(count, -1)


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
