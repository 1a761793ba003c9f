"""Self-contained JSON surface archives.

An archive stores the control net, every element extraction, the
construction variant and the construction diagnostics, with a format
version for forward compatibility.  Floats round-trip exactly (shortest
representation that parses back to the same double).
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DomainError, FormatError
from .evaluate import GSplineSurface
from .extraction import ElementExtraction
from .mesh import CNet, ControlNet

FORMAT_VERSION = 1


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
    return json.dumps(payload, indent=1, sort_keys=True)


def surface_from_json(text: str) -> GSplineSurface:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"archive is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FormatError("archive is not a JSON object")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported archive format version {version!r}")
    try:
        net = ControlNet(
            CNet(len(payload["net"]["positions"]),
                 _integers(payload["net"]["faces"], "net.faces", 2)),
            np.asarray(payload["net"]["positions"], dtype=float),
        )
        records = sorted(payload["elements"], key=lambda r: r["element"])
        extractions = [_extraction(r) for r in records]
        variant = payload["variant"]
    except KeyError as exc:
        raise FormatError(f"archive is missing field {exc}") from exc
    except (ValueError, TypeError, OverflowError) as exc:
        raise FormatError(
            f"archive field has the wrong type or is out of range: {exc}"
        ) from exc
    _validate(net, extractions, variant)
    surface = GSplineSurface(net=net, extractions=extractions, variant=variant)
    surface.diagnostics = payload.get("diagnostics")
    return surface


def _integers(value, field: str, ndim: int) -> np.ndarray:
    """An archive field of integers nested ``ndim`` (0, 1 or 2) lists deep,
    as int64; FormatError naming the field for anything else, such as a
    number that is not integral."""
    arr = np.asarray(value)
    if (arr.dtype.kind == "f" and (np.round(arr) == arr).all()
            and (np.abs(arr) < 2.0**63).all()):
        arr = arr.astype(int)
    if arr.dtype.kind != "i" or arr.ndim != ndim:
        kind = ("an integer", "a list of integers", "a list of integer lists")[ndim]
        raise FormatError(f"archive field {field!r} must be {kind}, not {value!r:.60}")
    return arr


def _extraction(record: dict) -> ElementExtraction:
    element = int(_integers(record["element"], "element", 0))
    try:
        return ElementExtraction(
            element=element, degree=int(_integers(record["degree"], "degree", 0)),
            basis=_integers(record["basis"], "basis", 1),
            coeffs=np.asarray(record["coeffs"], dtype=float),
            rational=bool(record.get("rational", False)),
        )
    except (FormatError, DomainError, ValueError, TypeError, OverflowError) as exc:
        raise FormatError(f"element {element}: {exc}") from exc


def _validate(net: ControlNet, extractions: list[ElementExtraction],
              variant: str) -> None:
    """Raise FormatError unless the records describe every face once, with
    in-range, distinct basis ids, finite numbers, a known variant and rational
    elements only where the g1r construction makes them (degree 5)."""
    if variant not in ("c0", "g1p", "g1r"):
        raise FormatError(f"archive field 'variant' is {variant!r:.60}, "
                          "not one of c0, g1p, g1r")
    if not np.isfinite(net.positions).all():
        raise FormatError("archive has a non-finite control point position")
    ids = [ext.element for ext in extractions]
    if ids != list(range(net.cnet.n_faces)):
        raise FormatError(
            f"element ids are not a permutation of 0..{net.cnet.n_faces - 1}")
    n = net.cnet.n_vertices
    for ext in extractions:
        if ((ext.basis < 0) | (ext.basis >= n)).any():
            raise FormatError(
                f"element {ext.element} has a basis id outside 0..{n - 1}")
        if np.unique(ext.basis).size != ext.basis.size:
            raise FormatError(f"element {ext.element} repeats a basis id")
        if not np.isfinite(ext.coeffs).all():
            raise FormatError(
                f"element {ext.element} has a non-finite coefficient")
        if ext.rational and (variant != "g1r" or ext.degree != 5):
            raise FormatError(f"element {ext.element} of a {variant} archive "
                              f"cannot be rational at degree {ext.degree}")
