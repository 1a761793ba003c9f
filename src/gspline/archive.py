"""Self-contained JSON surface archives.

An archive stores the control net, every element extraction, the
construction variant and the construction diagnostics, with a format
version for forward compatibility.  Floats round-trip exactly (shortest
representation that parses back to the same double).
"""

from __future__ import annotations

import json

import numpy as np

from .errors import FormatError
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
            CNet(len(payload["net"]["positions"]), payload["net"]["faces"]),
            np.asarray(payload["net"]["positions"], dtype=float),
        )
        records = sorted(payload["elements"], key=lambda r: r["element"])
        extractions = [
            ElementExtraction(
                element=int(r["element"]), degree=int(r["degree"]),
                basis=np.asarray(r["basis"], dtype=int),
                coeffs=np.asarray(r["coeffs"], dtype=float),
                rational=bool(r.get("rational", False)),
            )
            for r in records
        ]
        surface = GSplineSurface(net=net, extractions=extractions,
                                 variant=payload["variant"])
    except KeyError as exc:
        raise FormatError(f"archive is missing field {exc}") from exc
    n = net.cnet.n_vertices
    for ext in extractions:
        if ((ext.basis < 0) | (ext.basis >= n)).any():
            raise FormatError(
                f"element {ext.element} has a basis id outside 0..{n - 1}")
    surface.diagnostics = payload.get("diagnostics")
    return surface
