"""Format-2 archive writer, frozen as a reference.

``gspline.archive.surface_to_json`` writes format 3, where the records
index a table of distinct coefficient blocks.  This is the format-2
writer it replaced, with each element's coefficients one base64 string
of its own.  Tests that mutate one element's coefficient string run on
its text, and the reader must load its text to the same surface as the
format-3 text.
"""

import base64
import json

import numpy as np

from gspline.evaluate import GSplineSurface


def surface_to_json(surface: GSplineSurface) -> str:
    payload = {
        "format_version": 2,
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
                "coeffs": base64.b64encode(
                    np.ascontiguousarray(ext.coeffs, dtype="<f8").tobytes()).decode("ascii"),
            }
            for ext in surface.extractions
        ],
        "diagnostics": getattr(surface, "diagnostics", None),
    }
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)
