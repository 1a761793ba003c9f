"""Format-1 archive writer, frozen as a reference.

``gspline.archive.surface_to_json`` writes format 2, where each element's
coefficients are one base64 string.  This is the format-1 writer it
replaced, with every coefficient a JSON number in a list of rows.  Tests
that mutate coefficients number by number run on its text, and the
reader must load its text to the same surface as the format-2 text.
"""

import json

from gspline.evaluate import GSplineSurface


def surface_to_json(surface: GSplineSurface) -> str:
    payload = {
        "format_version": 1,
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
