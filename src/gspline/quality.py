"""Shell-validity analysis of a surface.

Off-midsurface points live at x + zeta * n with zeta in [-t/2, t/2].  With
the through-thickness metric linearized as g_ab = a_ab - 2 zeta b_ab, the
area element sqrt(det g) must stay real at every quadrature point for a
shell simulation to be possible; the smallest thickness at which det g
turns nonpositive is the surface-quality measure reported here.  Surface
quadrature uses (p+1)^2 Gauss-Legendre points per element and the
through-thickness rule is 5-point Gauss-Lobatto, whose endpoint nodes at
the outer fibers make it the most conservative choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import DomainError, finite_json
from .evaluate import GSplineSurface, group_frames, map_groups


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray
    weights: np.ndarray


def gauss_legendre(n: int, a: float = 0.0, b: float = 1.0) -> QuadratureRule:
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return QuadratureRule(a + half * (x + 1.0), half * w)


@cache
def gauss_legendre_2d(n: int) -> QuadratureRule:
    """n x n Gauss-Legendre rule on [0,1]^2 with read-only (n^2, 2) points,
    eta-major with xi fastest, shared by every caller."""
    rule = gauss_legendre(n)
    pts = np.stack(np.meshgrid(rule.points, rule.points), axis=-1).reshape(-1, 2)
    wts = np.outer(rule.weights, rule.weights).ravel()
    pts.flags.writeable = wts.flags.writeable = False
    return QuadratureRule(pts, wts)


_LOBATTO5_X = np.array([-1.0, -math.sqrt(3.0 / 7.0), 0.0,
                        math.sqrt(3.0 / 7.0), 1.0])
_LOBATTO5_W = np.array([0.1, 49.0 / 90.0, 32.0 / 45.0, 49.0 / 90.0, 0.1])


def gauss_lobatto5(a: float, b: float) -> QuadratureRule:
    """5-point Gauss-Lobatto rule on [a, b]; includes both endpoints."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return QuadratureRule(mid + half * _LOBATTO5_X, half * _LOBATTO5_W)


@dataclass
class QualityReport:
    variant: str
    thickness: float  # smallest invalid thickness found (inf when valid)
    valid_up_to: float  # largest thickness confirmed valid
    location: dict | None  # element, xi, eta, zeta of the first invalidity
    element_min_det: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "variant": self.variant,
            "min_invalid_thickness": (
                None if math.isinf(self.thickness) else self.thickness),
            "valid_up_to": self.valid_up_to,
            "location": self.location,
            "element_min_det": {str(k): v for k, v in
                                sorted(self.element_min_det.items())},
        }
        return finite_json("quality", payload)

    def to_csv_row(self) -> str:
        t = "inf" if math.isinf(self.thickness) else f"{self.thickness:.6g}"
        loc = -1 if self.location is None else self.location["element"]
        return f"{self.variant},{t},{self.valid_up_to:.6g},{loc}"


def _quadrature_frames(surface: GSplineSurface):
    """Metric data at all surface quadrature points, computed once per surface.

    Returns ``(elements, uv, metric, curvature)`` with one row per point,
    element by element and, within one, eta-major with xi fastest.
    """
    def rows(g):
        pts = gauss_legendre_2d(g.degree + 1).points
        fr = group_frames(surface, g, pts)
        return (np.repeat(g.elements, len(pts)), np.tile(pts, (len(g.elements), 1)),
                fr.metric.reshape(-1, 2, 2), fr.curvature.reshape(-1, 2, 2))

    parts = [np.concatenate(p) for p in zip(*map_groups(surface, rows))]
    order = np.argsort(parts[0], kind="stable")
    return tuple(p[order] for p in parts)


def _fiber_dets(frames, zetas: np.ndarray) -> np.ndarray:
    """det(a - 2 zeta b) at every quadrature point (rows) and fiber (columns)."""
    _, _, metric, curvature = frames
    g = metric[:, None] - 2.0 * zetas[:, None, None] * curvature[:, None]
    return g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]


def is_valid_at_thickness(surface: GSplineSurface, t: float):
    """Check det g > 0 at every surface point and Lobatto fiber.

    Returns ``(valid, failure)`` where failure describes the first
    nonpositive area element (element, xi, eta, zeta, det), scanning the
    points in ``_quadrature_frames`` order and the fibers upward.
    """
    if t <= 0.0:
        raise DomainError("thickness must be positive")
    frames = _quadrature_frames(surface)
    zetas = gauss_lobatto5(-0.5 * t, 0.5 * t).points
    dets = _fiber_dets(frames, zetas)
    bad = np.flatnonzero(dets <= 0.0)
    if bad.size == 0:
        return True, None
    i, z = divmod(int(bad[0]), len(zetas))
    elements, uv, _, _ = frames
    return False, {"element": int(elements[i]), "xi": float(uv[i, 0]),
                   "eta": float(uv[i, 1]), "zeta": float(zetas[z]),
                   "det": float(dets[i, z])}


def element_min_dets(surface: GSplineSurface, t: float, frames):
    """Per-element minimum of det g over quadrature points at thickness t."""
    dets = _fiber_dets(frames, gauss_lobatto5(-0.5 * t, 0.5 * t).points)
    mins = np.full(surface.cnet.n_faces, np.inf)
    np.minimum.at(mins, frames[0], dets.min(axis=1))
    return {e: float(d) for e, d in enumerate(mins)}


def min_invalid_thickness(surface: GSplineSurface, t_lo: float = 0.01,
                          t_hi: float = 100.0) -> QualityReport:
    """Smallest thickness t* with a nonpositive area element, in closed form:
    det(a - 2 zeta b) = c0 + c1 zeta + c2 zeta^2 at each point, and the Lobatto
    end nodes +-t/2 meet each root first, so t* = 2 min |real root| (0 where
    c0 <= 0), first attained at ``location``.  Raises DomainError unless
    0 < t_lo < t* and t_lo < t_hi < inf; if t* > t_hi, thickness = inf and
    valid_up_to = t_hi.
    """
    if not (0.0 < t_lo < t_hi and math.isfinite(t_hi)):
        raise DomainError(f"need 0 < t_lo < t_hi < inf, got [{t_lo}, {t_hi}]")
    frames = _quadrature_frames(surface)
    elements, uv, a, b = frames
    c0 = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    c1 = -2.0 * (a[:, 0, 0] * b[:, 1, 1] + a[:, 1, 1] * b[:, 0, 0]
                 - a[:, 0, 1] * b[:, 1, 0] - a[:, 1, 0] * b[:, 0, 1])
    c2 = 4.0 * (b[:, 0, 0] * b[:, 1, 1] - b[:, 0, 1] * b[:, 1, 0])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # stable roots q/c2, c0/q; c0/q is the smaller as q^2 >= |c0 c2|
        q = -0.5 * (c1 + np.copysign(np.sqrt(c1 * c1 - 4.0 * c2 * c0), c1))
        root = np.where(c0 > 0.0, c0 / q, 0.0)
    root[~np.isfinite(root)] = np.inf  # no real root: disc < 0 or c1 = c2 = 0
    i = int(np.abs(root).argmin())
    t_star = 2.0 * abs(float(root[i]))
    if not t_lo < t_star:
        raise DomainError(f"invalid at t_lo = {t_lo} (element {elements[i]})")
    if t_star > t_hi:
        return QualityReport(surface.variant, math.inf, t_hi, None,
                             element_min_dets(surface, t_hi, frames))
    zeta = math.copysign(0.5 * t_star, root[i])
    location = {"element": int(elements[i]), "xi": float(uv[i, 0]),
                "eta": float(uv[i, 1]), "zeta": zeta,
                "det": float(c0[i] + zeta * (c1[i] + zeta * c2[i]))}
    return QualityReport(surface.variant, t_star, float(np.nextafter(t_star, 0.0)),
                         location, element_min_dets(surface, t_star, frames))
