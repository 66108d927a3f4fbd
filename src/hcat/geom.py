"""Hyperbolic-plane primitives in polar coordinates about a base point.

Points carry (rho, theta) with rho the hyperbolic distance from the
origin.  Isometries are computed through the hyperboloid model
(x0, x1, x2) = (cosh rho, sinh rho cos theta, sinh rho sin theta),
where a translation along the theta in {0, pi} geodesic is a boost
acting on (x0, x1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import PreconditionError

TWO_PI = 2.0 * math.pi

#: default absolute tolerance for tangency/coincidence ties
TANGENCY_TOL = 1e-12


def _canonical_theta(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    t = math.fmod(theta, TWO_PI)
    if t > math.pi:
        t -= TWO_PI
    elif t <= -math.pi:
        t += TWO_PI
    return t


@dataclass(frozen=True)
class HypPoint:
    """A point of the hyperbolic plane in polar form."""

    rho: float
    theta: float = 0.0

    def __post_init__(self):
        if not (self.rho >= 0.0):
            raise PreconditionError(f"rho must be >= 0, got {self.rho}")
        theta = 0.0 if self.rho == 0.0 else _canonical_theta(self.theta)
        object.__setattr__(self, "theta", theta)

    def hyperboloid(self) -> tuple[float, float, float]:
        sr = math.sinh(self.rho)
        return (math.cosh(self.rho), sr * math.cos(self.theta), sr * math.sin(self.theta))


ORIGIN = HypPoint(0.0, 0.0)


@dataclass(frozen=True)
class HypCircle:
    """Metric circle: locus at hyperbolic distance `radius` from `center`."""

    center: HypPoint
    radius: float

    def __post_init__(self):
        if not (self.radius > 0.0):
            raise PreconditionError(f"circle radius must be > 0, got {self.radius}")


class IntersectionClass(Enum):
    COINCIDENT_CIRCLES = "coincident"
    DISJOINT_OUTSIDE = "disjoint_outside"
    DISJOINT_NESTED = "disjoint_nested"
    TANGENT_EXTERNAL = "tangent_external"
    TANGENT_INTERNAL = "tangent_internal"
    TWO_POINTS = "two_points"


def hyp_distance(p: HypPoint, q: HypPoint) -> float:
    """Hyperbolic distance between two points.

    Evaluated as 2*asinh(sqrt(sinh^2(drho/2) + sinh(rho_p) sinh(rho_q)
    sin^2(dtheta/2))), which is an exact rearrangement of the hyperbolic
    law of cosines and loses no precision for nearby points.
    """
    dr = 0.5 * (p.rho - q.rho)
    dth = 0.5 * (p.theta - q.theta)
    s = math.sinh(dr) ** 2 + math.sinh(p.rho) * math.sinh(q.rho) * math.sin(dth) ** 2
    return 2.0 * math.asinh(math.sqrt(s))


def translate_along_geodesic(p: HypPoint, s: float) -> HypPoint:
    """Translate `p` by signed distance `s` along the theta in {0, pi} geodesic.

    The translation maps the origin to (s, 0) for s >= 0 and to (-s, pi)
    for s < 0.
    """
    if s == 0.0:
        return p
    x0, x1, x2 = p.hyperboloid()
    ch, sh = math.cosh(s), math.sinh(s)
    y0 = ch * x0 + sh * x1
    y1 = sh * x0 + ch * x1
    rho = math.asinh(math.hypot(y1, x2))
    theta = math.atan2(x2, y1) if rho > 0.0 else 0.0
    return HypPoint(rho, theta)


def _signed_margins(c1: HypCircle, c2: HypCircle) -> tuple[float, float, float]:
    # (D, D - |r1 - r2|, r1 + r2 - D) with D the distance between centers
    d = hyp_distance(c1.center, c2.center)
    return d, d - abs(c1.radius - c2.radius), c1.radius + c2.radius - d


def margin_at_distance(distance: float, r1: float, r2: float) -> float:
    """Signed margin of transversal intersection of two circles of radii
    r1 and r2 whose centers are `distance` apart: positive iff they meet
    in two points, |r1 - r2| < D < r1 + r2."""
    if not (r1 > 0.0 and r2 > 0.0):
        raise PreconditionError(f"circle radii must be > 0, got {r1} and {r2}")
    return min(distance - abs(r1 - r2), r1 + r2 - distance)


def two_point_margin(c1: HypCircle, c2: HypCircle) -> float:
    """`margin_at_distance` of two circles: positive iff they meet in two
    points."""
    return margin_at_distance(hyp_distance(c1.center, c2.center), c1.radius, c2.radius)


def classify_circle_intersection(
    c1: HypCircle, c2: HypCircle, tol: float = TANGENCY_TOL
) -> IntersectionClass:
    """Classify how two metric circles meet.

    With D the distance between centers: two transversal points iff
    both signed margins D - |r1 - r2| and r1 + r2 - D are positive; the
    boundary cases are resolved to the tangent/coincident variants
    whenever a margin vanishes within `tol` (absolute).  Symmetric in
    its two arguments.
    """
    d, inner, outer = _signed_margins(c1, c2)
    if d <= tol and abs(c1.radius - c2.radius) <= tol:
        return IntersectionClass.COINCIDENT_CIRCLES
    if abs(outer) <= tol:
        return IntersectionClass.TANGENT_EXTERNAL
    if abs(inner) <= tol and d > tol:
        return IntersectionClass.TANGENT_INTERNAL
    if outer < 0.0:
        return IntersectionClass.DISJOINT_OUTSIDE
    if inner < 0.0:
        return IntersectionClass.DISJOINT_NESTED
    return IntersectionClass.TWO_POINTS


def circle_point(circle: HypCircle, phi: float) -> HypPoint:
    """Point of `circle` at direction parameter `phi`.

    Built by taking (radius, phi) about the origin, translating the
    origin to distance rho_c along the axis, then rotating the whole
    picture by the center's angle (rotation about the origin is exact
    in polar form).
    """
    q = translate_along_geodesic(HypPoint(circle.radius, phi), circle.center.rho)
    return HypPoint(q.rho, q.theta + circle.center.theta)
