"""Circle geometry that only the tests use: metric circles, their
two-point margin, isometries through the hyperboloid model, and the
classification of how two circles meet.  `hcat.geom` keeps points, the
distance and the margin at a distance; these oracles are built on them
and checked against them."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from hcat.errors import PreconditionError
from hcat.geom import HypPoint, hyp_distance, margin_at_distance

#: default absolute tolerance for tangency/coincidence ties
TANGENCY_TOL = 1e-12


def hyperboloid(p: HypPoint) -> tuple[float, float, float]:
    """(x0, x1, x2) = (cosh rho, sinh rho cos theta, sinh rho sin theta)."""
    sr = math.sinh(p.rho)
    return (math.cosh(p.rho), sr * math.cos(p.theta), sr * math.sin(p.theta))


@dataclass(frozen=True)
class HypCircle:
    """Metric circle: locus at hyperbolic distance `radius` from `center`."""

    center: HypPoint
    radius: float

    def __post_init__(self):
        if not (self.radius > 0.0):
            raise PreconditionError(f"circle radius must be > 0, got {self.radius}")


def two_point_margin(c1: HypCircle, c2: HypCircle) -> float:
    """`margin_at_distance` of two circles: positive iff they meet in two
    points."""
    return margin_at_distance(hyp_distance(c1.center, c2.center), c1.radius, c2.radius)


class IntersectionClass(Enum):
    COINCIDENT_CIRCLES = "coincident"
    DISJOINT_OUTSIDE = "disjoint_outside"
    DISJOINT_NESTED = "disjoint_nested"
    TANGENT_EXTERNAL = "tangent_external"
    TANGENT_INTERNAL = "tangent_internal"
    TWO_POINTS = "two_points"


def translate_along_geodesic(p: HypPoint, s: float) -> HypPoint:
    """Translate `p` by signed distance `s` along the theta in {0, pi} geodesic.

    A boost acting on (x0, x1) of the hyperboloid model.  It maps the
    origin to (s, 0) for s >= 0 and to (-s, pi) for s < 0.
    """
    if s == 0.0:
        return p
    x0, x1, x2 = hyperboloid(p)
    ch, sh = math.cosh(s), math.sinh(s)
    y1 = sh * x0 + ch * x1
    rho = math.asinh(math.hypot(y1, x2))
    theta = math.atan2(x2, y1) if rho > 0.0 else 0.0
    return HypPoint(rho, theta)


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
    d = hyp_distance(c1.center, c2.center)
    inner, outer = d - abs(c1.radius - c2.radius), c1.radius + c2.radius - d
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
