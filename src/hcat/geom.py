"""Hyperbolic-plane primitives in polar coordinates about a base point.

Points carry (rho, theta) with rho the hyperbolic distance from the
origin.  Metric circles meet in two points exactly when their signed
two-point margin is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PreconditionError

TWO_PI = 2.0 * math.pi


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


ORIGIN = HypPoint(0.0, 0.0)


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


def margin_at_distance(distance: float, r1: float, r2: float) -> float:
    """Signed margin of transversal intersection of two circles of radii
    r1 and r2 whose centers are `distance` apart: positive iff they meet
    in two points, |r1 - r2| < D < r1 + r2."""
    if not (r1 > 0.0 and r2 > 0.0):
        raise PreconditionError(f"circle radii must be > 0, got {r1} and {r2}")
    return min(distance - abs(r1 - r2), r1 + r2 - distance)
