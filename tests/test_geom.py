"""Hyperbolic primitives: distances and the two-point margin, and the test
oracles built on them: isometries and circle classification."""

import math

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from hcat.errors import PreconditionError
from hcat.geom import ORIGIN, HypPoint, hyp_distance

from geom_oracles import (
    TANGENCY_TOL,
    HypCircle,
    IntersectionClass,
    circle_point,
    classify_circle_intersection,
    hyperboloid,
    translate_along_geodesic,
    two_point_margin,
)

# acosh(cosh(1)^2): distance between (1, 0) and (1, pi/2), frozen from a
# 40-digit law-of-cosines evaluation and cross-checked below by polyline
# refinement in the hyperboloid model.
DIST_RIGHT_ANGLE = 1.513374006596503959804012

points = st.builds(
    HypPoint,
    st.floats(0.0, 4.0, allow_nan=False),
    st.floats(-10.0, 10.0, allow_nan=False),
)


def _polyline_length(p: HypPoint, q: HypPoint, segments: int) -> float:
    """Independent distance estimate: project the Minkowski chord onto the
    hyperboloid and sum small hyperbolic steps (converges from below)."""
    mp.mp.dps = 40
    xs = []
    for pt in (p, q):
        sr = mp.sinh(pt.rho)
        xs.append(
            (mp.cosh(pt.rho), sr * mp.cos(pt.theta), sr * mp.sin(pt.theta))
        )
    (a0, a1, a2), (b0, b1, b2) = xs

    def proj(s):
        y0 = (1 - s) * a0 + s * b0
        y1 = (1 - s) * a1 + s * b1
        y2 = (1 - s) * a2 + s * b2
        norm = mp.sqrt(y0 * y0 - y1 * y1 - y2 * y2)
        return (y0 / norm, y1 / norm, y2 / norm)

    total = mp.mpf(0)
    prev = proj(mp.mpf(0))
    for k in range(1, segments + 1):
        cur = proj(mp.mpf(k) / segments)
        inner = prev[0] * cur[0] - prev[1] * cur[1] - prev[2] * cur[2]
        total += mp.acosh(max(inner, mp.mpf(1)))
        prev = cur
    return float(total)


class TestDistance:
    def test_distance_from_origin_is_rho(self):
        assert hyp_distance(ORIGIN, HypPoint(2.5, 1.0)) == pytest.approx(2.5, abs=1e-15)

    def test_collinear_opposite(self):
        p, q = HypPoint(1.0, 0.0), HypPoint(1.0, math.pi)
        assert hyp_distance(p, q) == pytest.approx(2.0, abs=1e-14)

    def test_right_angle_frozen_value(self):
        p, q = HypPoint(1.0, 0.0), HypPoint(1.0, math.pi / 2)
        d = hyp_distance(p, q)
        assert d == pytest.approx(DIST_RIGHT_ANGLE, abs=1e-14)
        assert d == pytest.approx(math.acosh(math.cosh(1.0) ** 2), abs=1e-14)

    def test_polyline_refinement_cross_check(self):
        p, q = HypPoint(1.0, 0.0), HypPoint(1.0, math.pi / 2)
        approx = _polyline_length(p, q, 4096)
        # chord polyline underestimates by O(1/segments^2)
        assert approx <= DIST_RIGHT_ANGLE + 1e-12
        assert abs(approx - DIST_RIGHT_ANGLE) < 1e-6

    def test_zero_iff_equal(self):
        p = HypPoint(1.3, 0.7)
        assert hyp_distance(p, p) == 0.0
        assert hyp_distance(p, HypPoint(1.3, 0.7 + 1e-9)) > 0.0

    @given(points, points)
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, p, q):
        assert hyp_distance(p, q) == pytest.approx(hyp_distance(q, p), abs=1e-15)

    @given(points, points, points)
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality(self, p, q, r):
        assert hyp_distance(p, r) <= hyp_distance(p, q) + hyp_distance(q, r) + 1e-12


class TestPoints:
    def test_theta_canonicalized(self):
        assert HypPoint(1.0, 3.0 * math.pi).theta == pytest.approx(math.pi)
        assert HypPoint(1.0, -math.pi).theta == pytest.approx(math.pi)

    def test_origin_theta_zeroed(self):
        assert HypPoint(0.0, 2.0).theta == 0.0

    def test_negative_rho_rejected(self):
        with pytest.raises(PreconditionError):
            HypPoint(-0.1, 0.0)

    def test_hyperboloid_sheet(self):
        x0, x1, x2 = hyperboloid(HypPoint(1.7, 0.9))
        assert x0 * x0 - x1 * x1 - x2 * x2 == pytest.approx(1.0, abs=1e-12)


class TestTranslation:
    def test_moves_origin_along_axis(self):
        p = translate_along_geodesic(ORIGIN, 1.5)
        assert (p.rho, p.theta) == (1.5, 0.0)
        q = translate_along_geodesic(ORIGIN, -1.5)
        assert q.rho == pytest.approx(1.5)
        assert q.theta == pytest.approx(math.pi)

    @given(points, st.floats(-4.0, 4.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_inverse(self, p, s):
        q = translate_along_geodesic(translate_along_geodesic(p, s), -s)
        # the intermediate point can sit at rho + |s|, where hyperboloid
        # coordinates are exponentially large; scale the tolerance to match
        assert hyp_distance(p, q) < 1e-13 * math.cosh(p.rho + abs(s))

    @given(points, points, st.floats(-4.0, 4.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_isometry(self, p, q, s):
        d0 = hyp_distance(p, q)
        d1 = hyp_distance(
            translate_along_geodesic(p, s), translate_along_geodesic(q, s)
        )
        assert abs(d0 - d1) <= 1e-12


circles = st.builds(
    HypCircle,
    points,
    st.floats(0.05, 3.0, allow_nan=False),
)


class TestCircleClassification:
    def test_concentric_nested(self):
        c1 = HypCircle(ORIGIN, 1.0)
        c2 = HypCircle(ORIGIN, 2.0)
        assert classify_circle_intersection(c1, c2) is IntersectionClass.DISJOINT_NESTED

    def test_coincident(self):
        c = HypCircle(HypPoint(1.0, 0.5), 0.7)
        assert classify_circle_intersection(c, c) is IntersectionClass.COINCIDENT_CIRCLES

    def test_far_apart(self):
        c1 = HypCircle(ORIGIN, 0.5)
        c2 = HypCircle(HypPoint(5.0, 0.0), 0.5)
        assert classify_circle_intersection(c1, c2) is IntersectionClass.DISJOINT_OUTSIDE

    def test_tangent_external(self):
        c1 = HypCircle(ORIGIN, 1.0)
        c2 = HypCircle(HypPoint(2.5, 0.0), 1.5)
        assert classify_circle_intersection(c1, c2) is IntersectionClass.TANGENT_EXTERNAL

    def test_tangent_internal(self):
        c1 = HypCircle(ORIGIN, 2.0)
        c2 = HypCircle(HypPoint(1.0, 0.0), 1.0)
        assert classify_circle_intersection(c1, c2) is IntersectionClass.TANGENT_INTERNAL

    def test_transversal(self):
        c1 = HypCircle(ORIGIN, 1.0)
        c2 = HypCircle(HypPoint(1.0, 0.0), 1.0)
        assert classify_circle_intersection(c1, c2) is IntersectionClass.TWO_POINTS

    def test_zero_radius_rejected(self):
        with pytest.raises(PreconditionError):
            HypCircle(ORIGIN, 0.0)

    @given(circles, circles)
    @settings(max_examples=200, deadline=None)
    def test_symmetric_in_arguments(self, c1, c2):
        assert classify_circle_intersection(c1, c2) is classify_circle_intersection(c2, c1)

    @given(circles, circles)
    @settings(max_examples=300, deadline=None)
    def test_two_points_iff_margin_clears_tolerance(self, c1, c2):
        two = classify_circle_intersection(c1, c2) is IntersectionClass.TWO_POINTS
        assert two == (two_point_margin(c1, c2) > TANGENCY_TOL)

    @given(circles, circles, st.floats(-3.0, 3.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_translation_invariant_generic(self, c1, c2, s):
        cls = classify_circle_intersection(c1, c2)
        if cls in (
            IntersectionClass.TANGENT_EXTERNAL,
            IntersectionClass.TANGENT_INTERNAL,
            IntersectionClass.COINCIDENT_CIRCLES,
        ):
            return  # knife-edge cases may flip under rounding
        moved1 = HypCircle(translate_along_geodesic(c1.center, s), c1.radius)
        moved2 = HypCircle(translate_along_geodesic(c2.center, s), c2.radius)
        assert classify_circle_intersection(moved1, moved2) is cls


class TestCirclePoint:
    def test_points_lie_on_circle(self):
        circle = HypCircle(HypPoint(1.2, 0.8), 0.9)
        for k in range(16):
            p = circle_point(circle, 2.0 * math.pi * k / 16)
            assert hyp_distance(p, circle.center) == pytest.approx(
                circle.radius, abs=1e-12
            )
