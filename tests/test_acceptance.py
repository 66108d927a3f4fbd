"""Acceptance gate: one test per headline criterion, at the agreed
tolerances.  Each criterion prints exactly one PASS/FAIL line (visible in
the pytest output) before asserting."""

import math
import random
import time
from pathlib import Path

import mpmath as mp
import pytest

from hcat.core import (
    CmcParams,
    b_inverse,
    f_closed,
    integrand,
    lambda_height,
    necksize,
    verify_appendix,
)
from hcat.disjoint import certify, separation_lower_bound, solve_d0
from hcat.geom import HypPoint, hyp_distance
from hcat.mesh import EmbeddingMode, export_obj, revolve
from hcat.strips import (
    compute_offsets,
    pair_radii,
    remark_sweep,
    verify_c3_lemma,
    verify_strip_claim,
)

from conftest import DATA_DIR
from geom_oracles import (
    HypCircle,
    IntersectionClass,
    circle_point,
    classify_circle_intersection,
    translate_along_geodesic,
)

H_GRID = [0.1, 0.25, 0.4]
D_GRID = [2.5, 3.0, 10.0, 100.0]
SEED = 20260823


def _report(capsys, number, label, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {number} ({label}): {detail}")
    assert ok, f"criterion {number} ({label}): {detail}"


@pytest.fixture(scope="module")
def full_certificate():
    """The headline pair: d2 solved from the threshold equation, scanned
    at acceptance scale.  Shared by criteria 4 and 6."""
    d0 = solve_d0(0.25, 3.0)
    start = time.perf_counter()
    cert = certify(0.25, 3.0, d0, t_max=50.0, grid_step=0.05, d0=d0)
    return cert, d0, time.perf_counter() - start


@pytest.fixture(scope="module")
def appendix():
    """The appendix checks behind criteria 1 and 3, timed."""
    start = time.perf_counter()
    report = verify_appendix(H_GRID, D_GRID)
    return report["checks"], time.perf_counter() - start


def test_c1_decomposition_identity(capsys, appendix):
    checks, elapsed = appendix
    worst = max(c["decomposition_max_scaled_residual"] for c in checks)
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(capsys, 1, "decomposition identity", ok,
            f"max scaled residual {worst:.3e} (tol 1e-8), {elapsed:.2f}s (budget 10s)")


def test_c2_closed_form_derivative(capsys):
    # d/drho of the closed form f = 2H / sqrt(q) acosh((q cosh rho - 2dH) / s)
    # is 2H sinh(rho) / sqrt(radicand): mpmath's derivative of f at 40 digits
    # against that formula, and `f_closed` and the package's float formula
    # (the integrand times 2H sinh(rho) / (d + 2H cosh rho)) against both
    mp.mp.dps = 40
    exact = floats = 0.0
    for H in H_GRID:
        for d in D_GRID:
            p = CmcParams(H, d)
            Hm, dm = mp.mpf(H), mp.mpf(d)
            q = 1 - 4 * Hm * Hm
            s = mp.sqrt(dm * dm + q)

            def f(r):
                return 2 * Hm / mp.sqrt(q) * mp.acosh((q * mp.cosh(r) - 2 * dm * Hm) / s)

            for offset in (0.05, 0.3, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0):
                rho = p.eta + offset
                r = mp.mpf(rho)
                slope = 2 * Hm * mp.sinh(r) / mp.sqrt(
                    mp.sinh(r) ** 2 - (dm + 2 * Hm * mp.cosh(r)) ** 2)
                exact = max(exact, float(abs(mp.diff(f, r) / slope - 1)))
                float_slope = (integrand(p, rho) * 2.0 * H * math.sinh(rho)
                               / (d + 2.0 * H * math.cosh(rho)))
                floats = max(floats, abs(f_closed(p, rho) / float(f(r)) - 1),
                             abs(float_slope / float(slope) - 1))
    ok = exact <= 1e-35 and floats <= 1e-13
    _report(capsys, 2, "closed-form derivative", ok,
            f"40-digit relative error {exact:.1e} (tol 1e-35), float "
            f"{floats:.1e} (tol 1e-13), 12 members x 8 radii")


def test_c3_remainder_bound(capsys, appendix):
    checks = appendix[0]
    margin = min(c["j_bound_margin"] for c in checks)
    pi_bound_held = all(c["stated_pi_bound_held"] for c in checks)
    ok = margin > 0.0
    _report(capsys, 3, "remainder bound", ok,
            f"min margin below 2*pi*sqrt(1-2H): {margin:.6f}; "
            f"halved bound held (report only): {pi_bound_held}")


def test_c4_disjointness_certificate(capsys, full_certificate):
    cert, d0, elapsed = full_certificate
    residual = abs(separation_lower_bound(0.25, 3.0, d0) - 1.0)
    q = 0.75
    rhs = 4.0 * math.pi * math.sqrt(0.5) + 1.0 / math.sqrt(q)
    d0_oracle = math.sqrt((9.0 + q) * math.exp(2.0 * rhs) - q)
    neck_gap = necksize(CmcParams(0.25, cert.d2)) - necksize(CmcParams(0.25, 3.0))
    ok = (
        residual <= 1e-10
        and abs(d0 - d0_oracle) <= 1e-6 * d0_oracle
        and 7.0e4 < d0 < 7.3e4
        and cert.delta0 > 0.0
        and cert.min_gap_observed >= cert.delta0
        and cert.monotone_decreasing
        and abs(cert.sup_gap - neck_gap) <= 1e-9
        and elapsed < 60.0
    )
    _report(capsys, 4, "disjointness certificate", ok,
            f"d0 = {d0:.2f} (residual {residual:.1e}, oracle gap "
            f"{abs(d0 - d0_oracle):.2e}), delta0 = {cert.delta0:.4f}, "
            f"min gap {cert.min_gap_observed:.4f} at t = {cert.min_gap_t:.2f}, "
            f"{elapsed:.2f}s (budget 60s)")


def test_c5_necksize_exactness(capsys):
    rng = random.Random(SEED)
    worst = max(
        abs(necksize(CmcParams(H, -2.0 * H)))
        for H in (rng.uniform(1e-6, 0.5 - 1e-6) for _ in range(20))
    )
    vals = [necksize(CmcParams(0.25, -0.5 + 21.0 * k / 19)) for k in range(20)]
    increasing = all(b > a for a, b in zip(vals, vals[1:]))
    ok = worst <= 1e-14 and increasing
    _report(capsys, 5, "necksize exactness", ok,
            f"max |neck| at the family floor {worst:.1e} (tol 1e-14), "
            f"strictly increasing over 20 d-values: {increasing}")


def test_c6_strip_claims(capsys, full_certificate):
    cert, _, _ = full_certificate
    offsets = compute_offsets(cert)
    pair = pair_radii(cert, -50.0, 50.0, 0.1)
    strip = verify_strip_claim(pair, offsets)
    c3 = verify_c3_lemma(cert)
    log_lo, log_hi = math.log(cert.d1), math.log(cert.d2)
    d_grid = [math.exp(log_lo + (log_hi - log_lo) * (i + 1) / 21) for i in range(20)]
    remark = remark_sweep(pair, offsets, d_grid)
    ok = strip.passed and c3.passed and remark.passed
    _report(capsys, 6, "strip claims", ok,
            f"strip min margin {strip.min_margin:.4f} ({strip.min_margin_check}), "
            f"second-barrier min margin {c3.min_margin:.4f}, sweep witnesses "
            f"{sum(m > 0.0 for m in remark.margins)}/20 "
            f"(min margin {remark.min_margin:.4f})")


def test_c7_inversion_round_trip(capsys):
    pairs = [(0.1, 2.5), (0.25, 3.0), (0.25, 10.0), (0.4, 5.0), (0.2, 100.0)]
    worst = 0.0
    for H, d in pairs:
        params = CmcParams(H, d)
        for t in [0.0, 0.01, 0.5] + [2.5 * k for k in range(1, 21)]:
            rho = b_inverse(params, t)
            worst = max(worst, abs(lambda_height(params, rho) - t))
    ok = worst <= 1e-9
    _report(capsys, 7, "inversion round trip", ok,
            f"max |height(radius(t)) - t| = {worst:.3e} (tol 1e-9) "
            f"over 5 parameter pairs, t in [0, 50]")


def _sampled_classification(c1, c2, n):
    """Classify by sampling points of c1 against the disk of c2."""
    tol = 1e-9
    signed = [
        hyp_distance(circle_point(c1, 2.0 * math.pi * k / n), c2.center) - c2.radius
        for k in range(n)
    ]
    smin, smax = min(signed), max(signed)
    if smin < -tol and smax > tol:
        return IntersectionClass.TWO_POINTS
    if smax < -tol:
        return IntersectionClass.DISJOINT_NESTED  # c1 inside the disk of c2
    if smin > tol:
        if hyp_distance(c1.center, c2.center) < c1.radius:
            return IntersectionClass.DISJOINT_NESTED  # c2 inside the disk of c1
        return IntersectionClass.DISJOINT_OUTSIDE
    return None  # too close to tangency to resolve by sampling


def test_c8_geometry_oracles(capsys):
    rng = random.Random(SEED)

    def random_circle():
        return HypCircle(
            HypPoint(rng.uniform(0.0, 3.0), rng.uniform(-math.pi, math.pi)),
            rng.uniform(0.05, 3.0),
        )

    compared = 0
    attempts = 0
    mismatches = 0
    while compared < 1000 and attempts < 3000:
        attempts += 1
        c1, c2 = random_circle(), random_circle()
        expected = _sampled_classification(c1, c2, 360)
        if expected is None:
            continue
        got = classify_circle_intersection(c1, c2)
        if got is not expected:
            # a thin lens can hide from coarse sampling; resolve finely
            expected = _sampled_classification(c1, c2, 40000)
            if expected is not None and got is not expected:
                mismatches += 1
        compared += 1

    worst = 0.0
    for _ in range(1000):
        p = HypPoint(rng.uniform(0.0, 4.0), rng.uniform(-math.pi, math.pi))
        q = HypPoint(rng.uniform(0.0, 4.0), rng.uniform(-math.pi, math.pi))
        s = rng.uniform(-4.0, 4.0)
        d0 = hyp_distance(p, q)
        d1 = hyp_distance(
            translate_along_geodesic(p, s), translate_along_geodesic(q, s)
        )
        worst = max(worst, abs(d1 - d0))

    ok = compared == 1000 and mismatches == 0 and worst <= 1e-12
    _report(capsys, 8, "geometry oracles", ok,
            f"classification agreed on {compared - mismatches}/{compared} "
            f"sampled pairs; max isometry distance drift {worst:.2e} (tol 1e-12)")


def test_c9_mesh_determinism(capsys, tmp_path):
    from hcat.core import ProfileCurve, ProfileSample

    curve = ProfileCurve(
        CmcParams(0.25, 2.0),
        (ProfileSample(1.0, 0.0), ProfileSample(2.0, 1.0), ProfileSample(3.0, 2.0)),
    )
    mesh = revolve(curve, 3, EmbeddingMode.CYLINDER_POLAR, doubled=True)
    out = tmp_path / "tiny.obj"
    export_obj(mesh, out)
    golden_equal = out.read_bytes() == (DATA_DIR / "tiny.obj").read_bytes()

    n, m = len(curve.samples), 3
    counts_ok = (
        len(mesh.vertices) == (2 * n - 1) * m
        and len(mesh.faces) == (2 * n - 2) * m
    )
    rows = [tuple(v) for v in mesh.vertices.tolist()]
    symmetric = sorted((x, y, -z) for x, y, z in rows) == sorted(rows)
    ok = golden_equal and counts_ok and symmetric
    _report(capsys, 9, "mesh determinism", ok,
            f"golden bytes equal: {golden_equal}, counting formula holds: "
            f"{counts_ok}, doubled mesh z-symmetric: {symmetric}")
