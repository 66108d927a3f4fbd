"""Independent references for the benchmark's output checks.

Closed forms evaluated in mpmath, and the profile height integral by
mpmath's tanh-sinh quadrature.  Nothing here calls hcat, so the checks
add no spans to a traced run and share no code with what they check.
"""

from __future__ import annotations

import mpmath as mp

_DPS = 30


def _neck(H, d):
    q = 1 - 4 * H * H
    alpha = (2 * d * H + mp.sqrt(q + d * d)) / q
    return mp.acosh(alpha)


def neck_gap(H: float, d1: float, d2: float) -> float:
    """neck(d2) - neck(d1), the radial gap at height 0, with the neck
    radius acosh((2dH + sqrt(1 - 4H^2 + d^2)) / (1 - 4H^2))."""
    with mp.workdps(_DPS):
        H = mp.mpf(H)
        return float(_neck(H, mp.mpf(d2)) - _neck(H, mp.mpf(d1)))


def d0_closed_form(H: float, d1: float) -> float:
    """Root of the separation-threshold equation, solved in closed form.

    (sqrt(q)/(4H)) (1/2 ln((d0^2+q)/(d1^2+q)) - 4 pi sqrt(1-2H)) = 1 with
    q = 1 - 4H^2 gives d0 = sqrt((d1^2+q) e^{2c} - q),
    c = 4H/sqrt(q) + 4 pi sqrt(1-2H).
    """
    with mp.workdps(_DPS):
        H, d1 = mp.mpf(H), mp.mpf(d1)
        q = 1 - 4 * H * H
        c = 4 * H / mp.sqrt(q) + 4 * mp.pi * mp.sqrt(1 - 2 * H)
        return float(mp.sqrt((d1 * d1 + q) * mp.exp(2 * c) - q))


def height(H: float, d: float, rho: float) -> float:
    """Profile height at radius rho, from the neck, by mpmath quadrature.

    Integrated in u = sqrt(r - neck), where the integrand is smooth:
    cosh r - cosh(neck) = 2 sinh((r + neck)/2) sinh(u^2/2) cancels the
    endpoint singularity exactly.
    """
    with mp.workdps(_DPS):
        H, d = mp.mpf(H), mp.mpf(d)
        q = 1 - 4 * H * H
        s = mp.sqrt(q + d * d)
        beta = (2 * d * H - s) / q
        eta = _neck(H, d)
        u_hi = mp.sqrt(max(mp.mpf(rho) - eta, 0))
        if u_hi == 0:
            return 0.0

        def f(u):
            r = eta + u * u
            num = d + 2 * H * mp.cosh(r)
            # 2u / sqrt(2 sinh(u^2/2)) without dividing by u at u -> 0
            half = u * u / 2
            sinhc = mp.sinh(half) / half if half else mp.mpf(1)
            c_minus_alpha_over_u2 = mp.sinh((r + eta) / 2) * sinhc
            return 2 * num / mp.sqrt(q * c_minus_alpha_over_u2 * (mp.cosh(r) - beta))

        return float(mp.quad(f, mp.linspace(0, u_hi, 5)))
