"""Brent's root finder, standard library only.

`brentq` is Brent's bracketing method (*Algorithms for Minimization
without Derivatives*, 1973) in the form of SciPy's `brentq.c`.  It
follows that routine operation for operation, as SciPy 1.17 runs it,
and returns the same root after the same number of calls.

It serves callers with a general function: `hcat.disjoint.solve_d0`.
Profile inversion, the package's hot loop, runs `hcat.core.brentq`
instead: the same iteration on one height-table piece, with the piece's
series summed inline and the bracket's two tabulated ends passed in,
which saves the closure, the NaN-checking wrapper and the series call
around every step.  This routine is that kernel's reference: both
return the same root after the same number of evaluations.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, PreconditionError

# brentq's smallest relative tolerance, and its iterations before it gives up
_RTOL_MIN = 4.0 * sys.float_info.epsilon
_MAXITER = 100


@dataclass(frozen=True)
class RootResult:
    """How `brentq` found its root."""

    function_calls: int


def brentq(f, a: float, b: float, xtol: float, rtol: float, full_output: bool = False):
    """Root of f in the bracket [a, b], where f(a) and f(b) differ in sign.

    Brent's method, stopping once the bracket is narrower than
    xtol + rtol |root|.  Returns the root, or (root, RootResult) with
    `full_output`.  Raises DomainError when f returns NaN or does not
    change sign over the bracket, ConvergenceError after 100 iterations
    (SciPy's default maxiter), and PreconditionError for xtol <= 0 or
    rtol < 4 eps.
    """
    if not xtol > 0.0:
        raise PreconditionError(f"brentq needs xtol > 0, got {xtol}")
    if not rtol >= _RTOL_MIN:
        raise PreconditionError(f"brentq needs rtol >= {_RTOL_MIN}, got {rtol}")
    calls = 0

    def value(x: float) -> float:
        nonlocal calls
        fx = f(x)
        calls += 1
        if fx != fx:
            raise DomainError(f"the function is NaN at x = {x!r}")
        return fx

    def done(x: float):
        return (x, RootResult(calls)) if full_output else x

    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0.0:
        return done(xpre)
    if fcur == 0.0:
        return done(xcur)
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise DomainError(f"f(a) = {fpre!r} and f(b) = {fcur!r} have the same sign")
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return done(xcur)
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # the slopes' product underflowed to 0: in IEEE arithmetic the
                # step is infinite or NaN and never taken, so bisect
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise ConvergenceError(f"brentq did not converge in {_MAXITER} iterations; last x = {xcur!r}")
