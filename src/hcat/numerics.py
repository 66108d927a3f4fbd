"""Adaptive Gauss-Kronrod quadrature and Brent's root finder, standard
library only.

`quad` is QUADPACK's QAGS on a finite interval (Piessens, de Doncker-
Kapenga, Ueberhuber and Kahaner, *QUADPACK*, Springer 1983): `dqagse`
bisects the piece of largest error estimate, `dqk21` integrates each
piece with the 21-point Kronrod rule and its 10-point Gauss rule,
`dqpsrt` keeps the pieces ordered by error, and `dqelg`'s epsilon
algorithm extrapolates when the smallest pieces carry the error.
`brentq` is Brent's bracketing method (*Algorithms for Minimization
without Derivatives*, 1973) in the form of SciPy's `brentq.c`.

Both follow those routines operation for operation, as SciPy 1.17 runs
them: `quad` returns the same value, error estimate and evaluation
count, and `brentq` the same root after the same number of calls.  The
lists of `_qagse` are 1-based, as in the Fortran; slot 0 is unused.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, IntegrationWarning, PreconditionError

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max
# a piece whose absolute Kronrod sum exceeds this gets the round-off floor
# 50 eps |integral| on its error estimate
_RESABS_FLOOR = _UFLOW / (50.0 * _EPMACH)
# brentq's smallest relative tolerance, and its iterations before it gives up
_RTOL_MIN = 4.0 * _EPMACH
_MAXITER = 100

# 21-point Kronrod abscissae (odd positions are the 10-point Gauss nodes)
# and weights, then the Gauss weights; the centre is the last entry
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208745345312, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)

_MESSAGES = {
    1: "the maximum number ({limit}) of subdivisions was reached",
    2: "round-off error prevents the requested tolerance from being reached",
    3: "extremely bad integrand behaviour occurs at some points of the interval",
    4: "the algorithm does not converge: round-off error in the extrapolation table",
    5: "the integral is probably divergent, or slowly convergent",
}


def _qk21(f, a: float, b: float) -> tuple[float, float, float, float]:
    """dqk21: (integral, error estimate, integral of |f|, integral of
    |f - mean|) of the 21-point Kronrod rule on [a, b]."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    resg = 0.0
    fc = f(centr)
    resk = _WGK[10] * fc
    resabs = abs(resk)
    for j in range(5):
        jtw = 2 * j + 1
        absc = hlgth * _XGK[jtw]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtw] = fval1
        fv2[jtw] = fval2
        fsum = fval1 + fval2
        resg = resg + _WG[j] * fsum
        resk = resk + _WGK[jtw] * fsum
        resabs = resabs + _WGK[jtw] * (abs(fval1) + abs(fval2))
    for j in range(5):
        jtwm1 = 2 * j
        absc = hlgth * _XGK[jtwm1]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtwm1] = fval1
        fv2[jtwm1] = fval2
        fsum = fval1 + fval2
        resk = resk + _WGK[jtwm1] * fsum
        resabs = resabs + _WGK[jtwm1] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _RESABS_FLOOR:
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list,
           nrmax: int) -> tuple[int, float, int]:
    """dqpsrt: insert the two newest pieces into `iord`, the piece indices
    by decreasing error; return (maxerr, errmax, nrmax) of the piece to
    bisect next."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
        maxerr = iord[nrmax]
        return maxerr, elist[maxerr], nrmax
    # after a bisection that raised the error, the insertion starts above
    # the nrmax-th place
    errmax = elist[maxerr]
    for _ in range(nrmax - 1):
        isucc = iord[nrmax - 1]
        if errmax <= elist[isucc]:
            break
        iord[nrmax] = isucc
        nrmax -= 1
    # only as many places as subdivisions remain are kept in order
    jupbn = last
    if last > limit // 2 + 2:
        jupbn = limit + 3 - last
    errmin = elist[last]
    jbnd = jupbn - 1
    i = nrmax + 1
    while i <= jbnd:
        # errmax, top down
        isucc = iord[i]
        if errmax >= elist[isucc]:
            break
        iord[i - 1] = isucc
        i += 1
    else:
        iord[jbnd] = maxerr
        iord[jupbn] = last
        maxerr = iord[nrmax]
        return maxerr, elist[maxerr], nrmax
    iord[i - 1] = maxerr
    k = jbnd
    for _ in range(i, jbnd + 1):
        # errmin, bottom up
        isucc = iord[k]
        if errmin < elist[isucc]:
            iord[k + 1] = last
            break
        iord[k + 1] = isucc
        k -= 1
    else:
        iord[i] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n: int, epstab: list, res3la: list, nres: int) -> tuple[int, float, float, int]:
    """dqelg: the epsilon algorithm on the n partial sums in `epstab`;
    return (n, extrapolated limit, its error estimate, nres)."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy
            result = res
            abserr = err2 + err3
            return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            # two elements agree: drop the rest of the table
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            # irregular behaviour: drop the rest of the table
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    # shift the table
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        ib2 = ib + 2
        epstab[ib] = epstab[ib2]
        ib = ib2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                  + abs(result - res3la[1]))
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def _ieee_div(x: float, y: float) -> float:
    # x / y with IEEE 754's signed infinity or NaN for y = 0
    if y != 0.0:
        return x / y
    if x == 0.0 or x != x:
        return math.nan
    return math.copysign(math.inf, x) * math.copysign(1.0, y)


def _qagse(f, a: float, b: float, epsabs: float, epsrel: float,
           limit: int) -> tuple[float, float, int, int]:
    """dqagse: (integral, error estimate, evaluations, ier) on [a, b]."""
    if limit < 1 or (epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 0.5e-28)):
        return 0.0, 0.0, 0, 6
    result, abserr, defabs, resabs = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    ier = 0
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, 21, ier

    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    alist[1], blist[1], rlist[1], elist[1], iord[1] = a, b, result, abserr, 1
    rlist2 = [0.0] * 53
    res3la = [0.0] * 4
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    ierro = 0
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    summed = False  # leave through the sum of the pieces (label 115)

    for last in range(2, limit + 1):
        # bisect the piece with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = _qk21(f, a1, b1)
        area2, error2, resabs, defab2 = _qk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # extrapolate only once the piece to bisect next is a smallest one
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # a smallest piece has the largest error: bisect the larger
            # pieces first, as long as they are among the largest errors
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # go on bisecting the smallest pieces
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # labels 100-130: keep the extrapolated result or fall back to the sum
    # of the pieces, then test for divergence
    divergence_test = False
    if not summed:
        if abserr == _OFLOW:
            summed = True
        elif ier + ierro == 0:
            divergence_test = True
        else:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                summed = abserr / abs(result) > errsum / abs(area)
                divergence_test = not summed
            elif abserr > errsum:
                summed = True
            else:
                divergence_test = area != 0.0
    if divergence_test and not (
            ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
        ratio = _ieee_div(result, area)
        if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
            ier = 6
    if summed:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier = ier - 1
    return result, abserr, 42 * last - 21, ier


def quad(f, a: float, b: float, epsabs: float, epsrel: float, limit: int,
         full_output: int = 0):
    """Integral of f over the finite interval [a, b], a <= b, by QUADPACK's
    QAGS: (value, error estimate).

    Stops when the estimate is at most max(epsabs, epsrel |value|), or
    after `limit` pieces.  When that fails (QUADPACK's ier 1-5) it warns
    with IntegrationWarning; with `full_output` it instead returns
    (value, error, {"neval": evaluations}, message), and (value, error,
    {"neval": evaluations}) when it succeeds.  Tolerances that cannot be
    met (epsabs <= 0 with epsrel below 50 eps), limit < 1 and an interval
    that is not finite and ordered raise PreconditionError.
    """
    if not -math.inf < a <= b < math.inf:
        raise PreconditionError(f"quad needs a finite interval a <= b, got [{a}, {b}]")
    val, abserr, neval, ier = _qagse(f, a, b, epsabs, epsrel, limit)
    if ier == 6:
        raise PreconditionError(
            f"invalid quad input: limit = {limit} must be >= 1, and epsrel = {epsrel} "
            f"must be >= 50 eps when epsabs = {epsabs} <= 0")
    if ier == 0:
        return (val, abserr, {"neval": neval}) if full_output else (val, abserr)
    message = _MESSAGES[ier].format(limit=limit)
    if full_output:
        return val, abserr, {"neval": neval}, message
    warnings.warn(message, IntegrationWarning, stacklevel=2)
    return val, abserr


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
