"""The package's quadrature and root finder: QUADPACK's QAGS and Brent's
method, checked bit for bit against SciPy's, and their named errors."""

import math
import warnings

import pytest
from hypothesis import event, given, settings, strategies as st
from scipy.integrate import quad as scipy_quad
from scipy.optimize import brentq as scipy_brentq

from hcat.core import ROOT_TOL
from hcat.errors import ConvergenceError, DomainError, IntegrationWarning, PreconditionError
from hcat import numerics
from hcat.numerics import _qagse, brentq, quad

EPS = 2.0**-52

# opening words of SciPy's message for each QUADPACK ier
_SCIPY_MESSAGES = {
    "The maximum number": 1,
    "The occurrence of roundoff": 2,
    "Extremely bad integrand": 3,
    "The algorithm does not converge": 4,
    "The integral is probably divergent": 5,
}


def _integrand(kind, a, p, c):
    """An integrand on [a, ...]: `p` places an interior feature, `c` scales."""
    if kind == "smooth":
        return lambda x: math.exp(c * x) * math.cos(3.0 * x)
    if kind == "sqrt":
        return lambda x: math.sqrt(x - a) if x > a else 0.0
    if kind == "log":
        return lambda x: math.log(x - a) if x > a else 0.0
    if kind == "pow":
        return lambda x: (x - a) ** -0.9 if x > a else 0.0
    if kind == "peak":
        return lambda x: 1.0 / ((x - p) ** 2 + 10.0 ** (-4 - abs(c)))
    if kind == "step":
        return lambda x: 1.0 if x > p else c
    if kind == "oscillation":
        return lambda x: math.sin((20.0 + 40.0 * abs(c)) * x)
    raise ValueError(kind)


_KINDS = ("smooth", "sqrt", "log", "pow", "peak", "step", "oscillation")


def _scipy_qagse(f, a, b, epsabs, epsrel, limit):
    """(value, abserr, neval, ier) of SciPy's quad, ier 6 as None."""
    try:
        out = scipy_quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
    except ValueError:
        return None
    if len(out) == 3:
        ier = 0
    else:
        ier = next(v for k, v in _SCIPY_MESSAGES.items() if out[3].startswith(k))
    return out[0].hex(), out[1].hex(), out[2]["neval"], ier


@settings(max_examples=1000, deadline=None)
@given(
    kind=st.sampled_from(_KINDS),
    a=st.floats(-1.0, 1.0),
    width=st.floats(1e-3, 4.0),
    p_frac=st.floats(0.0, 1.0),
    c=st.floats(-2.0, 2.0),
    limit=st.sampled_from([1, 2, 5, 50, 200]),
    epsabs=st.sampled_from([0.0, 1e-14, 1e-10, 1e-6]),
    epsrel=st.sampled_from([0.0, 1e-15, 1e-13, 1e-12, 1.49e-8, 1e-4]),
)
def test_qagse_matches_scipy_bit_for_bit(kind, a, width, p_frac, c, limit, epsabs, epsrel):
    b = a + width
    f = _integrand(kind, a, a + p_frac * width, c)
    val, abserr, neval, ier = _qagse(f, a, b, epsabs, epsrel, limit)
    event(f"ier {ier}, {'subdivided' if neval > 21 else 'one rule'}")
    ours = None if ier == 6 else (val.hex(), abserr.hex(), neval, ier)
    assert ours == _scipy_qagse(f, a, b, epsabs, epsrel, limit)


@settings(max_examples=400, deadline=None)
@given(
    root=st.floats(-5.0, 5.0),
    lo=st.floats(0.0, 3.0),
    hi=st.floats(0.0, 3.0),
    kind=st.sampled_from(["linear", "tanh", "cubic", "step", "tiny"]),
    xtol=st.sampled_from([ROOT_TOL, 1e-12, 1e-6]),
)
def test_brentq_matches_scipy_bit_for_bit(root, lo, hi, kind, xtol):
    # hcat passes xtol 1e-12 and rtol 4 eps; "tiny" values have products
    # that underflow, so the sign tests must not multiply
    f = {
        "linear": lambda x: x - root,
        "tanh": lambda x: math.tanh(3.0 * (x - root)) + 0.01,
        "cubic": lambda x: (x - root) ** 3,
        "step": lambda x: 1.0 if x > root else -1.0,
        "tiny": lambda x: 1e-200 * (x - root),
    }[kind]
    a, b = root - 1.0 - lo, root + 1.0 + hi
    rtol = 4.0 * EPS
    try:
        x, r = scipy_brentq(f, a, b, xtol=xtol, rtol=rtol, full_output=True)
        expected = (x.hex(), r.function_calls)
    except RuntimeError:
        expected = "no convergence"
    try:
        x, r = brentq(f, a, b, xtol, rtol, full_output=True)
        got = (x.hex(), r.function_calls)
    except ConvergenceError:
        got = "no convergence"
    assert got == expected


class TestQuad:
    def test_full_output_shape(self):
        # a cubic is exact in the first 21-point rule
        val, abserr, info = quad(lambda x: x**3, 0.0, 2.0, 1e-10, 1e-12, 50, full_output=1)
        assert (val, info) == (4.0, {"neval": 21})
        assert quad(lambda x: x**3, 0.0, 2.0, 1e-10, 1e-12, 50) == (val, abserr)

    # one integrand on [0, 1] per QUADPACK ier, with SciPy's ier alongside
    @pytest.mark.parametrize("ier,f,epsabs,epsrel,limit", [
        (1, lambda x: abs(x - 0.5) ** -0.9 if x != 0.5 else 0.0, 0.0, 1e-13, 50),
        (2, lambda x: 1.0 / ((x - 1 / 3) ** 2 + 1e-8), 1e-10, 0.0, 50),
        (3, lambda x: abs(x - 1e-3) ** -0.9 if x != 1e-3 else 0.0, 0.0, 1e-13, 200),
        (4, lambda x: abs(x - 0.5) ** -0.9 if x != 0.5 else 0.0, 0.0, 1e-13, 200),
        (5, lambda x: 1.0 / (x - 1 / 3) if x != 1 / 3 else 0.0, 0.0, 1e-13, 50),
    ])
    def test_failure_warns_or_reports(self, ier, f, epsabs, epsrel, limit):
        args = (f, 0.0, 1.0, epsabs, epsrel, limit)
        assert _qagse(*args)[3] == ier
        assert _scipy_qagse(*args)[3] == ier
        with pytest.warns(IntegrationWarning):
            val, abserr = quad(*args)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = quad(*args, full_output=1)
        assert out[:2] == (val, abserr)
        assert out[2] == {"neval": _qagse(*args)[2]}
        assert isinstance(out[3], str)

    def test_integration_warning_is_a_user_warning(self):
        assert issubclass(IntegrationWarning, UserWarning)

    @pytest.mark.parametrize("epsabs,epsrel,limit", [
        (0.0, 1e-15, 50), (-1.0, 0.0, 50), (1e-10, 1e-12, 0)])
    def test_invalid_input_is_a_precondition_error(self, epsabs, epsrel, limit):
        # QUADPACK's ier 6: no tolerance it can meet, or no subinterval
        with pytest.raises(PreconditionError):
            quad(math.exp, 0.0, 1.0, epsabs, epsrel, limit)

    @pytest.mark.parametrize("a,b", [(1.0, 0.0), (0.0, math.inf), (math.nan, 1.0)])
    def test_interval_must_be_finite_and_ordered(self, a, b):
        with pytest.raises(PreconditionError):
            quad(math.exp, a, b, 1e-10, 1e-12, 50)

    def test_integrand_errors_propagate(self):
        def f(x):
            raise DomainError("outside")

        with pytest.raises(DomainError):
            quad(f, 0.0, 1.0, 1e-10, 1e-12, 50)


class TestBrentq:
    def test_full_output(self):
        root, result = brentq(lambda x: x * x - 2.0, 0.0, 2.0, 1e-12, 4 * EPS,
                              full_output=True)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert brentq(lambda x: x * x - 2.0, 0.0, 2.0, 1e-12, 4 * EPS) == root

    def test_root_at_an_end_costs_two_calls(self):
        root, result = brentq(lambda x: x - 1.0, 1.0, 3.0, 1e-12, 4 * EPS, full_output=True)
        assert (root, result.function_calls) == (1.0, 2)

    def test_nan_is_a_domain_error(self):
        with pytest.raises(DomainError, match="NaN"):
            brentq(lambda x: math.nan, 0.0, 1.0, 1e-12, 4 * EPS)

    def test_nan_inside_the_bracket_is_a_domain_error(self):
        with pytest.raises(DomainError, match="NaN"):
            brentq(lambda x: x - 0.3 if x in (0.0, 1.0) else math.nan, 0.0, 1.0,
                   1e-12, 4 * EPS)

    def test_no_sign_change_is_a_domain_error(self):
        with pytest.raises(DomainError, match="same sign"):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, 4 * EPS)

    def test_maxiter_is_a_convergence_error(self, monkeypatch):
        monkeypatch.setattr(numerics, "_MAXITER", 3)
        with pytest.raises(ConvergenceError, match="3 iterations"):
            brentq(lambda x: (x - 1 / 3) ** 3, 0.0, 1.0, 1e-12, 4 * EPS)

    @pytest.mark.parametrize("xtol,rtol", [(0.0, 4 * EPS), (1e-12, EPS)])
    def test_tolerances_below_the_floor_are_precondition_errors(self, xtol, rtol):
        with pytest.raises(PreconditionError):
            brentq(lambda x: x, -1.0, 1.0, xtol, rtol)
