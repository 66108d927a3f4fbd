"""The package's two numerical primitives: the Chebyshev rule `core.quad`,
and Brent's method, checked bit for bit against SciPy's; and their named
errors."""

import math

import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq as scipy_brentq

from hcat.core import ROOT_TOL, _series_at, quad
from hcat.errors import ConvergenceError, DomainError, PreconditionError
from hcat import numerics
from hcat.numerics import brentq

EPS = 2.0**-52


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
        # a cubic's series ends at T_3 and its integral's at T_4: the tail
        # and the reads' errors are round-off on values up to 8
        series, tail, info = quad(lambda x: x**3, 0.0, 2.0, full_output=1)
        assert info == {"neval": 24}
        assert _series_at(series, 2.0) == pytest.approx(4.0, abs=1e-14)
        assert _series_at(series, 1.0) == pytest.approx(0.25, abs=1e-14)
        assert tail <= 1e-14
        assert quad(lambda x: x**3, 0.0, 2.0) == (series, tail)

    @pytest.mark.parametrize("a,b", [(1.0, 0.0), (0.0, math.inf), (math.nan, 1.0)])
    def test_interval_must_be_finite_and_ordered(self, a, b):
        with pytest.raises(PreconditionError):
            quad(math.exp, a, b)

    def test_integrand_errors_propagate(self):
        def f(x):
            raise DomainError("outside")

        with pytest.raises(DomainError):
            quad(f, 0.0, 1.0)


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
