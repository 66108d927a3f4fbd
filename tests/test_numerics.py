"""The package's two numerical primitives, the Chebyshev rule `core.quad`
and the Brent kernel `core.brentq`, and their named errors.  The kernel is
checked bit for bit against SciPy's `brentq` in test_core.py."""

import math

import pytest

from hcat import core
from hcat.core import _series_at, brentq, quad
from hcat.errors import ConvergenceError, DomainError, PreconditionError

EPS = 2.0**-52
# the running integral of 3 (w - 1/3)^2 from 0 on [0, 1]: (u - 1/3)^3 + 1/27
CUBIC, _ = quad(lambda w: 3.0 * (w - 1.0 / 3.0) ** 2, 0.0, 1.0)
# a series that is NaN everywhere
NAN_SERIES = (0.5, 0.5, math.nan, ())


def _solve(series, t, a, b, **kwargs):
    """`core.brentq` in u on series(u) - t over [a, b], given that excess at
    both ends."""
    return brentq(series, 0.0, t, a, b, _series_at(series, a) - t, _series_at(series, b) - t,
                  1e-12, 4 * EPS, in_v=False, **kwargs)


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
        # (u - 1/3)^3 + 1/27 = 2/27 at u = 1/3 + 1/27^(1/3) = 2/3
        root, result = _solve(CUBIC, 2.0 / 27.0, 0.0, 1.0, full_output=True)
        assert root == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert result.function_calls > 2
        assert _solve(CUBIC, 2.0 / 27.0, 0.0, 1.0) == root

    def test_root_at_an_end_costs_two_calls(self):
        # the height at u = 0 is 0: the bracket's first end is the root
        root, result = _solve(CUBIC, 0.0, 0.0, 1.0, full_output=True)
        assert (root, result.function_calls) == (0.0, 2)

    def test_nan_is_a_domain_error(self):
        with pytest.raises(DomainError, match=r"NaN at u = "):
            brentq(NAN_SERIES, 0.0, 0.5, 0.0, 1.0, -0.5, 0.5, 1e-12, 4 * EPS, in_v=False)

    def test_nan_inside_the_bracket_is_a_domain_error(self):
        # the bracket's ends are tabulated and finite; the first step inside is NaN
        with pytest.raises(DomainError, match=r"NaN at v = "):
            brentq(NAN_SERIES, 0.0, 0.5, 0.0, 1.0, -0.5, 0.5, 1e-12, 4 * EPS)

    def test_maxiter_is_a_convergence_error(self, monkeypatch):
        monkeypatch.setattr(core, "_MAXITER", 3)
        with pytest.raises(ConvergenceError, match="3 iterations"):
            _solve(CUBIC, 1.0 / 27.0, 0.0, 1.0)
