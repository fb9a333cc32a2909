"""Tests for the adaptive quadrature helpers.

Includes hard cases: absolute-value integrands with interior kinks,
panels spanning orders of magnitude, and semi-infinite frequency integrals
with certified tails.
"""

import math

import numpy as np
import pytest

from trcq_kit.functions import poly_exp
from trcq_kit.quadrature import (
    adaptive_simpson,
    integrate_semi_infinite,
)

# |g^(k)| integrals for g(t) = t^5 exp(-t), computed in 40-digit arithmetic
# by splitting [0, T] at the real roots of g^(k) and summing signed pieces.
INT_ABS_G5_0_2 = 41.70553349346865658525
INT_ABS_G4_0_2 = 16.56299465168083685262
INT_ABS_G5_0_1 = 33.20078804471985581824
INT_ABS_G4_0_1 = 7.081953411709038209679


class TestAdaptiveSimpson:
    def test_cubic_is_exact(self):
        """Simpson with Richardson is exact on cubics up to rounding."""
        val = adaptive_simpson(lambda t: t**3, 0.0, 1.0)
        assert val == pytest.approx(0.25, rel=1e-15)

    def test_quartic(self):
        val = adaptive_simpson(lambda t: t**4, 0.0, 1.0, rel_tol=1e-12)
        assert val == pytest.approx(0.2, rel=1e-12)

    def test_sine_half_period(self):
        """The classic int_0^pi sin = 2."""
        val = adaptive_simpson(math.sin, 0.0, math.pi, rel_tol=1e-11)
        assert val == pytest.approx(2.0, rel=1e-10)

    def test_empty_interval_is_zero(self):
        assert adaptive_simpson(lambda t: 1.0, 2.0, 2.0) == 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            adaptive_simpson(lambda t: 1.0, 1.0, 0.0)

    def test_vanishing_integrand_terminates(self):
        """The absolute floor stops refinement on an identically-zero panel."""
        assert adaptive_simpson(lambda t: 0.0, 0.0, 1.0) == 0.0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_integrand_rejected(self, bad):
        """inf - inf is NaN, which no acceptance test ever passes; refuse it."""
        with pytest.raises(ValueError, match="not finite"):
            adaptive_simpson(lambda t: bad if t > 0.6 else 1.0, 0.0, 1.0)

    def test_depth_exhaustion_raises(self):
        """An unresolved panel is an error, not a silently truncated value."""
        with pytest.raises(RuntimeError, match="unresolved after 48 bisections"):
            adaptive_simpson(lambda t: 1.0 / t if t > 0.0 else 0.0, 0.0, 1.0)

    def test_kinked_integrand_g5(self):
        """|g^(5)| for g = t^5 e^-t has interior kinks; the panels resolve them."""
        g = poly_exp(5)

        def f(t: float) -> float:
            return float(np.linalg.norm(g.deriv(t, 5)))

        val = adaptive_simpson(f, 0.0, 2.0, rel_tol=1e-10)
        assert val == pytest.approx(INT_ABS_G5_0_2, rel=1e-8)
        val1 = adaptive_simpson(f, 0.0, 1.0, rel_tol=1e-10)
        assert val1 == pytest.approx(INT_ABS_G5_0_1, rel=1e-8)

    def test_kinked_integrand_g4(self):
        g = poly_exp(5)

        def f(t: float) -> float:
            return float(np.linalg.norm(g.deriv(t, 4)))

        val = adaptive_simpson(f, 0.0, 2.0, rel_tol=1e-10)
        assert val == pytest.approx(INT_ABS_G4_0_2, rel=1e-8)
        val1 = adaptive_simpson(f, 0.0, 1.0, rel_tol=1e-10)
        assert val1 == pytest.approx(INT_ABS_G4_0_1, rel=1e-8)


class TestIntegrateSemiInfinite:
    def test_exponential_with_certified_tail(self):
        """int_0^inf e^-t = 1; the returned tail bounds the truncated mass."""
        head, tail, cutoff = integrate_semi_infinite(
            lambda t: math.exp(-t), lambda R: math.exp(-R), rel_tol=1e-9
        )
        exact_tail = math.exp(-cutoff)
        assert head == pytest.approx(1.0 - exact_tail, rel=1e-8)
        assert tail >= exact_tail * (1.0 - 1e-12)
        assert head + tail >= 1.0 - 1e-10
        assert head <= 1.0 + 1e-10

    def test_start_offset(self):
        """int_3^inf e^-t = e^-3; the first cutoff is start + first_width and
        every later one doubles it."""
        head, tail, cutoff = integrate_semi_infinite(
            lambda t: math.exp(-t), lambda R: math.exp(-R), start=3.0, first_width=0.5
        )
        assert head <= math.exp(-3.0) <= head + tail
        assert head + tail == pytest.approx(math.exp(-3.0), rel=1e-8)
        assert math.log2(cutoff / 3.5).is_integer()

    def test_tail_is_one_sided(self):
        """head <= true value <= head + tail for a monotone-tail integrand."""
        head, tail, _ = integrate_semi_infinite(
            lambda t: 1.0 / (1.0 + t) ** 3,
            lambda R: 0.5 / (1.0 + R) ** 2,
            rel_tol=1e-10,
        )
        assert head <= 0.5 <= head + tail + 1e-12

    def test_non_decaying_tail_raises(self):
        """A tail bound that never becomes negligible exhausts the doublings."""
        with pytest.raises(RuntimeError, match="did not localize"):
            integrate_semi_infinite(lambda t: 0.0, lambda R: 1.0)

    @pytest.mark.parametrize("start, first_width", [
        (math.inf, 1.0), (0.0, math.inf), (1e308, 1.0), (math.nan, 1.0),
    ], ids=["start-inf", "width-inf", "doubled", "start-nan"])
    def test_cutoff_not_finite_refused(self, start, first_width):
        """The tail at an infinite cutoff is 0 and certifies nothing, whether the
        first cutoff or a doubled one leaves the double range."""
        with pytest.raises(ValueError, match="^cutoff (inf|nan) is not finite$"):
            integrate_semi_infinite(
                lambda t: 0.0, lambda R: 1.0, start=start, first_width=first_width
            )
