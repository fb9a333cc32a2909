"""Tests for the adaptive quadrature helpers.

Includes hard cases: absolute-value integrands with interior kinks,
panels spanning orders of magnitude, and semi-infinite frequency integrals
with certified tails.  Integrands are elementwise maps of arrays.
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
        val = adaptive_simpson(np.sin, 0.0, math.pi, rel_tol=1e-11)
        assert val == pytest.approx(2.0, rel=1e-10)

    def test_empty_interval_is_zero(self):
        assert adaptive_simpson(np.ones_like, 2.0, 2.0) == 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            adaptive_simpson(np.ones_like, 1.0, 0.0)

    def test_vanishing_integrand_terminates(self):
        """The absolute floor stops refinement on an identically-zero panel."""
        assert adaptive_simpson(np.zeros_like, 0.0, 1.0) == 0.0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_integrand_rejected(self, bad):
        """inf - inf is NaN, which no acceptance test ever passes; refuse it."""
        with pytest.raises(ValueError, match="not finite"):
            adaptive_simpson(lambda t: np.where(t > 0.6, bad, 1.0), 0.0, 1.0)

    def test_depth_exhaustion_raises(self):
        """An unresolved panel is an error, not a silently truncated value."""
        with pytest.raises(RuntimeError, match="unresolved after 48 bisections"):
            adaptive_simpson(lambda t: np.divide(1.0, t, out=np.zeros_like(t), where=t > 0.0),
                             0.0, 1.0)

    def test_one_call_per_bisection_level(self):
        """f gets every new node of one bisection level in one array: the three
        nodes of the whole interval, then two per open panel, left to right."""
        calls = []

        def f(t: np.ndarray) -> np.ndarray:
            calls.append(t.copy())
            return np.exp(-t)

        val = adaptive_simpson(f, 0.0, 10.0, rel_tol=1e-12)
        assert val == pytest.approx(1.0 - math.exp(-10.0), rel=1e-11)
        assert calls[0].tolist() == [0.0, 5.0, 10.0]
        assert calls[1].tolist() == [2.5, 7.5]
        assert all(t.size % 2 == 0 and np.all(np.diff(t) > 0) for t in calls[1:])
        assert len(calls) <= 50 and sum(t.size for t in calls) > 4 * len(calls)

    @pytest.mark.parametrize("f, a, b, rel_tol", [
        (lambda t: np.exp(-t), 0.0, 10.0, 1e-12),
        (lambda t: np.abs(np.sin(3.0 * t)), 0.0, 4.0, 1e-10),
        (lambda t: (1e-6 + t * t) ** -0.75, 0.0, 50.0, 1e-9),
    ], ids=["exp", "kinked", "spike"])
    def test_same_panels_as_the_recursion(self, f, a, b, rel_tol):
        """The recursive scalar Simpson this routine replaced, as the reference:
        each panel's acceptance depends on that panel alone, so both visit the
        same nodes; only the order of the final sum differs."""
        nodes = []

        def value(t):
            nodes.append(t)
            return float(f(np.array([t]))[0])

        def simpson(fa, fm, fb, h):
            return (h / 6.0) * (fa + 4.0 * fm + fb)

        def recurse(a, b, fa, fm, fb, whole):
            m = 0.5 * (a + b)
            lm, rm = 0.5 * (a + m), 0.5 * (m + b)
            flm, frm = value(lm), value(rm)
            left, right = simpson(fa, flm, fm, m - a), simpson(fm, frm, fb, b - m)
            err = left + right - whole
            if abs(err) <= 15.0 * max(1e-14, rel_tol * (abs(left) + abs(right))):
                return left + right + err / 15.0
            return recurse(a, m, fa, flm, fm, left) + recurse(m, b, fm, frm, fb, right)

        fa, fm, fb = value(a), value(0.5 * (a + b)), value(b)
        reference = recurse(a, b, fa, fm, fb, simpson(fa, fm, fb, b - a))
        calls = []
        val = adaptive_simpson(lambda t: calls.append(t) or f(t), a, b, rel_tol=rel_tol)
        assert sorted(np.concatenate(calls).tolist()) == sorted(nodes)
        assert val == pytest.approx(reference, rel=1e-14)

    def test_kinked_integrand_g5(self):
        """|g^(5)| for g = t^5 e^-t has interior kinks; the panels resolve them."""
        g = poly_exp(5)

        def f(t: np.ndarray) -> np.ndarray:
            return np.abs(g.on_grid(t, 5))

        val = adaptive_simpson(f, 0.0, 2.0, rel_tol=1e-10)
        assert val == pytest.approx(INT_ABS_G5_0_2, rel=1e-8)
        val1 = adaptive_simpson(f, 0.0, 1.0, rel_tol=1e-10)
        assert val1 == pytest.approx(INT_ABS_G5_0_1, rel=1e-8)

    def test_kinked_integrand_g4(self):
        g = poly_exp(5)

        def f(t: np.ndarray) -> np.ndarray:
            return np.abs(g.on_grid(t, 4))

        val = adaptive_simpson(f, 0.0, 2.0, rel_tol=1e-10)
        assert val == pytest.approx(INT_ABS_G4_0_2, rel=1e-8)
        val1 = adaptive_simpson(f, 0.0, 1.0, rel_tol=1e-10)
        assert val1 == pytest.approx(INT_ABS_G4_0_1, rel=1e-8)


class TestIntegrateSemiInfinite:
    def test_exponential_with_certified_tail(self):
        """int_0^inf e^-t = 1; the returned tail bounds the truncated mass."""
        head, tail, cutoff = integrate_semi_infinite(
            lambda t: np.exp(-t), lambda R: math.exp(-R), rel_tol=1e-9
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
            lambda t: np.exp(-t), lambda R: math.exp(-R), start=3.0, first_width=0.5
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
            integrate_semi_infinite(np.zeros_like, lambda R: 1.0)

    @pytest.mark.parametrize("start, first_width", [
        (math.inf, 1.0), (0.0, math.inf), (1e308, 1.0), (math.nan, 1.0),
    ], ids=["start-inf", "width-inf", "doubled", "start-nan"])
    def test_cutoff_not_finite_refused(self, start, first_width):
        """The tail at an infinite cutoff is 0 and certifies nothing, whether the
        first cutoff or a doubled one leaves the double range."""
        with pytest.raises(ValueError, match="^cutoff (inf|nan) is not finite$"):
            integrate_semi_infinite(
                np.zeros_like, lambda R: 1.0, start=start, first_width=first_width
            )
