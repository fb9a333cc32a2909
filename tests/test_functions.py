"""Tests for the shipped causal inputs and their closed-form actions.

Derivative spot values were computed in 40-digit arithmetic from the
explicit polynomial-times-exponential form and are pinned to ~5e-15
relative; the transform spot is exact in rational arithmetic.
"""

import math

import numpy as np
import pytest

from trcq_kit.functions import exact_solution, monomial, parse_g, poly_exp, zero
from trcq_kit.quadrature import adaptive_simpson

# d^k/dt^k [t^5 e^-t] at t = 0.7
POLY5EXP_DERIVS_AT_0p7 = {
    0: 0.08346109200822219713644,
    1: 0.5126895651933649252667,
    2: 2.297734961614117223205,
    3: 6.084873259036771089769,
    4: 1.453043359864929638692,
    5: -34.1479714688394363821,
    6: 23.76909032694708182001,
}


class TestPolyExp:
    def test_derivative_spot_values(self):
        """Orders 0..6 of t^5 e^-t at t = 0.7 match 40-digit references."""
        g = poly_exp(5)
        for k, ref in POLY5EXP_DERIVS_AT_0p7.items():
            val = g.deriv(0.7, k)
            assert float(val) == pytest.approx(ref, rel=5e-15)

    def test_p_zero_is_pure_exponential(self):
        """poly_exp(0) differentiates to (-1)^k e^-t exactly."""
        g = poly_exp(0)
        for k in range(8):
            val = float(g.deriv(1.3, k))
            assert val == pytest.approx((-1.0) ** k * math.exp(-1.3), rel=1e-15)

    def test_causal_zero_for_negative_time(self):
        g = poly_exp(5)
        for k in range(4):
            np.testing.assert_array_equal(g.deriv(-0.5, k), np.zeros(1))

    def test_order_cap_enforced(self):
        g = poly_exp(5, max_order=16)
        g.deriv(1.0, 16)
        with pytest.raises(ValueError, match="orders 0..16"):
            g.deriv(1.0, 17)

    def test_laplace_transform_spot(self):
        """G(1+2i) = 120/(2+2i)^6 = 0.234375i exactly."""
        g = poly_exp(5)
        val = complex(g.laplace(complex(1.0, 2.0)))
        assert val == complex(0.0, 0.234375)

    def test_laplace_decay_certificate(self):
        """||G(s)|| <= 120/|s|^6 with the declared (C, p) = (120, 6)."""
        g = poly_exp(5)
        assert g.laplace_decay == (120.0, 6.0)
        s = np.array([1 + 50j, 2 + 300j, 0.5 + 1000j])
        vals = np.abs(g.laplace(s))
        assert np.all(vals <= 120.0 / np.abs(s) ** 6 + 1e-18)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            poly_exp(-1)


class TestMonomial:
    def test_falling_factorial_derivatives(self):
        """d^3/dt^3 t^7 = 210 t^4; orders past p vanish."""
        g = monomial(7)
        assert float(g.deriv(1.5, 3)) == pytest.approx(210.0 * 1.5**4, rel=1e-15)
        assert float(g.deriv(1.5, 7)) == pytest.approx(math.factorial(7), rel=1e-15)
        assert float(g.deriv(1.5, 8)) == 0.0

    def test_overflow_is_a_value_error(self):
        """t**p past the double range is a usage error, not an OverflowError."""
        g = monomial(170)
        assert math.isfinite(float(g.deriv(60.0, 0)))
        with pytest.raises(ValueError, match="overflows"):
            g.deriv(100.0, 0)
        with pytest.raises(ValueError, match="overflows"):
            g.deriv(1e200, 1)

    def test_laplace(self):
        g = monomial(3)
        val = complex(g.laplace(2.0 + 0j))
        assert val == pytest.approx(6.0 / 16.0, rel=1e-15)


class TestParseG:
    def test_registry_round_trip(self):
        assert parse_g("poly5exp").name == "poly5exp"
        assert parse_g("mono:7").name == "mono:7"
        assert parse_g("zero").name == "zero"
        assert parse_g(" poly3exp ").name == "poly3exp"

    def test_unknown_specs_rejected(self):
        for bad in ("banana", "poly-1exp", "mono:2.5", "polyexp", "mono:"):
            with pytest.raises(ValueError, match="unknown input spec"):
                parse_g(bad)

    def test_power_beyond_factorial_range_rejected(self):
        """p! must be a finite double: 170 is the largest admissible power."""
        assert parse_g("poly170exp").laplace_decay[0] == float(math.factorial(170))
        for bad in ("poly171exp", "mono:171", "poly300exp", "mono:400"):
            with pytest.raises(ValueError, match="0..170"):
                parse_g(bad)

    def test_zero_function(self):
        g = zero()
        assert float(g.deriv(3.0, 5)) == 0.0
        assert complex(g.laplace(np.array([1 + 1j]))[0]) == 0.0


class TestExactSolution:
    """Closed-form references, pinned to 40-digit evaluations."""

    def test_fractional_derivative_of_monomial(self):
        """power:0.5 on t^7 is Gamma(8)/Gamma(7.5) t^6.5."""
        u = exact_solution("power:0.5", "mono:7")
        assert float(u(1.3)[0]) == pytest.approx(14.82277491169175007792, rel=1e-14)
        assert float(u(2.0)[0]) == pytest.approx(243.7769817099141443494, rel=1e-14)
        assert float(u(0.0)[0]) == 0.0

    def test_antiderivative_of_poly_exp(self):
        """power:-1 on t^3 e^-t at t = 1.7."""
        u = exact_solution("power:-1", "poly3exp")
        assert float(u(1.7)[0]) == pytest.approx(0.5591366031374039123816, rel=1e-14)

    def test_derivative_of_poly_exp(self):
        """power:1 on t^3 e^-t at t = 1.1."""
        u = exact_solution("power:1", "poly3exp")
        assert float(u(1.1)[0]) == pytest.approx(0.7652706214218848930111, rel=1e-14)

    def test_decay_on_poly_exp(self):
        """decay:1 on t^5 e^-t at t = 2 equals e^-2 * 2^6/6."""
        u = exact_solution("decay:1", "poly5exp")
        assert float(u(2.0)[0]) == pytest.approx(1.443576354523868713536, rel=1e-14)

    def test_decay_on_monomial(self):
        """decay:0.5 on t^3 at t = 1.9 (series branch)."""
        u = exact_solution("decay:0.5", "mono:3")
        assert float(u(1.9)[0]) == pytest.approx(2.725138251632115863884, rel=1e-14)

    def test_decay_on_monomial_large_time(self):
        """decay:0.5 on t^3 at t = 20 (alternating closed-form branch)."""
        u = exact_solution("decay:0.5", "mono:3")
        assert float(u(20.0)[0]) == pytest.approx(12064.00435839325719855, rel=1e-13)

    def test_decay_branches_agree(self):
        """Series and closed-form branches join continuously at x = p+1."""
        u = exact_solution("decay:0.5", "mono:3")
        below = float(u(8.0)[0])
        above = float(u(8.0 + 1e-12)[0])
        assert above == pytest.approx(below, rel=1e-11)

    def test_delay_shifts_the_input(self):
        u = exact_solution("delay:1.0", "poly5exp")
        g = poly_exp(5)
        np.testing.assert_allclose(u(1.7), g.deriv(0.7, 0), rtol=1e-15)
        np.testing.assert_array_equal(u(0.5), np.zeros(1))

    def test_zero_input_always_supported(self):
        u = exact_solution("power:0.5", "zero")
        assert float(u(4.0)[0]) == 0.0

    def test_identity_power(self):
        u = exact_solution("power:0", "poly5exp")
        g = poly_exp(5)
        np.testing.assert_allclose(u(1.2), g.deriv(1.2, 0), rtol=0, atol=0)

    def test_unsupported_pairs_return_none(self):
        assert exact_solution("power:0.5", "poly5exp") is None
        assert exact_solution("decay:2", "poly5exp") is None
        assert exact_solution("resolvent:whatever", "poly5exp") is None

    def test_antiderivative_matches_quadrature(self):
        """Series branch of int_0^t tau^3 e^-tau cross-checked by quadrature."""
        u = exact_solution("power:-1", "poly3exp")
        g = poly_exp(3)
        ref = adaptive_simpson(lambda tau: float(g.deriv(tau, 0)), 0.0, 0.5, 1e-13)
        assert float(u(0.5)[0]) == pytest.approx(ref, rel=1e-11)

    def test_antiderivative_branches_agree(self):
        """The small-t series and the closed form join continuously at t = p+1."""
        u = exact_solution("power:-1", "poly3exp")
        below = float(u(4.0)[0])
        above = float(u(4.0 + 1e-12)[0])
        assert above == pytest.approx(below, rel=1e-12)
