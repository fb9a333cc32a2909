"""Tests for the characteristic map, its Taylor machinery, and the majorants.

Closed forms are used as independent oracles throughout:

    q(z)  = (delta(e^-z) - z)/z^3,   D(sigma) = (2 tan(sigma/2) - sigma)/sigma^3

D_eval itself uses the closed form above sigma = 0.5 and the q series below
it, so D is also checked against 40-digit mpmath on both sides of that
crossover.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from trcq_kit import (
    D_eval,
    E_m_eval,
    delta_char,
    delta_power_diff,
    q_ratio,
    q_taylor_coeffs,
    s_kappa,
    sample_cplus,
    solve_c0,
)

# frozen reference values (high-precision root/series evaluations)
C0_REF = 2.3311223704144226
D_AT_ONE = 0.09260497968758102


def d_closed(x):
    """Cancellation-prone closed form of D; fine as an oracle for x >= 0.05."""
    return (2.0 * np.tan(0.5 * x) - x) / x**3


class TestTaylorCoefficients:
    """The expansion (delta(e^-z) - z)/z^3 = sum b_l z^(2l)."""

    def test_leading_coefficients(self):
        b = q_taylor_coeffs(3)
        assert abs(b[0] - (-1.0 / 12.0)) <= 1e-14
        assert abs(b[1] - 1.0 / 120.0) <= 1e-14
        assert abs(b[2] - (-17.0 / 20160.0)) <= 1e-14

    def test_coefficients_are_correctly_rounded(self):
        """b_l = 2^(2n) (2^(2n) - 1) B_2n / ((2n)! 4^(n-1)) with n = l + 2, from
        exact Bernoulli numbers, each rounded once to the nearest double."""
        bern = [Fraction(1)]
        for n in range(1, 36):
            bern.append(-sum(math.comb(n + 1, k) * bern[k] for k in range(n)) / (n + 1))
        exact = []
        for l in range(16):
            n = l + 2
            c = Fraction(4**n * (4**n - 1), math.factorial(2 * n)) * bern[2 * n]
            exact.append(float(c / 4 ** (n - 1)))
        assert np.array_equal(q_taylor_coeffs(16), np.array(exact))

    def test_signs_alternate(self):
        b = q_taylor_coeffs(12)
        signs = np.sign(b)
        assert np.all(signs == (-1.0) ** (np.arange(12) + 1))

    def test_ratio_matches_series_near_zero(self):
        # q(z) = b0 + b1 z^2 + O(z^4); the ratio evaluation must not cancel
        z = np.array([1e-8, 1e-4, 1e-2], dtype=complex)
        vals = q_ratio(z)
        two_terms = -1.0 / 12.0 + (1.0 / 120.0) * z.real**2
        np.testing.assert_allclose(vals.real, two_terms, rtol=1e-7)

    def test_ratio_matches_delta_away_from_zero(self):
        rng = np.random.default_rng(7)
        z = sample_cplus(500, rng, max_modulus=2.0, min_modulus=0.3)
        direct = (delta_char(np.exp(-z)) - z) / z**3
        np.testing.assert_allclose(q_ratio(z), direct, rtol=1e-10)


class TestDEval:
    """Evaluation of the majorant series D on [0, pi)."""

    def test_frozen_value_at_one(self):
        assert abs(D_eval(1.0) - D_AT_ONE) <= 1e-15

    def test_matches_closed_form(self):
        x = np.linspace(0.05, np.pi - 0.05, 211)
        np.testing.assert_allclose(D_eval(x), d_closed(x), rtol=1e-12)

    def test_limit_at_zero(self):
        np.testing.assert_allclose(D_eval(1e-8), 1.0 / 12.0, rtol=1e-12)

    def test_monotone_increasing(self):
        x = np.linspace(1e-3, np.pi - 2e-3, 400)
        vals = D_eval(x)
        assert np.all(np.diff(vals) > 0.0)

    def test_domain(self):
        for bad in (-0.5, np.pi, 4.0, np.nan):
            with pytest.raises(ValueError):
                D_eval(bad)
        with pytest.raises(ValueError):
            D_eval(np.array([1.0, np.nan]))
        near_pi = D_eval(np.pi - 9e-4)
        assert np.isfinite(near_pi) and near_pi > 0.0
        assert abs(D_eval(0.0) - 1.0 / 12.0) <= 1e-15  # series value at 0

    def test_matches_high_precision(self):
        import mpmath

        def ref(x):
            if x == 0.0:
                return mpmath.mpf(1) / 12
            with mpmath.workdps(40):
                xm = mpmath.mpf(x)
                return (2 * mpmath.tan(xm / 2) - xm) / xm**3

        x = np.concatenate([
            np.linspace(0.0, np.pi - 1e-3, 301),
            np.nextafter(0.5, [0.0, 1.0]),
            0.5 + np.array([-1e-9, 1e-9, 1e-6, 1e-3]),
            np.pi - np.array([0.5, 0.1, 1e-2, 2e-3, 1e-3]),
        ])
        refs = np.array([float(ref(float(v))) for v in x])
        np.testing.assert_allclose(D_eval(x), refs, rtol=2e-14, atol=0)


class TestEmEval:
    """E_m(sigma) = max(D, D^m) * ((1+sigma^2)^m - 1)/sigma^2."""

    def test_matches_closed_form(self):
        x = np.linspace(0.1, np.pi - 0.1, 97)
        for m in (1, 2, 3, 5):
            d = d_closed(x)
            ref = np.maximum(d, d**m) * ((1.0 + x * x) ** m - 1.0) / (x * x)
            np.testing.assert_allclose(E_m_eval(x, [m])[0], ref, rtol=1e-11)

    def test_reduces_to_d_scaling_for_m1(self):
        x = np.array([0.5, 1.0, 2.0])
        np.testing.assert_allclose(E_m_eval(x, [1])[0], D_eval(x), rtol=1e-13)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            E_m_eval(1.0, [0])


class TestC0:
    """The unique root of x^2 D(x) = 1 in (0, pi), i.e. of tan(x/2) = x."""

    def test_frozen_value(self):
        assert abs(solve_c0() - C0_REF) <= 1e-12

    def test_within_one_ulp_of_the_root(self):
        with mpmath.workdps(40):
            root = mpmath.findroot(lambda c: mpmath.tan(c / 2) - c, 2.33)
            assert abs(mpmath.mpf(solve_c0()) - root) <= math.ulp(float(root))

    def test_residual(self):
        c0 = solve_c0()
        assert 0.0 < c0 < np.pi
        assert abs(c0 * c0 * D_eval(c0) - 1.0) <= 1e-12


class TestDeltaChar:
    """delta(zeta) = 2(1 - zeta)/(1 + zeta)."""

    def test_spot_values(self):
        assert delta_char(0.0 + 0j) == 2.0
        np.testing.assert_allclose(delta_char(0.5 + 0j), 2.0 / 3.0, rtol=1e-15)
        np.testing.assert_allclose(delta_char(1j), 2.0 * (1 - 1j) / (1 + 1j), rtol=1e-15)

    def test_pole_rejected(self):
        with pytest.raises(ZeroDivisionError):
            delta_char(np.array([-1.0 + 0j]))

    def test_dtype_preserved(self):
        out = delta_char(np.array([0.3 + 0.1j], dtype=np.clongdouble))
        assert out.dtype == np.clongdouble


class TestSKappa:
    """s_kappa = (2/kappa) tanh(kappa s / 2), elementwise in both arguments."""

    def test_frozen_spot(self):
        np.testing.assert_allclose(
            complex(s_kappa(1.0 + 0j, 0.1)), 0.9991674991575994, rtol=1e-14
        )

    def test_matches_formula(self):
        rng = np.random.default_rng(11)
        s = sample_cplus(2000, rng)
        for kappa in (1.0, 0.3, 0.05):
            ref = (2.0 / kappa) * np.tanh(0.5 * kappa * s)
            np.testing.assert_allclose(s_kappa(s, kappa), ref, rtol=1e-13)

    def test_array_kappa(self):
        rng = np.random.default_rng(12)
        s = sample_cplus(500, rng)
        kappa = 1.0 - rng.random(500)
        ref = (2.0 / kappa) * np.tanh(0.5 * kappa * s)
        np.testing.assert_allclose(s_kappa(s, kappa), ref, rtol=1e-13)

    def test_second_order_consistency(self):
        # |s_kappa - s| <= E_1(|kappa s|) kappa^2 |s|^3
        s = 1.0 + 2.0j
        for kappa in (0.1, 0.01):
            defect = abs(complex(s_kappa(s, kappa)) - s)
            cap = E_m_eval(abs(kappa * s), [1])[0] * kappa**2 * abs(s) ** 3
            assert defect <= cap

    def test_domain(self):
        with pytest.raises(ValueError):
            s_kappa(1.0 + 0j, 0.0)
        with pytest.raises(ValueError):
            s_kappa(1.0 + 0j, 1.5)


class TestDeltaPowerDiff:
    """Cancellation-free delta(e^-z)^m - z^m."""

    def test_matches_direct_for_moderate_z(self):
        rng = np.random.default_rng(13)
        z = sample_cplus(2000, rng, max_modulus=2.5, min_modulus=0.5)
        for m in (1, 2, 4):
            direct = delta_char(np.exp(-z)) ** m - z**m
            np.testing.assert_allclose(
                delta_power_diff(z, [m])[0], direct, rtol=1e-10, atol=1e-13
            )

    def test_no_cancellation_for_tiny_z(self):
        # delta(e^-z) - z = -z^3/12 (1 + O(z^2)); direct subtraction would
        # lose all digits at |z| = 1e-4
        z = np.array([1e-4 + 0j])
        val = delta_power_diff(z, [1])[0, 0]
        np.testing.assert_allclose(val, -z[0] ** 3 / 12.0, rtol=1e-7)

    def test_m_must_be_positive(self):
        with pytest.raises(ValueError):
            delta_power_diff(np.array([0.1 + 0j]), [0])


class TestSharedOrders:
    """One call for several orders returns, bit for bit, what one call per
    order returns: the defect, its powers and D are shared, not rounded
    differently."""

    ORDERS = range(1, 7)

    @staticmethod
    def points():
        """10^4 seeded points of the right half-plane, half of them with
        |z| <= 0.5 (the series branch) and half above (the closed form)."""
        rng = np.random.default_rng(31)
        half = 5000
        modulus = np.concatenate([rng.uniform(1e-3, 0.5, half), rng.uniform(0.5, 3.1, half)])
        angle = rng.uniform(-0.5 * np.pi + 1e-6, 0.5 * np.pi - 1e-6, 2 * half)
        return modulus * np.exp(1j * angle)

    def test_delta_power_diff(self):
        z = self.points()
        shared = delta_power_diff(z, self.ORDERS)
        assert shared.shape == (len(self.ORDERS),) + z.shape
        for row, m in zip(shared, self.ORDERS):
            assert np.all(row == delta_power_diff(z, [m])[0])
        # a point's value does not depend on where it sits in the array
        for k in range(0, z.size, 397):
            assert [delta_power_diff(complex(z[k]), [m])[0] for m in self.ORDERS] == list(
                shared[:, k]
            )

    def test_E_m_eval(self):
        sigma = np.append(np.abs(self.points()), 0.0)
        shared = E_m_eval(sigma, self.ORDERS)
        assert shared.shape == (len(self.ORDERS),) + sigma.shape
        for row, m in zip(shared, self.ORDERS):
            assert np.all(row == E_m_eval(sigma, [m])[0])
        assert [E_m_eval(0.7, [m])[0] for m in self.ORDERS] == list(E_m_eval(0.7, self.ORDERS))

    def test_rejects_bad_orders(self):
        for orders in ([], [1, 0]):
            with pytest.raises(ValueError):
                delta_power_diff(0.1 + 0j, orders)
            with pytest.raises(ValueError):
                E_m_eval(0.1, orders)


class TestShapeRule:
    """Each evaluator returns its argument's shape, 0-d included, with the
    orders stacked on a first axis.  A 0-d value, a one-element array and the
    same value inside a 10^4-element array give the same bits: const_Cm1
    polishes one point at a time, and the sampled suites evaluate 2^14-sample
    chunks."""

    ORDERS = [1, 2, 3, 4, 5]

    @staticmethod
    def evaluators():
        z = TestSharedOrders.points()
        orders = TestShapeRule.ORDERS
        return {
            "delta_char": (delta_char, np.exp(-z)),
            "s_kappa": (lambda s: s_kappa(s, 0.3), z),
            "q_ratio": (q_ratio, z),
            "D_eval": (D_eval, np.abs(z)),
            "E_m_eval": (lambda x: E_m_eval(x, orders), np.abs(z)),
            "delta_power_diff": (lambda x: delta_power_diff(x, orders), z),
        }

    @pytest.mark.parametrize(
        "name", ["delta_char", "s_kappa", "q_ratio", "D_eval", "E_m_eval", "delta_power_diff"]
    )
    def test_same_bits_in_every_shape(self, name):
        f, x = self.evaluators()[name]
        whole = f(x)
        lead = (len(self.ORDERS),) if name in ("E_m_eval", "delta_power_diff") else ()
        assert whole.shape == lead + x.shape
        for k in range(0, x.size, 97):
            point, one = f(x[k].item()), f(x[k : k + 1])
            assert np.shape(point) == lead
            assert one.shape == lead + (1,)
            assert np.asarray(point).tobytes() == one[..., 0].tobytes() == whole[..., k].tobytes()


class TestSampleCplus:
    """Seeded half-plane sampler used by every verification suite."""

    def test_reproducible(self):
        a = sample_cplus(100, 42)
        b = sample_cplus(100, 42)
        np.testing.assert_array_equal(a, b)

    def test_in_domain(self):
        z = sample_cplus(5000, 1, max_modulus=50.0, min_modulus=1e-2)
        assert np.all(z.real > 0.0)
        mod = np.abs(z)
        assert np.all(mod <= 50.0 * (1 + 1e-12))
        assert np.all(mod >= 1e-2 * (1 - 1e-12))

    def test_per_sample_caps(self):
        caps = np.array([0.1, 1.0, 10.0, 100.0] * 25)
        z = sample_cplus(100, 3, max_modulus=caps, min_modulus=1e-3)
        assert np.all(np.abs(z) <= caps * (1 + 1e-12))

    def test_generator_continues_stream(self):
        rng = np.random.default_rng(5)
        a = sample_cplus(50, rng)
        b = sample_cplus(50, rng)
        assert not np.array_equal(a, b)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample_cplus(0, 1)
