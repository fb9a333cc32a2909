"""Tests for parameter derivation, envelopes, and the explicit constant chain.

Every pinned constant below was recomputed independently in 50-digit
arithmetic (series evaluation of the envelope, golden-section minimization
at 1e-30 bracket width) and rounded to double; the package must match to
~5e-14 relative.
"""

import math

import mpmath
import numpy as np
import pytest

from trcq_kit.bounds import (
    CONSTANTS_CSV_HEADER,
    MAX_MU,
    TheoremParams,
    bound_rhs,
    const_Cm1,
    const_Cmu1,
    const_chain,
    derive_params,
    params_csv_row,
    theta1,
    theta2,
    theta3,
)
from trcq_kit.functions import PolyExp, monomial, poly_exp, zero
from trcq_kit.symbols import CFModel, make_delay, make_power

D_AT_ONE = 0.09260497968758102


def _horner(row, t):
    acc = 0.0
    for c in reversed(row):
        acc = acc * t + c
    return acc

# mu -> (m, alpha, beta, epsilon)
PARAM_TABLE = {
    0.0: (0, 5, 5, 3.0),
    0.25: (1, 4, 6, 2.75),
    0.5: (1, 4, 6, 2.5),
    1.0: (1, 5, 6, 3.0),
    1.5: (2, 4, 8, 3.5),
    2.0: (2, 5, 8, 3.0),
    3.0: (3, 5, 10, 4.0),
}

# mu -> (Cm1, Cmu1, Cm, Cmu2, Cmu3, Cmu), 50-digit chain rounded to double
CHAIN_TABLE = {
    0.0: (
        0.0,
        1.7115017345609548217,
        0.0,
        0.74044355481877977301,
        0.0,
        0.74044355481877977301,
    ),
    0.5: (
        1.6312623571634567761,
        5.4162327645792753024,
        0.70572975427922611048,
        2.3432138927745828516,
        0.99805258987191337742,
        2.3432138927745828516,
    ),
    1.0: (
        1.6312623571634567761,
        1.7115017345609548217,
        0.70572975427922611048,
        0.74044355481877977301,
        0.70572975427922611048,
        0.74044355481877977301,
    ),
    2.0: (
        6.7087495178513277561,
        1.7115017345609548217,
        2.9023928174170933848,
        0.74044355481877977301,
        2.9023928174170933848,
        2.9023928174170933848,
    ),
}



def _reference_cmu1(mu_prime: float) -> float:
    """Cmu1 = min_c e1 Theta3(c) + e2 c^(1 - alpha) on [1e-2, c0 - 1e-2] in
    50 digits: a 257-point log scan, then golden section to 1e-30."""
    with mpmath.workdps(50):
        mu = mpmath.mpf(mu_prime)
        alpha = 5 if mu == 0 else 4
        e1 = 2 ** (3 - mu) * max(1, 1 / (alpha - 4 - mu))
        e2 = mpmath.mpf(8 * alpha) / (alpha - 1)

        def obj(c):
            d = (2 * mpmath.tan(c / 2) - c) / c**3  # D(c)
            return e1 * d * (1 - c * c * d) ** mu + e2 * c ** (1 - alpha)

        c0 = mpmath.findroot(lambda c: mpmath.tan(c / 2) - c, 2.3)  # c0^2 D(c0) = 1
        lo, hi = mpmath.mpf("0.01"), c0 - mpmath.mpf("0.01")
        xs = [lo * (hi / lo) ** (mpmath.mpf(k) / 256) for k in range(257)]
        i = min(range(257), key=lambda k: obj(xs[k]))
        a, b = xs[max(i - 1, 0)], xs[min(i + 1, 256)]
        invphi = (mpmath.sqrt(5) - 1) / 2
        while b - a > mpmath.mpf("1e-30"):
            c, d = b - invphi * (b - a), a + invphi * (b - a)
            if obj(c) < obj(d):
                b = d
            else:
                a = c
        return float(obj((a + b) / 2))


# --------------------------------------------------------------------------
# the P_m operator on an input's data
# --------------------------------------------------------------------------


class TestLeibnizRow:
    """``P_m g^(k) = sum_l C(m, l) g^(k+l)`` as one integer row times exp(-t)."""

    @staticmethod
    def at(g, k, m, t):
        return _horner(g.leibniz_row(k, m), t) * math.exp(-t)

    def test_shift_semantics(self):
        """With m = 0 the k-shift is the plain derivative g^(k)."""
        g = poly_exp(5)
        assert g.leibniz_row(5, 0) == g.table[5]
        assert self.at(g, 5, 0, 0.7) == g.deriv(0.7, 5)

    def test_leibniz_identity_order_one(self):
        """P_1 h = h + h' pinned on the 5-shift of t^5 e^-t at t = 0.7."""
        assert self.at(poly_exp(5), 5, 1, 0.7) == pytest.approx(-10.37888114189235456209, rel=5e-15)

    def test_leibniz_identity_order_two(self):
        """P_2 g = g + 2 g' + g'' from the binomial expansion."""
        g = poly_exp(3)
        ref = g.deriv(1.3, 0) + 2.0 * g.deriv(1.3, 1) + g.deriv(1.3, 2)
        np.testing.assert_allclose(self.at(g, 0, 2, 1.3), ref, rtol=1e-15)

    def test_order_zero_is_identity(self):
        g = poly_exp(4)
        assert g.leibniz_row(0, 0) == (0, 0, 0, 0, 1)

    def test_top_powers_cancel(self):
        """P_m cancels the top m powers of a poly row (worked by hand: P_5 + P_6
        of t^6 e^-t); a mono row is the sum of its falling-factorial terms."""
        assert poly_exp(6).leibniz_row(5, 1) == (720, -3600, 3600, -1200, 150, -6)
        assert monomial(7).leibniz_row(5, 1) == (0, 5040, 2520)
        assert zero().leibniz_row(3, 2) == ()



# --------------------------------------------------------------------------
# parameter derivation
# --------------------------------------------------------------------------


class TestDeriveParams:
    def test_parameter_table(self):
        """(m, alpha, beta, epsilon) across representative mu."""
        for mu, (m, alpha, beta, eps) in PARAM_TABLE.items():
            p = derive_params(mu)
            assert (p.m, p.alpha, p.beta) == (m, alpha, beta), f"mu={mu}"
            assert p.epsilon == pytest.approx(eps, rel=0, abs=0), f"mu={mu}"

    def test_epsilon_bracket(self):
        """epsilon always lies in [1 + max(m,1), 2 + max(m,1)]."""
        rng = np.random.default_rng(20260814)
        for mu in 6.0 * rng.random(200):
            p = derive_params(float(mu))
            lo = 1.0 + max(p.m, 1)
            hi = 2.0 + max(p.m, 1)
            assert lo - 1e-12 <= p.epsilon <= hi + 1e-12, f"mu={mu}"

    def test_integer_mu_gives_alpha_five(self):
        for mu in (0.0, 1.0, 2.0, 5.0):
            assert derive_params(mu).alpha == 5

    def test_fractional_mu_gives_alpha_four(self):
        for mu in (0.1, 0.9, 1.5, 3.25):
            assert derive_params(mu).alpha == 4

    def test_alpha_just_below_an_integer(self):
        """mu = 3 - 2^-51 is fractional: alpha 4, and a Cmu1 minimised with
        alpha 4, whose e1 = 2^(3 - mu')/(-mu') is near 2^54."""
        p = derive_params(2.9999999999999996)
        assert (p.m, p.alpha) == (3, 4)
        assert p.constants["Cmu1"] > 1e14

    @pytest.mark.parametrize("mu", [1e-17, 5e-324])
    def test_mu_below_2_to_minus_54(self, mu):
        """For 0 < mu <= 2^-54, mu - ceil(mu) rounds to -1; mu' is the nearest
        double above -1, the same as at mu = 1e-16."""
        p, ref = derive_params(mu), derive_params(1e-16)
        assert (p.m, p.alpha) == (1, 4)
        for key in ("Cm1", "Cmu1", "Cmu2", "Cm"):
            assert p.constants[key] == ref.constants[key], key

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            derive_params(-0.5)
        with pytest.raises(ValueError):
            derive_params(float("nan"))

    def test_mu_beyond_the_constant_chain_rejected(self):
        """MAX_MU is the largest mu whose constant chain completes."""
        assert all(math.isfinite(v) for v in derive_params(MAX_MU).constants.values())
        for mu in (MAX_MU + 0.5, 100.0, 1e6):
            with pytest.raises(ValueError, match="constant chain"):
                derive_params(mu)

    def test_bad_constants_rejected(self):
        with pytest.raises(ValueError, match="finite and non-negative"):
            TheoremParams(
                mu=0.0,
                m=0,
                alpha=5,
                beta=5,
                epsilon=3.0,
                constants={"Cmu": -1.0},
            )


# --------------------------------------------------------------------------
# envelopes
# --------------------------------------------------------------------------


class TestThetas:
    def test_theta1_formula(self):
        cf = CFModel(2.0, 1.0)
        # sigma = 0.5: y = 0.25, mu = -1 -> 0.25**-1 * cf(0.25) = 4 * 8 = 32
        assert theta1(0.5, -1.0, cf) == pytest.approx(32.0, rel=1e-14)
        # sigma >= 1 clamps to y = 0.5
        assert theta1(3.0, -1.0, cf) == pytest.approx(2.0 * 4.0, rel=1e-14)

    def test_theta2_formula(self):
        cf = CFModel(1.0, 0.0)
        # 2**(1-mu)/sigma * cf(sigma/2) with mu = 0: 2/sigma
        assert theta2(4.0, 0.0, cf) == pytest.approx(0.5, rel=1e-14)

    def test_theta3_matches_envelope_value(self):
        """At mu = 0 the approximation envelope reduces to D(sigma)."""
        assert theta3(1.0, 0.0) == pytest.approx(D_AT_ONE, rel=1e-13)

    def test_theta3_negative_mu(self):
        ref = D_AT_ONE / (1.0 - D_AT_ONE)
        assert theta3(1.0, -1.0) == pytest.approx(ref, rel=1e-12)

    def test_arrays_match_scalars_elementwise(self):
        cf = CFModel(2.0, 0.5)
        sigma = np.array([1e-3, 0.05, 0.3, 1.0, 1.2])
        for mu in (0.0, -0.5, -1.0):
            for theta, args in ((theta1, (mu, cf)), (theta2, (mu, cf)), (theta3, (mu,))):
                got = theta(sigma, *args)
                assert got.shape == sigma.shape
                assert got.tolist() == [theta(float(x), *args) for x in sigma]

    def test_domain_errors(self):
        cf = CFModel(1.0, 0.0)
        with pytest.raises(ValueError):
            theta1(np.array([0.5, 0.0]), 0.0, cf)  # one bad element suffices
        with pytest.raises(ValueError):
            theta2(np.array([1.0, -1.0]), 0.0, cf)
        with pytest.raises(ValueError):
            theta3(np.array([1.0, 3.0]), 0.0)
        with pytest.raises(ValueError):
            theta1(0.0, 0.0, cf)
        with pytest.raises(ValueError):
            theta1(1.0, 0.5, cf)
        with pytest.raises(ValueError):
            theta2(-1.0, 0.0, cf)
        with pytest.raises(ValueError):
            theta3(1.0, 0.5)
        with pytest.raises(ValueError):
            theta3(3.0, 0.0)  # beyond the envelope's positive-mass interval


# --------------------------------------------------------------------------
# constant chain
# --------------------------------------------------------------------------


class TestConstantChain:
    def test_pinned_chain_values(self):
        """Full chain at mu in {0, 0.5, 1, 2} against 50-digit references."""
        for mu, refs in CHAIN_TABLE.items():
            chain = const_chain(mu)
            got = tuple(chain[k] for k in ("Cm1", "Cmu1", "Cm", "Cmu2", "Cmu3", "Cmu"))
            np.testing.assert_allclose(got, refs, rtol=5e-14, atol=1e-300)

    def test_chain_relations(self):
        """Cm, Cmu2, Cmu3, Cmu follow from Cm1/Cmu1 by fixed algebra."""
        chain = const_chain(1.5)
        scale = math.e / (2.0 * math.pi)
        assert chain["Cm"] == pytest.approx(scale * chain["Cm1"], rel=1e-15)
        assert chain["Cmu2"] == pytest.approx(scale * chain["Cmu1"], rel=1e-15)
        assert chain["Cmu3"] == pytest.approx(chain["Cm"] * 2.0**0.5, rel=1e-15)
        assert chain["Cmu"] == max(chain["Cmu2"], chain["Cmu3"])

    def test_cmu1_near_integer_mu_keeps_its_digits(self):
        """Just below an integer mu, e1 divides by -mu' ~ 1e-12; a rounded
        alpha - mu' - 4 would lose 4 digits of it."""
        np.testing.assert_allclose(
            const_Cmu1(-1e-12), _reference_cmu1(-1e-12), rtol=5e-14, atol=0
        )

    def test_cm1_order_zero_vanishes(self):
        assert const_Cm1(0) == 0.0

    def test_cm1_negative_order_rejected(self):
        with pytest.raises(ValueError):
            const_Cm1(-1)

    def test_cmu1_domain(self):
        with pytest.raises(ValueError):
            const_Cmu1(0.5)
        with pytest.raises(ValueError):
            const_Cmu1(-1.0)

    def test_all_constants_positive_for_positive_mu(self):
        chain = const_chain(0.75)
        for key, val in chain.items():
            assert val > 0.0, key


# --------------------------------------------------------------------------
# right-hand side of the bound
# --------------------------------------------------------------------------


class TestBoundRhs:
    def test_pinned_value_delay_poly5exp(self):
        """kappa = 0.1, t = 2: product of pinned Cmu and pinned kink integrals."""
        val = bound_rhs(make_delay(1.0), poly_exp(5), 0.1, 2.0)
        assert val == pytest.approx(3.4515644891089559, rel=1e-8)

    def test_kappa_squared_scaling(self):
        """Halving kappa divides the bound by exactly four."""
        a = bound_rhs(make_delay(1.0), poly_exp(5), 0.1, 2.0)
        b = bound_rhs(make_delay(1.0), poly_exp(5), 0.05, 2.0)
        assert a / b == pytest.approx(4.0, rel=1e-15)

    def test_kappa_array_matches_scalar_calls(self):
        """An array of steps runs the time integrals once and equals one call
        per step bit for bit."""
        kappas = np.array([0.1, 0.05, 0.025])
        for F, g in ((make_delay(1.0), poly_exp(5)), (make_power(0.5), monomial(7))):
            rhs = bound_rhs(F, g, kappas, 2.0)
            assert rhs.shape == kappas.shape
            assert rhs.tolist() == [bound_rhs(F, g, float(k), 2.0) for k in kappas]
        with pytest.raises(ValueError, match="kappa must lie in"):
            bound_rhs(make_delay(1.0), poly_exp(5), np.array([0.1, 1.5]), 1.0)

    def test_explicit_params_match_default(self):
        p = derive_params(0.0)
        a = bound_rhs(make_delay(1.0), poly_exp(5), 0.1, 1.0, params=p)
        b = bound_rhs(make_delay(1.0), poly_exp(5), 0.1, 1.0)
        assert a == b

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            bound_rhs(make_delay(1.0), poly_exp(5), 0.0, 1.0)
        with pytest.raises(ValueError):
            bound_rhs(make_delay(1.0), poly_exp(5), 1.5, 1.0)
        with pytest.raises(ValueError, match="^t must be finite and positive, got 0$"):
            bound_rhs(make_delay(1.0), poly_exp(5), 0.1, 0.0)

    def test_insufficient_smoothness_rejected(self):
        g = PolyExp("poly", 5, 4)
        with pytest.raises(ValueError, match="orders up to 4"):
            bound_rhs(make_delay(1.0), g, 0.1, 1.0)

    def test_input_nonzero_at_the_origin_rejected(self):
        """power:1 needs beta = 6 derivatives vanishing at 0; poly5exp has g^(5)(0) = 120."""
        with pytest.raises(ValueError, match=r"^poly5exp has g\^\(5\)\(0\) = 120; the bound"):
            bound_rhs(make_power(1.0), poly_exp(5), 0.1, 1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_time_not_finite_refused(self, t):
        """Both would reach C(1/t) and the integrals: nan as a NaN bound, inf as
        a division by min(0, 1)**epsilon = 0."""
        with pytest.raises(ValueError, match=f"^t must be finite and positive, got {t:g}$"):
            bound_rhs(make_delay(1.0), poly_exp(5), 0.1, t)

    @pytest.mark.parametrize("F, g, t", [
        (make_power(0.0), poly_exp(5), 1e-300),
        (make_power(0.5), monomial(7), 1e-200),
        (make_delay(1.0), poly_exp(6), 1e-300),
    ], ids=["power0", "power0.5", "delay"])
    def test_small_time_is_finite(self, F, g, t):
        """(1/t)**epsilon passes the double range at these times; C(1/t) clamps
        1/t to 1 first, so the bound is finite (0 where the integrals underflow)."""
        assert 0.0 <= bound_rhs(F, g, 0.1, t) < math.inf


# --------------------------------------------------------------------------
# CSV export
# --------------------------------------------------------------------------


class TestParamsCsv:
    def test_header_and_row_agree(self):
        assert CONSTANTS_CSV_HEADER.count(",") == 10
        p = derive_params(1.0)
        row = params_csv_row(p)
        fields = row.split(",")
        assert len(fields) == 11
        assert float(fields[0]) == 1.0
        assert int(fields[1]) == 1
        assert int(fields[2]) == 5
        assert int(fields[3]) == 6
        assert float(fields[4]) == 3.0
        assert float(fields[10]) == pytest.approx(
            CHAIN_TABLE[1.0][5], rel=5e-14
        )
