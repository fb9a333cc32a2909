"""Tests for the inequality verification suites.

Each suite must come back clean on its intended inputs, reproduce bit-for-bit
under a fixed seed, reject out-of-domain parameters, and — crucially — *fail*
when handed a symbol whose declared growth certificate is false.  The latter
guards against the suites being vacuous.
"""

import math
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from trcq_kit.functions import PolyExp, poly_exp, zero
from trcq_kit import verify
from trcq_kit.symbols import (
    CFModel, Symbol, make_decay, make_delay, make_power, make_resolvent, validate_growth,
)
from trcq_kit.trmap import delta_power_diff
from trcq_kit.verify import (
    QUADRATURE_TOL,
    SUITE_TOL,
    check_hyperbolic,
    check_lemma31,
    check_lemma32,
    check_lemma33,
    check_lemma42,
    check_prop32,
    check_prop34a,
    check_prop41,
    _line_integral,
)

SAMPLES = 20000
SEED = 7
DAMPED = np.array([[-0.5, 1.0], [-1.5, -0.25]])  # a 2x2 matrix with numerical range in Re < 0


# --------------------------------------------------------------------------
# sampled pointwise suites
# --------------------------------------------------------------------------


class TestSampledSuites:
    def test_hyperbolic_clean(self):
        rep = check_hyperbolic(SAMPLES, SEED)
        assert rep.violations == 0
        assert rep.worst_margin >= -SUITE_TOL
        assert rep.samples >= SAMPLES

    def test_lemma31_clean(self):
        rep = check_lemma31(SAMPLES, SEED)
        assert rep.violations == 0
        assert rep.worst_margin >= -SUITE_TOL

    def test_prop32_clean(self):
        rep = check_prop32(SAMPLES, SEED)
        assert rep.violations == 0
        assert rep.worst_margin >= -SUITE_TOL

    def test_lemma32_clean(self):
        rep = check_lemma32(SAMPLES, SEED)
        assert rep.violations == 0
        assert rep.worst_margin >= -SUITE_TOL

    def test_runs_reproduce_under_fixed_seed(self):
        a = check_lemma31(5000, 123)
        b = check_lemma31(5000, 123)
        assert a.worst_margin == b.worst_margin
        assert a.worst_point == b.worst_point

    @pytest.mark.parametrize("check", [
        check_hyperbolic, check_lemma31, check_prop32, check_lemma32,
        lambda samples, seed: check_prop41(make_delay(1.0), samples, seed),
        lambda samples, seed: validate_growth(make_delay(1.0), samples, seed),
    ], ids=["hyperbolic", "lemma31", "prop32", "lemma32", "prop41", "validate_growth"])
    def test_sample_count_validation(self, check):
        with pytest.raises(ValueError, match="^need at least one sample$"):
            check(0, 1)


# --------------------------------------------------------------------------
# operator-envelope suite
# --------------------------------------------------------------------------


class TestOperatorEnvelopes:
    def test_delay_symbol_clean(self):
        rep = check_prop41(make_delay(1.0), 2000, 3)
        assert rep.violations == 0

    def test_decay_symbol_clean(self):
        rep = check_prop41(make_decay(1.0), 2000, 3)
        assert rep.violations == 0

    def test_positive_growth_rejected(self):
        """mu is refused first, before the derivative and the sample count."""
        with pytest.raises(ValueError, match="mu <= 0"):
            check_prop41(make_power(0.5), 100, 1)
        with pytest.raises(ValueError, match="mu <= 0"):
            check_prop41(replace(make_power(0.5), derivative=None), 0, 1)

    def test_false_certificate_is_caught(self):
        """A symbol whose declared envelope underestimates it must fail."""
        liar = Symbol(
            name="liar",
            evaluator=lambda s: np.ones(s.shape + (1, 1), dtype=complex),
            mu=0.0,
            cf=CFModel(0.5, 0.0),
            derivative=lambda s: np.zeros(s.shape + (1, 1), dtype=complex),
        )
        rep = check_prop41(liar, 500, 11)
        assert rep.violations > 0
        assert rep.worst_margin < 0.0

    def test_derivative_above_the_envelope_is_caught(self):
        """Part (b) reads the declared derivative: decay:1's F' scaled by 10^4
        leaves parts (a) and (c) clean and breaks (b)."""
        F = make_decay(1.0)
        loud = replace(F, derivative=lambda s: 1e4 * F.derivative(s))
        assert check_prop41(F, 2000, 3).violations == 0
        rep = check_prop41(loud, 2000, 3)
        assert rep.violations > 0
        assert rep.worst_point["part"] == "prop41:b"

    def test_symbol_without_derivative_refused(self):
        bare = Symbol(
            name="bare",
            evaluator=lambda s: np.ones(s.shape + (1, 1), dtype=complex),
            mu=0.0,
            cf=CFModel(1.0, 0.0),
        )
        with pytest.raises(ValueError, match="^prop41 part \\(b\\) needs the derivative of bare"):
            check_prop41(bare, 100, 1)
        with pytest.raises(ValueError, match="^prop41 part \\(b\\) needs the derivative of bare"):
            check_prop41(bare, 0, 1)  # before the sample count


def peak_mib(check, *args) -> float:
    """Peak of the memory traced by tracemalloc during one call, in MiB."""
    tracemalloc.start()
    try:
        check(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """Peaks at 20 000 samples.  Evaluating each defect order on its own, and
    prop41's derivative on a 64-node Cauchy ring 2^14 samples at a time, peaked
    at 4.55 MiB (lemma31), 4.39 MiB (prop32), 49.3 MiB (prop41 on delay:1.0)
    and 177.2 MiB (prop41 on a 2x2 resolvent).  prop41 now reads the closed-form
    derivative, one value per sample.

    Every sampled suite now evaluates its parts 2^14 samples at a time, so
    only the drawn samples grow with the sample count.  Evaluated on all
    samples at once, the traced peak grew by 176-336 bytes per extra sample
    (lemma31, prop32, prop41, validate_growth) and by 61-65 bytes (hyperbolic
    and lemma32)."""

    def test_shared_orders_do_not_raise_the_peak(self):
        assert peak_mib(check_lemma31, SAMPLES, 1) < 4.55
        assert peak_mib(check_prop32, SAMPLES, 1) < 4.39

    @pytest.mark.parametrize("F, before", [
        (make_delay(1.0), 49.3), (make_resolvent(DAMPED), 177.2),
    ], ids=["delay", "resolvent"])
    def test_prop41_derivative_per_sample(self, F, before):
        assert peak_mib(check_prop41, F, SAMPLES, 1) < before / 4

    @pytest.mark.parametrize("check, symbol, limit", [
        (check_lemma31, None, 80),
        (check_prop32, None, 80),
        (check_prop41, make_delay(1.0), 80),
        (check_prop41, make_resolvent(DAMPED), 80),
        (validate_growth, make_resolvent(DAMPED), 80),
        (check_hyperbolic, None, 32),
        (check_lemma32, None, 32),
    ], ids=[
        "lemma31", "prop32", "prop41-delay", "prop41-resolvent", "growth-resolvent",
        "hyperbolic", "lemma32",
    ])
    def test_bytes_per_extra_sample(self, check, symbol, limit):
        """Traced peak per sample between SAMPLES and 10 * SAMPLES samples: what
        is left are the samples drawn in one array, as the RNG stream needs."""
        args = () if symbol is None else (symbol,)
        growth = peak_mib(check, *args, 10 * SAMPLES, 1) - peak_mib(check, *args, SAMPLES, 1)
        assert growth * 2**20 / (9 * SAMPLES) <= limit


# --------------------------------------------------------------------------
# frequency-moment suite
# --------------------------------------------------------------------------


class TestFrequencyMoments:
    def test_alpha_two_hits_pi(self):
        """At sigma = c = 1, alpha = 2 the full-line integral is exactly pi."""
        rep = check_lemma42(1.0, 2.0, 1.0, 0.5)
        assert rep.violations == 0
        assert rep.worst_point["part"] == "lemma42:b"
        assert rep.worst_point["lhs"] == pytest.approx(math.pi, abs=1e-6)
        assert rep.worst_point["rhs"] == 4.0

    def test_small_kappa_tightens_part_a(self):
        """For small kappa the truncated moment is the binding inequality."""
        rep = check_lemma42(1.0, 2.0, 1.0, 0.1)
        assert rep.violations == 0
        assert rep.worst_point["part"] == "lemma42:a"

    def test_various_parameters_clean(self):
        for sigma, alpha, c, kappa in [
            (0.5, 1.5, 1.0, 0.25),
            (2.0, 3.0, 0.5, 0.5),
            (1.0, 4.0, 2.0, 0.05),
        ]:
            rep = check_lemma42(sigma, alpha, c, kappa)
            assert rep.violations == 0, (sigma, alpha, c, kappa)

    @pytest.mark.parametrize("sigma, alpha, c, name", [
        (math.inf, 2.0, 1.0, "sigma"),
        (math.nan, 2.0, 1.0, "sigma"),
        (1.0, math.inf, 1.0, "alpha"),
        (1.0, 2.0, math.inf, "c"),
    ])
    def test_non_finite_parameter_named(self, sigma, alpha, c, name):
        with pytest.raises(ValueError, match=f"^{name} = (inf|nan) is not finite"):
            check_lemma42(sigma, alpha, c, 0.5)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            check_lemma42(0.0, 2.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            check_lemma42(1.0, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            check_lemma42(1.0, 2.0, -1.0, 0.5)
        with pytest.raises(ValueError):
            check_lemma42(1.0, 2.0, 1.0, 0.0)


    def test_spike_at_tiny_sigma_runs(self):
        """At sigma = 1e-17, (b)'s integrand is a spike of width sigma at omega = 0
        that no quadrature panel resolved; its closed form is pi/sigma^(alpha-1)."""
        rep = check_lemma42(1e-17, 2.0, 1.0, 0.5)
        assert rep.violations == 0
        assert rep.worst_point["part"] == "lemma42:a"


# --------------------------------------------------------------------------
# the whole-line closed form of lemma42 (b) and lemma33
# --------------------------------------------------------------------------


LINE_SIGMAS = (1e-17, 1e-3, 0.3, 1.0, 7.0, 1e3)


def line_reference(a, nu, factor=1):
    """``factor a^(1-2nu) B(1/2, nu - 1/2)`` in 50 digits (DLMF 5.12.1, 5.12.3)."""
    with mpmath.workdps(50):
        nu = mpmath.mpf(nu)
        return factor * mpmath.mpf(a) ** (1 - 2 * nu) * mpmath.beta(mpmath.mpf(0.5), nu - 0.5)


class TestLineIntegral:
    @pytest.mark.parametrize("a", [0.3, 1.0, 7.0])
    @pytest.mark.parametrize("nu", [1.0, 1.5, 3.0, 11.6])
    def test_is_the_integral(self, a, nu):
        """The closed form against mpmath's quadrature of (a^2 + omega^2)^-nu over R."""
        with mpmath.workdps(30):
            integral = mpmath.quad(
                lambda w: (mpmath.mpf(a) ** 2 + w * w) ** -mpmath.mpf(nu),
                [-mpmath.inf, 0, mpmath.inf],
            )
        assert abs(_line_integral(a, nu) - integral) <= 1e-13 * integral

    @pytest.mark.parametrize("sigma", LINE_SIGMAS)
    @pytest.mark.parametrize("alpha", [1.01, 1.5, 2.0, 3.0, 23.2, 100.0])
    def test_lemma42_b_against_mpmath(self, sigma, alpha):
        """(b)'s left side at a = sigma, nu = alpha/2; a value past the double
        range is inf (sigma = 1e-17 at alpha = 23.2 and 100)."""
        ref = line_reference(sigma, 0.5 * alpha)
        if ref > np.finfo(float).max:
            assert _line_integral(sigma, 0.5 * alpha) == math.inf
            return
        assert abs(_line_integral(sigma, 0.5 * alpha) - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("sigma", LINE_SIGMAS)
    @pytest.mark.parametrize("p", [2, 5, 12, 30, 100, 145, 170])
    def test_lemma33_against_mpmath(self, sigma, p):
        """lemma33's left side p! int ((sigma + 1)^2 + omega^2)^(-(p+1)/2) for
        poly<p>exp, checked at SUITE_TOL with no cutoff or tail.  At sigma = 1e-17
        poly170exp's bound (pi/sigma) int |g''| passes the double range."""
        if (sigma, p) == (1e-17, 170):
            with pytest.raises(ValueError, match="bound inf"):
                check_lemma33(poly_exp(p), sigma)
            return
        rep = check_lemma33(poly_exp(p), sigma)
        assert rep.violations == 0
        assert "cutoff" not in rep.worst_point and "tail" not in rep.worst_point
        ref = line_reference(sigma + 1.0, 0.5 * (p + 1), math.factorial(p))
        assert abs(rep.worst_point["lhs"] - ref) <= 1e-13 * ref


# --------------------------------------------------------------------------
# transform-mass suite
# --------------------------------------------------------------------------


class TestTransformMass:
    def test_closed_form_route_clean(self):
        rep = check_lemma33(poly_exp(5), 1.0)
        assert rep.violations == 0
        assert rep.worst_margin > 0.0
        assert rep.worst_point["lhs"] < rep.worst_point["rhs"]

    def test_input_outside_the_hypothesis_refused(self):
        """lemma33 integrates g'' against G, which needs g(0) = g'(0) = 0."""
        with pytest.raises(ValueError, match=r"^poly1exp has g\^\(1\)\(0\) = 1; lemma33 needs"):
            check_lemma33(poly_exp(1), 1.0)

    def test_domain_validation(self):
        with pytest.raises(ValueError, match="^sigma = nan is not finite"):
            check_lemma33(poly_exp(5), math.nan)
        with pytest.raises(ValueError):
            check_lemma33(poly_exp(5), 0.0)
        with pytest.raises(ValueError):
            check_lemma33(PolyExp("poly", 5, 1), 1.0)


# --------------------------------------------------------------------------
# power-defect suite
# --------------------------------------------------------------------------


class TestPowerDefect:
    def test_first_order_clean(self):
        rep = check_prop34a(poly_exp(6), 1.0, 1, 0.1)
        assert rep.violations == 0
        assert rep.worst_margin > 0.0

    @pytest.mark.parametrize("m", [1, 5])
    def test_zero_input_holds_with_equality(self, m):
        """G = 0 decays faster than every power, so it meets each order's
        decay hypothesis; both sides are 0 and the certified tail is 0 (a
        RuntimeWarning would fail the test: pyproject.toml makes it an error)."""
        rep = check_prop34a(zero(), 1.0, m, 0.1)
        assert rep.violations == 0
        assert rep.worst_margin == 0.0
        assert (rep.worst_point["lhs"], rep.worst_point["rhs"]) == (0.0, 0.0)
        assert rep.worst_point["tail"] == 0.0

    @pytest.mark.parametrize("p, m, sigma, kappa", [
        (6, 1, 1.0, 0.1), (9, 2, 0.3, 0.05), (12, 3, 7.0, 0.1), (15, 5, 1.0, 0.025),
    ])
    def test_one_side_is_half_the_conjugate_pair(self, p, m, sigma, kappa, monkeypatch):
        """The integrand at sigma - i omega is the conjugate's, bit for bit, so
        the integrand of omega >= 0 alone, doubled, is the pair's sum; the
        former per-point pair sum in Python complex arithmetic agrees to rounding."""
        integrands = []
        integrate = verify.integrate_semi_infinite

        def capture(f, *args, **kwargs):
            integrands.append(f)
            return integrate(f, *args, **kwargs)

        monkeypatch.setattr(verify, "integrate_semi_infinite", capture)
        g = poly_exp(p)
        check_prop34a(g, sigma, m, kappa)
        omega = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 4001)])

        def one_side(imag):
            s = np.empty(omega.shape, dtype=complex)
            s.real, s.imag = sigma, imag
            return np.abs(delta_power_diff(kappa * s, [m])[0] / kappa**m) * np.abs(g.laplace(s))

        def scalar_pair(w):
            pair = (complex(sigma, w), complex(sigma, -w))
            defects = delta_power_diff(np.array([kappa * s for s in pair]), [m])[0]
            return sum(abs(complex(d) / kappa**m) * abs(g.laplace(s)) for d, s in zip(defects, pair))

        assert len(integrands) == 1
        doubled = 2.0 * integrands[0](omega)
        assert np.array_equal(doubled, one_side(omega) + one_side(-omega))
        np.testing.assert_allclose(doubled[::4], [scalar_pair(w) for w in omega[::4]], rtol=1e-14)

    def test_input_outside_the_hypothesis_refused(self):
        """At m = 1 the estimate needs g^(k)(0) = 0 for k < 6; poly5exp has g^(5)(0) = 120."""
        with pytest.raises(ValueError, match=r"^poly5exp has g\^\(5\)\(0\) = 120; prop34a"):
            check_prop34a(poly_exp(5), 1.0, 1, 0.1)

    def test_guards(self):
        with pytest.raises(ValueError, match="at least 1"):
            check_prop34a(poly_exp(5), 1.0, 0, 0.1)
        with pytest.raises(ValueError, match="orders up to 5"):
            check_prop34a(PolyExp("poly", 5, 5), 1.0, 1, 0.1)
        with pytest.raises(ValueError, match="exponent > m\\+1"):
            check_prop34a(poly_exp(1), 1.0, 1, 0.1)
        with pytest.raises(ValueError, match="^sigma = inf is not finite"):
            check_prop34a(poly_exp(5), math.inf, 1, 0.1)
        with pytest.raises(ValueError):
            check_prop34a(poly_exp(5), -1.0, 1, 0.1)
        with pytest.raises(ValueError):
            check_prop34a(poly_exp(5), 1.0, 1, 0.0)
