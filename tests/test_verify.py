"""Tests for the inequality verification suites.

Each suite must come back clean on its intended inputs, reproduce bit-for-bit
under a fixed seed, reject out-of-domain parameters, and — crucially — *fail*
when handed a symbol whose declared growth certificate is false.  The latter
guards against the suites being vacuous.
"""

import math
import tracemalloc

import numpy as np
import pytest

from trcq_kit import verify
from trcq_kit.functions import PolyExp, poly_exp
from trcq_kit.symbols import CFModel, Symbol, make_decay, make_delay, make_power, make_resolvent
from trcq_kit.trmap import sample_cplus
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

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            check_hyperbolic(0, 1)
        with pytest.raises(ValueError):
            check_lemma32(0, 1)


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
        with pytest.raises(ValueError, match="mu <= 0"):
            check_prop41(make_power(0.5), 100, 1)

    def test_false_certificate_is_caught(self):
        """A symbol whose declared envelope underestimates it must fail."""
        liar = Symbol(
            name="liar",
            evaluator=lambda s: np.ones(s.shape + (1, 1), dtype=complex),
            mu=0.0,
            cf=CFModel(0.5, 0.0),
        )
        rep = check_prop41(liar, 500, 11)
        assert rep.violations > 0
        assert rep.worst_margin < 0.0

    def test_blocked_ring_matches_one_block(self, monkeypatch):
        """A sample's Cauchy derivative does not depend on the block it falls in."""
        F = make_resolvent(DAMPED)
        s = sample_cplus(2 * verify._RING_BLOCK + 777, 4)
        blocked = verify._cauchy_derivative_norms(F, s)
        monkeypatch.setattr(verify, "_RING_BLOCK", s.size)
        assert np.all(blocked == verify._cauchy_derivative_norms(F, s))


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
    prop41's Cauchy ring 2^14 samples at a time, peaked at 4.55 MiB (lemma31),
    4.39 MiB (prop32), 49.3 MiB (prop41 on delay:1.0) and 177.2 MiB (prop41 on
    a 2x2 resolvent)."""

    def test_shared_orders_do_not_raise_the_peak(self):
        assert peak_mib(check_lemma31, SAMPLES, 1) < 4.55
        assert peak_mib(check_prop32, SAMPLES, 1) < 4.39

    @pytest.mark.parametrize("F, before", [
        (make_delay(1.0), 49.3), (make_resolvent(DAMPED), 177.2),
    ], ids=["delay", "resolvent"])
    def test_prop41_ring_in_blocks(self, F, before):
        assert peak_mib(check_prop41, F, SAMPLES, 1) < before / 4


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
            check_lemma33(PolyExp("poly", 5, 1).as_input(), 1.0)


# --------------------------------------------------------------------------
# power-defect suite
# --------------------------------------------------------------------------


class TestPowerDefect:
    def test_first_order_clean(self):
        rep = check_prop34a(poly_exp(6), 1.0, 1, 0.1)
        assert rep.violations == 0
        assert rep.worst_margin > 0.0

    def test_input_outside_the_hypothesis_refused(self):
        """At m = 1 the estimate needs g^(k)(0) = 0 for k < 6; poly5exp has g^(5)(0) = 120."""
        with pytest.raises(ValueError, match=r"^poly5exp has g\^\(5\)\(0\) = 120; prop34a"):
            check_prop34a(poly_exp(5), 1.0, 1, 0.1)

    def test_guards(self):
        with pytest.raises(ValueError, match="at least 1"):
            check_prop34a(poly_exp(5), 1.0, 0, 0.1)
        with pytest.raises(ValueError, match="orders up to 5"):
            check_prop34a(PolyExp("poly", 5, 5).as_input(), 1.0, 1, 0.1)
        with pytest.raises(ValueError, match="exponent > m\\+1"):
            check_prop34a(poly_exp(1), 1.0, 1, 0.1)
        with pytest.raises(ValueError, match="^sigma = inf is not finite"):
            check_prop34a(poly_exp(5), math.inf, 1, 0.1)
        with pytest.raises(ValueError):
            check_prop34a(poly_exp(5), -1.0, 1, 0.1)
        with pytest.raises(ValueError):
            check_prop34a(poly_exp(5), 1.0, 1, 0.0)
