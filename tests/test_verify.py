"""Tests for the inequality verification suites.

Each suite must come back clean on its intended inputs, reproduce bit-for-bit
under a fixed seed, reject out-of-domain parameters, and — crucially — *fail*
when handed a symbol whose declared growth certificate is false.  The latter
guards against the suites being vacuous.
"""

import math

import numpy as np
import pytest

from trcq_kit.bounds import SmoothCausalFunction
from trcq_kit.functions import poly_exp
from trcq_kit.symbols import CFModel, Symbol, make_decay, make_delay, make_power
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


def strip_transform(g: SmoothCausalFunction) -> SmoothCausalFunction:
    """Copy of ``g`` without its closed-form transform or decay certificate."""
    return SmoothCausalFunction(
        name=f"{g.name}-numeric",
        max_order=g.max_order,
        derivative=g.derivative,
    )


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
            check_lemma32(100, 1, m_max=0)


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

    def test_kappa_grid_validation(self):
        with pytest.raises(ValueError):
            check_prop41(make_delay(1.0), 100, 1, kappa_grid=())
        with pytest.raises(ValueError):
            check_prop41(make_delay(1.0), 100, 1, kappa_grid=(0.1, 2.0))


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

    def test_needs_closed_form_transform(self):
        """Without a transform there is no left side to integrate."""
        with pytest.raises(ValueError, match="closed-form transform"):
            check_lemma33(strip_transform(poly_exp(5)), 1.0)

    def test_closed_form_route_handles_slow_decay_certificate(self):
        """poly1exp keeps its closed transform, so the check still runs."""
        rep = check_lemma33(poly_exp(1), 1.0)
        assert rep.violations == 0

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            check_lemma33(poly_exp(5), 0.0)
        with pytest.raises(ValueError):
            check_lemma33(poly_exp(5, max_order=1), 1.0)


# --------------------------------------------------------------------------
# power-defect suite
# --------------------------------------------------------------------------


class TestPowerDefect:
    def test_first_order_clean(self):
        rep = check_prop34a(poly_exp(5), 1.0, 1, 0.1)
        assert rep.violations == 0
        assert rep.worst_margin > 0.0

    def test_guards(self):
        with pytest.raises(ValueError, match="at least 1"):
            check_prop34a(poly_exp(5), 1.0, 0, 0.1)
        with pytest.raises(ValueError, match="closed-form transform"):
            check_prop34a(strip_transform(poly_exp(5)), 1.0, 1, 0.1)
        with pytest.raises(ValueError, match="orders up to 5"):
            check_prop34a(poly_exp(5, max_order=5), 1.0, 1, 0.1)
        with pytest.raises(ValueError, match="exponent > m\\+1"):
            check_prop34a(poly_exp(1), 1.0, 1, 0.1)
        with pytest.raises(ValueError):
            check_prop34a(poly_exp(5), -1.0, 1, 0.1)
        with pytest.raises(ValueError):
            check_prop34a(poly_exp(5), 1.0, 1, 0.0)
