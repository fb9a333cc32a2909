"""Top-level acceptance tests: one class per shipped guarantee.

These are the end-to-end checks the package must pass before release:
weight-generation accuracy, discrete exactness identities, series constants,
large-sample inequality suites, quadrature-certified integral estimates,
observed convergence orders, bound validity, long-time behavior, the
parameter table, and engine agreement/performance at scale.  Each timed
test states its wall-clock budget explicitly.
"""

import math
import time

import numpy as np
import pytest

from trcq_kit.bounds import derive_params
from trcq_kit.cli import EXIT_OK, main
from trcq_kit.convolution import (
    CausalSignal,
    Grid,
    convolve_fft,
    convolve_naive,
    sample,
)
from trcq_kit.functions import parse_g
from trcq_kit.symbols import builtin_zoo, from_spec
from trcq_kit.trmap import D_eval, q_taylor_coeffs, solve_c0
from trcq_kit.verify import (
    check_hyperbolic,
    check_lemma31,
    check_lemma32,
    check_lemma33,
    check_lemma42,
    check_prop32,
    check_prop34a,
    check_prop41,
)
from trcq_kit.weights import compare_weight_tables, cq_weights_closed, cq_weights_fft


# --------------------------------------------------------------------------
# 1. weight generation: FFT route vs closed forms
# --------------------------------------------------------------------------


class TestWeightGeneration:
    def test_fft_route_matches_closed_forms(self):
        """All three elementary symbols at kappa=0.1, N=64, contour 512: <=1e-8, <1s."""
        pairs = [
            ("derivative", "power:1"),
            ("integral", "power:-1"),
            ("identity", "power:0"),
        ]
        start = time.perf_counter()
        for kind, spec in pairs:
            closed = cq_weights_closed(kind, 0.1, 64)
            fft = cq_weights_fft(from_spec(spec), 0.1, 64, fft_size=512)
            diff = compare_weight_tables(closed, fft)
            assert diff <= 1e-8, f"{kind}: weight tables differ by {diff:.3e}"
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"weight generation took {elapsed:.2f}s"


# --------------------------------------------------------------------------
# 2. discrete exactness identities
# --------------------------------------------------------------------------


class TestDiscreteExactness:
    def test_integration_reproduces_linear(self):
        """F = 1/s applied to g(t) = t gives t_n^2/2 to 1e-12 relative, <1s."""
        start = time.perf_counter()
        grid = Grid(kappa=0.1, steps=64)
        W = cq_weights_closed("integral", grid.kappa, grid.steps)
        out = convolve_naive(W, sample(lambda t: t, grid))
        exact = grid.nodes**2 / 2.0
        rel = np.abs(out.samples[1:, 0].real - exact[1:]) / exact[1:]
        assert float(rel.max()) <= 1e-12
        assert time.perf_counter() - start < 1.0

    def test_differentiation_reproduces_quadratic(self):
        """F = s applied to g(t) = t^2 gives 2 t_n to 1e-12 relative, <1s."""
        start = time.perf_counter()
        grid = Grid(kappa=0.1, steps=64)
        W = cq_weights_closed("derivative", grid.kappa, grid.steps)
        out = convolve_naive(W, sample(lambda t: t * t, grid))
        exact = 2.0 * grid.nodes
        rel = np.abs(out.samples[1:, 0].real - exact[1:]) / exact[1:]
        assert float(rel.max()) <= 1e-12
        assert time.perf_counter() - start < 1.0


# --------------------------------------------------------------------------
# 3. series coefficients and the envelope root
# --------------------------------------------------------------------------


class TestSeriesConstants:
    def test_leading_taylor_coefficients(self):
        """b_0 = -1/12, b_1 = 1/120, b_2 = -17/20160, each to 1e-14."""
        b = q_taylor_coeffs(3)
        refs = [-1.0 / 12.0, 1.0 / 120.0, -17.0 / 20160.0]
        for got, ref in zip(b, refs):
            assert abs(float(got) - ref) <= 1e-14

    def test_envelope_root(self):
        """c0 lies in (0, pi) and satisfies c0^2 D(c0) = 1 to 1e-12."""
        c0 = solve_c0()
        assert 0.0 < c0 < math.pi
        residual = abs(c0 * c0 * float(D_eval(c0)) - 1.0)
        assert residual <= 1e-12


# --------------------------------------------------------------------------
# 4. sampled inequality suites at full scale
# --------------------------------------------------------------------------


class TestSampledSuitesAtScale:
    def test_five_suites_hundred_thousand_samples(self):
        """0 violations across all five sampled suites at 1e5 samples, <30s."""
        start = time.perf_counter()
        reports = [
            check_hyperbolic(100000, 0),
            check_lemma31(100000, 0),
            check_prop32(100000, 0),
            check_lemma32(100000, 0),
            check_prop41(from_spec("delay:1.0"), 100000, 0),
        ]
        for rep in reports:
            assert rep.violations == 0, f"{rep.suite}: {rep.violations} violations"
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"sampled suites took {elapsed:.1f}s"


# --------------------------------------------------------------------------
# 5. quadrature-certified integral estimates
# --------------------------------------------------------------------------


class TestIntegralEstimates:
    def test_certified_integral_checks(self):
        """Moment integral hits pi under bound 4; mass and defect margins >= 0; <30s."""
        start = time.perf_counter()

        moment = check_lemma42(1.0, 2.0, 1.0, 0.5)
        assert moment.violations == 0
        assert moment.worst_point["part"] == "lemma42:b"
        assert moment.worst_point["lhs"] == pytest.approx(math.pi, abs=1e-6)
        assert moment.worst_point["rhs"] == 4.0

        mass = check_lemma33(parse_g("poly5exp"), 1.0)
        assert mass.violations == 0
        assert mass.worst_margin >= 0.0

        defect = check_prop34a(parse_g("poly6exp"), 1.0, 1, 0.1)
        assert defect.violations == 0
        assert defect.worst_margin >= 0.0

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"integral checks took {elapsed:.1f}s"


# --------------------------------------------------------------------------
# 6. observed convergence orders
# --------------------------------------------------------------------------


class TestConvergenceOrders:
    def test_second_order_for_delay_and_fractional_power(self, tmp_path):
        """EOC in [1.8, 2.2] on the halving ladder for both studies, <60s."""
        start = time.perf_counter()

        out1 = tmp_path / "delay.csv"
        code = main(
            ["converge", "--symbol", "delay:1.0", "--g", "poly5exp",
             "--t-final", "2.0", "--out", str(out1)]
        )
        assert code == EXIT_OK
        eocs1 = _read_eocs(out1)
        assert len(eocs1) == 4
        assert all(1.8 <= e <= 2.2 for e in eocs1), eocs1

        out2 = tmp_path / "halfpower.csv"
        code = main(
            ["converge", "--symbol", "power:0.5", "--g", "mono:7",
             "--t-final", "2.0", "--out", str(out2)]
        )
        assert code == EXIT_OK
        eocs2 = _read_eocs(out2)
        assert len(eocs2) == 4
        assert all(1.8 <= e <= 2.2 for e in eocs2), eocs2

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"convergence studies took {elapsed:.1f}s"


def _read_eocs(path) -> "list[float]":
    rows = [
        ln.split(",")
        for ln in path.read_text(encoding="utf-8").splitlines()
        if ln and not ln.startswith("#")
    ][1:]
    return [float(r[2]) for r in rows if r[2] not in ("", "exact")]


# --------------------------------------------------------------------------
# 7. a-priori bound validity
# --------------------------------------------------------------------------


class TestBoundValidity:
    def test_observed_error_below_bound(self, tmp_path):
        """ratio <= 1 at t in {1,2,4,8,16} x kappa in {0.1,0.05}, <120s."""
        start = time.perf_counter()
        out = tmp_path / "bound.csv"
        code = main(
            ["bound", "--symbol", "delay:1.0", "--g", "poly5exp", "--out", str(out)]
        )
        assert code == EXIT_OK
        rows = [
            ln.split(",")
            for ln in out.read_text(encoding="utf-8").splitlines()
            if ln and not ln.startswith("#")
        ][1:]
        assert len(rows) == 10
        for r in rows:
            ratio = float(r[4])
            assert 0.0 <= ratio <= 1.0, f"t={r[0]} kappa={r[1]}: ratio {ratio}"
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"bound study took {elapsed:.1f}s"


# --------------------------------------------------------------------------
# 8. long-time behavior
# --------------------------------------------------------------------------


class TestLongTimeBehavior:
    def test_error_does_not_grow(self, tmp_path):
        """Exponential rate r <= 0.01 and log-log slope p <= 4 out to t = 100, <120s."""
        start = time.perf_counter()
        out = tmp_path / "longtime.csv"
        code = main(
            ["longtime", "--symbol", "delay:1.0", "--g", "poly5exp", "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text(encoding="utf-8").splitlines()
        rate = float(next(ln for ln in lines if ln.startswith("# exp_rate_r")).split("=")[1])
        slope = float(
            next(ln for ln in lines if ln.startswith("# loglog_slope_p")).split("=")[1]
        )
        assert rate <= 0.01, f"exponential growth rate {rate}"
        assert slope <= 4.0, f"log-log slope {slope}"
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"long-time study took {elapsed:.1f}s"


# --------------------------------------------------------------------------
# 9. parameter table
# --------------------------------------------------------------------------


class TestParameterTable:
    def test_seven_representative_exponents(self):
        """(m, alpha, beta, epsilon) across mu = 0 .. 3."""
        table = {
            0.0: (0, 5, 5, 3.0),
            0.25: (1, 4, 6, 2.75),
            0.5: (1, 4, 6, 2.5),
            1.0: (1, 5, 6, 3.0),
            1.5: (2, 4, 8, 3.5),
            2.0: (2, 5, 8, 3.0),
            3.0: (3, 5, 10, 4.0),
        }
        for mu, (m, alpha, beta, eps) in table.items():
            p = derive_params(mu, with_constants=False)
            assert (p.m, p.alpha, p.beta) == (m, alpha, beta), f"mu={mu}"
            assert p.epsilon == eps, f"mu={mu}"


# --------------------------------------------------------------------------
# 10. engine agreement and performance at scale
# --------------------------------------------------------------------------


class TestEnginesAtScale:
    def test_engines_agree_across_zoo(self):
        """Naive and FFT engines agree to 1e-12 relative at N = 4096."""
        kappa = 0.01
        steps = 4096
        grid = Grid(kappa=kappa, steps=steps)
        base = sample(lambda t: t**3 * np.exp(-t), grid)
        for name, F in builtin_zoo().items():
            W = cq_weights_fft(F, kappa, steps)
            if W.dims[1] == base.dim:
                sig = base
            else:
                sig = CausalSignal(
                    grid=grid, samples=np.repeat(base.samples, W.dims[1], axis=1)
                )
            a = convolve_naive(W, sig)
            b = convolve_fft(W, sig)
            scale = float(np.max(np.abs(a.samples))) or 1.0
            diff = float(np.max(np.abs(a.samples - b.samples))) / scale
            assert diff <= 1e-12, f"{name}: engines differ by {diff:.3e}"

    def test_fft_engine_handles_a_million_steps(self):
        """convolve_fft at N = 2^20 finishes in under 10 seconds."""
        N = 1 << 20
        kappa = 1e-4
        W = cq_weights_closed("integral", kappa, N)
        grid = Grid(kappa=kappa, steps=N)
        sig = CausalSignal(grid=grid, samples=grid.nodes[:, None].astype(complex))
        start = time.perf_counter()
        out = convolve_fft(W, sig)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"FFT engine took {elapsed:.2f}s"
        exact = grid.nodes**2 / 2.0
        rel = np.abs(out.samples[1:, 0].real - exact[1:]) / exact[1:]
        assert float(rel.max()) <= 1e-6
