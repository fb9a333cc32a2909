"""Tests for the discrete causal convolution engines.

The O(N^2) compensated loop and the padded real-FFT engine must agree to
~1e-12 relative on every symbol in the zoo, for real and complex inputs,
and the elementary closed-form tables must reproduce the
integration/differentiation identities exactly.
"""

import io
import math
import tracemalloc

import numpy as np
import pytest

from trcq_kit.convolution import (
    CausalSignal,
    Grid,
    _smooth_length,
    convolve_fft,
    convolve_naive,
    error_vs_exact,
    sample,
    signal_to_csv,
)
from trcq_kit.functions import parse_g
from trcq_kit.symbols import builtin_zoo, make_power
from trcq_kit.weights import cq_weights_fft


# --------------------------------------------------------------------------
# grid and signal containers
# --------------------------------------------------------------------------


class TestGrid:
    def test_nodes_are_uniform(self):
        """nodes returns 0, kappa, 2*kappa, ... with steps+1 entries."""
        grid = Grid(kappa=0.25, steps=8)
        np.testing.assert_allclose(grid.nodes, 0.25 * np.arange(9), rtol=0, atol=0)
        assert grid.t_final == pytest.approx(2.0, rel=0, abs=0)

    def test_zero_steps_allowed(self):
        """A grid with steps=0 has the single node t=0."""
        grid = Grid(kappa=0.5, steps=0)
        assert grid.nodes.shape == (1,)
        assert grid.t_final == 0.0

    def test_kappa_domain(self):
        """kappa outside (0, 1] is rejected."""
        with pytest.raises(ValueError):
            Grid(kappa=0.0, steps=4)
        with pytest.raises(ValueError):
            Grid(kappa=1.5, steps=4)
        with pytest.raises(ValueError):
            Grid(kappa=-0.1, steps=4)

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            Grid(kappa=0.5, steps=-1)


class TestCausalSignal:
    def test_shape_validation(self):
        """samples must be 2-D with steps+1 rows."""
        grid = Grid(kappa=0.5, steps=3)
        with pytest.raises(ValueError):
            CausalSignal(grid=grid, samples=np.zeros(4))
        with pytest.raises(ValueError):
            CausalSignal(grid=grid, samples=np.zeros((3, 1)))

    def test_dim_property(self):
        grid = Grid(kappa=0.5, steps=3)
        sig = CausalSignal(grid=grid, samples=np.zeros((4, 5)))
        assert sig.dim == 5

    def test_sample_scalar_function(self):
        """Scalar-valued callables become 1-vector signals on the grid."""
        grid = Grid(kappa=0.5, steps=4)
        sig = sample(lambda t: t * t, grid)
        assert sig.samples.shape == (5, 1)
        np.testing.assert_allclose(sig.samples[:, 0], grid.nodes**2, rtol=1e-15)

    def test_sample_vector_function(self):
        grid = Grid(kappa=0.25, steps=3)
        sig = sample(lambda t: np.array([t, 2.0 * t, -t]), grid)
        assert sig.dim == 3
        np.testing.assert_allclose(sig.samples[:, 1], 2.0 * grid.nodes, rtol=1e-15)
        # one array per grid equals the per-node 1-vector construction, dtype included
        grid = Grid(kappa=0.1, steps=40)
        for fn in (parse_g("poly5exp"), lambda t: np.array([t, -2.5 * t + 1j, math.exp(-t)])):
            per_node = np.array(
                [np.atleast_1d(np.asarray(fn(float(t)))) for t in grid.nodes], dtype=complex
            )
            samples = sample(fn, grid).samples
            assert samples.dtype == per_node.dtype
            np.testing.assert_array_equal(samples, per_node)

    def test_sample_rejects_non_finite_values(self):
        """The first non-finite node is named, with the input's name."""
        grid = Grid(kappa=1.0, steps=200)
        with pytest.raises(ValueError, match=r"input poly170exp is not finite at t = 66 "):
            sample(parse_g("poly170exp"), grid)
        with pytest.raises(ValueError, match=r"not finite at t = 0.5 "):
            sample(lambda t: np.array([1.0, np.nan if t > 0.3 else 0.0]), Grid(kappa=0.25, steps=3))


# --------------------------------------------------------------------------
# exactness identities for the elementary symbols
# --------------------------------------------------------------------------


class TestExactness:
    """F(s) = 1/s integrates linears exactly; F(s) = s differentiates quadratics."""

    def test_integral_weights_integrate_linear_exactly(self):
        """Trapezoid weights on g(t) = t reproduce t_n^2/2 to machine precision."""
        kappa = 0.1
        grid = Grid(kappa=kappa, steps=64)
        W = cq_weights_fft(make_power(-1.0), kappa, grid.steps)
        out = convolve_naive(W, sample(lambda t: t, grid))
        exact = grid.nodes**2 / 2.0
        np.testing.assert_allclose(out.samples[:, 0].real, exact, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(out.samples[:, 0].imag, 0.0, atol=1e-15)

    def test_derivative_weights_differentiate_quadratic_exactly(self):
        """Difference weights on g(t) = t^2 reproduce 2 t_n to machine precision."""
        kappa = 0.1
        grid = Grid(kappa=kappa, steps=64)
        W = cq_weights_fft(make_power(1.0), kappa, grid.steps)
        out = convolve_naive(W, sample(lambda t: t * t, grid))
        exact = 2.0 * grid.nodes
        np.testing.assert_allclose(out.samples[:, 0].real, exact, rtol=1e-12, atol=1e-12)

    def test_identity_weights_return_signal(self):
        """F = 1 convolves to the input itself."""
        grid = Grid(kappa=0.25, steps=16)
        W = cq_weights_fft(make_power(0.0), grid.kappa, grid.steps)
        sig = sample(lambda t: np.sin(t) + 0.5 * t, grid)
        out = convolve_naive(W, sig)
        np.testing.assert_allclose(out.samples, sig.samples, rtol=0, atol=0)

    def test_integral_of_derivative_roundtrip(self):
        """Applying 1/s after s returns the input for signals vanishing at 0."""
        grid = Grid(kappa=0.125, steps=32)
        Wd = cq_weights_fft(make_power(1.0), grid.kappa, grid.steps)
        Wi = cq_weights_fft(make_power(-1.0), grid.kappa, grid.steps)
        sig = sample(lambda t: t**3 * np.exp(-t), grid)
        back = convolve_naive(Wi, convolve_naive(Wd, sig))
        np.testing.assert_allclose(back.samples, sig.samples, rtol=1e-11, atol=1e-13)


# --------------------------------------------------------------------------
# engine agreement
# --------------------------------------------------------------------------


def assert_engines_agree(W, sig, label):
    """max |fft - naive| <= 1e-12 * max |naive|."""
    a = convolve_naive(W, sig)
    b = convolve_fft(W, sig)
    scale = float(np.max(np.abs(a.samples))) or 1.0
    diff = float(np.max(np.abs(a.samples - b.samples)))
    assert diff <= 1e-12 * scale, f"{label}: engines differ by {diff/scale:.3e}"


class TestEngines:
    def test_engines_agree_across_zoo(self):
        """FFT and compensated-loop engines agree to 1e-12 relative, N = 512,
        on a real input and on a complex one (the real-block embedding)."""
        kappa = 0.05
        steps = 512
        grid = Grid(kappa=kappa, steps=steps)
        inputs = [
            sample(lambda t: t**3 * np.exp(-t), grid),
            sample(lambda t: t**3 * np.exp(-t) + 1j * t * t * np.exp(-2.0 * t), grid),
        ]
        for name, F in builtin_zoo().items():
            W = cq_weights_fft(F, kappa, steps)
            for g in inputs:
                if W.dims[1] != g.dim:
                    sig = CausalSignal(
                        grid=grid, samples=np.repeat(g.samples, W.dims[1], axis=1)
                    )
                else:
                    sig = g
                assert_engines_agree(W, sig, name)

    def test_fft_engine_handles_matrix_weights(self):
        """A 2x2 resolvent symbol convolves a real and a complex 2-vector input
        identically per engine."""
        zoo = builtin_zoo()
        F = zoo["resolvent:skew2"]
        kappa = 0.1
        steps = 128
        grid = Grid(kappa=kappa, steps=steps)
        W = cq_weights_fft(F, kappa, steps)
        for g in (
            sample(lambda t: np.array([t * np.exp(-t), t * t * np.exp(-t)]), grid),
            sample(lambda t: np.array([t * np.exp(-t) - 0.5j * t, 1j * t * t * np.exp(-t)]), grid),
        ):
            a = convolve_naive(W, g)
            b = convolve_fft(W, g)
            np.testing.assert_allclose(a.samples, b.samples, rtol=0, atol=1e-12)

    def test_real_data_gives_exact_zero_imaginary_parts(self):
        """Real weights and real samples come out with imaginary parts exactly 0."""
        grid = Grid(kappa=0.025, steps=320)
        W = cq_weights_fft(make_power(0.5), grid.kappa, grid.steps)
        out = convolve_fft(W, sample(parse_g("mono:7"), grid))
        assert not out.samples.imag.any()
        assert out.samples.real.any()

    def test_engines_agree_at_power_of_two_steps(self):
        """Every CLI grid has M = 2**k + 1 nodes, where 2M - 1 = 2**(k+1) + 1
        just misses a power of two; the engines agree there, k = 0..12."""
        F = make_power(0.5)
        for k in range(13):
            steps = 1 << k
            grid = Grid(kappa=1.0 / steps, steps=steps)
            W = cq_weights_fft(F, grid.kappa, steps)
            assert_engines_agree(W, sample(lambda t: t**3 * np.exp(-t), grid), f"k={k}")

    def test_transform_length_is_smallest_5_smooth(self):
        """The padded length is the least 2**a * 3**b * 5**c >= n, n = 1..5000."""

        def smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        expected = 1
        for n in range(1, 5001):
            while not smooth(expected) or expected < n:
                expected += 1
            assert _smooth_length(n) == expected, n

    def test_fft_engine_memory_at_65536_steps(self):
        """One real scalar convolution at N = 2**16 allocates at most 16 MiB at its peak."""
        steps = 1 << 16
        grid = Grid(kappa=8.0 / steps, steps=steps)
        W = cq_weights_fft(make_power(0.5), grid.kappa, steps)
        sig = sample(parse_g("mono:7"), grid)
        tracemalloc.start()
        try:
            convolve_fft(W, sig)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_numpy_fft_keeps_long_double(self):
        """numpy >= 2.0 transforms long double in long double (1.x used double)."""
        x = np.linspace(0.0, 1.0, 15, dtype=np.longdouble)
        X = np.fft.rfft(x, n=32)
        assert X.dtype == np.clongdouble
        assert np.fft.irfft(X, n=32).dtype == np.longdouble

    def test_fft_engine_short_signal(self):
        """The padded FFT route is correct down to a single step."""
        grid = Grid(kappa=0.5, steps=1)
        W = cq_weights_fft(make_power(-1.0), grid.kappa, grid.steps)
        sig = sample(lambda t: t, grid)
        a = convolve_naive(W, sig)
        b = convolve_fft(W, sig)
        np.testing.assert_allclose(a.samples, b.samples, rtol=0, atol=1e-15)


# --------------------------------------------------------------------------
# compatibility checks
# --------------------------------------------------------------------------


class TestCompatibility:
    def test_step_mismatch_rejected(self):
        """Weight tables and signals with different kappa cannot be combined."""
        W = cq_weights_fft(make_power(-1.0), 0.1, 16)
        sig = sample(lambda t: t, Grid(kappa=0.2, steps=16))
        with pytest.raises(ValueError, match="time step"):
            convolve_naive(W, sig)

    def test_too_few_weights_rejected(self):
        W = cq_weights_fft(make_power(-1.0), 0.1, 8)
        sig = sample(lambda t: t, Grid(kappa=0.1, steps=16))
        with pytest.raises(ValueError, match="entries"):
            convolve_naive(W, sig)

    def test_dimension_mismatch_rejected(self):
        zoo = builtin_zoo()
        W = cq_weights_fft(zoo["resolvent:skew2"], 0.1, 8)
        sig = sample(lambda t: t, Grid(kappa=0.1, steps=8))
        with pytest.raises(ValueError, match="dimension"):
            convolve_fft(W, sig)


# --------------------------------------------------------------------------
# error measurement and CSV export
# --------------------------------------------------------------------------


class TestErrorAndExport:
    def test_error_vs_exact_values(self):
        """Per-node errors are Euclidean norms against the reference callable."""
        grid = Grid(kappa=0.5, steps=2)
        sig = CausalSignal(
            grid=grid, samples=np.array([[0.0], [1.0], [2.0]], dtype=complex)
        )
        errs = error_vs_exact(sig, lambda t: t)
        np.testing.assert_allclose(errs, [0.0, 0.5, 1.0], rtol=0, atol=1e-15)

    def test_error_vs_exact_never_overflows(self):
        """Ordinary rows match np.linalg.norm bit for bit; rows near 1e200,
        whose squares overflow, still give finite norms."""
        rng = np.random.default_rng(3)
        grid = Grid(kappa=0.5, steps=199)
        rows = rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2))
        rows *= 10.0 ** rng.uniform(-3.0, 3.0, (200, 1))
        sig = CausalSignal(grid=grid, samples=rows)
        errs = error_vs_exact(sig, lambda t: np.zeros(2))
        assert np.array_equal(errs, np.linalg.norm(rows, axis=1))

        huge = CausalSignal(grid=grid, samples=1e200 * rows)
        errs = error_vs_exact(huge, lambda t: np.zeros(2))
        assert np.all(np.isfinite(errs))
        np.testing.assert_allclose(errs, 1e200 * np.linalg.norm(rows, axis=1), rtol=1e-15)

    def test_error_vs_exact_non_finite_names_the_node(self):
        grid = Grid(kappa=0.5, steps=2)
        sig = CausalSignal(grid=grid, samples=np.zeros((3, 1), dtype=complex))
        with pytest.raises(ValueError, match="node 1"):
            error_vs_exact(sig, lambda t: math.inf if t == 0.5 else 0.0)

    def test_error_vs_exact_dimension_mismatch(self):
        grid = Grid(kappa=0.5, steps=2)
        sig = CausalSignal(grid=grid, samples=np.zeros((3, 2), dtype=complex))
        with pytest.raises(ValueError, match="dimension"):
            error_vs_exact(sig, lambda t: t)

    def test_signal_csv_layout(self):
        """Header plus one row per node, with re/im columns per component."""
        grid = Grid(kappa=0.5, steps=2)
        sig = CausalSignal(
            grid=grid,
            samples=np.array([[0.0 + 0j], [1.0 + 2.0j], [3.0 - 4.0j]]),
        )
        buf = io.StringIO()
        signal_to_csv(sig, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "n,t,re_0,im_0"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == 0.0
        last = lines[3].split(",")
        assert float(last[2]) == 3.0
        assert float(last[3]) == -4.0
        # each value is written as f"{x:.17g}" would write it, extremes included
        grid = Grid(kappa=0.3, steps=3)
        samples = np.array([
            [complex(-0.0, 5e-324), complex(1e308, -1e308)],
            [complex(3.0, 0.1), complex(-5e-324, -0.0)],
            [complex(1.0 / 3.0, 7.0), complex(-1e308, 2.5e-310)],
            [complex(0.0, 0.0), complex(123456789.0, -1.0)],
        ])
        buf = io.StringIO()
        signal_to_csv(CausalSignal(grid=grid, samples=samples), buf)
        expected = ["n,t,re_0,im_0,re_1,im_1"] + [
            ",".join([str(n), f"{t:.17g}"] + [f"{x:.17g}" for v in row for x in (v.real, v.imag)])
            for n, (t, row) in enumerate(zip(grid.nodes, samples))
        ]
        assert buf.getvalue() == "\n".join(expected) + "\n"
