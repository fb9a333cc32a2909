"""Tests for the compensated O(N^2) convolution loop."""

import math

import numpy as np
import pytest

from trcq_kit.kernels import causal_convolve


def reference_convolve(w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Straightforward O(N^2) evaluation with python-level fsum accuracy."""
    M = g.shape[0]
    rows = w.shape[1]
    out = np.empty((M, rows), dtype=complex)
    for n in range(M):
        for i in range(rows):
            terms = [w[n - m, i] @ g[m] for m in range(n + 1)]
            out[n, i] = complex(
                math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)
            )
    return out


class TestBackendAgreement:
    """The compensated sweep against an fsum reference."""

    def test_matches_reference(self):
        rng = np.random.default_rng(51)
        w = rng.standard_normal((40, 2, 2)) + 1j * rng.standard_normal((40, 2, 2))
        g = rng.standard_normal((40, 2)) + 1j * rng.standard_normal((40, 2))
        out = causal_convolve(w, g)
        np.testing.assert_allclose(out, reference_convolve(w, g), rtol=1e-13, atol=1e-13)

    def test_compensation_beats_cancellation(self):
        # alternating huge/tiny terms: a plain running sum loses ~4 digits
        n = 64
        w = np.zeros((n, 1, 1), dtype=complex)
        w[:, 0, 0] = [(1e12 if i % 2 == 0 else -1e12) + 1.0 for i in range(n)]
        g = np.ones((n, 1), dtype=complex)
        out = causal_convolve(w, g)
        np.testing.assert_allclose(out, reference_convolve(w, g), rtol=1e-15, atol=1e-9)


    @pytest.mark.parametrize("imag", [0.0, 1.0])
    def test_products_are_exact(self, imag):
        # a * b = 1 - 2**-54 rounds to 1, so rounded products give (a - 1) b
        # as 2**-27; Dot2 keeps the product's error and returns it exactly
        a, b = 1.0 + 2.0**-27, 1.0 - 2.0**-27
        w = np.array([a, -1.0]).reshape(2, 1, 1)
        g = np.full((2, 1), b + 1j * imag)
        out = causal_convolve(w, g)
        assert out[1, 0].real == 2.0**-27 - 2.0**-54
        assert out[1, 0].imag == imag * 2.0**-27


class TestValidation:
    """Shape and dtype contracts."""

    def test_shape_checks(self):
        w = np.zeros((4, 2, 2), dtype=complex)
        with pytest.raises(ValueError):
            causal_convolve(w, np.zeros((4, 3), dtype=complex))  # dim mismatch
        with pytest.raises(ValueError):
            causal_convolve(w, np.zeros((5, 2), dtype=complex))  # too few weights
        with pytest.raises(ValueError):
            causal_convolve(np.zeros((4, 2), dtype=complex), np.zeros((4, 2)))

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError):
            causal_convolve(np.zeros((1, 1, 1), dtype=complex), np.zeros((0, 1)))

    def test_real_inputs_upcast(self):
        w = np.ones((3, 1, 1))
        g = np.ones((3, 1))
        out = causal_convolve(w, g)
        assert out.dtype == np.complex128
        np.testing.assert_allclose(out[:, 0].real, [1, 2, 3])
