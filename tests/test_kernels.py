"""Tests for the O(N^2) convolution engine: exact block products, one compensated sum."""

import math

import numpy as np
import pytest

from trcq_kit.kernels import _BLOCK, _SLICE_BITS, _slices, causal_convolve

U = 2.0**-53  # unit roundoff


def _two_products(a: np.ndarray, b: np.ndarray) -> "list[np.ndarray]":
    """``[p, e]`` with ``p + e == a * b`` exactly (Dekker's TwoProduct).

    Exact for factors below 2**996 in magnitude whose products do not underflow.
    """

    def split(x):
        c = (2.0**27 + 1.0) * x
        hi = c - (c - x)
        return hi, x - hi

    p = a * b
    (a_hi, a_lo), (b_hi, b_lo) = split(a), split(b)
    return [p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo]


def exact_terms(w: np.ndarray, g: np.ndarray, n: int, i: int) -> "tuple[np.ndarray, np.ndarray]":
    """Doubles whose exact sums are the real and imaginary parts of ``out[n, i]``."""
    wn = np.asarray(w[n::-1, i], dtype=complex)  # w[n - m, i, :] for m = 0..n
    gn = np.asarray(g[: n + 1], dtype=complex)
    re = _two_products(wn.real, gn.real) + _two_products(-wn.imag, gn.imag)
    im = _two_products(wn.real, gn.imag) + _two_products(wn.imag, gn.real)
    return np.concatenate([t.ravel() for t in re]), np.concatenate([t.ravel() for t in im])


def reference_convolve(w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The causal convolution, each component the correctly rounded exact sum."""
    M = g.shape[0]
    rows = w.shape[1]
    out = np.empty((M, rows), dtype=complex)
    for n in range(M):
        for i in range(rows):
            re, im = exact_terms(w, g, n, i)
            out[n, i] = complex(math.fsum(re), math.fsum(im))
    return out


def _slice_bound(a: np.ndarray) -> int:
    """Most slices any block of ``a`` can split into: its binade span plus 53 bits."""
    mags = np.abs(np.asarray(a, dtype=complex).view(np.float64))
    mags = mags[mags != 0]
    e_top = math.frexp(float(mags.max()))[1]
    e_low = math.frexp(float(mags.min()))[1] - 53  # lowest bit of the smallest entry
    return -(-(e_top - _SLICE_BITS - e_low) // (_SLICE_BITS - 1)) + 1


class TestBackendAgreement:
    """The engine against a correctly rounded exact reference."""

    def test_matches_reference(self):
        rng = np.random.default_rng(51)
        w = rng.standard_normal((40, 2, 2)) + 1j * rng.standard_normal((40, 2, 2))
        g = rng.standard_normal((40, 2)) + 1j * rng.standard_normal((40, 2))
        zero_column, zero_entry = g.copy(), w.copy()
        zero_column[:, 1] = 0.0
        zero_entry[:, 0, 1] = 0.0
        # real weights on a complex input: the embedded -imag block is all zero
        for ww, gg in [(w, g), (w, zero_column), (zero_entry, g), (w.real, g)]:
            out = causal_convolve(ww, gg)
            np.testing.assert_allclose(out, reference_convolve(ww, gg), rtol=1e-13, atol=1e-13)

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
        # as 2**-27; the engine keeps every product exact and returns it exactly
        a, b = 1.0 + 2.0**-27, 1.0 - 2.0**-27
        w = np.array([a, -1.0]).reshape(2, 1, 1)
        g = np.full((2, 1), b + 1j * imag)
        out = causal_convolve(w, g)
        assert out[1, 0].real == 2.0**-27 - 2.0**-54
        assert out[1, 0].imag == imag * 2.0**-27

    @pytest.mark.parametrize("M", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
    @pytest.mark.parametrize("dims", [1, 2])
    def test_wide_range_within_sum2_bound(self, M, dims):
        """Entries spanning 2**-60..2**60, across block boundaries."""
        assert_within_sum2_bound(*_random_data(M, dims, 60.0, seed=M + 1000 * dims))

    @pytest.mark.parametrize("dims", [1, 2])
    def test_full_mantissas_within_sum2_bound(self, dims):
        """Entries of one binade fill every slice: the block products must be exact."""
        assert_within_sum2_bound(*_random_data(2 * _BLOCK + 3, dims, 0.0, seed=7 + dims))


def _random_data(M: int, dims: int, span: float, seed: int):
    """Weights and input of ``dims`` columns, magnitudes from 2**-span to 2**span."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.standard_normal(shape) * np.exp2(rng.uniform(-span, span, shape))

    if dims == 1:
        return draw(M, 1, 1), draw(M, 1)
    return draw(M, 2, 2) + 1j * draw(M, 2, 2), draw(M, 2) + 1j * draw(M, 2)


def assert_within_sum2_bound(w: np.ndarray, g: np.ndarray) -> None:
    """Every node within ``u|s| + gamma_T**2 sum|w||g|`` of its exact sum ``s``,
    ``T = kw*kx*ceil(M/B)`` (the Sum2 bound over the exact slice products)."""
    M = g.shape[0]
    out = causal_convolve(w, g)
    T = _slice_bound(w) * _slice_bound(g) * -(-M // _BLOCK)
    gamma = T * U / (1.0 - T * U)
    for n in range(M):
        for i in range(w.shape[1]):
            for terms, got in zip(exact_terms(w, g, n, i), (out[n, i].real, out[n, i].imag)):
                s = math.fsum(terms.tolist())
                if got == s:
                    continue  # the correctly rounded sum: within u|s|
                err = abs(math.fsum(terms.tolist() + [-got]))
                scale = float(np.abs(terms).sum()) * (1 + 1e-9)
                assert err <= U * abs(s) * (1 + 4 * U) + gamma**2 * scale, (n, i, err, s)


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
        # all-zero input: no slices at all
        np.testing.assert_array_equal(causal_convolve(w, np.zeros((3, 1))), np.zeros((3, 1)))
        # input zero before its last block: the later diagonals meet no input
        M = 2 * _BLOCK + 3
        late = np.zeros((M, 1))
        late[-1] = 3.0
        out = causal_convolve(np.ones((M, 1, 1)), late)
        np.testing.assert_array_equal(out[:, 0], np.r_[np.zeros(M - 1), 3.0])

    def test_entries_near_the_limit(self):
        """Below 2**996 nothing overflows: the splitting constant of such an entry
        would be 2**1027, so its row is split scaled down."""
        big, small = np.full((3, 1, 1), 2.0**995), np.full((3, 1), 2.0**-995)
        np.testing.assert_array_equal(causal_convolve(big, small)[:, 0], [1, 2, 3])
        np.testing.assert_array_equal(
            causal_convolve(small.reshape(3, 1, 1), big.reshape(3, 1))[:, 0], [1, 2, 3]
        )
        w = np.array([2.0**995 * (1 + 2.0**-52), 2.0**-60]).reshape(2, 1, 1)
        g = np.array([[2.0**-995], [3.0]])
        np.testing.assert_array_equal(causal_convolve(w, g), reference_convolve(w, g))

    @pytest.mark.parametrize("bad", [2.0**996, -(2.0**1000), math.inf])
    def test_limit_refused(self, bad):
        ones = np.ones((3, 1))
        with pytest.raises(ValueError, match=r"2\*\*996 or more overflow"):
            causal_convolve(np.full((3, 1, 1), bad), ones)
        with pytest.raises(ValueError, match=r"2\*\*996 or more overflow"):
            causal_convolve(ones.reshape(3, 1, 1), np.full((3, 1), complex(0.0, bad)))

    def test_nan_refused(self):
        g = np.ones((3, 1))
        g[1, 0] = math.nan
        with pytest.raises(ValueError, match="NaN"):
            causal_convolve(np.ones((3, 1, 1)), g)

    def test_slice_loop_is_bounded(self):
        """A value that never splits to zero stops the loop instead of spinning."""
        with pytest.raises(RuntimeError, match="no exact split"):
            _slices(np.array([[math.nan, 1.0]]))
