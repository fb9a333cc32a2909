"""Error-free O(N^2) convolution engine on BLAS block products.

The causal sum

    out[n] = sum_{m=0}^{n} w[n-m] @ g[m],        n = 0..M-1,

is evaluated in real double precision so that every product is exact and
only one compensated accumulation rounds.  For each weight entry ``(r, c)``:

* The input column ``g[:, c]`` is cut into blocks of ``B`` samples, the
  columns of a ``B x ceil(M/B)`` matrix ``X``.  Output block ``J`` is
  ``sum_d T_d @ X[:, J - d]`` with the ``B x B`` Toeplitz blocks
  ``T_d[i, k] = w[dB + i - k]``, zero where the index is negative.
* Each column of ``X``, and the ``2B - 1`` weights each ``T_d`` is built
  from, are split into slices by exact extraction (Ozaki, Ogita, Oishi and
  Rump, "Error-free transformations of matrix multiplication by using fast
  routines of matrix multiplication and its applications", Numer.
  Algorithms 59, 2012).  With ``2**e`` above the largest remaining
  magnitude and ``sigma = 2**(e + 53 - beta)``, ``hi = (a + sigma) - sigma``
  holds multiples of ``2**(e - beta)`` of magnitude at most ``2**e``, the
  remainder ``a - hi`` is exact, and the split repeats on the remainder
  until it is zero.  A slice of the weights is again Toeplitz, so every row
  of a slice of ``T_d`` lies on one grid.
* Because ``2*beta + log2(B) <= 53``, every entry of a slice product
  ``T_d^(i) @ X^(j)`` is an integer multiple of one grid unit, below
  ``2**53`` of them, so BLAS computes it exactly, in any summation order and
  with or without FMA.  The slices of one diagonal go through one GEMM.
* Each exact slice product is added into the output by Knuth's TwoSum, the
  rounded running sum and the exact errors kept apart and added at the end:
  Sum2 of Ogita, Rump and Oishi ("Accurate sum and dot product", SIAM J.
  Sci. Comput. 26, 2005).

The only rounding left is that of Sum2 over ``T = kw*kx*ceil(M/B)`` terms
per node, ``kw`` and ``kx`` being the slice counts of the weights and the
input: the error is at most ``u|s| + gamma_T**2 * sum|p|`` (``u = 2**-53``)
for the exact sum ``s`` and the exact slice products ``p``, whose absolute
sum is within a small factor of ``sum |w||g|``.  The result is as accurate as if computed in
twice the working precision and then rounded, so the naive engine can serve
as the accuracy oracle for the FFT engine.  Like Dot2's TwoProduct, this
assumes no underflow: a slice product whose grid unit lies below
``2**-1074`` rounds.

Cost: one ``(kw*B) x B`` by ``B x (kx*ceil(M/B))`` GEMM per diagonal, about
``kw*kx*M**2/2`` multiply-adds in all, and TwoSum over about
``kw*kx*M**2/(2B)`` output entries, ``B`` times fewer than a lag-by-lag sum
would touch.  The slice count grows with each block's exponent range: a
block whose entries span ``R`` binades takes about ``(53 + R) / (beta - 1)``
slices, so full-mantissa data takes 3 and an input like ``t**60``, which
sweeps hundreds of binades in its first blocks, takes more there; a block's
extra slices are multiplied only with its own columns.

Complex data runs through the same real engine by :func:`real_embedding`,
which both engines use: each weight entry ``a + ib`` becomes the real block
``[[a, -b], [b, a]]`` and each sample ``x + iy`` the pair ``[x, y]``; data
whose imaginary parts are all zero skips the embedding.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["causal_convolve", "real_embedding"]

_BLOCK = 256  # B
_SLICE_BITS = 22  # beta: 2*beta + log2(B) <= 53
_SIGMA_BITS = 53 - _SLICE_BITS
# sigma = 2**(e + _SIGMA_BITS) overflows above this e; such rows are split
# scaled down by a power of two, which moves no bit that stays on the grid
_TOP_EXP = 1023 - _SIGMA_BITS
_LIMIT = 2.0**996
# each slice lowers e by at least beta - 1; from below 2**996 the grid unit
# reaches 2**-1074, where a slice takes everything, within this many slices
_MAX_SLICES = (996 + 1074 - _SLICE_BITS) // (_SLICE_BITS - 1) + 2


def _slices(a: np.ndarray) -> "list[np.ndarray]":
    """Exact split of each row of ``a`` (consumed) into slices summing to it.

    Slice ``k`` of a row holds multiples of ``2**(e_k - beta)`` of magnitude
    at most ``2**e_k``, ``2**e_k`` being above the row's largest remaining
    magnitude.  An all-zero ``a`` gives no slices.
    """
    out = []
    for _ in range(_MAX_SLICES):
        top = np.maximum(a.max(axis=-1, keepdims=True), -a.min(axis=-1, keepdims=True))
        if not top.any():
            return out
        e = np.frexp(top)[1]
        scale = np.ldexp(1.0, -np.maximum(e - _TOP_EXP, 0))
        sigma = np.ldexp(scale, e + _SIGMA_BITS)
        hi = (a * scale + sigma - sigma) / scale
        a -= hi
        out.append(hi)
    raise RuntimeError(f"naive engine: no exact split within {_MAX_SLICES} slices")


def _two_sum_into(
    s: np.ndarray, err: np.ndarray, p: np.ndarray, t: np.ndarray, z: np.ndarray
) -> None:
    """``s`` becomes ``fl(s + p)`` and ``err`` gains its exact error (TwoSum).

    ``p`` is consumed; ``t`` and ``z`` are scratch of the same shape.
    """
    np.add(s, p, out=t)
    np.subtract(t, s, out=z)
    p -= z
    np.subtract(t, z, out=z)
    np.subtract(s, z, out=z)
    z += p  # (s - (t - z)) + (p - z): the exact error of t = s + p
    err += z
    s[...] = t


def _block_toeplitz(w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Real causal convolution of ``w`` (M, rows, cols) and ``g`` (M, cols)."""
    M, rows, cols = w.shape
    B = _BLOCK
    nb = -(-M // B)
    # total[r, i, J] and errors[r, i, J] accumulate out[J*B + i, r]
    total = np.zeros((rows, B, nb))
    errors = np.zeros((rows, B, nb))
    t, z = np.empty(B * nb), np.empty(B * nb)
    for c in range(cols):
        x = np.zeros(nb * B)
        x[:M] = g[:, c]
        # row j holds block j of the input reversed, so that against a reversed
        # row of T_d (a window of wp below) the block product is a plain GEMM;
        # a slice is multiplied only over the span of blocks it is nonzero on
        spans = []
        for s in _slices(x.reshape(nb, B)[:, ::-1].copy()):
            live = np.flatnonzero(s.any(axis=1))
            spans.append((live[0], live[-1] + 1, s))
        if not spans:
            continue
        for r in range(rows):
            # wp[q] = w[q - (B-1)], zero outside the table: row i of T_d,
            # reversed, is wp[dB + i : dB + i + B], so T_d is made of 2B - 1 of them
            wp = np.zeros((nb + 1) * B - 1)
            wp[B - 1 : B - 1 + M] = w[:, r, c]
            for d in range(nb):
                parts = [(lo, min(hi, nb - d), s) for lo, hi, s in spans if lo < nb - d]
                ws = _slices(wp[d * B : (d + 2) * B - 1].copy())
                if not (parts and ws):
                    continue
                a = sliding_window_view(np.stack(ws), B, axis=1).reshape(-1, B)
                xd = np.concatenate([s[lo:hi] for lo, hi, s in parts]).T
                p = (a @ xd).reshape(len(ws), B, -1)
                for pi in p:
                    off = 0
                    for lo, hi, _ in parts:
                        n, cut = hi - lo, slice(d + lo, d + hi)
                        _two_sum_into(total[r, :, cut], errors[r, :, cut], pi[:, off : off + n],
                                      t[: B * n].reshape(B, n), z[: B * n].reshape(B, n))
                        off += n
    return (total + errors).transpose(2, 1, 0).reshape(nb * B, rows)[:M]


def causal_convolve(w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Causal convolution with exact products and one compensated sum.

    ``w`` has shape ``(K, rows, cols)`` with ``K >= M``; ``g`` has shape
    ``(M, cols)``.  Returns ``(M, rows)`` complex128.  Entries of magnitude
    ``2**996`` or more are refused, and so are NaN entries, which have no
    exact products.
    """
    w = np.ascontiguousarray(w, dtype=np.complex128)
    g = np.ascontiguousarray(g, dtype=np.complex128)
    if w.ndim != 3 or g.ndim != 2:
        raise ValueError("expected w of shape (K, rows, cols) and g of shape (M, cols)")
    if w.shape[2] != g.shape[1]:
        raise ValueError("weight columns must match signal dimension")
    if g.shape[0] == 0:
        raise ValueError("signal must contain at least one sample")
    if w.shape[0] < g.shape[0]:
        raise ValueError("need at least as many weights as signal samples")
    M = g.shape[0]
    w = w[:M]
    for arr in (w, g):
        top = np.max(np.abs(arr.view(np.float64)))
        if np.isnan(top):
            raise ValueError("naive engine: NaN entries have no exact products")
        if top >= _LIMIT:
            raise ValueError("naive engine: entries of magnitude 2**996 or more overflow")
    return real_embedding(_block_toeplitz, w, g)


def real_embedding(
    convolve_real: Callable[[np.ndarray, np.ndarray], np.ndarray],
    w: np.ndarray,
    g: np.ndarray,
) -> np.ndarray:
    """``convolve_real`` applied to possibly complex ``w`` and ``g``.

    ``convolve_real`` takes real ``w`` of shape ``(M, rows, cols)`` and real
    ``g`` of shape ``(M, cols)`` and returns the real ``(M, rows)`` causal
    convolution in any float dtype.  Data with no nonzero imaginary part is
    passed as its real parts; otherwise ``w`` is embedded as the blocks
    ``[[re, -im], [im, re]]`` and ``g`` as ``[re, im]``, which doubles rows
    and columns.  The result is rounded once to complex128.
    """
    if not (w.imag.any() or g.imag.any()):
        return convolve_real(w.real, g.real).astype(np.complex128)
    rows = w.shape[1]
    blocks = np.block([[w.real, -w.imag], [w.imag, w.real]])
    out = convolve_real(blocks, np.concatenate([g.real, g.imag], axis=1))
    return (out[:, :rows] + 1j * out[:, rows:]).astype(np.complex128, copy=False)
