"""Compensated inner loop of the O(N^2) convolution engine.

The causal sum

    out[n] = sum_{m=0}^{n} w[n-m] @ g[m],        n = 0..M-1,

runs as a numpy sweep over the lags in real double precision with Dot2
(Ogita, Rump and Oishi, "Accurate sum and dot product", SIAM J. Sci.
Comput. 26, 2005): each product is split into its rounded value and its
exact error (Dekker's TwoProduct), each addition into its rounded sum and
exact error (Knuth's TwoSum), and the errors are summed alongside.  The
result is as accurate as if computed in twice the working precision and
then rounded, so the naive engine can serve as the accuracy oracle for the
FFT engine; rounded products alone would limit it to about 1e-12 relative
on differentiation weights at a few thousand steps.

Complex data runs through the same real sweep, each entry ``a + ib``
embedded as the real block ``[[a, -b], [b, a]]``; data whose imaginary
parts are all zero skips the embedding.
"""

from __future__ import annotations

import numpy as np

__all__ = ["causal_convolve"]

# Veltkamp's splitter: x = hi + lo with at most 26 significant bits each, so
# products of halves are exact.  _SPLITTER * x overflows from 2**996 on.
_SPLITTER = 2.0**27 + 1.0
_SPLIT_LIMIT = 2.0**996


def _split(x: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    c = _SPLITTER * x
    hi = c - (c - x)
    return hi, x - hi


def _dot2_sweep(w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Real causal convolution of ``w`` (M, rows, cols) and ``g`` (M, cols)."""
    M, rows, cols = w.shape
    w_hi, w_lo = _split(w)
    xs = np.ascontiguousarray(g.T)  # (cols, M): the lags run along the last axis
    xs_hi, xs_lo = _split(xs)
    total = np.zeros((rows, M))
    errors = np.zeros((rows, M))
    p_buf, e_buf, t_buf, z_buf = (np.empty((rows, M)) for _ in range(4))
    # lag k contributes w[k] @ g[n-k] to every out[n >= k], one column at a time
    for k in range(M):
        n = M - k
        p, e, t, z = p_buf[:, :n], e_buf[:, :n], t_buf[:, :n], z_buf[:, :n]
        s = total[:, k:]
        for j in range(cols):
            a, a_hi, a_lo = w[k, :, j, None], w_hi[k, :, j, None], w_lo[k, :, j, None]
            x, x_hi, x_lo = xs[j, :n], xs_hi[j, :n], xs_lo[j, :n]
            # TwoProduct: p + e == a * x exactly
            np.multiply(a, x, out=p)
            np.multiply(a_hi, x_hi, out=e)
            e -= p
            e += np.multiply(a_lo, x_hi, out=z)
            e += np.multiply(a_hi, x_lo, out=z)
            e += np.multiply(a_lo, x_lo, out=z)
            # TwoSum: t + (s - (t - z)) + (p - z) == s + p exactly, z = t - s
            np.add(s, p, out=t)
            np.subtract(t, s, out=z)
            p -= z
            np.subtract(t, z, out=z)
            np.subtract(s, z, out=z)
            z += p
            z += e
            errors[:, k:] += z
            s[...] = t
    return (total + errors).T


def causal_convolve(w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Dot2-compensated causal convolution.

    ``w`` has shape ``(K, rows, cols)`` with ``K >= M``; ``g`` has shape
    ``(M, cols)``.  Returns ``(M, rows)`` complex128.  Entries of magnitude
    ``2**996`` or more are refused: their exact products would overflow.
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
        if np.max(np.abs(arr.view(np.float64))) >= _SPLIT_LIMIT:
            raise ValueError("naive engine: entries of magnitude 2**996 or more overflow")
    if not (w.imag.any() or g.imag.any()):
        return _dot2_sweep(w.real, g.real).astype(np.complex128)
    rows = w.shape[1]
    blocks = np.block([[w.real, -w.imag], [w.imag, w.real]])
    out = _dot2_sweep(blocks, np.concatenate([g.real, g.imag], axis=1))
    return out[:, :rows] + 1j * out[:, rows:]
