"""Compensated inner loop of the O(N^2) convolution engine.

The causal sum

    out[n] = sum_{m=0}^{n} w[n-m] @ g[m],        n = 0..M-1,

runs as a numpy sweep over the lags with Kahan-compensated accumulation, so
the naive engine can serve as the accuracy oracle for the FFT engine.
"""

from __future__ import annotations

import numpy as np

__all__ = ["causal_convolve"]


def causal_convolve(w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Kahan-compensated causal convolution.

    ``w`` has shape ``(K, rows, cols)`` with ``K >= M``; ``g`` has shape
    ``(M, cols)``.  Returns ``(M, rows)`` complex128.
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
    out = np.zeros((M, w.shape[1]), dtype=np.complex128)
    comp = np.zeros_like(out)
    # lag k contributes w[k] @ g[n-k] to every out[n >= k]
    for k in range(M):
        x = np.einsum("ij,mj->mi", w[k], g[: M - k]) - comp[k:]
        t = out[k:] + x
        comp[k:] = (t - out[k:]) - x
        out[k:] = t
    return out
