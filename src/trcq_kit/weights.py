"""Quadrature weight generation by contour FFT.

The weights ``w_m`` of a symbol ``F`` at step ``kappa`` are the Taylor
coefficients of the generating function ``zeta -> F(delta(zeta)/kappa)``
about ``zeta = 0``.  We read them off a circle of radius ``rho < 1``:

    w_m = rho**-m * (1/L) * sum_l F(delta(rho*e^{-2 pi i l/L})/kappa) * e^{2 pi i l m/L},

one inverse FFT of length ``L = fft_size``.  Accuracy is a balance between
the aliasing term (decreasing in ``rho``) and roundoff amplified by
``rho**-m`` (increasing), so the radius is tied to both the transform length
and the number of requested weights: ``rho = eps**(1/(L+N))``.  The contour
evaluation and transform run in extended precision (``clongdouble``) so the
delivered double-precision weights are limited by the aliasing model, not by
accumulated roundoff.

``cq_weights_closed`` provides the three hand-expanded tables (identity,
derivative, integral) used to calibrate the FFT path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

import numpy as np

from .symbols import Symbol, value_norm
from .trmap import delta_char

__all__ = [
    "WeightTable",
    "default_fft_size",
    "cq_weights_fft",
    "cq_weights_closed",
    "compare_weight_tables",
    "weights_to_csv",
]


# --------------------------------------------------------------------------
# weight table container
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightTable:
    """Weights ``w_0..w_N`` for one ``(symbol, kappa, N)`` triple.

    ``values`` has shape ``(count, rows, cols)``.  ``radius``/``fft_size``
    record how the table was generated and are ``None`` for closed-form
    tables, whose entries are exact up to rounding (``accuracy_estimate = 0``).
    """

    kappa: float
    count: int                      # N + 1
    values: np.ndarray              # (count, rows, cols) complex
    radius: "float | None"          # contour radius rho
    fft_size: "int | None"          # transform length used
    accuracy_estimate: float        # expected absolute accuracy of entries

    def __post_init__(self) -> None:
        if not (0.0 < self.kappa <= 1.0):
            raise ValueError("kappa must lie in (0, 1]")
        if self.count < 1:
            raise ValueError("count must be at least 1")
        vals = np.asarray(self.values)
        if vals.ndim != 3 or vals.shape[0] != self.count:
            raise ValueError("values must have shape (count, rows, cols)")
        if not np.all(np.isfinite(vals)):
            raise ValueError("weight values must be finite")
        if self.radius is not None and not (0.0 < self.radius < 1.0):
            raise ValueError("contour radius must lie in (0, 1)")
        if self.fft_size is not None:
            if self.fft_size < self.count or self.fft_size & (self.fft_size - 1):
                raise ValueError("fft_size must be a power of two >= count")
        if self.accuracy_estimate < 0.0:
            raise ValueError("accuracy_estimate must be non-negative")

    @property
    def dims(self) -> tuple[int, int]:
        v = np.asarray(self.values)
        return (v.shape[1], v.shape[2])


# --------------------------------------------------------------------------
# contour-FFT generation
# --------------------------------------------------------------------------


def default_fft_size(N: int) -> int:
    """Smallest power of two >= 8*(N+1); keeps aliasing well under roundoff."""
    if N < 0:
        raise ValueError("N must be non-negative")
    return 1 << max(0, int(8 * (N + 1) - 1).bit_length())


def cq_weights_fft(
    F: Symbol,
    kappa: float,
    N: int,
    fft_size: "int | None" = None,
) -> WeightTable:
    """Compute ``w_0..w_N`` for symbol ``F`` by sampling its generating function.

    ``fft_size`` must be a power of two >= N+1; by default the smallest power
    of two >= 8(N+1).  The declared ``accuracy_estimate`` is
    ``sqrt(eps) * max contour ||F||``, the classical contour-differentiation
    accuracy model.
    """
    if not (0.0 < kappa <= 1.0):
        raise ValueError("kappa must lie in (0, 1]")
    if N < 0:
        raise ValueError("N must be non-negative")
    L = default_fft_size(N) if fft_size is None else int(fft_size)
    if L < N + 1:
        raise ValueError(f"fft_size {L} is smaller than the {N + 1} requested weights")
    if L & (L - 1):
        raise ValueError("fft_size must be a power of two")

    eps = float(np.finfo(np.float64).eps)
    rho = eps ** (1.0 / (L + N))

    # Contour in extended precision: zeta_l = rho * exp(-2*pi*i*l/L).
    ang = (-2.0 * np.pi) * np.arange(L, dtype=np.longdouble) / np.longdouble(L)
    zeta = np.clongdouble(rho) * (np.cos(ang) + 1j * np.sin(ang))
    points = delta_char(zeta) / np.clongdouble(kappa)
    vals = F(points)  # (L, rows, cols), clongdouble where F allows

    coeffs = np.fft.ifft(vals, axis=0)[: N + 1]
    scale = np.clongdouble(rho) ** (-np.arange(N + 1, dtype=np.longdouble))
    weights = (coeffs * scale[:, None, None]).astype(np.complex128)

    worst = float(np.max(value_norm(vals)))
    return WeightTable(
        kappa=float(kappa),
        count=N + 1,
        values=weights,
        radius=float(rho),
        fft_size=L,
        accuracy_estimate=float(np.sqrt(eps) * worst),
    )


# --------------------------------------------------------------------------
# closed-form calibration tables
# --------------------------------------------------------------------------


def cq_weights_closed(kind: str, kappa: float, N: int) -> WeightTable:
    """Hand-expanded weights for the three elementary symbols.

    * ``identity``   F(s) = 1      -> (1, 0, 0, ...)
    * ``derivative`` F(s) = s      -> (2/k, -4/k, 4/k, -4/k, ...)
    * ``integral``   F(s) = 1/s    -> (k/2, k, k, ...), the trapezoid rule

    Both non-trivial rows follow from the geometric expansion of
    ``(1 -/+ zeta)/(1 +/- zeta)``.
    """
    if not (0.0 < kappa <= 1.0):
        raise ValueError("kappa must lie in (0, 1]")
    if N < 0:
        raise ValueError("N must be non-negative")
    w = np.zeros(N + 1, dtype=np.complex128)
    if kind == "identity":
        w[0] = 1.0
    elif kind == "derivative":
        w[0] = 2.0 / kappa
        if N >= 1:
            w[1:] = (4.0 / kappa) * (-1.0) ** np.arange(1, N + 1)
    elif kind == "integral":
        w[0] = 0.5 * kappa
        w[1:] = kappa
    else:
        raise ValueError(f"unknown closed-form kind {kind!r}")
    return WeightTable(
        kappa=float(kappa),
        count=N + 1,
        values=w[:, None, None],
        radius=None,
        fft_size=None,
        accuracy_estimate=0.0,
    )


def compare_weight_tables(a: WeightTable, b: WeightTable) -> float:
    """Largest entry-norm difference ``max_m ||a_m - b_m||``."""
    if a.kappa != b.kappa:
        raise ValueError("weight tables use different time steps")
    if a.count != b.count or a.dims != b.dims:
        raise ValueError("weight tables have mismatched shapes")
    diff = np.asarray(a.values) - np.asarray(b.values)
    return float(np.max(value_norm(diff)))


# --------------------------------------------------------------------------
# CSV export
# --------------------------------------------------------------------------


def weights_to_csv(table: WeightTable, stream: IO[str]) -> None:
    """Write ``m,re,im`` rows, one commented block per matrix entry."""
    vals = np.asarray(table.values)
    stream.write("m,re,im\n")
    for i in range(vals.shape[1]):
        for j in range(vals.shape[2]):
            stream.write(f"# entry {i},{j}\n")
            for m in range(table.count):
                z = vals[m, i, j]
                stream.write(f"{m},{z.real:.17g},{z.imag:.17g}\n")
