"""Quadrature weight generation: exact Taylor coefficients or a contour FFT.

The weights ``w_m`` of a symbol ``F`` at step ``kappa`` are the Taylor
coefficients of the generating function ``zeta -> F(delta(zeta)/kappa)``
about ``zeta = 0``.  :func:`cq_weights_fft` has two routes to them.

*Exact route.*  Power, decay and resolvent symbols carry
``Symbol.exact_weights``, an O(N) formula for the coefficients (a
three-term recurrence for ``s**mu``, run in blocks of about ``sqrt(N)``
steps, the Cayley transform for ``(sI - A)**-1``).  It runs in long double
and is rounded once to complex128, so real symbols get imaginary parts that
are exactly 0.  The table's accuracy estimate is measured: the gap between a
double-precision rerun and the long-double result, plus the rounding to
complex128; it is never NaN.

*Contour route.*  Any other symbol, and any call that names ``fft_size``,
reads the coefficients off a circle of radius ``rho < 1``:

    w_m = rho**-m * (1/L) * sum_l F(delta(rho*e^{-2 pi i l/L})/kappa) * e^{2 pi i l m/L},

one inverse FFT of length ``L = fft_size``.  Accuracy is a balance between
the aliasing term (decreasing in ``rho``) and roundoff amplified by
``rho**-m`` (increasing), so the radius is tied to both the transform length
and the number of requested weights: ``rho = eps**(1/(L+N))``.  The contour
evaluation and transform run in extended precision (``clongdouble``) so the
delivered double-precision weights are limited by the aliasing model, not by
accumulated roundoff.  The contour is also the oracle the exact routes are
tested against.

Both routes refuse a weight beyond the double range before rounding to
complex128, naming the symbol, ``kappa`` and the first such index.
:func:`weights_to_csv` formats 1024 rows at a time with one ``%`` template
(:func:`write_rows`), the bytes of one ``%`` per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import IO, Sequence

import numpy as np

from .symbols import Symbol, value_norm
from .trmap import delta_char

__all__ = [
    "WeightTable",
    "default_fft_size",
    "cq_weights_fft",
    "compare_weight_tables",
    "weights_to_csv",
    "write_rows",
]


# --------------------------------------------------------------------------
# weight table container
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightTable:
    """Weights ``w_0..w_N`` for one ``(symbol, kappa, N)`` triple.

    ``values`` has shape ``(count, rows, cols)``.  ``fft_size`` is the length
    of the contour the table came from (its radius is ``eps**(1/(fft_size+N))``),
    or ``0`` for a table from the exact route.
    """

    kappa: float
    values: np.ndarray              # (count, rows, cols) complex, count = N + 1
    fft_size: int                   # transform length used; 0 without a contour
    accuracy_estimate: float        # expected absolute accuracy of entries

    def __post_init__(self) -> None:
        if not (0.0 < self.kappa <= 1.0):
            raise ValueError("kappa must lie in (0, 1]")
        vals = np.asarray(self.values)
        if vals.ndim != 3 or vals.shape[0] < 1:
            raise ValueError("values must have shape (count >= 1, rows, cols)")
        if not np.all(np.isfinite(vals)):
            raise ValueError("weight values must be finite")
        if self.fft_size != 0:
            if self.fft_size < self.count or self.fft_size & (self.fft_size - 1):
                raise ValueError("fft_size must be 0 or a power of two >= count")
        if not self.accuracy_estimate >= 0.0:
            raise ValueError("accuracy_estimate must be non-negative, not NaN")

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def dims(self) -> tuple[int, int]:
        return np.asarray(self.values).shape[1:]


# --------------------------------------------------------------------------
# weight generation
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
    """Compute ``w_0..w_N`` for symbol ``F``.

    Without ``fft_size``, a symbol with ``exact_weights`` takes the exact
    route; its ``accuracy_estimate`` is the largest entry-norm gap between a
    double-precision rerun and the long-double result plus the largest
    rounding error of the delivered complex128 entries, and at least half
    an ulp of the largest weight.

    Otherwise the weights come from the contour: ``fft_size`` must be a
    power of two >= N+1, by default the smallest power of two >= 8(N+1).
    The declared ``accuracy_estimate`` is ``sqrt(eps) * max contour ||F||``,
    the classical contour-differentiation accuracy model.
    """
    if not (0.0 < kappa <= 1.0):
        raise ValueError("kappa must lie in (0, 1]")
    if N < 0:
        raise ValueError("N must be non-negative")
    if fft_size is None and F.exact_weights is not None:
        return _exact_table(F, kappa, N)
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
    weights = _to_double(F, kappa, coeffs * scale[:, None, None])

    worst = float(np.max(value_norm(vals)))
    return WeightTable(
        kappa=float(kappa),
        values=weights,
        fft_size=L,
        accuracy_estimate=float(np.sqrt(eps) * worst),
    )


def _exact_table(F: Symbol, kappa: float, N: int) -> WeightTable:
    """The exact route, with its accuracy measured (see :func:`cq_weights_fft`)."""
    precise = F.exact_weights(kappa, N, True)
    weights = _to_double(F, kappa, precise)
    # the double-precision rerun may overflow where long double does not, and
    # a blocked run may then meet inf * 0; its gap then reads inf, never NaN
    with np.errstate(over="ignore", invalid="ignore"):
        rough = F.exact_weights(kappa, N, False)
        gap = np.max(value_norm(rough - precise))
    if not np.isfinite(gap):
        gap = np.inf
    # a real table is rounded on its real parts, not promoted to complex long double
    rounding = np.max(value_norm((weights if np.iscomplexobj(precise) else weights.real) - precise))
    half_ulp = 0.5 * np.spacing(np.max(value_norm(weights)))
    return WeightTable(
        kappa=float(kappa),
        values=weights,
        fft_size=0,
        accuracy_estimate=max(float(gap + rounding), float(half_ulp)),
    )


def _to_double(F: Symbol, kappa: float, precise: np.ndarray) -> np.ndarray:
    """``precise`` rounded to complex128, refused if it leaves the double range."""
    top = np.finfo(np.float64).max
    out = ((np.abs(precise.real) > top) | (np.abs(precise.imag) > top)).any(axis=(1, 2))
    if out.any():
        raise ValueError(
            f"weights of {F.name} at kappa = {kappa:g} leave the double range, "
            f"first at w_{int(np.argmax(out))}"
        )
    return precise.astype(np.complex128)


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


# rows formatted by one ``%`` call
_CHUNK_ROWS = 1024


def write_rows(stream: IO[str], row: str, columns: Sequence[Sequence]) -> None:
    """Write ``row % values`` for each ``values`` in ``zip(*columns)``.

    ``row`` is a ``%`` template with one conversion per column.  The values of
    ``_CHUNK_ROWS`` rows at a time go through the one template ``row *
    _CHUNK_ROWS`` and the rest through ``row * rest``: the same conversions,
    so the same bytes as one ``%`` per row, without a tuple and a template
    parse per row.
    """
    width = len(columns)
    values = chain.from_iterable(zip(*columns))
    full = width * _CHUNK_ROWS
    template = row * _CHUNK_ROWS
    while len(chunk := tuple(islice(values, full))) == full:
        stream.write(template % chunk)
    if chunk:
        stream.write(row * (len(chunk) // width) % chunk)


def weights_to_csv(table: WeightTable, stream: IO[str]) -> None:
    """Write ``m,re,im`` rows, one commented block per matrix entry, each row
    from one ``%`` template (:func:`write_rows`)."""
    stream.write("m,re,im\n")
    rows = range(table.count)
    for i, j in np.ndindex(table.dims):
        stream.write(f"# entry {i},{j}\n")
        entry = np.asarray(table.values)[:, i, j]
        write_rows(stream, "%d,%.17g,%.17g\n", (rows, entry.real.tolist(), entry.imag.tolist()))
