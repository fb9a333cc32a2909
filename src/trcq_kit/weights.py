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

*CSV.*  :func:`weights_to_csv` and :func:`trcq_kit.convolution.signal_to_csv`
share one block writer, :func:`write_csv_rows`.  It writes the bytes of
``"%d,%.17g,...\n" % row`` for every row, 4096 rows at a time.  Each value's
17 digits come from one long-double product ``|x| * 10**(16-e)`` and lookup
tables, and are laid out in a NUL-padded byte matrix that is written with
its NULs dropped.  Non-finite values, and values whose rounding the long
double cannot decide, fall back to ``%`` one at a time.  Exact ties are
decided by an integer test and rounded half to even, as ``%`` rounds them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
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
    "write_csv_rows",
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


# Rows per block: a block's text is laid out in one matrix before it is written.
_BLOCK_ROWS = 4096
# 10**p is tabulated for p = 16 - e over every decimal exponent e of a double,
# and per-exponent tables are indexed by e + _X_OFF.
_P_MIN, _P_MAX = -300, 350
_X_OFF = 330
# 5**p for the exact tie test: 5**25 > 2 * 10**17 > 2D + 1.
_POW5 = 5 ** np.arange(25, dtype=np.int64)
# y = |x| * 10**p < 1e17 takes two roundings to long double, a relative error
# below (1 + eps/2)**2 - 1 < 1.001 eps; _BAND bounds it as an absolute error.
# With an 80-bit long double it is 2**-6; with a 64-bit one it exceeds 1/2,
# and every value but an exact tie goes to ``%``.
_BAND = 2.0 ** math.ceil(math.log2(1e17 * 1.001 * float(np.finfo(np.longdouble).eps)))
_Y_LO = np.longdouble(1e16) + _BAND
_Y_HI = np.longdouble(1e17) - _BAND
_TENS = 10 ** np.arange(1, 19)  # a row number n has searchsorted(_TENS, n) + 1 digits
_SPACE_TO_NUL = bytes.maketrans(b" ", b"\0")


def _words(chars) -> np.ndarray:
    """Each 8 bytes along the last axis of ``chars`` as one native uint64.

    Words are only combined bytewise (``&``, ``|``) and written in memory
    order, so the machine's byte order does not matter.
    """
    return np.ascontiguousarray(chars, dtype=np.uint8).view(np.uint64)[..., 0]


# the words "0" and "-0", and the separators at the last byte of a word
_ZERO = np.frombuffer(b"0\0\0\0\0\0\0\0-0\0\0\0\0\0\0", dtype=np.uint64)
_COMMA, _NEWLINE = np.frombuffer(b"\0\0\0\0\0\0\0,\0\0\0\0\0\0\0\n", dtype=np.uint64)


class _Tables:
    """The block writer's lookup tables, built with numpy arithmetic by the
    first CSV written (:func:`_tables`), so that a process that writes none
    does not pay for them.

    A value's text takes six words: byte 0 its sign, bytes 1-5 the "0." and
    zeros of e = -4..-1, then digit i at byte 6 + 2i and a point after it at
    byte 7 + 2i, and bytes 40-44 the exponent.  A layout (class, k), for
    k = 1..17 significant digits, shows the digits up to k, and all integer
    digits of the fixed point, and the point after the last integer digit
    when a digit follows it.
    """

    def __init__(self) -> None:
        digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")
        spread = np.full((10000, 8), ord("."), dtype=np.uint8)
        spread[:, ::2] = digits
        # the 4 ASCII digits of each w < 10**4 as one uint32, and at the even
        # bytes of a uint64 with a '.' at the odd ones; w's trailing zeros
        self.quad = np.ascontiguousarray(digits).view(np.uint32)[:, 0]
        self.spread = _words(spread)
        self.trailing = sum((np.arange(10000) % 10**j == 0).astype(np.int8) for j in range(1, 5))
        # 10**p correctly rounded to long double, p = _P_MIN.._P_MAX
        self.pow10 = np.array(["1e%d" % p for p in range(_P_MIN, _P_MAX + 1)], dtype=np.longdouble)

        e = np.arange(-_X_OFF, _X_OFF)
        fixed = (-4 <= e) & (e <= 16)
        ae = np.abs(e)
        exp_digits = ord("0") + np.stack([ae // 100, ae // 10 % 10, ae % 10], axis=1)
        exponent = np.zeros((len(e), 8), dtype=np.uint8)
        exponent[:, 0] = ord("e")
        exponent[:, 1] = np.where(e < 0, ord("-"), ord("+"))
        exponent[:, 2:5] = np.where(ae[:, None] >= 100, exp_digits, np.roll(exp_digits, -1, axis=1))
        exponent[:, 4] *= ae >= 100
        exponent[fixed] = 0
        # per e: the class, 0-20 for the fixed point of e = -4..16 and 21 for
        # the exponent form, and the word "e+XX" or "e-XXX" (empty if fixed)
        self.layout = np.where(fixed, e + 4, 21)
        self.exponent = _words(exponent)

        c = np.arange(22)[:, None]
        k = np.arange(1, 18)
        integer = np.where((c >= 4) & (c <= 20), c - 3, 1)
        point = np.where((k > integer) & (c >= 4), integer - 1, -1)
        i = np.arange(17)[:, None, None]
        shown = np.zeros((22, 17, 40), dtype=np.uint8)
        shown[..., 6::2] = np.moveaxis(i < np.maximum(k, integer), 0, -1) * 255
        shown[..., 7::2] = np.moveaxis(i == point, 0, -1) * 255
        head = np.zeros((2, 22, 17, 8), dtype=np.uint8)
        head[1, ..., 0] = ord("-")
        for j, ch in enumerate(b"0.000"):
            # classes 0-3 (e = -4..-1) show "0." and then -e - 1 zeros
            head[:, :4, :, 1 + j] = np.where(j < 5 - np.arange(4), ch, 0)[:, None]
        # per layout class * 17 + k - 1: the bytes of each of words 0-4 that
        # show; per layout + sign * layouts: the sign and "0.000" of e < 0
        self.shown = [np.ascontiguousarray(m) for m in _words(shown.reshape(-1, 5, 8)).T]
        self.head = _words(head).reshape(-1)
        # tail[m] shows the last m bytes of a word
        self.tail = _words(np.arange(8) >= 8 - np.arange(9)[:, None]) * np.uint64(255)


@functools.lru_cache(maxsize=None)
def _tables() -> _Tables:
    return _Tables()


def _row_numbers(n: np.ndarray, words: int, t: _Tables) -> np.ndarray:
    """The digits of each ``n``, right-aligned in ``words`` words, NUL before them."""
    quads = np.empty((len(n), 2 * words), dtype=np.uint32)
    for j in range(2 * words):
        quads[:, j] = t.quad[n // 10 ** (4 * (2 * words - 1 - j)) % 10000]
    text = quads.view(np.uint64)
    shown = np.searchsorted(_TENS, n, side="right") + 1 - 8 * words
    for j in range(words):
        text[:, j] &= t.tail[np.clip(shown + 8 * (j + 1), 0, 8)]
    return text


def _split(n: np.ndarray, d: int) -> "tuple[np.ndarray, np.ndarray]":
    q = n // d
    return q, n - q * d


def _exact_ties(a: np.ndarray, D: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Whether ``a * 10**p == D + 1/2`` exactly.

    Then ``a = (2D + 1) / (2**(p+1) * 5**p)`` is a double, so ``0 <= p <= 24``,
    ``5**p`` divides ``2D + 1`` and the quotient has at most 53 bits.
    """
    ok = (p >= 0) & (p <= 24)
    p = np.where(ok, p, 0)
    five = _POW5[p]
    t = 2 * D + 1
    q = t // five
    ok &= (q * five == t) & (q < 2**53)
    return ok & (np.ldexp(np.where(ok, q, 0).astype(np.float64), (-1 - p).astype(np.int32)) == a)


def _digit_fields(x: np.ndarray, M: np.ndarray, col: int, sep: np.uint64, t: _Tables) -> np.ndarray:
    """Lay out ``"%.17g" % v`` for each ``v`` of ``x`` in words ``col..col+5``
    of the rows of ``M``, the last byte ``sep``; return the indices of the
    values left to ``%``.

    For finite ``v != 0`` with ``e = floor(log10|v|)``, ``y = |v| * 10**(16-e)``
    in long double lies in [1e16, 1e17) and rounds to the 17 digits ``D``.
    A value goes to ``%`` when it is not finite or when ``y`` lies within
    ``_BAND`` of 1e16, 1e17 or a half-integer, except exact ties, which round
    half to even.
    """
    a = np.abs(x)
    finite = np.isfinite(a)
    nonzero = finite & (a != 0)
    a = np.where(nonzero, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    al = a.astype(np.longdouble)
    y = al * t.pow10[16 - _P_MIN - e]
    # log10 can miss e by one next to a power of ten
    edge = (y <= _Y_LO) | (y >= _Y_HI)
    if edge.any():
        i = np.flatnonzero(edge)
        e[i] += (y[i] >= 1e17).astype(np.intp) - (y[i] < 1e16)
        y[i] = al[i] * t.pow10[16 - _P_MIN - e[i]]
        edge[i] = (y[i] <= _Y_LO) | (y[i] >= _Y_HI)
    D = y.astype(np.int64)
    frac = (y - D).astype(np.float64)
    up = frac > 0.5
    slow = edge & nonzero | ~finite
    i = np.flatnonzero((np.abs(frac - 0.5) <= _BAND) & ~slow)
    if len(i):
        tie = _exact_ties(a[i], D[i], 16 - e[i])
        up[i] = tie & (D[i] % 2 == 1)
        slow[i[~tie]] = True
    D += up
    carry = D == 10**17
    D[carry] = 10**16
    e += carry
    D[~nonzero] = 0  # a zero prints as "0" (its placeholder 1.0 has e = 0)

    hi, lo = _split(D, 10**8)
    head, w2 = _split(hi, 10**4)
    d0, w1 = _split(head, 10**4)
    w3, w4 = _split(lo, 10**4)
    t1, t2, t3, t4 = (t.trailing[w] for w in (w1, w2, w3, w4))
    k = 17 - (t4 + (t4 == 4) * (t3 + (t3 == 4) * (t2 + (t2 == 4) * t1)))
    e += _X_OFF
    layout = t.layout[e] * 17 + k - 1
    np.bitwise_and(t.spread[d0], t.shown[0][layout], out=M[:, col])
    M[:, col] |= t.head[layout + t.shown[0].size * np.signbit(x)]
    for j, w in enumerate((w1, w2, w3, w4), 1):
        np.bitwise_and(t.spread[w], t.shown[j][layout], out=M[:, col + j])
    np.bitwise_or(t.exponent[e], sep, out=M[:, col + 5])
    return np.flatnonzero(slow)


def write_csv_rows(stream: IO[str], columns: Sequence[np.ndarray]) -> None:
    """Write ``"%d,%.17g,...,%.17g\n" % (n, *values)`` for each row ``n`` of
    the equal-length float ``columns``, byte for byte.

    Rows go ``_BLOCK_ROWS`` at a time into one uint64 matrix of NUL-padded
    fields: the row number, a word for its comma, then 6 words per value, or
    one for a column of zeros.  The digits come from a long-double product
    and table lookups (:func:`_digit_fields`); a non-finite value, and one
    whose rounding the product cannot decide, is formatted by ``%``.  Each
    block is written with its NUL bytes dropped.
    """
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    rows = len(columns[0])
    if rows == 0:
        return
    t = _tables()
    lead = -(-len(str(rows - 1)) // 8)
    # a signalling NaN raises "invalid" wherever it is compared
    with np.errstate(invalid="ignore"):
        widths = [6 if c.any() else 1 for c in columns]
        seps = [_COMMA] * (len(columns) - 1) + [_NEWLINE]
        M = np.zeros((min(rows, _BLOCK_ROWS), lead + 1 + sum(widths)), dtype=np.uint64)
        M[:, lead] = _COMMA
        for start in range(0, rows, _BLOCK_ROWS):
            n = np.arange(start, min(start + _BLOCK_ROWS, rows))
            block = M[: len(n)]
            text = block.view(np.uint8)
            block[:, :lead] = _row_numbers(n, lead, t)
            col = lead + 1
            for c, width, sep in zip(columns, widths, seps):
                x = c[start : start + len(n)]
                if width == 1:
                    block[:, col] = _ZERO[np.signbit(x).astype(np.intp)] | sep
                elif len(slow := _digit_fields(x, block, col, sep, t)):
                    pad = "%-47.17g" * len(slow) % tuple(x[slow].tolist())
                    text[slow, 8 * col : 8 * col + 47] = np.frombuffer(
                        pad.encode().translate(_SPACE_TO_NUL), dtype=np.uint8
                    ).reshape(-1, 47)
                col += width
            stream.write(text.tobytes().translate(None, b"\0").decode("ascii"))


def weights_to_csv(table: WeightTable, stream: IO[str]) -> None:
    """Write ``m,re,im`` rows, one commented block per matrix entry
    (:func:`write_csv_rows`)."""
    stream.write("m,re,im\n")
    for i, j in np.ndindex(table.dims):
        stream.write(f"# entry {i},{j}\n")
        entry = np.asarray(table.values)[:, i, j]
        write_csv_rows(stream, (entry.real, entry.imag))
