"""Laplace-domain transfer functions with explicit growth certificates.

A *symbol* is an analytic map ``F`` from the open right half-plane into
complex ``rows x cols`` matrices, together with a declared growth model

    ||F(s)|| <= cf(Re s) * |s|**mu,

where ``cf`` is the non-increasing envelope ``x -> scale * min(x, 1)**(-e)``.
The certificate ``(mu, cf)`` is what every error estimate in this package
consumes, so it is data, not documentation: :func:`validate_growth` samples
the half-plane and checks it.

Built-in families:

* ``make_power(mu)``   -- ``s**mu`` (principal branch); fractional derivative
  or integral of order ``mu`` in the time domain.
* ``make_delay(d)``    -- ``exp(-s*d)``; time shift by ``d``.
* ``make_decay(a)``    -- ``1/(s+a)``; convolution with ``exp(-a*t)``.
* ``make_resolvent(A)``-- ``(s*I - A)**-1`` for a square matrix ``A``.

Every family also carries ``derivative``, ``F'`` in closed form (the
envelope check of :func:`trcq_kit.verify.check_prop41` part (b) reads it),
and all but delay carry ``exact_weights``: their TRCQ weights, the Taylor
coefficients of ``zeta -> F(delta(zeta)/kappa)``, from an exact O(N)
formula rather than a contour (see :mod:`trcq_kit.weights`).  The scalar
families carry ``Symbol.data = (kind, parameter)``, on which the closed-form
references of :func:`trcq_kit.functions.exact_solution` dispatch.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .report import VerificationReport, chunked_reports
from .trmap import sample_cplus
from .trmap import s_kappa  # noqa: F401  (unused here; perfbench/tracer.py wraps symbols.s_kappa)

__all__ = [
    "CFModel",
    "Symbol",
    "value_norm",
    "make_power",
    "make_delay",
    "make_decay",
    "make_resolvent",
    "symbol_product",
    "validate_growth",
    "from_spec",
    "builtin_zoo",
]


# --------------------------------------------------------------------------
# growth certificate
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CFModel:
    """Growth envelope ``x -> scale * min(x, 1)**(-exponent)``.

    Non-increasing on ``(0, inf)`` and constant (= ``scale``) for ``x >= 1``,
    so it captures "blows up like ``x**-exponent`` near the imaginary axis,
    levels off far from it".
    """

    scale: float      # envelope value for x >= 1
    exponent: float   # blow-up rate as x -> 0+

    def __post_init__(self) -> None:
        if not (self.scale > 0.0) or not np.isfinite(self.scale):
            raise ValueError("scale must be a positive finite real")
        if self.exponent < 0.0 or not np.isfinite(self.exponent):
            raise ValueError("exponent must be a non-negative finite real")

    def __call__(self, x: "float | np.ndarray") -> "float | np.ndarray":
        arr = np.asarray(x, dtype=float)
        if np.any(arr <= 0.0):
            raise ValueError("growth envelope is defined for x > 0 only")
        out = self.scale * np.minimum(arr, 1.0) ** (-self.exponent)
        return out if arr.ndim else float(out)


# --------------------------------------------------------------------------
# symbol type
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Symbol:
    """A matrix-valued analytic function on ``Re s > 0`` plus its certificate.

    ``evaluator`` must be vectorized: given an array ``s`` it returns an
    array of shape ``s.shape + dims``, preserving extended-precision complex
    dtypes where the underlying operations allow it.

    ``exact_weights``, where the family has one, maps ``(kappa, N,
    extended)`` to the weights ``w_0..w_N`` as an ``(N+1, rows, cols)``
    array, computed from their exact Taylor coefficients in long double
    (``extended=True``) or in double precision; real symbols give real
    arrays.  ``None`` leaves the weights to the contour.

    ``derivative``, where the family has one, is ``F'`` in closed form, with
    the same contract as ``evaluator``: a vectorized map from ``s`` to an
    array of shape ``s.shape + dims``.  ``None`` declares no derivative.

    ``data`` is ``("power", mu)``, ``("delay", d)`` or ``("decay", a)`` for
    the scalar families; resolvents, products and direct builds keep ``None``.
    """

    name: str
    evaluator: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    mu: float
    cf: CFModel
    dims: tuple[int, int] = (1, 1)
    exact_weights: "Callable[[float, int, bool], np.ndarray] | None" = field(
        default=None, repr=False
    )
    derivative: "Callable[[np.ndarray], np.ndarray] | None" = field(default=None, repr=False)
    data: "tuple[str, float] | None" = None

    def __post_init__(self) -> None:
        r, c = self.dims
        if not (isinstance(r, int) and isinstance(c, int) and r >= 1 and c >= 1):
            raise ValueError("dims must be a pair of positive integers")
        if not np.isfinite(self.mu):
            raise ValueError("mu must be finite")

    @property
    def rows(self) -> int:
        return self.dims[0]

    @property
    def cols(self) -> int:
        return self.dims[1]

    def __call__(self, s: "complex | np.ndarray") -> np.ndarray:
        """Evaluate at ``s``; returns shape ``np.shape(s) + dims``."""
        arr = np.asarray(s)
        if not np.iscomplexobj(arr):
            arr = arr.astype(complex)
        if np.any(arr.real <= 0.0):
            raise ValueError("symbol domain is the open half-plane Re s > 0")
        return self.evaluator(arr)

    def growth_bound(self, s: np.ndarray) -> np.ndarray:
        """The certified envelope ``cf(Re s) * |s|**mu`` at the given points."""
        arr = np.asarray(s)
        return np.asarray(self.cf(arr.real)) * np.abs(arr) ** self.mu


def value_norm(values: np.ndarray) -> np.ndarray:
    """Operator 2-norm of each matrix in an ``(..., r, c)`` stack.

    1x1 and 2x2 blocks use closed forms, accurate to a few ulps; anything
    larger falls back to LAPACK's SVD in double precision.  A 2x2 norm is
    the square root of the larger eigenvalue of M M^H = [[p, r], [r*, q]],
    (p + q + hypot(p - q, 2|r|))/2, which adds non-negative terms only: the
    form (f + sqrt(f^2 - 4 det^2))/2 with f = ||M||_F^2 cancels when the two
    singular values nearly agree.
    """
    v = np.asarray(values)
    if v.ndim < 2:
        return np.abs(v)
    r, c = v.shape[-2], v.shape[-1]
    if r == 1 and c == 1:
        return np.abs(v[..., 0, 0])
    if r == 2 and c == 2:
        # p, q: squared row norms, r: the rows' inner product; works in any
        # precision numpy supports.
        a, b = v[..., 0, 0], v[..., 0, 1]
        cc, d = v[..., 1, 0], v[..., 1, 1]
        p = np.abs(a) ** 2 + np.abs(b) ** 2
        q = np.abs(cc) ** 2 + np.abs(d) ** 2
        r = np.abs(a * np.conj(cc) + b * np.conj(d))
        return np.sqrt((p + q + np.hypot(p - q, 2.0 * r)) / 2.0)
    w = v.astype(np.complex128, copy=False)
    return np.linalg.svd(w, compute_uv=False)[..., 0]


def _scalarize(f: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """Lift a scalar-valued vectorized map to ``shape + (1, 1)`` output."""

    def evaluator(s: np.ndarray) -> np.ndarray:
        return f(s)[..., None, None]

    return evaluator


# --------------------------------------------------------------------------
# exact weight generators
# --------------------------------------------------------------------------


# the least block length of the recurrence runner: a table of up to this many
# steps is one block, the sequential recurrence itself
_MIN_BLOCK = 16


def _linear_recurrence(step: Callable, a0, a1, count: int, real: type) -> np.ndarray:
    """``a_0 .. a_{count-1}`` of ``a_{n+1} = step(n, a_{n-1}, a_n)`` in the dtype ``real``.

    ``step`` must be linear in ``(a_{n-1}, a_n)`` and take ``n`` as an array
    of ``real``.  The steps ``n = 1 .. count-2`` are cut into ``B`` blocks of
    ``K ~ sqrt(count)`` steps, at least ``_MIN_BLOCK`` (fewer steps are one
    block), the blocked scheme of Kogge and Stone (IEEE Trans. Comput. C-22,
    1973): every block runs once from the basis states ``(1, 0)`` and
    ``(0, 1)``, all blocks at once; the B 2x2 block maps are chained in
    scalar code from ``(a_0, a_1)``; and every block reruns from its chained
    start state, all at once, straight into the result.  Block 0 starts from
    the true ``(a_0, a_1)``, so it is the sequential recurrence bit for bit.
    """
    steps = max(count - 2, 0)
    K = max(_MIN_BLOCK, math.isqrt(count))
    B = max(1, -(-steps // K))
    one = real(1)
    first = 1 + K * np.arange(B, dtype=real)  # the first n of each block
    # the maps of blocks 0 .. B-2; row r starts from basis state r
    basis_prev, basis_cur = np.eye(2, dtype=real)[:, :, None].repeat(B - 1, axis=2)
    n = first[:-1].copy()
    for _ in range(K):
        basis_prev, basis_cur = basis_cur, step(n, basis_prev, basis_cur)
        n += one
    a = np.empty(2 + B * K, dtype=real)
    a[0], a[1] = a0, a1
    prev, cur = np.empty(B, dtype=real), np.empty(B, dtype=real)
    x, y = prev[0], cur[0] = a[0], a[1]
    # block b maps (x, y) to x * (p0, c0) + y * (p1, c1)
    maps = zip(basis_prev[0], basis_prev[1], basis_cur[0], basis_cur[1])
    for b, (p0, p1, c0, c1) in enumerate(maps, start=1):
        x, y = prev[b], cur[b] = x * p0 + y * p1, x * c0 + y * c1
    n = first
    blocks = a[2:].reshape(B, K)
    for j in range(K):
        prev, cur = cur, step(n, prev, cur)
        blocks[:, j] = cur
        n += one
    return a[:count]


def _power_weights(mu: float) -> Callable[[float, int, bool], np.ndarray]:
    """Weights of ``s**mu``: ``w_n = (2/kappa)**mu a_n``.

    ``a_n`` are the Taylor coefficients of ``f = ((1 - z)/(1 + z))**mu``;
    ``(1 - z**2) f' = -2 mu f`` gives ``a_0 = 1``, ``a_1 = -2 mu`` and
    ``(n+1) a_{n+1} = -2 mu a_n + (n-1) a_{n-1}`` (Lubich, "Discretized
    fractional calculus", SIAM J. Math. Anal. 17, 1986), run in blocks by
    :func:`_linear_recurrence`.
    """

    def weights(kappa: float, N: int, extended: bool = True) -> np.ndarray:
        real = np.longdouble if extended else np.float64
        two_mu, one = real(2.0 * mu), real(1)

        def step(n, prev, cur):
            return (-two_mu * cur + (n - one) * prev) / (n + one)

        with np.errstate(over="ignore", invalid="ignore"):  # _to_double refuses inf and NaN
            # + 0: power:0's zeros print as 0, not -0
            a = _linear_recurrence(step, real(1.0), -two_mu + 0, N + 1, real)
            scale = (real(2.0) / real(kappa)) ** real(mu)
            return (scale * a)[:, None, None]

    return weights


def _powers(R: np.ndarray, count: int) -> np.ndarray:
    """``R**0 .. R**(count-1)`` by doubling: ``R**(k+j) = R**j @ R**k``."""
    out = np.empty((count,) + R.shape, dtype=R.dtype)
    out[0] = np.eye(R.shape[0], dtype=R.dtype)
    k, Rk = 1, R
    while k < count:
        m = min(k, count - k)
        out[k : k + m] = out[:m] @ Rk
        k, Rk = 2 * k, Rk @ Rk
    return out


def _cayley_weights(A: np.ndarray) -> Callable[[float, int, bool], np.ndarray]:
    """Weights of ``(s I - A)**-1``: trapezoidal time stepping of ``u' = A u``.

    With ``M = 2I - kappa A`` and the Cayley transform ``R = (2I + kappa A)
    M**-1``: ``w_0 = kappa M**-1`` and ``w_n = kappa (R**n + R**(n-1))
    M**-1``.  ``M**-1`` is LAPACK's double-precision inverse refined by one
    Newton step in the working precision.
    """
    real = not np.any(A.imag)
    mat = A.real if real else A
    eye = np.eye(A.shape[0])

    def weights(kappa: float, N: int, extended: bool = True) -> np.ndarray:
        if real:
            dtype = np.longdouble if extended else np.float64
        else:
            dtype = np.clongdouble if extended else np.complex128
        k = dtype(kappa)
        kA = k * mat.astype(dtype)
        M = 2 * eye - kA
        Minv = np.linalg.inv(M.astype(mat.dtype)).astype(dtype)
        Minv = Minv + Minv @ (eye - M @ Minv)
        P = _powers((2 * eye + kA) @ Minv, N + 1)
        out = np.empty_like(P)
        out[0] = k * Minv
        out[1:] = k * (P[1:] + P[:-1]) @ Minv
        return out

    return weights


# --------------------------------------------------------------------------
# built-in families
# --------------------------------------------------------------------------


def _param_text(x: float) -> str:
    """A symbol's parameter in its name: the ``:g`` text when that reads back
    as ``x``, else ``repr(x)``, so distinct parameters get distinct names."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


def make_power(mu: float) -> Symbol:
    """``F(s) = s**mu`` via the principal logarithm; ``|F(s)| = |s|**mu``."""
    mu = float(mu)

    def scalar(s: np.ndarray) -> np.ndarray:
        return np.exp(mu * np.log(s))

    def slope(s: np.ndarray) -> np.ndarray:
        return mu * np.exp((mu - 1.0) * np.log(s))

    return Symbol(
        name=f"power:{_param_text(mu)}",
        evaluator=_scalarize(scalar),
        mu=mu,
        cf=CFModel(1.0, 0.0),
        exact_weights=_power_weights(mu),
        derivative=_scalarize(slope),
        data=("power", mu),
    )


def make_delay(d: float) -> Symbol:
    """``F(s) = exp(-s d)``; in time, shifts the input by ``d``."""
    d = float(d)
    if not (d > 0.0 and np.isfinite(d)):
        raise ValueError(f"delay d must be finite and positive, got {d:g}")

    def scalar(s: np.ndarray) -> np.ndarray:
        return np.exp(-d * s)

    def slope(s: np.ndarray) -> np.ndarray:
        return -d * np.exp(-d * s)

    # |exp(-s d)| = exp(-d Re s) <= 1 on the half-plane.
    return Symbol(
        name=f"delay:{_param_text(d)}",
        evaluator=_scalarize(scalar),
        mu=0.0,
        cf=CFModel(1.0, 0.0),
        derivative=_scalarize(slope),
        data=("delay", d),
    )


def make_decay(a: float) -> Symbol:
    """``F(s) = 1/(s+a)``, the 1x1 resolvent of ``-a``; in time, convolution
    with ``exp(-a t)``."""
    a = float(a)
    if not (a > 0.0 and np.isfinite(a)):
        raise ValueError(f"decay rate a must be finite and positive, got {a:g}")
    # |s+a|^2 = |s|^2 + 2 a Re s + a^2 >= |s|^2, hence |F(s)| <= |s|**-1.
    F = make_resolvent(np.array([[-a]]), mu=-1.0, cf=CFModel(1.0, 0.0))
    return replace(F, name=f"decay:{_param_text(a)}", data=("decay", a))


def make_resolvent(
    A: np.ndarray,
    mu: float = 0.0,
    cf: "CFModel | None" = None,
) -> Symbol:
    """``F(s) = (s I - A)**-1`` with a caller-declared growth certificate.

    The default certificate ``mu = 0``, ``cf(x) = min(x,1)**-1`` holds
    whenever the numerical range of ``A`` lies in ``Re <= 0`` (then
    ``||(sI-A)^-1|| <= 1/Re s <= 1/min(Re s, 1)``).  It is *declared*, not
    derived — run :func:`validate_growth` before trusting it.
    """
    mat = np.asarray(A, dtype=complex)
    if mat.ndim == 0:
        mat = mat.reshape(1, 1)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("A must be a square matrix")
    n = mat.shape[0]
    if cf is None:
        cf = CFModel(1.0, 1.0)

    def evaluator(s: np.ndarray) -> np.ndarray:
        eye = np.eye(n, dtype=s.dtype if np.iscomplexobj(s) else complex)
        m = s[..., None, None] * eye - mat.astype(eye.dtype)
        if n == 1:
            piv = m[..., 0, 0]
            if np.any(np.abs(piv) < 1e-300):
                raise np.linalg.LinAlgError("sI - A numerically singular")
            return 1.0 / piv[..., None, None]
        if n == 2:
            a, b = m[..., 0, 0], m[..., 0, 1]
            c, d = m[..., 1, 0], m[..., 1, 1]
            det = a * d - b * c
            if np.any(np.abs(det) < 1e-300):
                raise np.linalg.LinAlgError("sI - A numerically singular")
            out = np.empty_like(m)
            out[..., 0, 0] = d / det
            out[..., 0, 1] = -b / det
            out[..., 1, 0] = -c / det
            out[..., 1, 1] = a / det
            return out
        # LAPACK handles only single/double complex; larger blocks round-trip
        # through double precision (documented precision floor for this family).
        inv = np.linalg.inv(m.astype(np.complex128, copy=False))
        return inv.astype(m.dtype, copy=False)

    def derivative(s: np.ndarray) -> np.ndarray:
        # d/ds (sI - A)**-1 = -(sI - A)**-2
        R = evaluator(s)
        return -(R @ R)

    return Symbol(
        name=f"resolvent:{n}x{n}",
        evaluator=evaluator,
        mu=float(mu),
        cf=cf,
        dims=(n, n),
        exact_weights=_cayley_weights(mat),
        derivative=derivative,
    )


def symbol_product(F: Symbol, G: Symbol) -> Symbol:
    """Pointwise product ``s -> F(s) @ G(s)`` with the product certificate.

    Its derivative is ``F' G + F G'`` when both factors declare one.
    """
    if F.cols != G.rows:
        raise ValueError("inner dimensions must agree for a symbol product")

    def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.einsum("...ij,...jk->...ik", a, b)

    def evaluator(s: np.ndarray) -> np.ndarray:
        return product(F.evaluator(s), G.evaluator(s))

    derivative = None
    if F.derivative is not None and G.derivative is not None:
        def derivative(s: np.ndarray) -> np.ndarray:
            return (product(F.derivative(s), G.evaluator(s))
                    + product(F.evaluator(s), G.derivative(s)))

    return Symbol(
        name=f"({F.name})*({G.name})",
        evaluator=evaluator,
        mu=F.mu + G.mu,
        cf=CFModel(F.cf.scale * G.cf.scale, F.cf.exponent + G.cf.exponent),
        dims=(F.rows, G.cols),
        derivative=derivative,
    )


# --------------------------------------------------------------------------
# certificate validation
# --------------------------------------------------------------------------


def validate_growth(F: Symbol, samples: int, seed: int) -> VerificationReport:
    """Sample the half-plane and test ``||F(s)|| <= cf(Re s)|s|**mu``.

    Violations are reported, not raised: a failed report means the declared
    certificate is wrong and downstream bounds would be meaningless.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    (report,) = chunked_reports(
        lambda s: [(value_norm(F(s)), F.growth_bound(s))], {"s": sample_cplus(samples, seed)},
        {f"growth:{F.name}": {}}, seed=seed, tol=1e-10,
    )
    return report


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------


def from_spec(spec: str) -> Symbol:
    """Parse a symbol spec string: ``power:MU | delay:D | decay:A | resolvent:PATH``.

    The resolvent path may point at a ``.npy`` file or a plain-text matrix
    readable by ``numpy.loadtxt``; the default growth certificate is used
    and should be confirmed with :func:`validate_growth`.
    """
    kind, _, arg = spec.partition(":")
    kind = kind.strip().lower()
    arg = arg.strip()
    makers = {"power": make_power, "delay": make_delay, "decay": make_decay}
    if kind in makers:
        return makers[kind](float(arg))
    if kind == "resolvent":
        if not arg:
            raise ValueError("resolvent spec needs a matrix file path")
        if not os.path.exists(arg):
            raise FileNotFoundError(f"matrix file not found: {arg}")
        if arg.endswith(".npy"):
            mat = np.load(arg)
        else:
            mat = np.loadtxt(arg, dtype=complex, ndmin=2)
        return make_resolvent(mat)
    raise ValueError(f"unknown symbol spec {spec!r}")


def builtin_zoo() -> "dict[str, Symbol]":
    """The symbols exercised by the equivalence and round-trip tests."""
    zoo = {
        "power:0": make_power(0.0),
        "power:1": make_power(1.0),
        "power:-1": make_power(-1.0),
        "power:0.5": make_power(0.5),
        "delay:1.0": make_delay(1.0),
        "decay:1.0": make_decay(1.0),
        "resolvent:skew2": make_resolvent(np.array([[0.0, 1.0], [-1.0, 0.0]])),
    }
    return zoo
