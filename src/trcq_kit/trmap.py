"""Characteristic map of the trapezoidal rule and its majorant series.

Running the trapezoidal rule on a causal convolution amounts to replacing the
Laplace variable s by

    s_kappa = delta(exp(-kappa*s)) / kappa,   delta(zeta) = 2*(1 - zeta)/(1 + zeta),

where kappa is the time step.  This module is the scalar machinery around that
substitution:

* ``delta_char`` / ``s_kappa`` evaluate the map itself,
* ``q_ratio`` evaluates q(z) = (delta(exp(-z)) - z)/z**3, the relative
  consistency error of the rule, stably for small z,
* ``q_taylor_coeffs`` returns the even Taylor coefficients b_l of q, each
  the double nearest its exact rational value (from integer tangent numbers),
* ``D_eval`` and ``E_m_eval`` evaluate the majorant series

      D(sigma)   = sum_l |b_l| sigma**(2l),
      E_m(sigma) = max{D(sigma)**j : j = 1..m} * ((1 + sigma**2)**m - 1)/sigma**2,

  which control |delta(exp(-z))**m - z**m|,
* ``solve_c0`` finds the unique root of sigma**2 * D(sigma) = 1 in (0, pi),
* ``delta_power_diff`` evaluates delta(exp(-z))**m - z**m without cancellation,
* ``sample_cplus`` draws the standard right-half-plane sample cloud used by
  every randomized check in the package.

The b_l alternate in sign, so D is the closed form -q(i sigma) =
(2 tan(sigma/2) - sigma)/sigma**3; q, delta(exp(-z))**m - z**m and D share
one 16-term series below |z| = 0.5 and closed forms above it.  D has radius
of convergence pi and is evaluated on all of [0, pi).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "delta_char",
    "s_kappa",
    "q_taylor_coeffs",
    "q_ratio",
    "D_eval",
    "E_m_eval",
    "solve_c0",
    "delta_power_diff",
    "sample_cplus",
]

_PI = np.pi
_HALF_PI = 0.5 * np.pi

# ----------------------------------------------------------------------------
# Taylor coefficients of q
# ----------------------------------------------------------------------------

# b_308 is the last coefficient that is a normal double; b_309 is subnormal.
_MAX_TERMS = 309


def q_taylor_coeffs(L: int) -> np.ndarray:
    """First L Taylor coefficients b_l of q(z) = (delta(exp(-z)) - z)/z**3.

    delta(exp(-z)) = 2 tanh(z/2), so b_l = (-1)**(l+1) T_{l+2}/(4**(l+1) (2l+3)!)
    with T_k = 1, 2, 16, 272, ... the tangent numbers, built exactly in
    integers by Brent and Harvey's recurrence.  Python rounds each integer
    quotient correctly, so every b_l is the double nearest its exact value.
    """
    if not 1 <= L <= _MAX_TERMS:
        raise ValueError(f"need 1..{_MAX_TERMS} coefficients, got {L}")
    T = [0, 1] + [0] * L  # T[k] = T_k for k = 1..L+1
    for k in range(2, L + 2):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, L + 2):
        for j in range(k, L + 2):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    return np.array(
        [(-1) ** (l + 1) * T[l + 2] / (4 ** (l + 1) * math.factorial(2 * l + 3)) for l in range(L)]
    )


# ----------------------------------------------------------------------------
# The characteristic map
# ----------------------------------------------------------------------------

_POLE_TOL = 1e-300


def _unwrap(a: np.ndarray):
    return a[()] if a.ndim == 0 else a


def _as1d(x, dtype):
    """View x as a >= 1-d array plus a flag to restore scalar shape later."""
    arr = np.asarray(x, dtype=dtype)
    return np.atleast_1d(arr), arr.ndim == 0


def delta_char(zeta):
    """delta(zeta) = 2*(1 - zeta)/(1 + zeta), the TR characteristic function.

    For |zeta| < 1 the value has strictly positive real part.  The input dtype
    is preserved, so extended-precision contour evaluation passes through.
    """
    z = np.asarray(zeta)
    denom = 1.0 + z
    if np.any(np.abs(denom) < _POLE_TOL):
        raise ZeroDivisionError("delta(zeta) has a pole at zeta = -1")
    return _unwrap(2.0 * (1.0 - z) / denom)


def s_kappa(s, kappa):
    """The discrete Laplace variable s_kappa = (2/kappa)*tanh(kappa*s/2).

    Requires Re s > 0 and kappa in (0, 1]; ``kappa`` may be an array
    broadcastable against ``s``.  The result again has positive real part,
    with Re s_kappa >= min{Re s, 1}/2.
    """
    kap = np.asarray(kappa)
    if not np.all((kap > 0.0) & (kap <= 1.0)):
        raise ValueError(f"kappa must lie in (0, 1], got {kappa}")
    s = np.asarray(s)
    if np.any(np.real(s) <= 0.0):
        raise ValueError("s_kappa requires Re s > 0")
    return _unwrap((2.0 / kap) * np.tanh(0.5 * kap * s))


# ----------------------------------------------------------------------------
# q(z): stable evaluation and powers
# ----------------------------------------------------------------------------

_Q_CROSSOVER = 0.5
# 16 terms leave a series tail below 1e-26 at |z| = 0.5, far under 1e-14.
_Q_SERIES_TERMS = 16
_Q_COEFFS = q_taylor_coeffs(_Q_SERIES_TERMS)


def _q_series(z: np.ndarray) -> np.ndarray:
    if z.size == 0:  # an empty branch of a scalar call; skip the sweep
        return z
    z2 = z * z
    acc = np.full_like(z, _Q_COEFFS[-1])
    for coeff in _Q_COEFFS[-2::-1]:
        acc = acc * z2 + coeff
    return acc


def _q_direct(z: np.ndarray) -> np.ndarray:
    return (delta_char(np.exp(-z)) - z) / z**3


def q_ratio(z):
    """q(z) = (delta(exp(-z)) - z)/z**3 for Re z > 0, |z| < pi.

    delta(exp(-z)) - z ~ -z**3/12 cancels catastrophically near zero, so below
    |z| = 0.5 a truncated Taylor series is used; above, the direct formula.
    z = 0 returns the leading coefficient -1/12 by continuity.
    """
    z, was_scalar = _as1d(z, complex)
    az = np.abs(z)
    if np.any((np.real(z) <= 0.0) & (az > 0.0)):
        raise ValueError("q_ratio requires Re z > 0")
    if np.any(az >= _PI):
        raise ValueError("q_ratio requires |z| < pi")
    out = np.empty_like(z)
    small = az <= _Q_CROSSOVER
    out[small] = _q_series(z[small])
    out[~small] = _q_direct(z[~small])
    return out[0] if was_scalar else out


def delta_power_diff(z, m: int):
    """delta(exp(-z))**m - z**m evaluated without cancellation, for Re z > 0.

    Uses the telescoping a**m - b**m = (a - b) * sum_j a**j b**(m-1-j) with the
    difference a - b = z**3 * q(z) taken from the series branch when |z| is
    small.  Unlike the majorant bound, the value itself is defined on all of
    the right half-plane, so no |z| < pi restriction applies here.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    z, was_scalar = _as1d(z, complex)
    if np.any(np.real(z) <= 0.0):
        raise ValueError("delta_power_diff requires Re z > 0")
    small = np.abs(z) <= _Q_CROSSOVER
    diff = np.empty_like(z)
    zs = z[small]
    diff[small] = zs**3 * _q_series(zs)
    diff[~small] = delta_char(np.exp(-z[~small])) - z[~small]
    delta = z + diff
    acc = np.zeros_like(z)
    for j in range(m):
        acc += delta**j * z ** (m - 1 - j)
    out = diff * acc
    return out[0] if was_scalar else out


# ----------------------------------------------------------------------------
# Majorant series D and E_m
# ----------------------------------------------------------------------------

def D_eval(sigma):
    """D(sigma) = sum_l |b_l| sigma**(2l) for 0 <= sigma < pi, elementwise.

    The b_l alternate in sign with b_0 < 0, so D(sigma) = -q(i sigma) =
    (2 tan(sigma/2) - sigma)/sigma**3.  That closed form cancels near 0, so
    up to sigma = 0.5 the q series is summed at z = i sigma, where z**2 =
    -sigma**2 exactly; above, the closed form is used.  Both branches stay
    within 1e-14 relative of the exact series.  D grows without bound as
    sigma approaches the radius of convergence pi.
    """
    sig, was_scalar = _as1d(sigma, float)
    if not np.all((sig >= 0.0) & (sig < _PI)):
        raise ValueError("D is defined for 0 <= sigma < pi")
    out = np.empty_like(sig)
    small = sig <= _Q_CROSSOVER
    out[small] = -_q_series(1j * sig[small]).real
    big = sig[~small]
    out[~small] = (2.0 * np.tan(0.5 * big) - big) / big**3
    return out[0] if was_scalar else out


def E_m_eval(sigma, m: int):
    """E_m(sigma) = max{D**j : j=1..m} * ((1+sigma**2)**m - 1)/sigma**2.

    At sigma = 0 the second factor is taken by its limit m.  Requires m >= 1
    and 0 <= sigma < pi.
    """
    if m < 1:
        raise ValueError("E_m is defined for m >= 1")
    sig, was_scalar = _as1d(sigma, float)
    d = np.atleast_1d(D_eval(sig))
    out = np.maximum(d, d**m) * _power_ratio(sig * sig, m)
    return out[0] if was_scalar else out


def _power_ratio(x: np.ndarray, m: int) -> np.ndarray:
    """((1 + x)**m - 1)/x, continuously extended to m at x = 0."""
    out = np.full_like(x, float(m))
    nz = x > 0.0
    out[nz] = np.expm1(m * np.log1p(x[nz])) / x[nz]
    return out


@lru_cache(maxsize=None)
def solve_c0(tol: float = 1e-13) -> float:
    """The unique c0 in (0, pi) with c0**2 * D(c0) = 1, by bisection.

    x**2 D(x) is strictly increasing, runs from 0 to +inf on (0, pi), and the
    bracket [0.1, pi - 0.1] straddles the root, so plain bisection is safe.
    ``tol`` bounds the residual |c0**2 D(c0) - 1| as computed by
    :func:`D_eval`.  The root is computed once per ``tol`` and cached.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")

    def residual(x: float) -> float:
        return x * x * float(D_eval(x)) - 1.0

    lo, hi = 0.1, _PI - 0.1
    if residual(lo) >= 0.0 or residual(hi) <= 0.0:
        raise RuntimeError("bisection bracket does not straddle the root")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r = residual(mid)
        if abs(r) <= tol:
            return mid
        if r < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16 * hi:
            break
    mid = 0.5 * (lo + hi)
    if abs(residual(mid)) > tol:
        raise RuntimeError(f"bisection stalled; residual tolerance {tol} unreachable")
    return mid


# ----------------------------------------------------------------------------
# Half-plane sampling
# ----------------------------------------------------------------------------

def sample_cplus(count: int, seed, max_modulus=1e3, min_modulus: float = 1e-3) -> np.ndarray:
    """Random points in the open right half-plane, reproducible from the seed.

    Modulus is log-uniform in [min_modulus, max_modulus] and the argument
    uniform in (-pi/2 + 1e-6, pi/2 - 1e-6), which exercises both asymptotic
    regimes of every inequality checked in this package.  ``seed`` may also
    be a ``numpy.random.Generator`` to continue an existing stream, and
    ``max_modulus`` may be an array of per-sample caps (used when the sample
    domain depends on another random draw).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    hi = np.log(np.broadcast_to(np.asarray(max_modulus, dtype=float), (count,)))
    lo = np.log(min_modulus)
    if np.any(hi <= lo):
        raise ValueError("max_modulus must exceed min_modulus")
    modulus = np.exp(rng.uniform(lo, hi))
    angle = rng.uniform(-_HALF_PI + 1e-6, _HALF_PI - 1e-6, count)
    return modulus * np.exp(1j * angle)
