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
* ``solve_c0`` finds c0, the unique root of sigma**2 * D(sigma) = 1 in (0, pi);
  by the closed form of D below, that is the root of tan(c/2) = c,
* ``delta_power_diff`` evaluates delta(exp(-z))**m - z**m without cancellation,
  for a sequence of orders m from one evaluation of the defect,
* ``sample_cplus`` draws the standard right-half-plane sample cloud used by
  every randomized check in the package.

The b_l alternate in sign, so D is the closed form -q(i sigma) =
(2 tan(sigma/2) - sigma)/sigma**3; q, delta(exp(-z))**m - z**m and D share
one 16-term series below |z| = 0.5 and closed forms above it.  D has radius
of convergence pi and is evaluated on all of [0, pi).

Shape rule: each evaluator returns its argument's shape, 0-d included, and a
value's bits do not depend on that shape.  ``delta_power_diff`` and
``E_m_eval`` take a sequence of orders m and stack its values on a first axis.
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


def delta_char(zeta):
    """delta(zeta) = 2*(1 - zeta)/(1 + zeta), the TR characteristic function.

    For |zeta| < 1 the value has strictly positive real part.  The input dtype
    is preserved, so extended-precision contour evaluation passes through.
    """
    z = np.asarray(zeta)
    denom = 1.0 + z
    if np.any(np.abs(denom) < _POLE_TOL):
        raise ZeroDivisionError("delta(zeta) has a pole at zeta = -1")
    return 2.0 * (1.0 - z) / denom


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
    return (2.0 / kap) * np.tanh(0.5 * kap * s)


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


def q_ratio(z):
    """q(z) = (delta(exp(-z)) - z)/z**3 for Re z > 0, |z| < pi.

    delta(exp(-z)) - z ~ -z**3/12 cancels catastrophically near zero, so below
    |z| = 0.5 a truncated Taylor series is used; above, the direct formula.
    z = 0 returns the leading coefficient -1/12 by continuity.
    """
    z = np.asarray(z, dtype=complex)
    az = np.abs(z)
    if np.any((np.real(z) <= 0.0) & (az > 0.0)):
        raise ValueError("q_ratio requires Re z > 0")
    if np.any(az >= _PI):
        raise ValueError("q_ratio requires |z| < pi")
    out = np.empty_like(z)
    small = az <= _Q_CROSSOVER
    out[small] = _q_series(z[small])
    big = z[~small]
    out[~small] = (delta_char(np.exp(-big)) - big) / big**3
    return out


def _orders(m) -> "list[int]":
    """The sequence of orders ``m`` as a list, each at least 1."""
    orders = list(m)
    if not orders or min(orders) < 1:
        raise ValueError("m must be >= 1")
    return orders


def delta_power_diff(z, m):
    """delta(exp(-z))**m - z**m evaluated without cancellation, for Re z > 0.

    Uses the telescoping a**m - b**m = (a - b) * sum_j a**j b**(m-1-j) with the
    difference a - b = z**3 * q(z) taken from the series branch when |z| is
    small.  Unlike the majorant bound, the value itself is defined on all of
    the right half-plane, so no |z| < pi restriction applies here.

    ``m`` is a sequence of orders; the values are stacked along a new first
    axis.  The difference and the powers a**j, b**k are computed once for all
    orders, and each order sums its terms in the same order as a call for that
    order alone, so the bits agree.  The sampled suites call it on chunks of
    2^14 samples, which bounds the memory of the powers.
    """
    orders = _orders(m)
    z = np.asarray(z, dtype=complex)
    if np.any(np.real(z) <= 0.0):
        raise ValueError("delta_power_diff requires Re z > 0")
    small = np.abs(z) <= _Q_CROSSOVER
    diff = np.empty_like(z)
    zs = z[small]
    diff[small] = zs**3 * _q_series(zs)
    del zs
    diff[~small] = delta_char(np.exp(-z[~small])) - z[~small]
    # an array even for 0-d z: numpy's complex scalar z**2 rounds differently
    delta = np.add(z, diff, out=np.empty_like(z))
    # a**0 is 1 and a**1 is a, exactly, so only the powers from 2 up are stored
    top = max(orders)
    delta_pow = [1.0 + 0j, delta] + [delta**j for j in range(2, top)]
    z_pow = [1.0 + 0j, z] + [z**k for k in range(2, top)]
    out = np.empty((len(orders),) + z.shape, dtype=complex)
    acc = np.empty_like(z)
    for i, order in enumerate(orders):  # out[i, ...] is a view even for 0-d z
        acc.fill(0.0)
        for j in range(order):  # each row holds its terms before its value
            acc += np.multiply(delta_pow[j], z_pow[order - 1 - j], out=out[i, ...])
        np.multiply(diff, acc, out=out[i, ...])
    return out


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
    sig = np.asarray(sigma, dtype=float)
    if not np.all((sig >= 0.0) & (sig < _PI)):
        raise ValueError("D is defined for 0 <= sigma < pi")
    out = np.empty_like(sig)
    small = sig <= _Q_CROSSOVER
    out[small] = -_q_series(1j * sig[small]).real
    big = sig[~small]
    out[~small] = (2.0 * np.tan(0.5 * big) - big) / big**3
    return out


def E_m_eval(sigma, m):
    """E_m(sigma) = max{D**j : j=1..m} * ((1+sigma**2)**m - 1)/sigma**2.

    At sigma = 0 the second factor is taken by its limit m.  Requires m >= 1
    and 0 <= sigma < pi.  ``m`` is a sequence of orders; the values are
    stacked along a new first axis, from one evaluation of D.
    """
    orders = _orders(m)
    sig = np.asarray(sigma, dtype=float)
    d = D_eval(sig)
    x = sig * sig
    nz = x > 0.0
    log1p_x = np.log1p(x)
    out = np.empty((len(orders),) + sig.shape)
    for i, order in enumerate(orders):
        row = out[i, ...]
        # ((1 + x)**m - 1)/x, continuously extended to m at x = 0
        row.fill(order)
        np.divide(np.expm1(order * log1p_x), x, out=row, where=nz)
        row *= np.maximum(d, d**order)
    return out


@lru_cache(maxsize=None)
def solve_c0() -> float:
    """The unique c0 in (0, pi) with c0**2 * D(c0) = 1, i.e. tan(c0/2) = c0.

    D(x) = (2 tan(x/2) - x)/x**3, so x**2 D(x) = 1 exactly where tan(x/2) = x.
    tan(x/2) - x is negative on (0, c0) and positive on (c0, pi), so the
    bracket [0.1, pi - 0.1] is bisected until it holds two adjacent doubles;
    the upper one is returned, within one ulp of the root.  The root is
    computed once and cached.
    """
    lo, hi = 0.1, _PI - 0.1
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if math.tan(0.5 * mid) < mid else (lo, mid)
    return hi


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
    del hi
    angle = rng.uniform(-_HALF_PI + 1e-6, _HALF_PI - 1e-6, count)
    # built in place: one complex array besides the two draws
    out = np.multiply(1j, angle)
    del angle
    np.exp(out, out=out)
    out *= modulus
    return out
