"""Shipped scalar causal test inputs with exact derivatives and transforms.

The error-bound experiments need input functions whose derivatives up to
order ~10 are available *analytically* (the bound's right-hand side
integrates high derivatives, and finite differences would pollute exactly
the quantity under study), and whose Laplace transform is known in closed
form with a decay certificate (the frequency-integral checks integrate it).
Three scalar families cover every experiment; derivatives are floats:

* ``poly_exp(p)`` -- ``t**p * exp(-t)``: derivatives stay in the ring
  ``polynomial * exp(-t)`` and are generated exactly by the recurrence
  ``P_{k+1} = P_k' - P_k`` on integer coefficient vectors; the transform is
  ``p! / (s+1)**(p+1)``.
* ``monomial(p)`` -- ``t**p`` with falling-factorial derivatives and
  transform ``p!/s**(p+1)``.
* ``zero()`` -- the zero input (degenerate edge cases).

``exact_solution`` returns the closed-form time action of a built-in symbol
applied to one of these inputs, when one is known, as a 1-vector comparable
with a signal row; convergence and bound experiments refuse to run without
one.
"""

from __future__ import annotations

import math
import re
from typing import Callable

import numpy as np

from .bounds import SmoothCausalFunction

__all__ = ["poly_exp", "monomial", "zero", "parse_g", "exact_solution"]

# the largest p whose p! (the transform numerator) is a finite double
MAX_POWER = 170


def _check_power(p: int) -> None:
    if not 0 <= p <= MAX_POWER:
        raise ValueError(f"p must lie in 0..{MAX_POWER} (p! must fit a double), got {p}")


# --------------------------------------------------------------------------
# input families
# --------------------------------------------------------------------------


def _horner_ascending(coeffs: "list[float]", t: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def poly_exp(p: int) -> SmoothCausalFunction:
    """``g(t) = t**p * exp(-t)`` with exact derivatives of orders 0..16.

    Writing ``g^(k) = P_k(t) exp(-t)``, the polynomials obey
    ``P_{k+1} = P_k' - P_k`` starting from ``P_0 = t**p``; the integer
    coefficients stay far below 2**53 for the shipped orders, so float
    evaluation is exact.
    """
    _check_power(p)
    cur = [0] * p + [1]
    table = [cur]
    for _ in range(16):
        deriv = [cur[i] * i for i in range(1, len(cur))]
        deriv.append(0)
        cur = [d - c for d, c in zip(deriv, cur)]
        table.append(cur)
    coeff_table = [list(map(float, row)) for row in table]

    def derivative(t: float, k: int) -> float:
        return _horner_ascending(coeff_table[k], t) * math.exp(-t)

    fact = float(math.factorial(p))
    return SmoothCausalFunction(
        name=f"poly{p}exp",
        max_order=len(coeff_table) - 1,
        derivative=derivative,
        laplace=lambda s: fact / (s + 1.0) ** (p + 1),
        laplace_decay=(fact, float(p + 1)),
    )


def monomial(p: int) -> SmoothCausalFunction:
    """``g(t) = t**p`` with derivatives of orders 0..64: falling factorials,
    zero past order p."""
    _check_power(p)

    def derivative(t: float, k: int) -> float:
        if k > p:
            return 0.0
        coeff = math.factorial(p) / math.factorial(p - k)
        try:
            power = t ** (p - k)
        except OverflowError:
            raise ValueError(f"mono:{p} overflows a double at t = {t:.17g}") from None
        return coeff * power

    fact = float(math.factorial(p))
    return SmoothCausalFunction(
        name=f"mono:{p}",
        max_order=64,
        derivative=derivative,
        laplace=lambda s: fact / s ** (p + 1),
        laplace_decay=(fact, float(p + 1)),
    )


def zero() -> SmoothCausalFunction:
    return SmoothCausalFunction(
        name="zero",
        max_order=64,
        derivative=lambda t, k: 0.0,
        laplace=lambda s: np.zeros_like(np.asarray(s, dtype=complex)),
        laplace_decay=(0.0, 2.0),
    )


def parse_g(spec: str) -> SmoothCausalFunction:
    """Input registry: ``poly5exp`` (any ``poly<p>exp``), ``mono:<p>``, ``zero``."""
    spec = spec.strip()
    m = re.fullmatch(r"poly(\d+)exp", spec)
    if m:
        return poly_exp(int(m.group(1)))
    m = re.fullmatch(r"mono:(\d+)", spec)
    if m:
        return monomial(int(m.group(1)))
    if spec == "zero":
        return zero()
    raise ValueError(f"unknown input spec {spec!r} (try poly5exp, mono:7, zero)")


# --------------------------------------------------------------------------
# exact time actions
# --------------------------------------------------------------------------


def _poly_exp_integral(p: int) -> Callable[[float], float]:
    # int_0^t tau^p e^-tau dtau.  The textbook form p! - e^-t sum p!/k! t^k
    # cancels catastrophically for small t, so below t = p+1 we sum the
    # all-positive series t^{p+1} e^{-t} sum_k t^k p!/(p+1+k)! instead.
    fact = math.factorial(p)
    coeffs = [fact / math.factorial(k) for k in range(p + 1)]

    def action(t: float) -> float:
        if t <= 0.0:
            return 0.0
        if t > p + 1.0:
            return fact - math.exp(-t) * _horner_ascending(coeffs, t)
        term = 1.0 / (p + 1)
        acc = term
        k = 1
        while True:
            term *= t / (p + 1 + k)
            acc += term
            if term < 1e-17 * acc:
                break
            k += 1
        return t ** (p + 1) * math.exp(-t) * acc

    return action


def _decay_monomial(a: float, p: int) -> Callable[[float], float]:
    # (e^{-a .} * tau^p)(t) = e^{-a t} int_0^t e^{a tau} tau^p dtau = M(a t)/a^{p+1}
    # with M(x) = sum_{k<=p} (-1)^k p!/(p-k)! x^{p-k} - (-1)^p p! e^{-x}, computed
    # as t^{p+1} M(x)/x^{p+1}: a^{p+1} underflows to 0 for small a.  The
    # alternating form cancels catastrophically for small x, so below x = p+1
    # the all-positive series M(x)/x^{p+1} = e^{-x} sum_j x^j/(j! (p+1+j)) is
    # summed instead; above it, in powers of 1/x < 1, nothing overflows.
    fact = math.factorial(p)

    def action(t: float) -> float:
        if t <= 0.0:
            return 0.0
        x = a * t
        if x > p + 1.0:
            y = 1.0 / x
            acc = -((-1.0) ** p) * fact * math.exp(-x) * y ** (p + 1)
            for k in range(p + 1):
                acc += (-1.0) ** k * (fact / math.factorial(p - k)) * y ** (k + 1)
            return t ** (p + 1) * acc
        term = 1.0  # x**j / j!
        acc = 1.0 / (p + 1)
        j = 1
        while True:
            term *= x / j
            contrib = term / (p + 1 + j)
            acc += contrib
            if contrib < 1e-17 * acc:
                break
            j += 1
        return t ** (p + 1) * math.exp(-x) * acc

    return action


def _exact_action(symbol_spec: str, g_spec: str) -> "Callable[[float], float] | None":
    kind, _, arg = symbol_spec.strip().partition(":")
    kind = kind.strip().lower()
    g = parse_g(g_spec)

    if g.name == "zero":
        return lambda t: 0.0

    if kind == "delay":
        d = float(arg)
        return lambda t: g.deriv(t - d, 0)

    poly_match = re.fullmatch(r"poly(\d+)exp", g.name)
    mono_match = re.fullmatch(r"mono:(\d+)", g.name)

    if kind == "power":
        mu = float(arg)
        if mono_match:
            p = int(mono_match.group(1))
            if p - mu <= -1.0:
                return None
            try:
                coeff = math.gamma(p + 1) / math.gamma(p + 1 - mu)
            except OverflowError:  # the ratio itself may still fit a double
                coeff = math.exp(math.lgamma(p + 1) - math.lgamma(p + 1 - mu))
            return lambda t: coeff * t ** (p - mu) if t > 0.0 else 0.0
        if poly_match:
            p = int(poly_match.group(1))
            if mu == 0.0:
                return lambda t: g.deriv(t, 0)
            if mu == 1.0:
                return lambda t: g.deriv(t, 1)
            if mu == -1.0:
                return _poly_exp_integral(p)

    if kind == "decay":
        a = float(arg)
        if mono_match:
            return _decay_monomial(a, int(mono_match.group(1)))
        if poly_match and a == 1.0:
            p = int(poly_match.group(1))
            # e^{-t} * t^p e^{-t} = e^{-t} int_0^t tau^p dtau
            return lambda t: math.exp(-t) * t ** (p + 1) / (p + 1) if t > 0.0 else 0.0

    return None


def exact_solution(symbol_spec: str, g_spec: str) -> "Callable[[float], tuple] | None":
    """Closed-form value of (symbol applied to g) at time t, as a 1-tuple
    (it is compared with a signal row), when known.

    Supported pairs: any symbol on ``zero``; ``delay:d`` on anything;
    ``power:mu`` on ``mono:p`` (Riemann-Liouville ``Gamma(p+1)/Gamma(p+1-mu)
    t^(p-mu)``); ``power:{-1,0,1}`` on ``poly<p>exp``; ``decay:a`` on
    ``mono:p``; ``decay:1`` on ``poly<p>exp``.  Returns ``None`` otherwise.
    A reference that is not finite (it overflows) raises ``ValueError`` naming the pair.
    """
    reference = f"the closed-form reference for symbol {symbol_spec!r} on input {g_spec!r}"
    try:
        action = _exact_action(symbol_spec, g_spec)
    except OverflowError:
        raise ValueError(f"{reference} overflows a double") from None
    if action is None:
        return None

    def exact(t: float) -> tuple:
        try:
            value = action(t)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"{reference} overflows a double at t = {t:.17g}")
        return (value,)

    return exact
