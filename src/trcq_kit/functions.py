"""Shipped scalar causal test inputs with exact derivatives and transforms.

The error-bound experiments need input functions whose derivatives up to
order ~10 are available *analytically* (the bound's right-hand side
integrates high derivatives, and finite differences would pollute exactly
the quantity under study), and whose Laplace transform is known in closed
form with a decay certificate (the frequency-integral checks integrate it).
Every shipped input is ``g(t) = t**p * exp(-rate*t)``, held as data
(:class:`PolyExp`): the integer coefficients of its derivatives
``g^(k) = P_k(t) exp(-rate*t)``.  Three families cover every experiment;
derivatives are floats:

* ``poly_exp(p)`` -- ``t**p * exp(-t)``: ``P_{k+1} = P_k' - P_k`` on integer
  coefficient vectors; the transform is ``p! / (s+1)**(p+1)``.
* ``monomial(p)`` -- ``t**p`` with falling-factorial derivatives and
  transform ``p!/s**(p+1)``.
* ``zero()`` -- the zero input (degenerate edge cases).

The derivative callback, the transform and its decay certificate all come
from that data, and so do the values on a whole array of times
(:meth:`~trcq_kit.bounds.SmoothCausalFunction.on_grid`), bit for bit the
callback's: Horner runs in the same order on an array, and ``exp`` and
``pow`` are libm's, mapped over the array's entries, because numpy's own
differ from libm's in the last bit at some points.  So do the time integrals
of the error analysis, as exact sums (:meth:`PolyExp.time_l1`).

``exact_solution`` returns the closed-form time action of a built-in symbol
applied to one of these inputs, when one is known, as a 1-vector comparable
with a signal row; convergence and bound experiments refuse to run without
one.  The closed forms also evaluate a whole grid at once, by the same
rules; a series branch runs on all its nodes at once, each node stopping
where its own loop would.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat, zip_longest
from typing import Callable

import numpy as np

from .bounds import SmoothCausalFunction

__all__ = ["PolyExp", "poly_exp", "monomial", "zero", "parse_g", "exact_solution"]

# the largest p whose p! (the transform numerator) is a finite double
MAX_POWER = 170


def _check_power(p: int) -> None:
    if not 0 <= p <= MAX_POWER:
        raise ValueError(f"p must lie in 0..{MAX_POWER} (p! must fit a double), got {p}")


# --------------------------------------------------------------------------
# input families
# --------------------------------------------------------------------------


def _horner_ascending(coeffs: "list[float]", t):
    """The polynomial with ascending ``coeffs`` at a float or an array ``t``."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


# libm's exp and pow at a float, or at each entry of an array: numpy's own
# exp and power differ from libm's in the last bit at some points


def _exp(x):
    if isinstance(x, np.ndarray):
        return np.fromiter(map(math.exp, x.tolist()), float, x.size)
    return math.exp(x)


def _pow(t, e):
    if isinstance(t, np.ndarray):
        return np.fromiter(map(pow, t.tolist(), repeat(e)), float, t.size)
    return t ** e


def _exact_at(row: "list[int] | tuple[int, ...]", x: float) -> "tuple[int, int]":
    """``(d**deg * row(x), d**deg)`` on ints for the double ``x = n/d``, by Horner."""
    n, d = x.as_integer_ratio()
    acc, d_pow = row[-1], 1
    for c in reversed(row[:-1]):
        d_pow *= d
        acc = acc * n + c * d_pow
    return acc, d_pow


@lru_cache(maxsize=None)
def _sign_changes(row: "tuple[int, ...]") -> "tuple[float, ...]":
    """Ascending doubles in ``(0, inf)``, each within one ulp of a root, between which
    the integer polynomial ``row`` keeps one sign: ``row`` is monotone between the
    sign changes of its derivative (Collins & Loos, SYMSAC 1976), so each such
    interval holds at most one root, bisected on exact signs."""

    def nonneg(x: float) -> bool:  # a root that is a double joins the positive side
        return _exact_at(row, x)[0] >= 0

    while row and row[0] == 0:  # a factor t**j keeps the sign on t > 0
        row = row[1:]
    if len(row) < 2:
        return ()
    # every root lies below 1 + max|c/lead| (Cauchy); doubled against rounding
    bound = 2.0 * (2 + max(abs(c) // abs(row[-1]) for c in row[:-1]))
    points = [0.0, *_sign_changes(tuple(i * c for i, c in enumerate(row))[1:]), bound]
    cuts = []
    for a, b in zip(points, points[1:]):
        if (sa := nonneg(a)) != nonneg(b):
            while (mid := 0.5 * (a + b)) not in (a, b):
                a, b = (mid, b) if nonneg(mid) == sa else (a, mid)
            cuts.append(b)
    return tuple(cuts)


@dataclass(frozen=True)
class PolyExp:
    """A shipped input as data: ``g^(k)(t) = P_k(t) exp(-rate*t)`` for
    ``k = 0..len(table)-1``, where ``table[k]`` lists the integer coefficients
    of ``P_k`` in ascending order.

    The family fixes the rate and the evaluation rule:

    * ``poly`` -- ``P_0 = t**p``, rate 1: Horner on ``P_k`` times ``exp(-t)``;
    * ``mono`` -- ``P_0 = t**p``, rate 0: ``P_k`` is the one term
      ``p!/(p-k)! t**(p-k)``, evaluated with ``pow`` (not Horner, whose
      repeated products are not ``pow``'s bits), and 0 past order p;
    * ``zero`` -- every ``P_k`` is 0.
    """

    family: str
    p: int
    max_order: int
    table: "tuple[tuple[int, ...], ...]" = field(init=False, repr=False, compare=False)
    _coeffs: "list[list[float]]" = field(init=False, repr=False, compare=False)
    _fact: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        row = [0] * self.p + [1] if self.family != "zero" else []
        table = [row]
        for _ in range(self.max_order):
            deriv = [i * c for i, c in enumerate(row)][1:]
            row = [d - c for d, c in zip(deriv + [0], row)] if self.family == "poly" else deriv
            table.append(row)
        object.__setattr__(self, "table", tuple(map(tuple, table)))
        object.__setattr__(self, "_coeffs", [list(map(float, row)) for row in table])
        object.__setattr__(self, "_fact", float(math.factorial(self.p)))

    @property
    def name(self) -> str:
        return {"poly": f"poly{self.p}exp", "mono": f"mono:{self.p}", "zero": "zero"}[self.family]

    def values(self, t, k: int):
        """``g^(k)`` at a float ``t >= 0``, or at each entry of an array of them.
        ``pow`` raises ``OverflowError`` where ``t**(p-k)`` leaves the double range."""
        coeffs = self._coeffs[k]
        if self.family == "poly":
            return _horner_ascending(coeffs, t) * _exp(-t)
        if not coeffs:
            return np.zeros(t.shape) if isinstance(t, np.ndarray) else 0.0
        return coeffs[-1] * _pow(t, len(coeffs) - 1)

    def derivative(self, t: float, k: int) -> float:
        """``g^(k)(t)`` at one time, the input's derivative callback."""
        try:
            return self.values(t, k)
        except OverflowError:
            raise ValueError(f"{self.name} overflows a double at t = {t:.17g}") from None

    def laplace(self, s):
        """``G(s) = p!/(s + rate)**(p+1)``, 0 for the zero input."""
        if self.family == "zero":
            return np.zeros_like(np.asarray(s, dtype=complex))
        return self._fact / (s + 1.0 if self.family == "poly" else s) ** (self.p + 1)

    @property
    def laplace_decay(self) -> "tuple[float, float]":
        """``(C, q)`` with ``|G(s)| <= C/|s|**q`` on the half-plane."""
        if self.family == "zero":
            return (0.0, 2.0)
        return (self._fact, float(self.p + 1))

    def leibniz_row(self, k: int, m: int) -> "tuple[int, ...]":
        """The integer coefficients, ascending, of ``R`` with ``P_m g^(k) = R
        exp(-rate*t)``: by Leibniz, ``P_m h = exp(-t) d^m/dt^m [exp(t) h] = sum_l
        C(m, l) h^(l)``, so ``R = sum_l C(m, l) P_{k+l}``, whose top powers cancel."""
        terms = [[math.comb(m, ell) * c for c in self.table[k + ell]] for ell in range(m + 1)]
        row = list(map(sum, zip_longest(*terms, fillvalue=0)))
        while row and row[-1] == 0:
            row.pop()
        return tuple(row)

    def time_l1(self, k: int, m: int, t_end: float) -> float:
        """``int_0^t_end |P_m g^(k)|``, ``0 < t_end <= inf``: the sign changes of ``R``
        (:meth:`leibniz_row`) cut it into pieces, each adding ``|A(b) - A(a)|`` for
        ``A = -S exp(-t)``, ``S = R + R' + R'' + ...`` (poly), or ``A = int R`` (mono),
        whose integer coefficients over one denominator round ``A`` once, by int/int.
        ``ValueError`` where ``A`` leaves the double range; ``RuntimeError`` for a
        nonzero ``mono`` integrand to inf."""
        row = self.leibniz_row(k, m)
        if self.family == "poly":
            den, anti = 1, [sum(c * math.perm(i, i - j) for i, c in enumerate(row[j:], j))
                            for j in range(len(row))]
        elif row and t_end == math.inf:
            raise RuntimeError("time integrand does not decay; integral did not localize")
        else:
            den = math.lcm(*range(1, len(row) + 1))
            anti = [0] + [den // (i + 1) * c for i, c in enumerate(row)]

        def value(x: float) -> float:
            if x == math.inf:  # poly: S exp(-t) -> 0; mono: only a zero row gets here
                return 0.0
            num, d_pow = _exact_at(anti, x)
            try:
                a = num / (den * d_pow)
            except OverflowError:
                raise ValueError(f"{self.name} overflows a double at t = {x:.17g}") from None
            return -a * math.exp(-x) if self.family == "poly" else a

        cuts = [x for x in _sign_changes(row) if x < t_end]
        values = [value(x) for x in [0.0, *cuts, t_end]]
        return math.fsum(abs(b - a) for a, b in zip(values, values[1:]))

    def as_input(self) -> SmoothCausalFunction:
        return SmoothCausalFunction(
            name=self.name,
            max_order=self.max_order,
            derivative=self.derivative,
            laplace=self.laplace,
            laplace_decay=self.laplace_decay,
            data=self,
        )


def poly_exp(p: int) -> SmoothCausalFunction:
    """``g(t) = t**p * exp(-t)`` with exact derivatives of orders 0..16.

    Writing ``g^(k) = P_k(t) exp(-t)``, the polynomials obey
    ``P_{k+1} = P_k' - P_k`` starting from ``P_0 = t**p``; their integer
    coefficients are rounded once to doubles.
    """
    _check_power(p)
    return PolyExp("poly", p, 16).as_input()


def monomial(p: int) -> SmoothCausalFunction:
    """``g(t) = t**p`` with derivatives of orders 0..64: falling factorials,
    zero past order p."""
    _check_power(p)
    return PolyExp("mono", p, 64).as_input()


def zero() -> SmoothCausalFunction:
    return PolyExp("zero", 0, 64).as_input()


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


def _series_on_grid(x: np.ndarray, term: float, acc: float, grow: Callable, add: Callable):
    """The scalar series loops below at every entry of the 1-d array ``x`` at
    once: for ``j = 1, 2, ...``, ``term = grow(term, x, j)`` and ``acc +=
    add(term, j)``, each entry stopping at its own first ``add(term, j) <
    1e-17 * acc``.  Every entry is summed in its scalar loop's order, so it
    gets that loop's bits."""
    out = np.empty(x.shape)
    live = np.arange(x.size)
    term, acc = np.full(x.shape, term), np.full(x.shape, acc)
    j = 1
    while live.size:
        term = grow(term, x, j)
        contrib = add(term, j)
        acc = acc + contrib
        stop = contrib < 1e-17 * acc
        out[live[stop]] = acc[stop]
        keep = ~stop
        live, x, term, acc = live[keep], x[keep], term[keep], acc[keep]
        j += 1
    return out


def _poly_exp_integral(p: int) -> "tuple[Callable, Callable]":
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

    def rule(t: np.ndarray) -> np.ndarray:
        out = np.empty(t.shape)
        high = t > p + 1.0
        th, tl = t[high], t[~high]
        out[high] = fact - _exp(-th) * _horner_ascending(coeffs, th)
        acc = _series_on_grid(tl, 1.0 / (p + 1), 1.0 / (p + 1),
                              lambda term, x, k: term * (x / (p + 1 + k)),
                              lambda term, k: term)
        out[~high] = _pow(tl, p + 1) * _exp(-tl) * acc
        return out

    return action, _on_positive(rule)


def _decay_monomial(a: float, p: int) -> "tuple[Callable, Callable]":
    # (e^{-a .} * tau^p)(t) = e^{-a t} int_0^t e^{a tau} tau^p dtau = M(a t)/a^{p+1}
    # with M(x) = sum_{k<=p} (-1)^k p!/(p-k)! x^{p-k} - (-1)^p p! e^{-x}, computed
    # as t^{p+1} M(x)/x^{p+1}: a^{p+1} underflows to 0 for small a.  The
    # alternating form cancels catastrophically for small x, so below x = p+1
    # the all-positive series M(x)/x^{p+1} = e^{-x} sum_j x^j/(j! (p+1+j)) is
    # summed instead; above it, in powers of 1/x < 1, nothing overflows.
    fact = math.factorial(p)
    signed = [(-1.0) ** k * (fact / math.factorial(p - k)) for k in range(p + 1)]

    def action(t: float) -> float:
        if t <= 0.0:
            return 0.0
        x = a * t
        if x > p + 1.0:
            y = 1.0 / x
            acc = -((-1.0) ** p) * fact * math.exp(-x) * y ** (p + 1)
            for k in range(p + 1):
                acc += signed[k] * y ** (k + 1)
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

    def rule(t: np.ndarray) -> np.ndarray:
        out = np.empty(t.shape)
        x = a * t
        high = x > p + 1.0
        y = 1.0 / x[high]
        acc = -((-1.0) ** p) * fact * _exp(-x[high]) * _pow(y, p + 1)
        for k in range(p + 1):
            acc += signed[k] * _pow(y, k + 1)
        out[high] = _pow(t[high], p + 1) * acc
        xl, tl = x[~high], t[~high]
        acc = _series_on_grid(xl, 1.0, 1.0 / (p + 1),
                              lambda term, x, j: term * (x / j),
                              lambda term, j: term / (p + 1 + j))
        out[~high] = _pow(tl, p + 1) * _exp(-xl) * acc
        return out

    return action, _on_positive(rule)


def _on_positive(rule: Callable) -> Callable:
    """``rule`` on the positive entries of an array of times, 0 elsewhere;
    ``rule`` never sees a time that is not positive."""

    def on_grid(t: np.ndarray) -> np.ndarray:
        out = np.zeros(t.shape)
        positive = t > 0.0
        out[positive] = rule(t[positive])
        return out

    return on_grid


def _at_positive(rule: Callable) -> "tuple[Callable, Callable]":
    """A closed form that is ``rule(t)`` at ``t > 0`` and 0 elsewhere, as the
    pair ``(at one time, on an array of times)``; ``rule`` takes both."""

    def action(t: float) -> float:
        return rule(t) if t > 0.0 else 0.0

    return action, _on_positive(rule)


def _exact_action(symbol_spec: str, g_spec: str) -> "tuple[Callable, Callable] | None":
    """The closed form as ``(at one time, on an array of times)``."""
    kind, _, arg = symbol_spec.strip().partition(":")
    kind = kind.strip().lower()
    g = parse_g(g_spec)
    family, p = g.data.family, g.data.p

    if family == "zero":
        return (lambda t: 0.0), np.zeros_like

    if kind == "delay":
        d = float(arg)
        return (lambda t: g.deriv(t - d, 0)), (lambda t: g.on_grid(t - d, 0))

    if kind == "power":
        mu = float(arg)
        if family == "mono":
            if p - mu <= -1.0:
                return None
            try:
                coeff = math.gamma(p + 1) / math.gamma(p + 1 - mu)
            except OverflowError:  # the ratio itself may still fit a double
                coeff = math.exp(math.lgamma(p + 1) - math.lgamma(p + 1 - mu))
            return _at_positive(lambda t: coeff * _pow(t, p - mu))
        if mu in (0.0, 1.0):
            k = int(mu)
            return (lambda t: g.deriv(t, k)), (lambda t: g.on_grid(t, k))
        if mu == -1.0:
            return _poly_exp_integral(p)

    if kind == "decay":
        a = float(arg)
        if family == "mono":
            return _decay_monomial(a, p)
        if a == 1.0:
            # e^{-t} * t^p e^{-t} = e^{-t} int_0^t tau^p dtau
            return _at_positive(lambda t: _exp(-t) * _pow(t, p + 1) / (p + 1))

    return None


def exact_solution(symbol_spec: str, g_spec: str) -> "Callable[[float], tuple] | None":
    """Closed-form value of (symbol applied to g) at time t, as a 1-tuple
    (it is compared with a signal row), when known.

    Supported pairs: any symbol on ``zero``; ``delay:d`` on anything;
    ``power:mu`` on ``mono:p`` (Riemann-Liouville ``Gamma(p+1)/Gamma(p+1-mu)
    t^(p-mu)``); ``power:{-1,0,1}`` on ``poly<p>exp``; ``decay:a`` on
    ``mono:p``; ``decay:1`` on ``poly<p>exp``.  Returns ``None`` otherwise.
    A reference that is not finite (it overflows) raises ``ValueError`` naming the pair.

    The returned function also has ``on_grid(nodes)``, its values at an
    array of times at once, bit for bit, for
    :func:`~trcq_kit.convolution.sample`.  It raises the same ``ValueError``
    at the first time that is not finite, and ``OverflowError`` where a power
    overflows (the per-time function names that time).  ``power:-1`` on
    ``poly<p>exp`` and ``decay:a`` on ``mono:p`` sum a series below their
    switch point (``t = p+1``, resp. ``a*t = p+1``); on a grid, each node
    stops its series where its own loop would.
    """
    reference = f"the closed-form reference for symbol {symbol_spec!r} on input {g_spec!r}"
    try:
        actions = _exact_action(symbol_spec, g_spec)
    except OverflowError:
        raise ValueError(f"{reference} overflows a double") from None
    if actions is None:
        return None
    action, grid_action = actions

    def exact(t: float) -> tuple:
        try:
            value = action(t)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"{reference} overflows a double at t = {t:.17g}")
        return (value,)

    def on_grid(nodes: np.ndarray) -> np.ndarray:
        # inf and nan entries are reported below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            values = grid_action(nodes)
        bad = ~np.isfinite(values)
        if bad.any():
            t = nodes[int(np.argmax(bad))]
            raise ValueError(f"{reference} overflows a double at t = {t:.17g}")
        return values

    exact.on_grid = on_grid
    return exact
