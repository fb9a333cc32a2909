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

The input is that data: its name, orders, transform and decay certificate
come from it, and its values are one rule on arrays of times
(:meth:`PolyExp.on_grid`); the derivative callback behind ``g.deriv(t, k)``
and ``g(t)`` is that rule at one time.  Horner runs on the array, and
``exp`` and ``pow`` are libm's, mapped over the array's entries, because
numpy's own differ from libm's in the last bit at some points.  A ``pow``
that overflows gives ``inf`` for its entry, and the caller's one non-finite
check names the first such time.  The time integrals of the error analysis
are exact sums on the same data (:meth:`PolyExp.time_l1`).

``exact_solution(F, g)`` returns the closed-form time action of a built-in
symbol on one of these inputs, dispatched on ``F.data`` and the input's
family and power, as a 1-tuple comparable with a signal row; any other pair
raises the one ``ValueError`` that names the supported ones, so convergence
and bound experiments refuse to run.  Each closed form is written once, as a
rule on an array of times; a series branch runs on all its nodes at once,
each node stopping where its own series does.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat, zip_longest
from typing import Callable

import numpy as np

from .symbols import Symbol, from_spec

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
    """The polynomial with ascending ``coeffs`` at each entry of the array ``t``."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


# libm's exp and pow at each entry of an array: numpy's own exp and power
# differ from libm's in the last bit at some points


def _exp(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.exp, x.tolist()), float, x.size)


def _pow_or_inf(t: float, e: float) -> float:
    try:
        return t ** e
    except OverflowError:  # Python's pow raises where C's gives inf
        return math.inf


def _pow(t: np.ndarray, e: float) -> np.ndarray:
    """``t**e`` at each entry, ``inf`` where it overflows."""
    return np.fromiter(map(_pow_or_inf, t.tolist(), repeat(e)), float, t.size)


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
    """A shipped causal input as data: ``g^(k)(t) = P_k(t) exp(-rate*t)`` for
    ``t >= 0`` and ``k = 0..max_order``, where ``table[k]`` lists the integer
    coefficients of ``P_k`` in ascending order, and ``g^(k)(t) = 0`` for ``t < 0``.

    The family fixes the rate and the evaluation rule:

    * ``poly`` -- ``P_0 = t**p``, rate 1: Horner on ``P_k`` times ``exp(-t)``;
    * ``mono`` -- ``P_0 = t**p``, rate 0: ``P_k`` is the one term
      ``p!/(p-k)! t**(p-k)``, evaluated with ``pow`` (not Horner, whose
      repeated products are not ``pow``'s bits), and 0 past order p;
    * ``zero`` -- every ``P_k`` is 0.

    ``derivative(t, k)`` is the per-time callback behind :meth:`deriv` and
    ``g(t)``: by default :meth:`on_grid` on one time.  It is a field, so a copy
    (``dataclasses.replace``) may count its calls; :meth:`on_grid` never
    calls it.
    """

    family: str
    p: int
    max_order: int
    derivative: "Callable[[float, int], float] | None" = field(
        default=None, repr=False, compare=False
    )
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
        if self.derivative is None:
            object.__setattr__(
                self, "derivative", lambda t, k: float(self.on_grid(np.array([t]), k)[0])
            )

    @property
    def name(self) -> str:
        return {"poly": f"poly{self.p}exp", "mono": f"mono:{self.p}", "zero": "zero"}[self.family]

    def _check_order(self, k: int) -> None:
        if not (0 <= k <= self.max_order):
            raise ValueError(
                f"{self.name} supports derivative orders 0..{self.max_order}, got {k}"
            )

    def on_grid(self, t: np.ndarray, k: int = 0) -> np.ndarray:
        """``g^(k)`` at every entry of the float array ``t`` at once.  ``ValueError``
        names the first entry where ``mono``'s ``t**(p-k)`` leaves the double
        range; a Horner value that does is left ``inf`` or ``nan`` for the caller
        to report."""
        self._check_order(k)
        out = np.zeros(t.shape)
        ahead = ~(t < 0.0)
        t, coeffs = t[ahead], self._coeffs[int(k)]
        # inf and nan entries are the caller's to report, not numpy's to warn about
        with np.errstate(over="ignore", invalid="ignore"):
            if self.family == "poly":
                out[ahead] = _horner_ascending(coeffs, t) * _exp(-t)
            elif coeffs:
                power = _pow(t, len(coeffs) - 1)
                over = np.isinf(power)
                if over.any():
                    at = t[int(np.argmax(over))]
                    raise ValueError(f"{self.name} overflows a double at t = {at:.17g}")
                out[ahead] = coeffs[-1] * power
        return out

    def deriv(self, t: float, k: int = 0) -> float:
        """``g^(k)(t)`` at one time, through the ``derivative`` callback."""
        self._check_order(k)
        if t < 0.0:
            return 0.0
        return self.derivative(float(t), int(k))

    def __call__(self, t: float) -> float:
        return self.deriv(t, 0)

    def require(self, order: int, purpose: str) -> None:
        """Refuse this input for an estimate built on its derivatives up to
        ``order``: the data must reach that order, and ``g^(k)(0) = 0`` for
        ``k < order`` (without which ``s^k G`` is not the transform of ``g^(k)``:
        the compatibility condition of convolution quadrature).
        """
        if self.max_order < order:
            raise ValueError(
                f"{self.name} supports orders up to {self.max_order}; {purpose} needs {order}"
            )
        for k in range(order):
            value = self.deriv(0.0, k)
            if value != 0.0:
                raise ValueError(
                    f"{self.name} has g^({k})(0) = {value:g}; "
                    f"{purpose} needs g^(k)(0) = 0 for k < {order}"
                )

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
        C(m, l) h^(l)``, so ``R = sum_l C(m, l) P_{k+l}``, whose top powers cancel.
        ``ValueError`` where ``k + m`` passes :attr:`max_order`."""
        if k + m > self.max_order:
            raise ValueError(
                f"{self.name} supports orders up to {self.max_order}; P_{m} g^({k}) needs {k + m}"
            )
        terms = [[math.comb(m, ell) * c for c in self.table[k + ell]] for ell in range(m + 1)]
        row = list(map(sum, zip_longest(*terms, fillvalue=0)))
        while row and row[-1] == 0:
            row.pop()
        return tuple(row)

    def time_l1(self, k: int, m: int, t_end: float) -> float:
        """``int_0^t_end |P_m g^(k)|``, ``0 < t_end <= inf``: the sign changes of ``R``
        (:meth:`leibniz_row`) cut it into pieces, each adding ``|A(b) - A(a)|`` for
        ``A = -S exp(-t)``, ``S = R + R' + R'' + ...`` (poly), or ``A = int R`` (mono).
        ``S`` and ``int R`` are exact on their integer coefficients over one
        denominator, and ``A`` is rounded once, by int/int: for poly, after the
        exact ``S`` is multiplied by the double ``exp(-t)``, so a large ``S``
        with a small product stays finite.  ``ValueError`` where ``A`` leaves the
        double range; ``RuntimeError`` for a nonzero ``mono`` integrand to inf."""
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
            if self.family == "poly":
                e_num, e_den = math.exp(-x).as_integer_ratio()
                num, d_pow = -num * e_num, d_pow * e_den
            try:
                return num / (den * d_pow)
            except OverflowError:
                raise ValueError(f"{self.name} overflows a double at t = {x:.17g}") from None

        cuts = [x for x in _sign_changes(row) if x < t_end]
        values = [value(x) for x in [0.0, *cuts, t_end]]
        return math.fsum(abs(b - a) for a, b in zip(values, values[1:]))


def poly_exp(p: int) -> PolyExp:
    """``g(t) = t**p * exp(-t)`` with exact derivatives of orders 0..16.

    Writing ``g^(k) = P_k(t) exp(-t)``, the polynomials obey
    ``P_{k+1} = P_k' - P_k`` starting from ``P_0 = t**p``; their integer
    coefficients are rounded once to doubles.
    """
    _check_power(p)
    return PolyExp("poly", p, 16)


def monomial(p: int) -> PolyExp:
    """``g(t) = t**p`` with derivatives of orders 0..64: falling factorials,
    zero past order p."""
    _check_power(p)
    return PolyExp("mono", p, 64)


def zero() -> PolyExp:
    return PolyExp("zero", 0, 64)


def parse_g(spec: str) -> PolyExp:
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
    """A series at every entry of the 1-d array ``x`` at once: for ``j = 1, 2,
    ...``, ``term = grow(term, x, j)`` and ``acc += add(term, j)``, each entry
    stopping at its own first ``add(term, j) < 1e-17 * acc``, so each entry has
    the bits of a loop over its own terms."""
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


def _poly_exp_integral(p: int) -> Callable:
    # int_0^t tau^p e^-tau dtau.  The textbook form p! - e^-t sum p!/k! t^k
    # cancels catastrophically for small t, so below t = p+1 we sum the
    # all-positive series t^{p+1} e^{-t} sum_k t^k p!/(p+1+k)! instead.
    fact = math.factorial(p)
    coeffs = [fact / math.factorial(k) for k in range(p + 1)]

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

    return rule


def _decay_monomial(a: float, p: int) -> Callable:
    # (e^{-a .} * tau^p)(t) = e^{-a t} int_0^t e^{a tau} tau^p dtau = M(a t)/a^{p+1}
    # with M(x) = sum_{k<=p} (-1)^k p!/(p-k)! x^{p-k} - (-1)^p p! e^{-x}, computed
    # as t^{p+1} M(x)/x^{p+1}: a^{p+1} underflows to 0 for small a.  The
    # alternating form cancels catastrophically for small x, so below x = p+1
    # the all-positive series M(x)/x^{p+1} = e^{-x} sum_j x^j/(j! (p+1+j)) is
    # summed instead; above it, in powers of 1/x < 1, nothing overflows.
    fact = math.factorial(p)
    signed = [(-1.0) ** k * (fact / math.factorial(p - k)) for k in range(p + 1)]

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

    return rule


def _on_positive(rule: Callable) -> Callable:
    """``rule`` on the positive entries of an array of times, 0 elsewhere;
    ``rule`` never sees a time that is not positive."""

    def on_grid(t: np.ndarray) -> np.ndarray:
        out = np.zeros(t.shape)
        positive = t > 0.0
        out[positive] = rule(t[positive])
        return out

    return on_grid


EXACT_PAIRS_HELP = (
    "supported (symbol, input) pairs with a closed-form reference: "
    "delay:<d> with any input; power:<mu> with mono:<p>; "
    "power:{-1,0,1} with poly<p>exp; decay:<a> with mono:<p>; "
    "decay:1 with poly<p>exp"
)


def _exact_action(F: Symbol, g: PolyExp) -> "Callable | None":
    """The closed form on an array of times; a power that overflows gives ``inf``."""
    family, p = g.family, g.p

    if family == "zero":
        return np.zeros_like

    kind, arg = F.data or (None, None)

    if kind == "delay":
        return lambda t: g.on_grid(t - arg, 0)

    if kind == "power":
        mu = arg
        if family == "mono":
            if p - mu <= -1.0:
                return None
            try:
                coeff = math.gamma(p + 1) / math.gamma(p + 1 - mu)
            except OverflowError:  # the ratio itself may still fit a double
                coeff = math.exp(math.lgamma(p + 1) - math.lgamma(p + 1 - mu))
            return _on_positive(lambda t: coeff * _pow(t, p - mu))
        if mu in (0.0, 1.0):
            k = int(mu)
            return lambda t: g.on_grid(t, k)
        if mu == -1.0:
            return _on_positive(_poly_exp_integral(p))

    if kind == "decay":
        a = arg
        if family == "mono":
            return _on_positive(_decay_monomial(a, p))
        if a == 1.0:
            # e^{-t} * t^p e^{-t} = e^{-t} int_0^t tau^p dtau
            return _on_positive(lambda t: _exp(-t) * _pow(t, p + 1) / (p + 1))

    return None


def exact_solution(F: "Symbol | str", g: "PolyExp | str") -> Callable:
    """Closed-form value of ``F`` applied to ``g`` (either may be a spec) at
    time t, as a 1-tuple (it is compared with a signal row).

    Supported pairs: any symbol on ``zero``; ``delay:d`` on anything;
    ``power:mu`` on ``mono:p`` (Riemann-Liouville ``Gamma(p+1)/Gamma(p+1-mu)
    t^(p-mu)``); ``power:{-1,0,1}`` on ``poly<p>exp``; ``decay:a`` on
    ``mono:p``; ``decay:1`` on ``poly<p>exp``.  Any other pair raises.

    Each closed form is one rule on an array of times.  The returned function
    also has ``on_grid(nodes)``, that rule on a whole array, for
    :func:`~trcq_kit.convolution.sample`; at one time it is the rule on a
    one-element array.  A value that is not finite (a power overflows) raises
    ``ValueError`` naming the pair and the first such time.  ``power:-1`` on
    ``poly<p>exp`` and ``decay:a`` on ``mono:p`` sum a series below their
    switch point (``t = p+1``, resp. ``a*t = p+1``), each node stopping its
    series at its own ``term < 1e-17*acc``.
    """
    F = from_spec(F) if isinstance(F, str) else F
    g = parse_g(g) if isinstance(g, str) else g
    action = _exact_action(F, g)
    if action is None:
        pair = f"symbol={F.name!r} with g={g.name!r}"
        raise ValueError(f"no closed-form reference for {pair}; {EXACT_PAIRS_HELP}")
    reference = f"the closed-form reference for symbol {F.name!r} on input {g.name!r}"

    def on_grid(nodes: np.ndarray) -> np.ndarray:
        # inf and nan entries are reported below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            values = action(nodes)
        bad = ~np.isfinite(values)
        if bad.any():
            t = nodes[int(np.argmax(bad))]
            raise ValueError(f"{reference} overflows a double at t = {t:.17g}")
        return values

    def exact(t: float) -> tuple:
        return (float(on_grid(np.array([t], dtype=float))[0]),)

    exact.on_grid = on_grid
    return exact
