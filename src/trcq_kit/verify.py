"""Numerical verification of the inequalities behind the error analysis.

Each ``check_*`` function stress-tests one family of estimates — either by
seeded random sampling of the right half-plane (pointwise inequalities) or
by closed forms and adaptive quadrature with certified tails (frequency-integral
estimates) — and returns a :class:`~trcq_kit.report.VerificationReport`.  All of these
are proved facts: a nonzero violation count always means an implementation
bug, never "bad luck with the samples".

Conventions shared by the sampled suites:

* moduli are drawn log-uniform so both asymptotic regimes get exercised;
* open-domain constraints (``|z| < pi``, ``|z| < c0``) are enforced by
  insetting the boundary by a relative 1e-3;
* each part draws its samples as whole arrays, in a fixed order from one
  seeded stream, then evaluates its quantity and bound 2^14 samples at a
  time into one streaming report (:func:`trcq_kit.report.chunked_reports`),
  which records the named samples (``z``, ``s``, ``kappa``, ``x``) at the
  worst one;
  parts that share work (the defect orders, prop41's steps in part (a))
  share one evaluation per chunk, and a part's samples are dropped once its
  reports are built.  Evaluation is elementwise, so the reports equal those
  of one evaluation on all samples, bit for bit;
* lemma42 (b) and lemma33 integrate over the whole line in closed form
  (``_line_integral``); lemma42 (a) and prop34a by quadrature on arrays, out to
  a cutoff whose *certified* tail is added to the computed side, keeping every
  check one-sided; time integrals are exact sums (:meth:`~trcq_kit.functions.PolyExp.time_l1`).
  Each frequency check is one call of ``_frequency_report``.

lemma31 is prop32's four half-plane estimates at kappa = 1: both suites hand
a sample cloud and a map (w = delta(exp(-z)), or s_kappa) to one routine,
``_transported``, which runs parts (a)-(d).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .bounds import const_Cm1, theta1, theta2, theta3
from .functions import PolyExp
from .quadrature import adaptive_simpson  # noqa: F401
from .quadrature import integrate_semi_infinite, named_integral
from .report import VerificationReport, chunked_reports, combine_reports, pointwise_report
from .symbols import Symbol, value_norm
from .trmap import (
    D_eval,
    E_m_eval,
    delta_char,
    delta_power_diff,
    s_kappa,
    sample_cplus,
    solve_c0,
)

__all__ = [
    "check_hyperbolic",
    "check_lemma31",
    "check_prop32",
    "check_lemma32",
    "check_lemma42",
    "check_lemma33",
    "check_prop34a",
    "check_prop41",
    "SUITE_TOL",
    "QUADRATURE_TOL",
]

SUITE_TOL = 1e-12        # pointwise identities evaluated directly
QUADRATURE_TOL = 1e-6    # integral estimates resolved by quadrature

_INSET = 1.0 - 1e-3      # relative inset applied to open-domain radii

# orders m of the power-defect parts (lemma31:c, prop32:c) and of lemma32
_DEFECT_ORDERS = range(1, 6)
_LEMMA32_ORDERS = range(1, 7)
# steps of prop41's substituted-symbol parts (a) and (c)
_PROP41_KAPPAS = (0.1, 0.05, 0.025)


# --------------------------------------------------------------------------
# sampled pointwise suites
# --------------------------------------------------------------------------


def _seeded(samples: int, seed: int) -> np.random.Generator:
    """The seeded stream a sampled suite draws from; fewer than one sample is refused."""
    if samples < 1:
        raise ValueError("need at least one sample")
    return np.random.default_rng(seed)


def check_hyperbolic(samples: int, seed: int) -> VerificationReport:
    """Bounds relating tanh/coth to min(1, x) on x in [1e-6, 1e3].

    (a) tanh x   >= min(1, x)/2        (b) coth x   <= 2/min(1, x)
    (c) tanh x/2 >= min(1, x)/4        (d) coth x/2 <= 4/min(1, x)
    """
    rng = _seeded(samples, seed)

    def evaluate(x):
        mn = np.minimum(x, 1.0)
        th, th2 = np.tanh(x), np.tanh(0.5 * x)
        return [(0.5 * mn, th), (1.0 / th, 2.0 / mn), (0.25 * mn, th2), (1.0 / th2, 4.0 / mn)]

    parts = chunked_reports(
        evaluate, {"x": np.exp(rng.uniform(np.log(1e-6), np.log(1e3), samples))},
        {f"hyperbolic:{part}": {} for part in "abcd"}, seed=seed, tol=SUITE_TOL,
    )
    return combine_reports("hyperbolic", parts)


def _transported(
    suite: str, seed: int, cloud: Callable[[float], dict], mapped: Callable
) -> VerificationReport:
    """Parts (a)-(d) of :func:`check_prop32` for w = ``mapped(s, kappa)``.

    Each part draws its samples from ``cloud(radius)``, the points with
    |kappa s| < radius (inset), in the order (a)-(b), (c), (d).  A cloud's
    arrays reach the parts in its order: ``s``, then ``kappa`` if it draws
    steps, which are 1.0 otherwise.
    """

    def half_plane(s, kappa=1.0):
        w = mapped(s, kappa)
        mn = np.minimum(s.real, 1.0)
        return [(0.5 * mn, w.real), (np.abs(w), 8.0 / (kappa * kappa * mn))]

    def defects(s, kappa=1.0):
        # the defects and E_m of all orders in one call each, at z = kappa s
        z = kappa * s
        diffs = np.abs(delta_power_diff(z, _DEFECT_ORDERS))
        envelopes = E_m_eval(np.abs(z), _DEFECT_ORDERS)
        mod = np.abs(s)
        return [
            (diff / kappa**m, e_m * kappa * kappa * mod ** (m + 2))
            for m, diff, e_m in zip(_DEFECT_ORDERS, diffs, envelopes)
        ]

    def consistency(s, kappa=1.0):
        mod = np.abs(kappa * s)
        return [(1.0 - mod * mod * D_eval(mod), (mapped(s, kappa) / s).real)]

    parts = chunked_reports(
        half_plane, cloud(math.inf), {f"{suite}:a": {}, f"{suite}:b": {}}, seed=seed, tol=SUITE_TOL,
    )
    parts += chunked_reports(
        defects, cloud(np.pi), {f"{suite}:c[m={m}]": {"m": m} for m in _DEFECT_ORDERS},
        seed=seed, tol=SUITE_TOL,
    )
    parts += chunked_reports(
        consistency, cloud(solve_c0()), {f"{suite}:d": {}}, seed=seed, tol=SUITE_TOL,
    )
    return combine_reports(suite, parts)


def check_lemma31(samples: int, seed: int) -> VerificationReport:
    """Half-plane estimates for w = delta(exp(-z)): those of prop32 at kappa = 1.

    (a) Re w >= min(Re z, 1)/2 and (b) |w| <= 8/min(Re z, 1) on all of C+;
    (c) |w^m - z^m| <= E_m(|z|) |z|^(m+2) for |z| < pi, m = 1..5;
    (d) Re(w/z) >= 1 - |z|^2 D(|z|) for |z| < c0.
    """
    rng = _seeded(samples, seed)

    def cloud(radius):
        return {"z": sample_cplus(samples, rng, max_modulus=min(1e3, radius * _INSET))}

    return _transported("lemma31", seed, cloud, lambda z, kappa: delta_char(np.exp(-z)))


def check_prop32(samples: int, seed: int) -> VerificationReport:
    """The same four estimates transported to s_kappa = delta(exp(-kappa s))/kappa.

    (a) Re s_k >= min(Re s, 1)/2;  (b) |s_k| <= 8/(kappa^2 min(Re s, 1));
    (c) |s_k^m - s^m| <= E_m(|kappa s|) kappa^2 |s|^(m+2) for |kappa s| < pi,
        m = 1..5;
    (d) Re(s_k/s) >= 1 - |kappa s|^2 D(|kappa s|) for |kappa s| < c0.

    Steps kappa are uniform on (0, 1] and points s have |s| <= 1e3.
    """
    rng = _seeded(samples, seed)

    def cloud(radius):
        kappa = 1.0 - rng.random(samples)
        cap = np.minimum(1e3, radius * _INSET / kappa)
        return {"s": sample_cplus(samples, rng, max_modulus=cap), "kappa": kappa}

    return _transported("prop32", seed, cloud, s_kappa)


def check_lemma32(samples: int, seed: int) -> VerificationReport:
    """Half-plane norm inequality 1 + |z|^m <= 2^(m/2) |1 + z|^m, m = 1..6."""
    rng = _seeded(samples, seed)

    def evaluate(z):
        mod = np.abs(z)
        shifted = np.abs(1.0 + z)
        return [(1.0 + mod**m, 2.0 ** (m / 2.0) * shifted**m) for m in _LEMMA32_ORDERS]

    parts = chunked_reports(
        evaluate, {"z": sample_cplus(samples, rng)},
        {f"lemma32:m={m}": {"m": m} for m in _LEMMA32_ORDERS}, seed=seed, tol=SUITE_TOL,
    )
    return combine_reports("lemma32", parts)


def check_prop41(F: Symbol, samples: int, seed: int) -> VerificationReport:
    """Envelope bounds for a mu <= 0 symbol under the frequency substitution.

    (a) ||F(s_kappa)|| <= Theta1(Re s);
    (b) ||F'(s)|| <= Theta2(Re s) |s|^mu, with F' the symbol's closed-form
        ``derivative``;
    (c) ||F(s_kappa) - F(s)|| <= kappa^2 Theta2(min(Re s,1)/2)
        Theta3(|kappa s|) |s|^(mu+3) for |kappa s| < c0.

    Parts (a) and (c) run at kappa = 0.1, 0.05 and 0.025; part (a) evaluates
    all three on one sample set.  Every part runs at the strict pointwise
    tolerance.  A symbol that declares no derivative is refused with
    ``ValueError``.
    """
    if F.mu > 0.0:
        raise ValueError("these envelopes are defined for mu <= 0 symbols only")
    if F.derivative is None:
        raise ValueError(f"prop41 part (b) needs the derivative of {F.name}, which declares none")
    rng = _seeded(samples, seed)
    mu, cf = F.mu, F.cf

    def stability(s):
        bound = theta1(s.real, mu, cf)
        return [(value_norm(F(s_kappa(s, k))), bound) for k in _PROP41_KAPPAS]

    def derivative(s):
        return [(value_norm(F.derivative(s)), theta2(s.real, mu, cf) * np.abs(s) ** mu)]

    def accuracy(k):
        def evaluate(s):
            diff = value_norm(F(s_kappa(s, k)) - F(s))
            theta2_c = theta2(0.5 * np.minimum(s.real, 1.0), mu, cf)
            bound = k * k * theta2_c * theta3(np.abs(k * s), mu) * np.abs(s) ** (mu + 3.0)
            return [(diff, bound)]

        return evaluate

    parts = chunked_reports(
        stability, {"s": sample_cplus(samples, rng)},
        {f"prop41:a[kappa={k:g}]": {"kappa": k} for k in _PROP41_KAPPAS},
        seed=seed, tol=SUITE_TOL,
    )
    parts += chunked_reports(
        derivative, {"s": sample_cplus(samples, rng)}, {"prop41:b": {}}, seed=seed, tol=SUITE_TOL
    )
    c0 = solve_c0()
    for k in _PROP41_KAPPAS:
        parts += chunked_reports(
            accuracy(k), {"s": sample_cplus(samples, rng, max_modulus=min(1e3, c0 * _INSET / k))},
            {f"prop41:c[kappa={k:g}]": {"kappa": k}}, seed=seed, tol=SUITE_TOL,
        )
    return combine_reports(f"prop41:{F.name}", parts)


# --------------------------------------------------------------------------
# frequency-integral suites
# --------------------------------------------------------------------------


def _frequency_report(
    suite: str, name: str, lhs: Callable[[], tuple], rhs: Callable[[], float], **point
) -> VerificationReport:
    """One-sample report of ``lhs <= rhs()`` at ``point``; ``lhs()`` returns the left side,
    its tolerance and its facts.  An arithmetic error in either is ``name``'s ``ValueError``."""
    with named_integral(name):
        bound = rhs()
        value, tol, facts = lhs()
    return pointwise_report(
        suite, np.array([value]), np.array([bound]), seed=0, tol=tol,
        lhs=value, rhs=bound, **point, **facts,
    )


def _certified(f: Callable, tail: Callable[[float], float], start: float, width: float) -> tuple:
    """``2 int_start^inf f`` of an even integrand with its certified ``tail``, as ``lhs()``."""
    head, tail_val, cutoff = integrate_semi_infinite(f, tail, start, first_width=width)
    return 2.0 * (head + tail_val), QUADRATURE_TOL, {"cutoff": cutoff, "tail": tail_val}


def _line_integral(a: float, nu: float, factor: float = 1.0) -> float:
    """``factor`` times ``int over R of (a^2 + omega^2)^-nu domega = a^(1 - 2 nu)
    sqrt(pi) Gamma(nu - 1/2)/Gamma(nu)``, a > 0 and nu > 1/2 (DLMF 5.12.3): the
    power in long double, whose range holds lemma33's (sigma + 1)^-170, the
    gammas by ``math.lgamma`` only where ``math.gamma`` overflows (nu > 171);
    inf past the double range."""
    try:
        ratio = math.gamma(nu - 0.5) / math.gamma(nu)
    except OverflowError:
        ratio = math.exp(math.lgamma(nu - 0.5) - math.lgamma(nu))
    with np.errstate(over="ignore", under="ignore"):
        return float(np.longdouble(a) ** (1.0 - 2.0 * nu) * (factor * math.sqrt(math.pi) * ratio))


def _require_finite(**params: float) -> None:
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} = {value} is not finite")


def check_lemma42(sigma: float, alpha: float, c: float, kappa: float) -> VerificationReport:
    """Frequency-axis moment bounds on the line Re s = sigma.

    (a) int over |s| >= c/kappa of |s|^-alpha domega
            <= (2 alpha/(alpha-1)) (kappa/c)^(alpha-1);
    (b) int over R of |s|^-alpha domega <= 2/sigma^alpha + 2/(alpha-1).

    (a) is evaluated on [omega0, inf) with the analytic tail int_R^inf
    omega^-alpha = R^(1-alpha)/(alpha-1) added; (b) is :func:`_line_integral`.
    """
    _require_finite(sigma=sigma, alpha=alpha, c=c)
    if sigma <= 0.0 or c <= 0.0 or not (0.0 < kappa <= 1.0):
        raise ValueError("need sigma > 0, c > 0 and kappa in (0, 1]")
    if alpha <= 1.0:
        raise ValueError("the bounds require alpha > 1")

    def f(omega: np.ndarray) -> np.ndarray:
        return (sigma * sigma + omega * omega) ** (-0.5 * alpha)

    def tail(R: float) -> float:
        return R ** (1.0 - alpha) / (alpha - 1.0)

    radius = c / kappa
    omega0 = math.sqrt(max(radius * radius - sigma * sigma, 0.0))
    point = {"sigma": sigma, "alpha": alpha, "c": c, "kappa": kappa}
    return combine_reports("lemma42", [
        _frequency_report(
            "lemma42:a", "lemma42 (a) integral over |s| >= c/kappa of |s|^-alpha",
            lambda: _certified(f, tail, omega0, max(radius, 1.0)),
            lambda: 2.0 * alpha / (alpha - 1.0) * (kappa / c) ** (alpha - 1.0), **point,
        ),
        _frequency_report(
            "lemma42:b", "lemma42 (b) integral over R of |s|^-alpha",
            lambda: (_line_integral(sigma, 0.5 * alpha), SUITE_TOL, {}),
            lambda: 2.0 / sigma**alpha + 2.0 / (alpha - 1.0), **point,
        ),
    ])


def check_lemma33(g: PolyExp, sigma: float) -> VerificationReport:
    """Transform-line mass bound: int |G(sigma+i omega)| domega <= (pi/sigma) int |g''|.

    With G(s) = p!/(s + rate)^(p+1), the left side is :func:`_line_integral`.
    """
    _require_finite(sigma=sigma)
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    if g.laplace_decay[1] <= 1.0:
        raise ValueError("need a transform decay certificate with exponent > 1")
    g.require(2, "lemma33")

    with named_integral("lemma33 time integral int_0^inf |g''|"):
        mass = g.time_l1(2, 0, math.inf)

    def lhs():
        if g.family == "zero":
            return 0.0, SUITE_TOL, {}
        a = sigma + (1.0 if g.family == "poly" else 0.0)
        return _line_integral(a, 0.5 * (g.p + 1), math.factorial(g.p)), SUITE_TOL, {}

    return _frequency_report(
        f"lemma33:{g.name}", "lemma33 frequency integral int |G(sigma + i omega)| domega",
        lhs, lambda: math.pi / sigma * mass, g=g.name, sigma=sigma,
    )


def check_prop34a(g: PolyExp, sigma: float, m: int, kappa: float) -> VerificationReport:
    """Frequency mass of the power defect against the explicit constant:

        int |(s_k^m - s^m) G(s)| domega on Re s = sigma
            <= kappa^2 Cm1(m) / (sigma min(sigma^m, 1)) int |P_m g^(m+4)|.

    The input's closed-form transform keeps the check on the inequality
    rather than compounding transform error.  The integrand is even in omega.
    """
    _require_finite(sigma=sigma)
    if m < 1:
        raise ValueError("m must be at least 1")
    if sigma <= 0.0 or not (0.0 < kappa <= 1.0):
        raise ValueError("need sigma > 0 and kappa in (0, 1]")
    if g.laplace_decay[1] <= m + 1:
        raise ValueError("need a transform decay certificate with exponent > m+1")
    g.require(2 * m + 4, f"prop34a at m = {m}")

    with named_integral(f"prop34a time integral int_0^inf |P_{m} g^({m + 4})|"):
        time_mass = g.time_l1(m + 4, m, math.inf)

    c_g, p = g.laplace_decay

    def f(omega: np.ndarray) -> np.ndarray:
        s = sigma + 1j * omega  # exact for finite omega
        return np.abs(delta_power_diff(kappa * s, [m])[0] / kappa**m) * np.abs(g.laplace(s))

    def tail(R: float) -> float:
        # one side's: |s_k^m - s^m| <= s_inf^m + omega^m and |G| <= c_g omega^-p
        s_inf = 8.0 / (kappa * kappa * min(sigma, 1.0))
        return c_g * (s_inf**m * R ** (1.0 - p) / (p - 1.0) + R ** (m + 1.0 - p) / (p - 1.0 - m))

    return _frequency_report(
        f"prop34a:{g.name}[m={m}]",
        f"prop34a frequency integral int |(s_k^{m} - s^{m}) G(s)| domega",
        lambda: _certified(f, tail, 0.0, max(sigma, 1.0 / kappa)),
        lambda: kappa * kappa * const_Cm1(m) / (sigma * min(sigma**m, 1.0)) * time_mass,
        g=g.name, sigma=sigma, m=m, kappa=kappa,
    )
