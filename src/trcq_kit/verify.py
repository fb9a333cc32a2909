"""Numerical verification of the inequalities behind the error analysis.

Each ``check_*`` function stress-tests one family of estimates — either by
seeded random sampling of the right half-plane (pointwise inequalities) or
by adaptive quadrature with certified tails (frequency-integral estimates) —
and returns a :class:`~trcq_kit.report.VerificationReport`.  All of these
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
* frequency integrals are truncated at a cutoff and the *certified* tail
  bound is added to the computed side, keeping every check one-sided; time
  integrals are exact sums (:meth:`trcq_kit.functions.PolyExp.time_l1`).
  Each frequency check (lemma42 (a) and (b), lemma33, prop34a) is one call of
  ``_frequency_report``, which builds its one-sample report.

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
# quadrature-based suites
# --------------------------------------------------------------------------


def _frequency_report(
    suite: str, name: str, f: Callable[[float], float], tail: Callable[[float], float],
    rhs: Callable[[], float], *, first_width: float, start: float = 0.0, factor: float = 1.0,
    **point,
) -> VerificationReport:
    """One-sample report of ``factor * int_start^inf f <= rhs()`` at ``point``, the
    integral run out to its certified ``tail``.  ``rhs()`` and the integral run
    under ``name``, so an arithmetic error in either is that integral's ``ValueError``."""
    with named_integral(name):
        bound = rhs()
        head, tail_val, cutoff = integrate_semi_infinite(f, tail, start, first_width=first_width)
    lhs = factor * (head + tail_val)
    return pointwise_report(
        suite, np.array([lhs]), np.array([bound]), seed=0, tol=QUADRATURE_TOL,
        lhs=lhs, rhs=bound, **point, cutoff=cutoff, tail=tail_val,
    )


def _require_finite(**params: float) -> None:
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} = {value} is not finite")


def check_lemma42(sigma: float, alpha: float, c: float, kappa: float) -> VerificationReport:
    """Frequency-axis moment bounds on the line Re s = sigma.

    (a) int over |s| >= c/kappa of |s|^-alpha domega
            <= (2 alpha/(alpha-1)) (kappa/c)^(alpha-1);
    (b) int over R of |s|^-alpha domega <= 2/sigma^alpha + 2/(alpha-1).

    Both integrals are even in omega and evaluated on [0, inf) with the
    analytic tail int_R^inf omega^-alpha = R^(1-alpha)/(alpha-1) added to
    the computed side.
    """
    _require_finite(sigma=sigma, alpha=alpha, c=c)
    if sigma <= 0.0 or c <= 0.0 or not (0.0 < kappa <= 1.0):
        raise ValueError("need sigma > 0, c > 0 and kappa in (0, 1]")
    if alpha <= 1.0:
        raise ValueError("the bounds require alpha > 1")

    def f(omega: float) -> float:
        return (sigma * sigma + omega * omega) ** (-0.5 * alpha)

    def tail(R: float) -> float:
        return R ** (1.0 - alpha) / (alpha - 1.0)

    radius = c / kappa
    omega0 = math.sqrt(max(radius * radius - sigma * sigma, 0.0))
    point = {"sigma": sigma, "alpha": alpha, "c": c, "kappa": kappa}
    return combine_reports("lemma42", [
        _frequency_report(
            "lemma42:a", "lemma42 (a) integral over |s| >= c/kappa of |s|^-alpha", f, tail,
            lambda: 2.0 * alpha / (alpha - 1.0) * (kappa / c) ** (alpha - 1.0),
            first_width=max(radius, 1.0), start=omega0, factor=2.0, **point,
        ),
        _frequency_report(
            "lemma42:b", "lemma42 (b) integral over R of |s|^-alpha", f, tail,
            lambda: 2.0 / sigma**alpha + 2.0 / (alpha - 1.0),
            first_width=max(sigma, 1.0), factor=2.0, **point,
        ),
    ])


def check_lemma33(g: PolyExp, sigma: float) -> VerificationReport:
    """Transform-line mass bound: int |G(sigma+i omega)| domega <= (pi/sigma) int |g''|.

    The left side integrates the input's closed-form transform; the tail
    beyond the cutoff is bounded through its declared decay |G| <= C/|s|**p,
    p > 1, and added to the left side.
    """
    _require_finite(sigma=sigma)
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    if g.laplace_decay[1] <= 1.0:
        raise ValueError("need a transform decay certificate with exponent > 1")
    g.require(2, "lemma33")

    with named_integral("lemma33 time integral int_0^inf |g''|"):
        mass = g.time_l1(2, 0, math.inf)

    transform = g.laplace
    c_decay, p_decay = g.laplace_decay

    def f(omega: float) -> float:
        return abs(transform(complex(sigma, omega))) + abs(transform(complex(sigma, -omega)))

    def tail(R: float) -> float:
        return 2.0 * c_decay * R ** (1.0 - p_decay) / (p_decay - 1.0)

    return _frequency_report(
        f"lemma33:{g.name}", "lemma33 frequency integral int |G(sigma + i omega)| domega",
        f, tail, lambda: math.pi / sigma * mass,
        first_width=max(sigma, 1.0), g=g.name, sigma=sigma,
    )


def check_prop34a(g: PolyExp, sigma: float, m: int, kappa: float) -> VerificationReport:
    """Frequency mass of the power defect against the explicit constant:

        int |(s_k^m - s^m) G(s)| domega on Re s = sigma
            <= kappa^2 Cm1(m) / (sigma min(sigma^m, 1)) int |P_m g^(m+4)|.

    The input's closed-form transform keeps the check on the inequality
    rather than compounding transform error.
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

    transform = g.laplace
    c_g, p = g.laplace_decay

    def f_both(omega: float) -> float:
        # |(s_k^m - s^m) G(s)| at s = sigma +- i omega, one defect call for the pair
        pair = (complex(sigma, omega), complex(sigma, -omega))
        defects = delta_power_diff(np.array([kappa * s for s in pair]), [m])[0]
        up, down = [
            abs(complex(defect) / kappa**m) * abs(transform(s)) for defect, s in zip(defects, pair)
        ]
        return up + down

    def tail(R: float) -> float:
        # |s_k^m - s^m| <= s_inf^m + omega^m and |G| <= c_g omega^-p
        s_inf = 8.0 / (kappa * kappa * min(sigma, 1.0))
        return 2.0 * c_g * (
            s_inf**m * R ** (1.0 - p) / (p - 1.0)
            + R ** (m + 1.0 - p) / (p - 1.0 - m)
        )

    return _frequency_report(
        f"prop34a:{g.name}[m={m}]",
        f"prop34a frequency integral int |(s_k^{m} - s^{m}) G(s)| domega", f_both, tail,
        lambda: kappa * kappa * const_Cm1(m) / (sigma * min(sigma**m, 1.0)) * time_mass,
        first_width=max(sigma, 1.0 / kappa), g=g.name, sigma=sigma, m=m, kappa=kappa,
    )
