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
"""

from __future__ import annotations

import math

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


def _scaled_cloud(rng: np.random.Generator, samples: int, radius=None) -> "dict[str, np.ndarray]":
    """Steps kappa uniform on (0, 1], then points s with |s| <= 1e3 and, given
    ``radius``, |kappa s| < radius (inset)."""
    kappa = 1.0 - rng.random(samples)
    cap = 1e3 if radius is None else np.minimum(1e3, radius * _INSET / kappa)
    return {"s": sample_cplus(samples, rng, max_modulus=cap), "kappa": kappa}


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


def _power_defects(z: np.ndarray, kappa, s: np.ndarray) -> "list[tuple[np.ndarray, np.ndarray]]":
    """Part (c) of lemma31 (kappa = 1, s = z) and of prop32, one pair per m:

        |delta(exp(-z))^m - z^m| / kappa^m <= E_m(|z|) kappa^2 |s|^(m+2),  z = kappa s.

    The defect and E_m are evaluated once for all orders in _DEFECT_ORDERS.
    """
    defects = np.abs(delta_power_diff(z, _DEFECT_ORDERS))
    envelopes = E_m_eval(np.abs(z), _DEFECT_ORDERS)
    mod = np.abs(s)
    return [
        (defect / kappa**m, e_m * kappa * kappa * mod ** (m + 2))
        for m, defect, e_m in zip(_DEFECT_ORDERS, defects, envelopes)
    ]


def _defect_parts(suite: str) -> "dict[str, dict]":
    return {f"{suite}:c[m={m}]": {"m": m} for m in _DEFECT_ORDERS}


def check_lemma31(samples: int, seed: int) -> VerificationReport:
    """Half-plane estimates for w = delta(exp(-z)).

    (a) Re w >= min(Re z, 1)/2 and (b) |w| <= 8/min(Re z, 1) on all of C+;
    (c) |w^m - z^m| <= E_m(|z|) |z|^(m+2) for |z| < pi, m = 1..5;
    (d) Re(w/z) >= 1 - |z|^2 D(|z|) for |z| < c0.
    """
    rng = _seeded(samples, seed)

    def half_plane(z):
        w = delta_char(np.exp(-z))
        mn = np.minimum(z.real, 1.0)
        return [(0.5 * mn, w.real), (np.abs(w), 8.0 / mn)]

    def consistency(z):
        mod = np.abs(z)
        return [(1.0 - mod * mod * D_eval(mod), (delta_char(np.exp(-z)) / z).real)]

    parts = chunked_reports(
        half_plane, {"z": sample_cplus(samples, rng)}, {"lemma31:a": {}, "lemma31:b": {}},
        seed=seed, tol=SUITE_TOL,
    )
    parts += chunked_reports(
        lambda z: _power_defects(z, 1.0, z),
        {"z": sample_cplus(samples, rng, max_modulus=np.pi * _INSET)}, _defect_parts("lemma31"),
        seed=seed, tol=SUITE_TOL,
    )
    parts += chunked_reports(
        consistency, {"z": sample_cplus(samples, rng, max_modulus=solve_c0() * _INSET)},
        {"lemma31:d": {}}, seed=seed, tol=SUITE_TOL,
    )
    return combine_reports("lemma31", parts)


def check_prop32(samples: int, seed: int) -> VerificationReport:
    """The same four estimates transported to s_kappa = delta(exp(-kappa s))/kappa.

    (a) Re s_k >= min(Re s, 1)/2;  (b) |s_k| <= 8/(kappa^2 min(Re s, 1));
    (c) |s_k^m - s^m| <= E_m(|kappa s|) kappa^2 |s|^(m+2) for |kappa s| < pi,
        m = 1..5;
    (d) Re(s_k/s) >= 1 - |kappa s|^2 D(|kappa s|) for |kappa s| < c0.
    """
    rng = _seeded(samples, seed)

    def half_plane(s, kappa):
        sk = s_kappa(s, kappa)
        mn = np.minimum(s.real, 1.0)
        return [(0.5 * mn, sk.real), (np.abs(sk), 8.0 / (kappa * kappa * mn))]

    def defects(s, kappa):
        return _power_defects(kappa * s, kappa, s)

    def consistency(s, kappa):
        mod = np.abs(kappa * s)
        return [(1.0 - mod * mod * D_eval(mod), (s_kappa(s, kappa) / s).real)]

    parts = chunked_reports(
        half_plane, _scaled_cloud(rng, samples), {"prop32:a": {}, "prop32:b": {}},
        seed=seed, tol=SUITE_TOL,
    )
    parts += chunked_reports(
        defects, _scaled_cloud(rng, samples, np.pi), _defect_parts("prop32"),
        seed=seed, tol=SUITE_TOL,
    )
    parts += chunked_reports(
        consistency, _scaled_cloud(rng, samples, solve_c0()), {"prop32:d": {}},
        seed=seed, tol=SUITE_TOL,
    )
    return combine_reports("prop32", parts)


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


def _integral_report(suite: str, lhs: float, rhs: float, **point) -> VerificationReport:
    """One-sample report of the integral estimate ``lhs <= rhs`` at ``point``."""
    return pointwise_report(
        suite, np.array([lhs]), np.array([rhs]), seed=0, tol=QUADRATURE_TOL,
        lhs=lhs, rhs=rhs, **point,
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
    with named_integral("lemma42 (a) integral over |s| >= c/kappa of |s|^-alpha"):
        head_a, tail_a, cut_a = integrate_semi_infinite(
            f, tail, start=omega0, first_width=max(radius, 1.0)
        )
    with named_integral("lemma42 (b) integral over R of |s|^-alpha"):
        head_b, tail_b, cut_b = integrate_semi_infinite(f, tail, first_width=max(sigma, 1.0))

    lhs_a = 2.0 * (head_a + tail_a)
    rhs_a = 2.0 * alpha / (alpha - 1.0) * (kappa / c) ** (alpha - 1.0)
    lhs_b = 2.0 * (head_b + tail_b)
    rhs_b = 2.0 / sigma**alpha + 2.0 / (alpha - 1.0)

    point = {"sigma": sigma, "alpha": alpha, "c": c, "kappa": kappa}
    parts = [
        _integral_report("lemma42:a", lhs_a, rhs_a, **point, cutoff=cut_a, tail=tail_a),
        _integral_report("lemma42:b", lhs_b, rhs_b, **point, cutoff=cut_b, tail=tail_b),
    ]
    return combine_reports("lemma42", parts)


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
        rhs = math.pi / sigma * g.time_l1(2, 0, math.inf)

    transform = g.laplace
    c_decay, p_decay = g.laplace_decay

    def f(omega: float) -> float:
        return abs(transform(complex(sigma, omega))) + abs(transform(complex(sigma, -omega)))

    def tail(R: float) -> float:
        return 2.0 * c_decay * R ** (1.0 - p_decay) / (p_decay - 1.0)

    with named_integral("lemma33 frequency integral int |G(sigma + i omega)| domega"):
        head, tail_val, cutoff = integrate_semi_infinite(f, tail, first_width=max(sigma, 1.0))
    return _integral_report(
        f"lemma33:{g.name}", head + tail_val, rhs,
        g=g.name, sigma=sigma, cutoff=cutoff, tail=tail_val,
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
    rhs = kappa * kappa * const_Cm1(m) / (sigma * min(sigma**m, 1.0)) * time_mass

    transform = g.laplace
    c_g, p = g.laplace_decay

    def f_both(omega: float) -> float:
        # |(s_k^m - s^m) G(s)| at s = sigma +- i omega, one defect call for the pair
        pair = (complex(sigma, omega), complex(sigma, -omega))
        defects = delta_power_diff(np.array([kappa * s for s in pair]), m)
        up, down = [
            abs(complex(defect) / kappa**m) * abs(transform(s)) for defect, s in zip(defects, pair)
        ]
        return up + down

    s_inf = 8.0 / (kappa * kappa * min(sigma, 1.0))

    def tail(R: float) -> float:
        # |s_k^m - s^m| <= s_inf^m + omega^m and |G| <= c_g omega^-p
        return 2.0 * c_g * (
            s_inf**m * R ** (1.0 - p) / (p - 1.0)
            + R ** (m + 1.0 - p) / (p - 1.0 - m)
        )

    with named_integral(f"prop34a frequency integral int |(s_k^{m} - s^{m}) G(s)| domega"):
        head, tail_val, cutoff = integrate_semi_infinite(
            f_both, tail, first_width=max(sigma, 1.0 / kappa)
        )

    return _integral_report(
        f"prop34a:{g.name}[m={m}]", head + tail_val, rhs,
        g=g.name, sigma=sigma, m=m, kappa=kappa, cutoff=cutoff, tail=tail_val,
    )
