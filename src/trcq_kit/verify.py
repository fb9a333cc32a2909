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
* frequency integrals are truncated at a cutoff and the *certified* tail
  bound is added to the computed side, keeping every check one-sided; time
  integrals are exact sums (:meth:`trcq_kit.functions.PolyExp.time_l1`).
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import (
    SmoothCausalFunction,
    const_Cm1,
    theta1,
    theta2,
    theta3,
)
from .quadrature import adaptive_simpson  # noqa: F401
from .quadrature import integrate_semi_infinite, named_integral
from .report import VerificationReport, combine_reports, pointwise_report
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
    "DERIVATIVE_TOL",
    "QUADRATURE_TOL",
]

SUITE_TOL = 1e-12        # pointwise identities evaluated directly
DERIVATIVE_TOL = 1e-8    # parts involving a computed (contour) derivative
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


def check_hyperbolic(samples: int, seed: int) -> VerificationReport:
    """Bounds relating tanh/coth to min(1, x) on x in [1e-6, 1e3].

    (a) tanh x   >= min(1, x)/2        (b) coth x   <= 2/min(1, x)
    (c) tanh x/2 >= min(1, x)/4        (d) coth x/2 <= 4/min(1, x)
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    x = np.exp(rng.uniform(np.log(1e-6), np.log(1e3), samples))
    mn = np.minimum(x, 1.0)
    th, th2 = np.tanh(x), np.tanh(0.5 * x)
    parts = [
        pointwise_report("hyperbolic:a", 0.5 * mn, th, seed=seed, tol=SUITE_TOL, x=x),
        pointwise_report("hyperbolic:b", 1.0 / th, 2.0 / mn, seed=seed, tol=SUITE_TOL, x=x),
        pointwise_report("hyperbolic:c", 0.25 * mn, th2, seed=seed, tol=SUITE_TOL, x=x),
        pointwise_report("hyperbolic:d", 1.0 / th2, 4.0 / mn, seed=seed, tol=SUITE_TOL, x=x),
    ]
    return combine_reports("hyperbolic", parts)


def _power_defect_parts(
    suite: str, z: np.ndarray, kappa, s: np.ndarray, seed: int, /, **point
) -> "list[VerificationReport]":
    """Part (c) of lemma31 (kappa = 1, s = z) and of prop32, one report per m:

        |delta(exp(-z))^m - z^m| / kappa^m <= E_m(|z|) kappa^2 |s|^(m+2),  z = kappa s.

    The defect and E_m are evaluated once for all orders in _DEFECT_ORDERS.
    """
    defects = np.abs(delta_power_diff(z, _DEFECT_ORDERS))
    envelopes = E_m_eval(np.abs(z), _DEFECT_ORDERS)
    mod = np.abs(s)
    return [
        pointwise_report(
            f"{suite}:c[m={m}]",
            defect / kappa**m,
            e_m * kappa * kappa * mod ** (m + 2),
            seed=seed,
            tol=SUITE_TOL,
            **point,
            m=m,
        )
        for m, defect, e_m in zip(_DEFECT_ORDERS, defects, envelopes)
    ]


def check_lemma31(samples: int, seed: int) -> VerificationReport:
    """Half-plane estimates for w = delta(exp(-z)).

    (a) Re w >= min(Re z, 1)/2 and (b) |w| <= 8/min(Re z, 1) on all of C+;
    (c) |w^m - z^m| <= E_m(|z|) |z|^(m+2) for |z| < pi, m = 1..5;
    (d) Re(w/z) >= 1 - |z|^2 D(|z|) for |z| < c0.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    parts = []

    z = sample_cplus(samples, rng)
    w = delta_char(np.exp(-z))
    mn = np.minimum(z.real, 1.0)
    parts.append(pointwise_report("lemma31:a", 0.5 * mn, w.real, seed=seed, tol=SUITE_TOL, z=z))
    parts.append(pointwise_report("lemma31:b", np.abs(w), 8.0 / mn, seed=seed, tol=SUITE_TOL, z=z))

    zc = sample_cplus(samples, rng, max_modulus=np.pi * _INSET)
    parts += _power_defect_parts("lemma31", zc, 1.0, zc, seed, z=zc)

    c0 = solve_c0()
    zd = sample_cplus(samples, rng, max_modulus=c0 * _INSET)
    wd = delta_char(np.exp(-zd))
    modd = np.abs(zd)
    parts.append(
        pointwise_report(
            "lemma31:d",
            1.0 - modd * modd * D_eval(modd),
            (wd / zd).real,
            seed=seed,
            tol=SUITE_TOL,
            z=zd,
        )
    )
    return combine_reports("lemma31", parts)


def check_prop32(samples: int, seed: int) -> VerificationReport:
    """The same four estimates transported to s_kappa = delta(exp(-kappa s))/kappa.

    (a) Re s_k >= min(Re s, 1)/2;  (b) |s_k| <= 8/(kappa^2 min(Re s, 1));
    (c) |s_k^m - s^m| <= E_m(|kappa s|) kappa^2 |s|^(m+2) for |kappa s| < pi,
        m = 1..5;
    (d) Re(s_k/s) >= 1 - |kappa s|^2 D(|kappa s|) for |kappa s| < c0.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    parts = []

    kappa = 1.0 - rng.random(samples)  # uniform on (0, 1]
    s = sample_cplus(samples, rng)
    sk = s_kappa(s, kappa)
    mn = np.minimum(s.real, 1.0)
    parts.append(
        pointwise_report("prop32:a", 0.5 * mn, sk.real, seed=seed, tol=SUITE_TOL, s=s, kappa=kappa)
    )
    parts.append(
        pointwise_report(
            "prop32:b", np.abs(sk), 8.0 / (kappa * kappa * mn), seed=seed, tol=SUITE_TOL,
            s=s, kappa=kappa,
        )
    )

    kc = 1.0 - rng.random(samples)
    sc = sample_cplus(samples, rng, max_modulus=np.minimum(1e3, np.pi * _INSET / kc))
    parts += _power_defect_parts("prop32", kc * sc, kc, sc, seed, s=sc, kappa=kc)

    c0 = solve_c0()
    kd = 1.0 - rng.random(samples)
    sd = sample_cplus(samples, rng, max_modulus=np.minimum(1e3, c0 * _INSET / kd))
    zd = kd * sd
    modd = np.abs(zd)
    parts.append(
        pointwise_report(
            "prop32:d",
            1.0 - modd * modd * D_eval(modd),
            (s_kappa(sd, kd) / sd).real,
            seed=seed,
            tol=SUITE_TOL,
            s=sd,
            kappa=kd,
        )
    )
    return combine_reports("prop32", parts)


def check_lemma32(samples: int, seed: int) -> VerificationReport:
    """Half-plane norm inequality 1 + |z|^m <= 2^(m/2) |1 + z|^m, m = 1..6."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    z = sample_cplus(samples, rng)
    mod = np.abs(z)
    shifted = np.abs(1.0 + z)
    parts = []
    for m in _LEMMA32_ORDERS:
        parts.append(
            pointwise_report(
                f"lemma32:m={m}",
                1.0 + mod**m,
                2.0 ** (m / 2.0) * shifted**m,
                seed=seed,
                tol=SUITE_TOL,
                z=z,
                m=m,
            )
        )
    return combine_reports("lemma32", parts)


# Samples per block of prop41's Cauchy ring: one block's 64 ring nodes and the
# symbol's values on them stay near cache size, whatever the sample count.
_RING_BLOCK = 1 << 11


def _cauchy_derivative_norms(F: Symbol, s: np.ndarray) -> np.ndarray:
    """||F'(s)|| per sample, by the 64-node trapezoid rule on the circle of
    radius Re(s)/2 about s, evaluated ``_RING_BLOCK`` samples at a time."""
    theta = 2.0 * np.pi * np.arange(64) / 64.0
    phase = np.exp(1j * theta)
    weight = np.exp(-1j * theta)[None, :, None, None]
    grad = np.empty(s.size)
    for lo in range(0, s.size, _RING_BLOCK):
        blk = s[lo : lo + _RING_BLOCK]
        r = 0.5 * blk.real
        ring = blk[:, None] + r[:, None] * phase[None, :]
        deriv = (F(ring) * weight).mean(axis=1) / r[:, None, None]
        grad[lo : lo + _RING_BLOCK] = value_norm(deriv)
    return grad


def check_prop41(F: Symbol, samples: int, seed: int) -> VerificationReport:
    """Envelope bounds for a mu <= 0 symbol under the frequency substitution.

    (a) ||F(s_kappa)|| <= Theta1(Re s);
    (b) ||F'(s)|| <= Theta2(Re s) |s|^mu, with F' computed by a 64-node
        trapezoid rule on the Cauchy circle of radius Re(s)/2;
    (c) ||F(s_kappa) - F(s)|| <= kappa^2 Theta2(min(Re s,1)/2)
        Theta3(|kappa s|) |s|^(mu+3) for |kappa s| < c0.

    Parts (a) and (c) run at kappa = 0.1, 0.05 and 0.025.  Parts (b) and (c)
    run at the relaxed tolerance for computed-derivative quantities; part (a)
    at the strict pointwise tolerance.
    """
    if F.mu > 0.0:
        raise ValueError("these envelopes are defined for mu <= 0 symbols only")
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    mu, cf = F.mu, F.cf
    parts = []

    # (a) stability of the substituted symbol, over samples x kappas
    s = sample_cplus(samples, rng)
    bound_a = theta1(s.real, mu, cf)
    for k in _PROP41_KAPPAS:
        norms = value_norm(F(s_kappa(s, k)))
        parts.append(
            pointwise_report(
                f"prop41:a[kappa={k:g}]", norms, bound_a, seed=seed, tol=SUITE_TOL, s=s, kappa=k
            )
        )

    # (b) Cauchy-circle derivative bound (kappa-independent)
    sb = sample_cplus(samples, rng)
    grad = _cauchy_derivative_norms(F, sb)
    bound_b = theta2(sb.real, mu, cf) * np.abs(sb) ** mu
    parts.append(pointwise_report("prop41:b", grad, bound_b, seed=seed, tol=DERIVATIVE_TOL, s=sb))

    # (c) quadratic-accuracy envelope on |kappa s| < c0
    c0 = solve_c0()
    for k in _PROP41_KAPPAS:
        sc = sample_cplus(samples, rng, max_modulus=min(1e3, c0 * _INSET / k))
        diff = value_norm(F(s_kappa(sc, k)) - F(sc))
        mod = np.abs(k * sc)
        theta2_c = theta2(0.5 * np.minimum(sc.real, 1.0), mu, cf)
        bound_c = k * k * theta2_c * theta3(mod, mu) * np.abs(sc) ** (mu + 3.0)
        parts.append(
            pointwise_report(
                f"prop41:c[kappa={k:g}]",
                diff,
                bound_c,
                seed=seed,
                tol=DERIVATIVE_TOL,
                s=sc,
                kappa=k,
            )
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


def check_lemma33(g: SmoothCausalFunction, sigma: float) -> VerificationReport:
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
        rhs = math.pi / sigma * g.data.time_l1(2, 0, math.inf)

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


def check_prop34a(
    g: SmoothCausalFunction, sigma: float, m: int, kappa: float
) -> VerificationReport:
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
        time_mass = g.data.time_l1(m + 4, m, math.inf)
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
