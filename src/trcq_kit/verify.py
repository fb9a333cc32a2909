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
  bound is added to the computed side, keeping every check one-sided.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .bounds import (
    SmoothCausalFunction,
    apply_Pm,
    const_Cm1,
    derivative_shift,
    theta1,
    theta2,
    theta3,
)
from .quadrature import adaptive_simpson, integrate_semi_infinite
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
    describe = lambda i: {"x": float(x[i])}
    parts = [
        pointwise_report("hyperbolic:a", 0.5 * mn, th, seed=seed, tol=SUITE_TOL, describe=describe),
        pointwise_report("hyperbolic:b", 1.0 / th, 2.0 / mn, seed=seed, tol=SUITE_TOL, describe=describe),
        pointwise_report("hyperbolic:c", 0.25 * mn, th2, seed=seed, tol=SUITE_TOL, describe=describe),
        pointwise_report("hyperbolic:d", 1.0 / th2, 4.0 / mn, seed=seed, tol=SUITE_TOL, describe=describe),
    ]
    return combine_reports("hyperbolic", parts)


def check_lemma31(samples: int, seed: int, m_max: int = 5) -> VerificationReport:
    """Half-plane estimates for w = delta(exp(-z)).

    (a) Re w >= min(Re z, 1)/2 and (b) |w| <= 8/min(Re z, 1) on all of C+;
    (c) |w^m - z^m| <= E_m(|z|) |z|^(m+2) for |z| < pi, m = 1..m_max;
    (d) Re(w/z) >= 1 - |z|^2 D(|z|) for |z| < c0.
    """
    if samples < 1 or m_max < 1:
        raise ValueError("need samples >= 1 and m_max >= 1")
    rng = np.random.default_rng(seed)
    parts = []

    z = sample_cplus(samples, rng)
    w = delta_char(np.exp(-z))
    mn = np.minimum(z.real, 1.0)
    describe = lambda i: {"z": complex(z[i])}
    parts.append(
        pointwise_report("lemma31:a", 0.5 * mn, w.real, seed=seed, tol=SUITE_TOL, describe=describe)
    )
    parts.append(
        pointwise_report("lemma31:b", np.abs(w), 8.0 / mn, seed=seed, tol=SUITE_TOL, describe=describe)
    )

    zc = sample_cplus(samples, rng, max_modulus=np.pi * _INSET)
    mod = np.abs(zc)
    for m in range(1, m_max + 1):
        quantity = np.abs(delta_power_diff(zc, m))
        bound = E_m_eval(mod, m) * mod ** (m + 2)
        parts.append(
            pointwise_report(
                f"lemma31:c[m={m}]",
                quantity,
                bound,
                seed=seed,
                tol=SUITE_TOL,
                describe=lambda i: {"z": complex(zc[i]), "m": m},
            )
        )

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
            describe=lambda i: {"z": complex(zd[i])},
        )
    )
    return combine_reports("lemma31", parts)


def check_prop32(samples: int, seed: int, m_max: int = 5) -> VerificationReport:
    """The same four estimates transported to s_kappa = delta(exp(-kappa s))/kappa.

    (a) Re s_k >= min(Re s, 1)/2;  (b) |s_k| <= 8/(kappa^2 min(Re s, 1));
    (c) |s_k^m - s^m| <= E_m(|kappa s|) kappa^2 |s|^(m+2) for |kappa s| < pi;
    (d) Re(s_k/s) >= 1 - |kappa s|^2 D(|kappa s|) for |kappa s| < c0.
    """
    if samples < 1 or m_max < 1:
        raise ValueError("need samples >= 1 and m_max >= 1")
    rng = np.random.default_rng(seed)
    parts = []

    kappa = 1.0 - rng.random(samples)  # uniform on (0, 1]
    s = sample_cplus(samples, rng)
    sk = s_kappa(s, kappa)
    mn = np.minimum(s.real, 1.0)
    describe = lambda i: {"s": complex(s[i]), "kappa": float(kappa[i])}
    parts.append(
        pointwise_report("prop32:a", 0.5 * mn, sk.real, seed=seed, tol=SUITE_TOL, describe=describe)
    )
    parts.append(
        pointwise_report(
            "prop32:b", np.abs(sk), 8.0 / (kappa * kappa * mn), seed=seed, tol=SUITE_TOL, describe=describe
        )
    )

    kc = 1.0 - rng.random(samples)
    sc = sample_cplus(samples, rng, max_modulus=np.minimum(1e3, np.pi * _INSET / kc))
    zc = kc * sc
    modc = np.abs(zc)
    for m in range(1, m_max + 1):
        quantity = np.abs(delta_power_diff(zc, m)) / kc**m
        bound = E_m_eval(modc, m) * kc * kc * np.abs(sc) ** (m + 2)
        parts.append(
            pointwise_report(
                f"prop32:c[m={m}]",
                quantity,
                bound,
                seed=seed,
                tol=SUITE_TOL,
                describe=lambda i: {"s": complex(sc[i]), "kappa": float(kc[i]), "m": m},
            )
        )

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
            describe=lambda i: {"s": complex(sd[i]), "kappa": float(kd[i])},
        )
    )
    return combine_reports("prop32", parts)


def check_lemma32(samples: int, seed: int, m_max: int = 6) -> VerificationReport:
    """Half-plane norm inequality 1 + |z|^m <= 2^(m/2) |1 + z|^m, m = 1..m_max."""
    if samples < 1 or m_max < 1:
        raise ValueError("need samples >= 1 and m_max >= 1")
    rng = np.random.default_rng(seed)
    z = sample_cplus(samples, rng)
    mod = np.abs(z)
    shifted = np.abs(1.0 + z)
    parts = []
    for m in range(1, m_max + 1):
        parts.append(
            pointwise_report(
                f"lemma32:m={m}",
                1.0 + mod**m,
                2.0 ** (m / 2.0) * shifted**m,
                seed=seed,
                tol=SUITE_TOL,
                describe=lambda i: {"z": complex(z[i]), "m": m},
            )
        )
    return combine_reports("lemma32", parts)


def check_prop41(
    F: Symbol,
    samples: int,
    seed: int,
    kappa_grid: "tuple[float, ...]" = (0.1, 0.05, 0.025),
) -> VerificationReport:
    """Envelope bounds for a mu <= 0 symbol under the frequency substitution.

    (a) ||F(s_kappa)|| <= Theta1(Re s);
    (b) ||F'(s)|| <= Theta2(Re s) |s|^mu, with F' computed by a 64-node
        trapezoid rule on the Cauchy circle of radius Re(s)/2;
    (c) ||F(s_kappa) - F(s)|| <= kappa^2 Theta2(min(Re s,1)/2)
        Theta3(|kappa s|) |s|^(mu+3) for |kappa s| < c0.

    Parts (b) and (c) run at the relaxed tolerance for computed-derivative
    quantities; part (a) at the strict pointwise tolerance.
    """
    if F.mu > 0.0:
        raise ValueError("these envelopes are defined for mu <= 0 symbols only")
    if samples < 1 or not kappa_grid:
        raise ValueError("need samples >= 1 and a non-empty kappa grid")
    for k in kappa_grid:
        if not (0.0 < k <= 1.0):
            raise ValueError("kappa grid values must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    mu, cf = F.mu, F.cf
    parts = []

    # (a) stability of the substituted symbol, over samples x kappa_grid
    s = sample_cplus(samples, rng)
    bound_a = theta1(s.real, mu, cf)
    for k in kappa_grid:
        norms = value_norm(F(s_kappa(s, k)))
        parts.append(
            pointwise_report(
                f"prop41:a[kappa={k:g}]",
                norms,
                bound_a,
                seed=seed,
                tol=SUITE_TOL,
                describe=lambda i: {"s": complex(s[i]), "kappa": k},
            )
        )

    # (b) Cauchy-circle derivative bound (kappa-independent)
    sb = sample_cplus(samples, rng)
    theta = 2.0 * np.pi * np.arange(64) / 64.0
    phase = np.exp(1j * theta)
    grad = np.empty(samples)
    chunk = 1 << 14
    for lo in range(0, samples, chunk):
        blk = sb[lo : lo + chunk]
        r = 0.5 * blk.real
        ring = blk[:, None] + r[:, None] * phase[None, :]
        vals = F(ring) * np.exp(-1j * theta)[None, :, None, None]
        deriv = vals.mean(axis=1) / r[:, None, None]
        grad[lo : lo + chunk] = value_norm(deriv)
    bound_b = theta2(sb.real, mu, cf) * np.abs(sb) ** mu
    parts.append(
        pointwise_report(
            "prop41:b",
            grad,
            bound_b,
            seed=seed,
            tol=DERIVATIVE_TOL,
            describe=lambda i: {"s": complex(sb[i])},
        )
    )

    # (c) quadratic-accuracy envelope on |kappa s| < c0
    c0 = solve_c0()
    for k in kappa_grid:
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
                describe=lambda i: {"s": complex(sc[i]), "kappa": k},
            )
        )
    return combine_reports(f"prop41:{F.name}", parts)


# --------------------------------------------------------------------------
# quadrature-based suites
# --------------------------------------------------------------------------


def check_lemma42(sigma: float, alpha: float, c: float, kappa: float) -> VerificationReport:
    """Frequency-axis moment bounds on the line Re s = sigma.

    (a) int over |s| >= c/kappa of |s|^-alpha domega
            <= (2 alpha/(alpha-1)) (kappa/c)^(alpha-1);
    (b) int over R of |s|^-alpha domega <= 2/sigma^alpha + 2/(alpha-1).

    Both integrals are even in omega and evaluated on [0, inf) with the
    analytic tail int_R^inf omega^-alpha = R^(1-alpha)/(alpha-1) added to
    the computed side.
    """
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
    head_a, tail_a, cut_a = integrate_semi_infinite(
        f, tail, start=omega0, first_width=max(radius, 1.0)
    )
    lhs_a = 2.0 * (head_a + tail_a)
    rhs_a = 2.0 * alpha / (alpha - 1.0) * (kappa / c) ** (alpha - 1.0)

    head_b, tail_b, cut_b = integrate_semi_infinite(f, tail, first_width=max(sigma, 1.0))
    lhs_b = 2.0 * (head_b + tail_b)
    rhs_b = 2.0 / sigma**alpha + 2.0 / (alpha - 1.0)

    point = {"sigma": sigma, "alpha": alpha, "c": c, "kappa": kappa}
    parts = [
        pointwise_report(
            "lemma42:a",
            np.array([lhs_a]),
            np.array([rhs_a]),
            seed=0,
            tol=QUADRATURE_TOL,
            describe=lambda i: dict(point, lhs=lhs_a, rhs=rhs_a, cutoff=cut_a, tail=tail_a),
        ),
        pointwise_report(
            "lemma42:b",
            np.array([lhs_b]),
            np.array([rhs_b]),
            seed=0,
            tol=QUADRATURE_TOL,
            describe=lambda i: dict(point, lhs=lhs_b, rhs=rhs_b, cutoff=cut_b, tail=tail_b),
        ),
    ]
    return combine_reports("lemma42", parts)


def _time_l1(fn: Callable[[float], float]) -> float:
    """L1 norm over [0, inf) of a decaying function, by doubling windows.

    Stopping the doubling truncates the integral, so the result can only
    underestimate.  That is safe because it feeds only the dominating
    (right-hand) side of a check, where a smaller value makes it stricter.
    """
    total = adaptive_simpson(fn, 0.0, 1.0, rel_tol=1e-9)
    t = 1.0
    while True:
        seg = adaptive_simpson(fn, t, 2.0 * t, rel_tol=1e-9)
        total += seg
        t *= 2.0
        if seg <= max(1e-14, 1e-9 * total) and fn(t) <= 1e-14:
            return total
        if t > 2.0**40:
            raise RuntimeError("time integrand does not decay; integral did not localize")


def check_lemma33(g: SmoothCausalFunction, sigma: float) -> VerificationReport:
    """Transform-line mass bound: int |G(sigma+i omega)| domega <= (pi/sigma) int |g''|.

    The left side integrates the input's closed-form transform; the tail
    beyond the cutoff is bounded through its declared decay |G| <= C/|s|**p,
    p > 1, and added to the left side.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    if g.max_order < 2:
        raise ValueError("the estimate needs two derivatives")
    if g.laplace is None:
        raise ValueError("this check needs an input with a closed-form transform")
    if g.laplace_decay is None or g.laplace_decay[1] <= 1.0:
        raise ValueError("need a transform decay certificate with exponent > 1")

    rhs = math.pi / sigma * _time_l1(lambda t: abs(g.deriv(t, 2)))

    transform = g.laplace
    c_decay, p_decay = g.laplace_decay

    def f(omega: float) -> float:
        return abs(transform(complex(sigma, omega))) + abs(transform(complex(sigma, -omega)))

    def tail(R: float) -> float:
        return 2.0 * c_decay * R ** (1.0 - p_decay) / (p_decay - 1.0)

    head, tail_val, cutoff = integrate_semi_infinite(f, tail, first_width=max(sigma, 1.0))
    lhs = head + tail_val
    return pointwise_report(
        f"lemma33:{g.name}",
        np.array([lhs]),
        np.array([rhs]),
        seed=0,
        tol=QUADRATURE_TOL,
        describe=lambda i: {
            "g": g.name,
            "sigma": sigma,
            "lhs": lhs,
            "rhs": rhs,
            "cutoff": cutoff,
            "tail": tail_val,
        },
    )


def check_prop34a(
    g: SmoothCausalFunction, sigma: float, m: int, kappa: float
) -> VerificationReport:
    """Frequency mass of the power defect against the explicit constant:

        int |(s_k^m - s^m) G(s)| domega on Re s = sigma
            <= kappa^2 Cm1(m) / (sigma min(sigma^m, 1)) int |P_m g^(m+4)|.

    Requires a closed-form transform (shipped inputs) so the check isolates
    the inequality rather than compounding transform error.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if sigma <= 0.0 or not (0.0 < kappa <= 1.0):
        raise ValueError("need sigma > 0 and kappa in (0, 1]")
    if g.laplace is None:
        raise ValueError("this check needs an input with a closed-form transform")
    if g.max_order < 2 * m + 4:
        raise ValueError(f"{g.name} supports orders up to {g.max_order}; need {2 * m + 4}")
    if g.laplace_decay is None or g.laplace_decay[1] <= m + 1:
        raise ValueError("need a transform decay certificate with exponent > m+1")

    transform = g.laplace
    c_g, p = g.laplace_decay

    def f(omega: float) -> float:
        s = complex(sigma, omega)
        defect = complex(delta_power_diff(kappa * s, m)) / kappa**m
        return abs(defect) * abs(transform(s))

    def f_both(omega: float) -> float:
        return f(omega) + f(-omega)

    s_inf = 8.0 / (kappa * kappa * min(sigma, 1.0))

    def tail(R: float) -> float:
        # |s_k^m - s^m| <= s_inf^m + omega^m and |G| <= c_g omega^-p
        return 2.0 * c_g * (
            s_inf**m * R ** (1.0 - p) / (p - 1.0)
            + R ** (m + 1.0 - p) / (p - 1.0 - m)
        )

    head, tail_val, cutoff = integrate_semi_infinite(
        f_both, tail, first_width=max(sigma, 1.0 / kappa)
    )
    lhs = head + tail_val

    shifted = derivative_shift(g, m + 4)
    time_mass = _time_l1(lambda t: abs(apply_Pm(shifted, m, t)))
    rhs = kappa * kappa * const_Cm1(m) / (sigma * min(sigma**m, 1.0)) * time_mass

    return pointwise_report(
        f"prop34a:{g.name}[m={m}]",
        np.array([lhs]),
        np.array([rhs]),
        seed=0,
        tol=QUADRATURE_TOL,
        describe=lambda i: {
            "g": g.name,
            "sigma": sigma,
            "m": m,
            "kappa": kappa,
            "lhs": lhs,
            "rhs": rhs,
            "cutoff": cutoff,
            "tail": tail_val,
        },
    )
