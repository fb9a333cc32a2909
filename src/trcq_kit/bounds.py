"""Error-bound parameters, envelope functions, and the explicit constant chain.

For a symbol of growth exponent ``mu >= 0`` the a-priori error estimate of
the quadrature reads

    || error at time t ||  <=  kappa^2 * C(1/t) * (I1 + I2),

        C(x)  = C_F(min(x,1)/4) * C_mu / min(x**epsilon, 1),
        I1    = int_0^t |g^(m+alpha)|,
        I2    = int_0^t |P_m g^(m+4)|,

with integer parameters ``m = ceil(mu)``, ``alpha``, ``beta`` (the smoothness
order required of g), ``epsilon`` (the polynomial-in-time exponent), and a
constant ``C_mu`` assembled from two one-dimensional minimizations:

    Cm1  = pi * 2^(m/2) * min_c max{ E_m(c) + 1/c^2,  8^m / c^(2m+2) },
    Cmu1 = min_c ( e1 * Theta3(c) + e2 * c^(1-alpha') ),

followed by ``Cm = e/(2*pi) * Cm1``, ``Cmu2 = e/(2*pi) * Cmu1``,
``Cmu3 = Cm * 2^(m-mu)`` and ``Cmu = max(Cmu2, Cmu3)``.  The minimizations
run a 1024-point log-spaced scan plus golden-section polish; the objectives
are smooth and coercive at both ends of their intervals, which are inset by
1e-2 from the divergent endpoints.

``theta1``/``theta2``/``theta3`` are the stability, derivative, and
approximation envelopes used by the sampled operator-level checks (they are
meaningful for ``mu <= 0`` only).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .quadrature import integrate_segmented
from .symbols import CFModel, Symbol
from .trmap import D_eval, E_m_eval, solve_c0

__all__ = [
    "SmoothCausalFunction",
    "derivative_shift",
    "apply_Pm",
    "TheoremParams",
    "derive_params",
    "theta1",
    "theta2",
    "theta3",
    "const_Cm1",
    "const_Cmu1",
    "const_chain",
    "bound_rhs",
    "CONSTANTS_CSV_HEADER",
    "params_csv_row",
]


# --------------------------------------------------------------------------
# smooth causal inputs
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothCausalFunction:
    """A scalar causal input with analytic derivative callbacks.

    ``derivative(t, k)`` returns the k-th derivative at ``t >= 0`` as a float
    (the wrapper :meth:`deriv` supplies the causal zero for ``t < 0``).  The
    optional ``laplace`` callback gives the closed-form transform; the
    optional ``laplace_decay = (C, p)`` certifies ``|G(s)| <= C/|s|**p``
    on the half-plane, which frequency integrals use as a tail bound.
    """

    name: str
    max_order: int
    derivative: Callable[[float, int], float] = field(repr=False)
    laplace: "Callable[[np.ndarray], np.ndarray] | None" = field(default=None, repr=False)
    laplace_decay: "tuple[float, float] | None" = None

    def deriv(self, t: float, k: int = 0) -> float:
        if not (0 <= k <= self.max_order):
            raise ValueError(
                f"{self.name} supports derivative orders 0..{self.max_order}, got {k}"
            )
        if t < 0.0:
            return 0.0
        return self.derivative(float(t), int(k))

    def __call__(self, t: float) -> float:
        return self.deriv(t, 0)


def derivative_shift(g: SmoothCausalFunction, k: int) -> SmoothCausalFunction:
    """The function whose j-th derivative is ``g^(k+j)``."""
    if not (0 <= k <= g.max_order):
        raise ValueError(f"cannot shift {g.name} by {k} derivative orders")
    return SmoothCausalFunction(
        name=f"{g.name}^({k})",
        max_order=g.max_order - k,
        derivative=lambda t, j: g.derivative(t, k + j),
    )


def apply_Pm(g: SmoothCausalFunction, m: int, t: float) -> float:
    """Evaluate ``(P_m g)(t) = exp(-t) * d^m/dt^m [exp(t) g(t)]`` as a float.

    By the Leibniz rule this equals ``sum_l binom(m, l) g^(l)(t)``, which is
    how it is computed.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    if m > g.max_order:
        raise ValueError(f"{g.name} supports orders up to {g.max_order}, P_{m} needs {m}")
    return sum(math.comb(m, ell) * g.deriv(t, ell) for ell in range(m + 1))


# --------------------------------------------------------------------------
# parameter derivation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremParams:
    """Derived parameters and constants of the error bound for one ``mu``."""

    mu: float
    m: int              # ceil(mu)
    alpha: int          # floor(mu - m) + 5: 5 when mu is an integer, else 4
    beta: int           # smoothness order required of g
    epsilon: float      # polynomial-in-time exponent of C(1/t)
    delta_shift: float  # fractional shift floor(mu') - mu' + 1 in (0, 1]
    constants: dict

    def __post_init__(self) -> None:
        for key, val in self.constants.items():
            if not np.isfinite(val) or val < 0.0:
                raise ValueError(f"constant {key} must be finite and non-negative")


def derive_params(mu: float, with_constants: bool = True) -> TheoremParams:
    """Derive ``(m, alpha, beta, epsilon, delta_shift)`` and the constants.

    ``epsilon`` always lands in ``[1 + max(m,1), 2 + max(m,1)]``; tests pin
    the full table for representative ``mu``.
    """
    mu = float(mu)
    if mu < 0.0 or not np.isfinite(mu):
        raise ValueError("mu must be a non-negative real")
    if with_constants and mu > MAX_MU:
        raise ValueError(f"the constant chain is computable for mu <= {MAX_MU} only, got {mu:g}")
    m = math.ceil(mu)
    mu_prime = mu - m  # in (-1, 0]
    alpha = math.floor(mu_prime) + 5
    beta = max(2 * m + 4, m + alpha)
    epsilon = max(2 * m - mu + 1.0, math.floor(mu) - mu + 3.0)
    delta_shift = math.floor(mu_prime) - mu_prime + 1.0
    constants = const_chain(mu) if with_constants else {}
    return TheoremParams(
        mu=mu,
        m=m,
        alpha=alpha,
        beta=beta,
        epsilon=epsilon,
        delta_shift=delta_shift,
        constants=constants,
    )


# --------------------------------------------------------------------------
# envelope functions (mu <= 0)
# --------------------------------------------------------------------------

def theta1(sigma, mu: float, cf: CFModel):
    """Stability envelope ``(min(sigma,1)/2)**mu * cf(min(sigma,1)/2)``, elementwise."""
    if np.any(sigma <= 0.0):
        raise ValueError("theta1 requires sigma > 0")
    if mu > 0.0:
        raise ValueError("theta1 is defined for mu <= 0 only")
    y = 0.5 * np.minimum(sigma, 1.0)
    return y**mu * cf(y)


def theta2(sigma, mu: float, cf: CFModel):
    """Derivative envelope ``2**(1-mu)/sigma * cf(sigma/2)``, elementwise."""
    if np.any(sigma <= 0.0):
        raise ValueError("theta2 requires sigma > 0")
    if mu > 0.0:
        raise ValueError("theta2 is defined for mu <= 0 only")
    return 2.0 ** (1.0 - mu) / sigma * cf(0.5 * sigma)


def theta3(sigma, mu: float):
    """Approximation envelope ``D(sigma) * (1 - sigma**2 D(sigma))**mu``, elementwise.

    Increasing on its domain ``(0, c0)``; for ``mu < 0`` it blows up at the
    right endpoint, where ``sigma**2 D(sigma) -> 1``.
    """
    if mu > 0.0:
        raise ValueError("theta3 is defined for mu <= 0 only")
    if not np.all((0.0 < sigma) & (sigma < solve_c0())):
        raise ValueError(f"theta3 requires 0 < sigma < {solve_c0():.6f}")
    d = D_eval(sigma)
    return d * (1.0 - sigma * sigma * d) ** mu


# --------------------------------------------------------------------------
# constant chain
# --------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_SCAN_POINTS = 1024
_ENDPOINT_INSET = 1e-2

# The Cm1 scan divides by c**(2m+2) at c = _ENDPOINT_INSET.  That power
# underflows to zero once (2m+2) log(c) drops below the log of the smallest
# subnormal double, so the chain completes up to m = 79 and no further.
MAX_MU = int(
    math.log(sys.float_info.min * sys.float_info.epsilon) / (2.0 * math.log(_ENDPOINT_INSET))
) - 1


def _minimize_scan_golden(
    obj: Callable[[float], float], lo: float, hi: float
) -> tuple[float, float]:
    """Log-spaced coarse scan + golden-section polish; returns (argmin, min)."""
    xs = np.geomspace(lo, hi, _SCAN_POINTS)
    vals = np.array([obj(float(x)) for x in xs])
    i = int(np.argmin(vals))
    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, _SCAN_POINTS - 1)])
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = obj(c), obj(d)
    while b - a > 1e-13 * (abs(a) + abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = obj(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = obj(d)
    x = 0.5 * (a + b)
    fx = obj(x)
    best = min((fx, x), (fc, c), (fd, d))
    return best[1], best[0]


def _cm1_objective(m: int) -> Callable[[float], float]:
    def obj(c: float) -> float:
        return max(float(E_m_eval(c, m)) + 1.0 / (c * c), 8.0**m / c ** (2 * m + 2))

    return obj


@lru_cache(maxsize=None)
def _cm1_detail(m: int) -> tuple[float, float]:
    c_opt, val = _minimize_scan_golden(
        _cm1_objective(m), _ENDPOINT_INSET, math.pi - _ENDPOINT_INSET
    )
    return c_opt, math.pi * 2.0 ** (m / 2.0) * val


def const_Cm1(m: int) -> float:
    """Constant for the power-difference frequency estimate at order ``m``.

    ``m = 0`` returns 0: the quantity it multiplies vanishes identically
    (the zeroth powers cancel).
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    if m == 0:
        return 0.0
    return _cm1_detail(m)[1]


def _cmu1_coefficients(mu_prime: float) -> tuple[int, float, float]:
    alpha = math.floor(mu_prime + 5)  # 5 at mu' = 0, else 4
    e1 = 2.0 ** (3.0 - mu_prime) * max(1.0, 1.0 / (alpha - mu_prime - 4.0))
    e2 = 8.0 * alpha / (alpha - 1.0)
    return alpha, e1, e2


@lru_cache(maxsize=None)
def _cmu1_detail(mu_prime: float) -> tuple[float, float]:
    alpha, e1, e2 = _cmu1_coefficients(mu_prime)

    def obj(c: float) -> float:
        return e1 * theta3(c, mu_prime) + e2 * c ** (1.0 - alpha)

    return _minimize_scan_golden(obj, _ENDPOINT_INSET, solve_c0() - _ENDPOINT_INSET)


def const_Cmu1(mu_prime: float) -> float:
    """Constant of the fractional-part estimate, for ``mu_prime`` in (-1, 0]."""
    mu_prime = float(mu_prime)
    if not (-1.0 < mu_prime <= 0.0):
        raise ValueError("const_Cmu1 requires -1 < mu_prime <= 0")
    return _cmu1_detail(mu_prime)[1]


def const_chain(mu: float) -> dict:
    """Assemble every constant feeding the final ``Cmu`` for this ``mu``."""
    mu = float(mu)
    if mu < 0.0:
        raise ValueError("mu must be non-negative")
    m = math.ceil(mu)
    mu_prime = mu - m
    over_2pi = math.e / (2.0 * math.pi)
    cm1 = const_Cm1(m)
    cmu1 = const_Cmu1(mu_prime)
    cm = over_2pi * cm1
    cmu2 = over_2pi * cmu1
    cmu3 = cm * 2.0 ** (m - mu)
    return {
        "Cm1": cm1,
        "Cmu1": cmu1,
        "Cm": cm,
        "Cmu2": cmu2,
        "Cmu3": cmu3,
        "Cmu": max(cmu2, cmu3),
    }


# --------------------------------------------------------------------------
# right-hand side of the error bound
# --------------------------------------------------------------------------


def bound_rhs(
    F: Symbol,
    g: SmoothCausalFunction,
    kappa: float,
    t: float,
    params: "TheoremParams | None" = None,
) -> float:
    """Evaluate ``kappa^2 * C(1/t) * (I1 + I2)`` by adaptive quadrature.

    The two time integrals run at 1e-9 relative tolerance with a 1e-14
    absolute floor (g may vanish identically near 0).
    """
    if not (0.0 < kappa <= 1.0):
        raise ValueError("kappa must lie in (0, 1]")
    if t <= 0.0:
        raise ValueError("t must be positive")
    if params is None:
        params = derive_params(F.mu)
    m, alpha = params.m, params.alpha
    if params.beta > g.max_order:
        raise ValueError(
            f"{g.name} supports orders up to {g.max_order}; the bound needs {params.beta}"
        )

    def i1_integrand(tau: float) -> float:
        return abs(g.deriv(tau, m + alpha))

    shifted = derivative_shift(g, m + 4)

    def i2_integrand(tau: float) -> float:
        return abs(apply_Pm(shifted, m, tau))

    i1 = integrate_segmented(i1_integrand, 0.0, t, rel_tol=1e-9, abs_floor=1e-14)
    i2 = integrate_segmented(i2_integrand, 0.0, t, rel_tol=1e-9, abs_floor=1e-14)

    x = 1.0 / t
    c_of_x = F.cf(min(x, 1.0) / 4.0) * params.constants["Cmu"] / min(x**params.epsilon, 1.0)
    return kappa * kappa * c_of_x * (i1 + i2)


# --------------------------------------------------------------------------
# CSV export
# --------------------------------------------------------------------------

CONSTANTS_CSV_HEADER = "mu,m,alpha,beta,epsilon,Cm1,Cmu1,Cmu2,Cm,Cmu3,Cmu"


def params_csv_row(p: TheoremParams) -> str:
    c = p.constants
    nums = [c["Cm1"], c["Cmu1"], c["Cmu2"], c["Cm"], c["Cmu3"], c["Cmu"]]
    return ",".join(
        [f"{p.mu:.17g}", str(p.m), str(p.alpha), str(p.beta), f"{p.epsilon:.17g}"]
        + [f"{v:.17g}" for v in nums]
    )
