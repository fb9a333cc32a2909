"""Error-bound parameters, envelope functions, and the explicit constant chain.

For a symbol of growth exponent ``mu >= 0`` the a-priori error estimate of
the quadrature reads

    || error at time t ||  <=  kappa^2 * C(1/t) * (I1 + I2),

        C(x)  = C_F(min(x,1)/4) * C_mu / min(x**epsilon, 1),
        I1    = int_0^t |g^(m+alpha)|,
        I2    = int_0^t |P_m g^(m+4)|,

with ``P_m h = exp(-t) d^m/dt^m [exp(t) h]``, integer parameters ``m =
ceil(mu)``, ``alpha``, ``beta`` (the smoothness order required of g),
``epsilon`` (the polynomial-in-time exponent), and a constant ``C_mu``
assembled from two one-dimensional minimizations:

    Cm1  = pi * 2^(m/2) * min_c max{ E_m(c) + 1/c^2,  8^m / c^(2m+2) },
    Cmu1 = min_c ( e1 * Theta3(c) + e2 * c^(1-alpha') ),

followed by ``Cm = e/(2*pi) * Cm1``, ``Cmu2 = e/(2*pi) * Cmu1``,
``Cmu3 = Cm * 2^(m-mu)`` and ``Cmu = max(Cmu2, Cmu3)``.  The minimizations
run a 1024-point log-spaced scan plus golden-section polish; both objectives
are coercive at both ends of their intervals, which are inset by 1e-2 from
the divergent endpoints.  Cmu1's objective is smooth, but Cm1's is a
maximum of two branches, and for ``m >= 2`` its minimum sits on the kink
where they cross, so the value's error is linear in the polish's final
bracket (1e-13 relative): Cm1 comes out about 1e-13 relative above its
minimum, ``Cm1(3) = 31.45569114540466`` against the 60-digit
31.455691145401605.  The benchmark pins the current ``Cm1(3)``, so the fix
waits for that pin to move.

``theta1``/``theta2``/``theta3`` are the stability, derivative, and
approximation envelopes used by the sampled operator-level checks (they are
meaningful for ``mu <= 0`` only).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .functions import PolyExp
from .quadrature import named_integral
from .symbols import CFModel, Symbol
from .trmap import D_eval, E_m_eval, solve_c0

__all__ = [
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
# parameter derivation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoremParams:
    """Derived parameters and constants of the error bound for one ``mu``."""

    mu: float
    m: int              # ceil(mu)
    alpha: int          # _alpha(mu'): 5 when mu is an integer, else 4
    beta: int           # smoothness order required of g
    epsilon: float      # polynomial-in-time exponent of C(1/t)
    constants: dict

    def __post_init__(self) -> None:
        for key, val in self.constants.items():
            if not np.isfinite(val) or val < 0.0:
                raise ValueError(f"constant {key} must be finite and non-negative")


def _split_mu(mu: float) -> "tuple[int, float]":
    """``m = ceil(mu)`` and ``mu' = mu - m`` clamped into (-1, 0]: for
    0 < mu <= 2^-54, ``mu - 1`` rounds to -1."""
    m = math.ceil(mu)
    return m, max(mu - m, math.nextafter(-1.0, 0.0))


def _alpha(mu_prime: float) -> int:
    """``floor(mu') + 5`` for the fractional part ``mu' = mu - ceil(mu)`` in
    (-1, 0]: 5 when mu is an integer, else 4."""
    return math.floor(mu_prime) + 5


def derive_params(mu: float) -> TheoremParams:
    """Derive ``(m, alpha, beta, epsilon)`` and the constants.

    ``epsilon`` always lands in ``[1 + max(m,1), 2 + max(m,1)]``; tests pin
    the full table for representative ``mu``.
    """
    mu = float(mu)
    if mu < 0.0 or not np.isfinite(mu):
        raise ValueError("mu must be a non-negative real")
    if mu > MAX_MU:
        raise ValueError(f"the constant chain is computable for mu <= {MAX_MU} only, got {mu:g}")
    m, mu_prime = _split_mu(mu)
    alpha = _alpha(mu_prime)
    beta = max(2 * m + 4, m + alpha)
    epsilon = max(2 * m - mu + 1.0, math.floor(mu) - mu + 3.0)
    return TheoremParams(
        mu=mu,
        m=m,
        alpha=alpha,
        beta=beta,
        epsilon=epsilon,
        constants=const_chain(mu),
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


def _minimize_scan_golden(obj: Callable, lo: float, hi: float) -> float:
    """Log-spaced coarse scan of the elementwise ``obj`` (one call on the whole
    grid) + scalar golden-section polish; returns the minimum value."""
    xs = np.geomspace(lo, hi, _SCAN_POINTS)
    vals = obj(xs)
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
    return min(obj(0.5 * (a + b)), fc, fd)


@lru_cache(maxsize=None)
def const_Cm1(m: int) -> float:
    """Constant for the power-difference frequency estimate at order ``m``.

    ``m = 0`` returns 0: the quantity it multiplies vanishes identically
    (the zeroth powers cancel).
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    if m == 0:
        return 0.0

    def obj(c):
        # For large m, 8^m / c^(2m+2) near c = 1e-2 overflows to inf on the scan
        # grid; inf is never the minimum, so numpy's warning is silenced.
        with np.errstate(over="ignore"):
            return np.maximum(E_m_eval(c, [m])[0] + 1.0 / (c * c), 8.0**m / c ** (2 * m + 2))

    val = _minimize_scan_golden(obj, _ENDPOINT_INSET, math.pi - _ENDPOINT_INSET)
    return math.pi * 2.0 ** (m / 2.0) * float(val)


@lru_cache(maxsize=None)
def const_Cmu1(mu_prime: float) -> float:
    """Constant of the fractional-part estimate, for ``mu_prime`` in (-1, 0]."""
    mu_prime = float(mu_prime)
    if not (-1.0 < mu_prime <= 0.0):
        raise ValueError("const_Cmu1 requires -1 < mu_prime <= 0")
    alpha = _alpha(mu_prime)
    # alpha - 4 is exact, so e1 keeps every digit of a mu_prime near 0
    e1 = 2.0 ** (3.0 - mu_prime) * max(1.0, 1.0 / ((alpha - 4) - mu_prime))
    e2 = 8.0 * alpha / (alpha - 1.0)

    def obj(c):
        return e1 * theta3(c, mu_prime) + e2 * c ** (1.0 - alpha)

    return _minimize_scan_golden(obj, _ENDPOINT_INSET, solve_c0() - _ENDPOINT_INSET)


def const_chain(mu: float) -> dict:
    """Assemble every constant feeding the final ``Cmu`` for this ``mu``."""
    mu = float(mu)
    if mu < 0.0:
        raise ValueError("mu must be non-negative")
    m, mu_prime = _split_mu(mu)
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
    g: PolyExp,
    kappa,
    t: float,
    params: "TheoremParams | None" = None,
):
    """Evaluate ``kappa^2 * C(1/t) * (I1 + I2)`` at a finite ``t > 0``.

    The two time integrals are exact sums on the input's coefficient data
    (:meth:`trcq_kit.functions.PolyExp.time_l1`).  They do not depend on ``kappa``,
    which may be an array: the integrals then run once for all its steps,
    and the bound comes back elementwise.
    """
    kap = np.asarray(kappa, dtype=float)
    if not np.all((kap > 0.0) & (kap <= 1.0)):
        raise ValueError("kappa must lie in (0, 1]")
    if not 0.0 < t < math.inf:  # NaN too
        raise ValueError(f"t must be finite and positive, got {t:g}")
    if params is None:
        params = derive_params(F.mu)
    m, alpha = params.m, params.alpha
    g.require(params.beta, "the bound")

    with named_integral(f"I1 = int_0^{t:g} |g^({m + alpha})|"):
        i1 = g.time_l1(m + alpha, 0, t)
    with named_integral(f"I2 = int_0^{t:g} |P_{m} g^({m + 4})|"):
        i2 = g.time_l1(m + 4, m, t)

    x = 1.0 / t
    c_of_x = F.cf(min(x, 1.0) / 4.0) * params.constants["Cmu"] / min(x, 1.0) ** params.epsilon
    rhs = kap * kap * c_of_x * (i1 + i2)
    return float(rhs) if kap.ndim == 0 else rhs


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
