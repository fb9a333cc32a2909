"""Adaptive quadrature for the frequency-axis integrals of the checks.

Two building blocks:

* :func:`adaptive_simpson` — classic adaptive Simpson with Richardson
  acceptance (the /15 estimate) on a finite interval.
* :func:`integrate_semi_infinite` — for frequency-axis integrals
  ``int_start^inf f``: the head ``[start, start + first_width]`` plus
  segments up to a doubling cutoff, stopping once a caller-supplied
  *certified* tail bound is negligible.  The tail bound is returned so
  inequality checks can add it to the computed value and stay one-sided.

Integrands here are real, non-negative norms; everything is scalar-valued.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = ["adaptive_simpson", "integrate_semi_infinite", "named_integral"]

# cutoff doublings before a semi-infinite integral is declared non-localizing
_MAX_DOUBLINGS = 200
# bisections of one panel before adaptive Simpson declares it unresolved
_MAX_DEPTH = 48


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return (h / 6.0) * (fa + 4.0 * fm + fb)


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = 1e-9,
    abs_floor: float = 1e-14,
) -> float:
    """Integrate ``f`` over ``[a, b]`` adaptively.

    A panel is accepted when the two-half refinement changes the Simpson
    value by less than ``15 * max(abs_floor, rel_tol * local)``; the
    Richardson-extrapolated value is returned.  ``abs_floor`` stops infinite
    refinement where the integrand vanishes identically.

    A non-finite integrand value raises ``ValueError``; a panel still
    unresolved after ``_MAX_DEPTH`` bisections raises ``RuntimeError``, so an
    under-resolved integral is never returned as a converged one.
    """
    if not b > a:
        if b == a:
            return 0.0
        raise ValueError("need b >= a")

    def value(t: float) -> float:
        y = f(t)
        if not math.isfinite(y):
            raise ValueError(f"integrand value {y} at {t:.17g} is not finite")
        return y

    fa, fb = value(a), value(b)
    mid = 0.5 * (a + b)
    fm = value(mid)
    whole = _simpson(fa, fm, fb, b - a)

    def recurse(a, b, fa, fm, fb, whole, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = value(lm), value(rm)
        left = _simpson(fa, flm, fm, m - a)
        right = _simpson(fm, frm, fb, b - m)
        err = left + right - whole
        scale = abs(left) + abs(right)
        if abs(err) <= 15.0 * max(abs_floor, rel_tol * scale):
            return left + right + err / 15.0
        if depth <= 0:
            raise RuntimeError(
                f"adaptive_simpson: panel [{a:.17g}, {b:.17g}] unresolved after "
                f"{_MAX_DEPTH} bisections (error estimate {err:.3e})"
            )
        return recurse(a, m, fa, flm, fm, left, depth - 1) + recurse(
            m, b, fm, frm, fb, right, depth - 1
        )

    return recurse(a, b, fa, fm, fb, whole, _MAX_DEPTH)


def integrate_semi_infinite(
    f: Callable[[float], float],
    tail_bound: Callable[[float], float],
    start: float = 0.0,
    rel_tol: float = 1e-9,
    abs_floor: float = 1e-14,
    first_width: float = 1.0,
) -> tuple[float, float, float]:
    """Approximate ``int_start^inf f`` with a certified remainder.

    ``tail_bound(R)`` must bound ``int_R^inf f`` from above.  Returns
    ``(head, tail, R)`` where ``head`` integrates ``[start, R]`` and ``tail =
    tail_bound(R)``.  The first cutoff is ``start + first_width``; after that
    the cutoff doubles until the tail is negligible against the head (or
    ``_MAX_DOUBLINGS`` doublings are exhausted, which raises).  A cutoff that
    is not finite is refused with ``ValueError``: the tail at an infinite
    cutoff certifies nothing.
    """
    lo, omega, total = start, start + first_width, 0.0
    for _ in range(_MAX_DOUBLINGS):
        if not math.isfinite(omega):
            raise ValueError(f"cutoff {omega} is not finite")
        total += adaptive_simpson(f, lo, omega, rel_tol, abs_floor)
        t = tail_bound(omega)
        if t <= max(abs_floor, rel_tol * (abs(total) + t)):
            return total, t, omega
        lo, omega = omega, 2.0 * omega
    raise RuntimeError(
        f"frequency integral did not localize: tail {tail_bound(omega):.3e} at cutoff {omega:.3e}"
    )


@contextmanager
def named_integral(name: str) -> Iterator[None]:
    """Prefix a ``ValueError`` or ``RuntimeError`` raised inside with ``name``.

    The type is kept, so a non-finite integrand still reads as bad input and
    an unresolved panel as an uncertified result; an ``ArithmeticError`` (a
    float ``**`` overflow, a division by zero) becomes a ``ValueError``.
    """
    try:
        yield
    except (ValueError, ArithmeticError) as exc:
        raise ValueError(f"{name}: {exc}") from exc
    except RuntimeError as exc:
        raise RuntimeError(f"{name}: {exc}") from exc
