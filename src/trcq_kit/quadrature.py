"""Adaptive quadrature for the frequency-axis integrals of the checks.

* :func:`adaptive_simpson` — classic adaptive Simpson with Richardson
  acceptance (the /15 estimate) on a finite interval, one call of ``f`` per level.
* :func:`integrate_semi_infinite` — for frequency-axis integrals
  ``int_start^inf f``: the head ``[start, start + first_width]`` plus
  segments up to a doubling cutoff, stopping once a caller-supplied
  *certified* tail bound is negligible.  The tail bound is returned so
  inequality checks can add it to the computed value and stay one-sided.

Integrands here are real, non-negative norms, elementwise maps of arrays.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

__all__ = ["adaptive_simpson", "integrate_semi_infinite", "named_integral"]

# cutoff doublings before a semi-infinite integral is declared non-localizing
_MAX_DOUBLINGS = 200
# bisections of one panel before adaptive Simpson declares it unresolved
_MAX_DEPTH = 48


def adaptive_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rel_tol: float = 1e-9,
    abs_floor: float = 1e-14,
) -> float:
    """Integrate the elementwise ``f`` over ``[a, b]`` adaptively.

    A panel is accepted when the two-half refinement changes the Simpson
    value by less than ``15 * max(abs_floor, rel_tol * local)``; the
    Richardson-extrapolated values are summed with ``math.fsum``.  ``abs_floor``
    stops infinite refinement where the integrand vanishes identically.  ``f``
    gets the new nodes of all open panels of one bisection level in one array.

    A non-finite integrand value raises ``ValueError``, naming the first of its
    level; a panel still unresolved after ``_MAX_DEPTH`` bisections raises
    ``RuntimeError``, so an under-resolved integral is never returned as a
    converged one.
    """
    if not b > a:
        if b == a:
            return 0.0
        raise ValueError("need b >= a")

    # rows x, y: each open panel's ends and midpoint, and f there; inf is refused, not warned of
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x = np.array([[a, 0.5 * (a + b), b]])
        y = np.reshape(f(x[0]), (1, 3))
        whole = (b - a) / 6.0 * (y[:, 0] + 4.0 * y[:, 1] + y[:, 2])
        kept = []
        for depth in range(_MAX_DEPTH, -1, -1):
            # five points per panel: its three and the new quarter points
            X, Y = np.empty((len(x), 5)), np.empty((len(x), 5))
            X[:, ::2], Y[:, ::2] = x, y
            X[:, 1::2] = 0.5 * (x[:, :2] + x[:, 1:])
            Y[:, 1::2] = np.reshape(f(X[:, 1::2].ravel()), (-1, 2))
            bad = ~np.isfinite(Y)
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(f"integrand value {Y.flat[i]} at {X.flat[i]:.17g} is not finite")
            halves = (X[:, 2::2] - X[:, :3:2]) / 6.0 * (Y[:, :3:2] + 4.0 * Y[:, 1::2] + Y[:, 2::2])
            err = halves.sum(1) - whole
            done = np.abs(err) <= 15.0 * np.maximum(abs_floor, rel_tol * abs(halves).sum(1))
            kept += (halves.sum(1) + err / 15.0)[done].tolist()
            if done.all():
                return math.fsum(kept)
            if depth == 0:
                i = int(np.argmin(done))
                raise RuntimeError(
                    f"adaptive_simpson: panel [{X[i, 0]:.17g}, {X[i, 4]:.17g}] unresolved after "
                    f"{_MAX_DEPTH} bisections (error estimate {err[i]:.3e})"
                )
            # each open panel splits into its halves, left before right
            x, y = (np.stack([Z[:, :3], Z[:, 2:]], axis=1)[~done].reshape(-1, 3) for Z in (X, Y))
            whole = halves[~done].ravel()


def integrate_semi_infinite(
    f: Callable[[np.ndarray], np.ndarray],
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
