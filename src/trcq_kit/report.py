"""Structured results for numerical inequality checks.

Every check suite in this package reduces to the same shape of experiment:
sample many points, evaluate a quantity and the bound that is supposed to
dominate it, and record how close the two came.  ``VerificationReport``
captures one such run; :func:`pointwise_report` builds it from the raw
arrays so the suites themselves stay short.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = [
    "VerificationReport",
    "pointwise_report",
    "combine_reports",
]


# --------------------------------------------------------------------------
# report container
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one sampled inequality check.

    A sample *violates* the check when ``quantity > bound * (1 + tol) + tol``
    for the slack ``tol`` given to :func:`pointwise_report`; ``worst_margin``
    is the smallest value of ``bound - quantity`` seen, so a healthy suite
    reports ``violations == 0`` and a non-negative (or at worst ``-O(tol)``)
    margin.
    """

    suite: str                      # name of the inequality family checked
    samples: int                    # number of sample points evaluated
    seed: int                       # RNG seed that reproduces the run
    violations: int                 # samples exceeding bound beyond tolerance
    worst_margin: float             # min(bound - quantity) over all samples
    worst_point: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.samples < 0:
            raise ValueError("samples must be non-negative")
        if self.violations < 0 or self.violations > max(self.samples, 0):
            raise ValueError("violations must lie in [0, samples]")

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def csv_row(self) -> str:
        """One CSV line: ``suite,samples,seed,violations,worst_margin,worst_point_json``."""
        point = json.dumps(self.worst_point, sort_keys=True, default=_json_default)
        quoted = '"' + point.replace('"', '""') + '"'  # CSV-quote the JSON blob
        return ",".join(
            [
                self.suite,
                str(self.samples),
                str(self.seed),
                str(self.violations),
                format(self.worst_margin, ".17g"),
                quoted,
            ]
        )


CSV_HEADER = "suite,samples,seed,violations,worst_margin,worst_point_json"


def _json_default(obj: Any) -> Any:
    """Make numpy scalars and complex values JSON-serializable."""
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    raise TypeError(f"cannot serialize {type(obj)!r}")


# --------------------------------------------------------------------------
# builders
# --------------------------------------------------------------------------


def pointwise_report(
    suite: str,
    quantity: np.ndarray,
    bound: np.ndarray,
    *,
    seed: int,
    tol: float = 1e-12,
    **point: Any,
) -> VerificationReport:
    """Build a report from per-sample ``quantity``/``bound`` arrays.

    The keywords in ``point`` are the coordinates recorded with the worst
    sample: an array is read at that sample's flat index, any other value is
    recorded as given.  A non-finite sample raises ``ValueError``: NaN would
    never count as a violation.
    """
    q = np.asarray(quantity, dtype=float).ravel()
    b = np.asarray(bound, dtype=float).ravel()
    if q.shape != b.shape:
        raise ValueError("quantity and bound must have matching shapes")
    if q.size == 0:
        raise ValueError("empty sample set")
    finite = np.isfinite(q) & np.isfinite(b)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"{suite}: sample {i} is not finite: quantity {q[i]:g}, bound {b[i]:g}")
    margin = b - q
    bad = q > b * (1.0 + tol) + tol
    worst = int(np.argmin(margin))
    coordinates = {
        name: value.item(worst) if isinstance(value, np.ndarray) else value
        for name, value in point.items()
    }
    return VerificationReport(
        suite=suite,
        samples=int(q.size),
        seed=seed,
        violations=int(np.count_nonzero(bad)),
        worst_margin=float(margin[worst]),
        worst_point={
            "index": worst, **coordinates, "quantity": float(q[worst]), "bound": float(b[worst])
        },
    )


def combine_reports(suite: str, parts: "list[VerificationReport]") -> VerificationReport:
    """Merge sub-reports (e.g. the parts (a)-(d) of one family) into one."""
    if not parts:
        raise ValueError("no reports to combine")
    worst = min(parts, key=lambda r: r.worst_margin)
    point = dict(worst.worst_point)
    point["part"] = worst.suite
    return VerificationReport(
        suite=suite,
        samples=sum(r.samples for r in parts),
        seed=parts[0].seed,
        violations=sum(r.violations for r in parts),
        worst_margin=worst.worst_margin,
        worst_point=point,
    )
