"""Structured results for numerical inequality checks.

Every check suite in this package reduces to the same shape of experiment:
sample many points, evaluate a quantity and the bound that is supposed to
dominate it, and record how close the two came.  ``VerificationReport``
captures one such run.  One streaming reduction builds it:
:func:`chunked_reports` feeds it the values of consecutive chunks of
samples, so only its counters outlive a chunk, and records the named sample
arrays at the worst sample; :func:`pointwise_report` is the same reduction
fed one chunk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

__all__ = [
    "VerificationReport",
    "pointwise_report",
    "chunked_reports",
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


# Samples per chunk of a sampled suite's evaluation: the per-sample arrays
# of one part live only chunk by chunk.
_CHUNK = 1 << 14


class _Reduction:
    """The one reduction rule: violations and worst sample of one report, fed in chunks.

    Chunks arrive in sample order.  The worst sample is the first one, by
    global index, at the smallest margin, as ``np.argmin`` over all samples
    finds it.  The first non-finite sample is kept and raised by
    :meth:`report`, so the reports of one evaluation fail in their order.
    """

    def __init__(self, suite: str, tol: float) -> None:
        self.suite, self.tol = suite, tol
        self.samples = self.violations = 0
        self.worst: "tuple[int, float, float, float] | None" = None  # index, margin, q, b
        self.non_finite: "tuple[int, float, float] | None" = None   # index, q, b

    def add(self, quantity: np.ndarray, bound: np.ndarray) -> None:
        q = np.asarray(quantity, dtype=float).ravel()
        b = np.asarray(bound, dtype=float).ravel()
        if q.shape != b.shape:
            raise ValueError("quantity and bound must have matching shapes")
        offset = self.samples
        self.samples += q.size
        if self.non_finite is not None or q.size == 0:
            return
        finite = np.isfinite(q) & np.isfinite(b)
        if not finite.all():
            i = int(np.argmin(finite))
            self.non_finite = (offset + i, q[i], b[i])
            return
        margin = b - q
        self.violations += int(np.count_nonzero(q > b * (1.0 + self.tol) + self.tol))
        i = int(np.argmin(margin))
        if self.worst is None or margin[i] < self.worst[1]:
            self.worst = (offset + i, float(margin[i]), float(q[i]), float(b[i]))

    def report(self, seed: int, point: "dict[str, Any]") -> VerificationReport:
        if self.samples == 0:
            raise ValueError("empty sample set")
        if self.non_finite is not None:
            i, q, b = self.non_finite
            raise ValueError(f"{self.suite}: sample {i} is not finite: quantity {q:g}, bound {b:g}")
        worst, margin, q, b = self.worst
        coordinates = {
            name: value.item(worst) if isinstance(value, np.ndarray) else value
            for name, value in point.items()
        }
        return VerificationReport(
            suite=self.suite,
            samples=self.samples,
            seed=seed,
            violations=self.violations,
            worst_margin=margin,
            worst_point={"index": worst, **coordinates, "quantity": q, "bound": b},
        )


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

    This is the reduction of :func:`chunked_reports`, fed the arrays as one
    chunk.  The keywords in ``point`` are the coordinates recorded with the worst
    sample: an array is read at that sample's flat index, any other value is
    recorded as given.  A non-finite sample raises ``ValueError``: NaN would
    never count as a violation.
    """
    reduction = _Reduction(suite, tol)
    reduction.add(quantity, bound)
    return reduction.report(seed, point)


def chunked_reports(
    evaluate: "Callable[..., Iterable[tuple[np.ndarray, np.ndarray]]]",
    samples: "dict[str, np.ndarray]",
    parts: "dict[str, dict[str, Any]]",
    *,
    seed: int,
    tol: float,
) -> "list[VerificationReport]":
    """One report per entry of ``parts``, evaluated ``_CHUNK`` samples at a time.

    ``samples`` maps coordinate names to the sample arrays; ``evaluate`` takes
    one slice of each, in that order, and returns one ``(quantity, bound)``
    pair per entry of ``parts``, in order, so parts that share work share one
    evaluation per chunk.  ``parts`` maps each report's name to its own
    coordinates.  Each report records the samples at its worst sample's index
    in the whole sample set, then its own coordinates, as the keywords of
    :func:`pointwise_report`.  With an elementwise ``evaluate`` the reports
    equal those of one whole-array call, and only the counters and the worst
    sample of each part outlive a chunk.
    """
    reductions = [_Reduction(name, tol) for name in parts]
    arrays = list(samples.values())
    for lo in range(0, len(arrays[0]), _CHUNK):
        pairs = evaluate(*(array[lo : lo + _CHUNK] for array in arrays))
        for reduction, (quantity, bound) in zip(reductions, pairs, strict=True):
            reduction.add(quantity, bound)
    return [
        reduction.report(seed, {**samples, **point})
        for reduction, point in zip(reductions, parts.values())
    ]


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
