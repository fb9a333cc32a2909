"""Tests for the verification-report container and its CSV serialization."""

import json

import numpy as np
import pytest

from trcq_kit import VerificationReport, combine_reports, pointwise_report
from trcq_kit.report import CSV_HEADER


class TestPointwiseReport:
    """Violation counting follows quantity > bound*(1+tol) + tol."""

    def test_no_violation_within_tolerance(self):
        q = np.array([1.0, 2.0, 1.0 + 5e-13])
        b = np.array([1.0, 2.5, 1.0])
        rep = pointwise_report("demo", q, b, seed=0, tol=1e-12)
        assert rep.violations == 0
        assert rep.passed

    def test_counts_violations(self):
        q = np.array([1.0, 3.0, 2.0])
        b = np.array([2.0, 2.0, 2.0 - 1e-6])
        rep = pointwise_report("demo", q, b, seed=0, tol=1e-12)
        assert rep.violations == 2
        assert not rep.passed

    def test_worst_margin_is_minimum(self):
        q = np.array([0.5, 1.9, 0.1])
        b = np.array([1.0, 2.0, 1.0])
        rep = pointwise_report("demo", q, b, seed=0, tol=1e-12)
        np.testing.assert_allclose(rep.worst_margin, 0.1)
        assert rep.worst_point["index"] == 1

    def test_named_coordinates_of_the_worst_point(self):
        """An array is read at the worst sample; any other value is kept as given."""
        q = np.array([0.0, 0.9, 0.2])
        b = np.array([1.0, 1.0, 1.0])
        z = np.array([1 + 0j, 1 + 1j, 1 + 2j])
        rep = pointwise_report("demo", q, b, seed=7, tol=1e-12, z=z, kappa=0.1, g="poly6exp")
        assert rep.worst_point == {
            "index": 1, "z": 1 + 1j, "kappa": 0.1, "g": "poly6exp", "quantity": 0.9, "bound": 1.0
        }
        assert type(rep.worst_point["z"]) is complex
        assert rep.seed == 7
        blob = rep.csv_row().split(",", 5)[5]
        assert json.loads(blob[1:-1].replace('""', '"'))["z"] == {"re": 1.0, "im": 1.0}

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pointwise_report("demo", np.zeros(3), np.zeros(4), seed=0)

    def test_non_finite_sample_rejected(self):
        """A comparison with NaN is never true, so NaN would pass as no violation."""
        with pytest.raises(ValueError, match="^x: sample 0 is not finite"):
            pointwise_report("x", [np.nan], [1.0], seed=0)
        with pytest.raises(ValueError, match="^demo: sample 1 is not finite"):
            pointwise_report("demo", np.zeros(3), np.array([1.0, np.inf, np.nan]), seed=0)


class TestCsvRow:
    """Rows are plain CSV with the JSON blob quoted by doubling quotes."""

    def test_header_and_roundtrip(self):
        assert CSV_HEADER == "suite,samples,seed,violations,worst_margin,worst_point_json"
        rep = pointwise_report(
            "suite:x",
            np.array([0.5]),
            np.array([1.0]),
            seed=3,
            tol=1e-12,
            z=1 + 2j,
            note='say "hi"',
        )
        row = rep.csv_row()
        fields = row.split(",", 5)
        assert fields[0] == "suite:x"
        assert fields[1] == "1" and fields[2] == "3" and fields[3] == "0"
        blob = fields[5]
        assert blob.startswith('"') and blob.endswith('"')
        decoded = json.loads(blob[1:-1].replace('""', '"'))
        assert decoded["z"] == {"re": 1.0, "im": 2.0}
        assert decoded["note"] == 'say "hi"'

    def test_numpy_scalars_serializable(self):
        rep = pointwise_report(
            "demo",
            np.array([0.5]),
            np.array([1.0]),
            seed=0,
            x=np.float64(1.5),
            n=np.int64(7),
        )
        blob = rep.csv_row().split(",", 5)[5]
        decoded = json.loads(blob[1:-1].replace('""', '"'))
        assert decoded["x"] == 1.5
        assert decoded["n"] == 7


class TestCombineReports:
    """Family reports aggregate counts and keep the worst sub-part."""

    def test_aggregation(self):
        a = pointwise_report("f:a", np.array([0.0, 0.0]), np.array([1.0, 1.0]), seed=1)
        b = pointwise_report("f:b", np.array([0.9]), np.array([1.0]), seed=1)
        combined = combine_reports("f", [a, b])
        assert combined.samples == 3
        assert combined.violations == 0
        np.testing.assert_allclose(combined.worst_margin, 0.1)
        assert combined.worst_point["part"] == "f:b"

    def test_violations_sum(self):
        a = pointwise_report("f:a", np.array([2.0]), np.array([1.0]), seed=1)
        b = pointwise_report("f:b", np.array([3.0]), np.array([1.0]), seed=1)
        combined = combine_reports("f", [a, b])
        assert combined.violations == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combine_reports("f", [])


class TestValidation:
    """The frozen dataclass rejects inconsistent field values."""

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            VerificationReport(
                suite="s", samples=-1, seed=0, violations=0,
                worst_margin=0.0, worst_point={},
            )
        with pytest.raises(ValueError):
            VerificationReport(
                suite="s", samples=1, seed=0, violations=2,
                worst_margin=0.0, worst_point={},
            )
