"""Tests for the verification-report container and its CSV serialization."""

import json

import numpy as np
import pytest

from trcq_kit import (
    VerificationReport,
    chunked_reports,
    combine_reports,
    delta_char,
    pointwise_report,
    sample_cplus,
)
from trcq_kit.report import _CHUNK, CSV_HEADER
from trcq_kit.trmap import D_eval, E_m_eval, delta_power_diff, s_kappa, solve_c0
from trcq_kit.verify import SUITE_TOL, check_lemma31, check_prop32


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


def chunked(q, b, **point):
    """chunked_reports on the arrays themselves, recorded as samples q and b:
    one report, named demo."""
    (report,) = chunked_reports(
        lambda q, b: [(q, b)], {"q": q, "b": b}, {"demo": point}, seed=5, tol=1e-12
    )
    return report


def whole(q, b, **point):
    """The report ``chunked`` must equal: one pointwise_report on all samples."""
    return pointwise_report("demo", q, b, seed=5, tol=1e-12, q=q, b=b, **point)


class TestChunkedReports:
    """The streaming reduction over chunks of _CHUNK samples gives the report
    of one whole-array pointwise_report."""

    def test_equals_the_whole_array_report(self):
        rng = np.random.default_rng(3)
        n = 3 * _CHUNK + 17
        q = rng.random(n)
        b = q + rng.normal(0.0, 1e-3, n)  # about half the samples violate
        z = rng.random(n) + 1j * rng.random(n)
        got = chunked(q, b, z=z, kappa=0.1)
        assert got == whole(q, b, z=z, kappa=0.1)
        assert 0 < got.violations < n
        assert got.worst_point["index"] < _CHUNK
        b[n - 3] = q[n - 3] - 1.0  # now the worst sample is in the last chunk
        got = chunked(q, b, z=z, kappa=0.1)
        assert got == whole(q, b, z=z, kappa=0.1)
        assert got.worst_point["index"] == n - 3
        assert got.worst_point["z"] == z[n - 3]

    def test_tie_across_a_chunk_boundary_keeps_the_first_index(self):
        n = 2 * _CHUNK
        q, b = np.zeros(n), np.ones(n)
        q[[_CHUNK - 1, _CHUNK, _CHUNK + 3]] = 0.75
        got = chunked(q, b)
        assert got.worst_point["index"] == _CHUNK - 1
        assert got == whole(q, b)

    def test_non_finite_sample_named_by_its_global_index(self):
        n = 2 * _CHUNK + 1
        q, b = np.zeros(n), np.ones(n)
        b[_CHUNK + 7] = np.nan
        b[2 * _CHUNK] = np.inf
        with pytest.raises(ValueError, match=f"^demo: sample {_CHUNK + 7} is not finite"):
            chunked(q, b)

    def test_parts_of_one_evaluation_fail_in_their_order(self):
        """The first part's non-finite sample is named, though a later part
        met one in an earlier chunk, as with one report per whole array."""
        n = 2 * _CHUNK
        q, b = np.zeros(n), np.ones(n)
        first, second = q.copy(), q.copy()
        first[_CHUNK + 1] = np.nan
        second[2] = np.nan

        def evaluate(first, second, b):
            return [(first, b), (second, b)]

        with pytest.raises(ValueError, match=f"^a: sample {_CHUNK + 1} is not finite"):
            chunked_reports(
                evaluate, {"first": first, "second": second, "b": b}, {"a": {}, "b": {}},
                seed=0, tol=0.0,
            )

    def test_records_the_named_samples_in_each_report(self):
        """Each part's report records every named sample at its own worst
        index, then the part's own coordinates."""
        n = _CHUNK + 5
        z = np.arange(n) + 1j
        kappa = np.linspace(0.5, 1.0, n)
        q, b = np.zeros(n), np.ones(n)
        first, second = q.copy(), q.copy()
        first[3], second[_CHUNK + 2] = 0.5, 0.25

        def evaluate(z, kappa):
            i = z.real.astype(int)  # the global indices of the chunk
            return [(first[i], b[i]), (second[i], b[i])]

        a, c = chunked_reports(
            evaluate, {"z": z, "kappa": kappa}, {"a": {"m": 1}, "c": {"m": 2}}, seed=4, tol=0.0
        )
        assert a.worst_point == {
            "index": 3, "z": 3 + 1j, "kappa": kappa[3], "m": 1, "quantity": 0.5, "bound": 1.0
        }
        i = _CHUNK + 2
        assert c.worst_point == {
            "index": i, "z": i + 1j, "kappa": kappa[i], "m": 2, "quantity": 0.25, "bound": 1.0
        }
        assert type(a.worst_point["z"]) is complex and type(c.worst_point["kappa"]) is float
        assert a == pointwise_report("a", first, b, seed=4, tol=0.0, z=z, kappa=kappa, m=1)
        assert c == pointwise_report("c", second, b, seed=4, tol=0.0, z=z, kappa=kappa, m=2)


def lemma31_whole(samples, seed):
    """check_lemma31's formulas, each part evaluated on all its samples at once."""
    rng = np.random.default_rng(seed)
    parts = []
    z = sample_cplus(samples, rng)
    w = delta_char(np.exp(-z))
    mn = np.minimum(z.real, 1.0)
    parts.append(pointwise_report("lemma31:a", 0.5 * mn, w.real, seed=seed, tol=SUITE_TOL, z=z))
    parts.append(pointwise_report("lemma31:b", np.abs(w), 8.0 / mn, seed=seed, tol=SUITE_TOL, z=z))
    z = sample_cplus(samples, rng, max_modulus=np.pi * (1.0 - 1e-3))
    orders = range(1, 6)
    defects = np.abs(delta_power_diff(z, orders))
    envelopes = E_m_eval(np.abs(z), orders)
    for m, defect, e_m in zip(orders, defects, envelopes):
        parts.append(pointwise_report(
            f"lemma31:c[m={m}]", defect, e_m * np.abs(z) ** (m + 2),
            seed=seed, tol=SUITE_TOL, z=z, m=m,
        ))
    z = sample_cplus(samples, rng, max_modulus=solve_c0() * (1.0 - 1e-3))
    mod = np.abs(z)
    parts.append(pointwise_report(
        "lemma31:d", 1.0 - mod * mod * D_eval(mod), (delta_char(np.exp(-z)) / z).real,
        seed=seed, tol=SUITE_TOL, z=z,
    ))
    return combine_reports("lemma31", parts)


def prop32_whole(samples, seed):
    """check_prop32's formulas, each part evaluated on all its samples at once:
    steps kappa uniform on (0, 1], then points s with |s| <= 1e3 and, in parts
    (c) and (d), |kappa s| inside pi and c0 (inset)."""
    rng = np.random.default_rng(seed)
    parts = []
    kappa = 1.0 - rng.random(samples)
    s = sample_cplus(samples, rng)
    sk = s_kappa(s, kappa)
    mn = np.minimum(s.real, 1.0)
    point = {"s": s, "kappa": kappa}
    parts.append(pointwise_report("prop32:a", 0.5 * mn, sk.real, seed=seed, tol=SUITE_TOL, **point))
    parts.append(pointwise_report(
        "prop32:b", np.abs(sk), 8.0 / (kappa * kappa * mn), seed=seed, tol=SUITE_TOL, **point,
    ))
    kappa = 1.0 - rng.random(samples)
    s = sample_cplus(samples, rng, max_modulus=np.minimum(1e3, np.pi * (1.0 - 1e-3) / kappa))
    orders = range(1, 6)
    defects = np.abs(delta_power_diff(kappa * s, orders))
    envelopes = E_m_eval(np.abs(kappa * s), orders)
    for m, defect, e_m in zip(orders, defects, envelopes):
        parts.append(pointwise_report(
            f"prop32:c[m={m}]", defect / kappa**m, e_m * kappa * kappa * np.abs(s) ** (m + 2),
            seed=seed, tol=SUITE_TOL, s=s, kappa=kappa, m=m,
        ))
    kappa = 1.0 - rng.random(samples)
    s = sample_cplus(samples, rng, max_modulus=np.minimum(1e3, solve_c0() * (1.0 - 1e-3) / kappa))
    mod = np.abs(kappa * s)
    parts.append(pointwise_report(
        "prop32:d", 1.0 - mod * mod * D_eval(mod), (s_kappa(s, kappa) / s).real,
        seed=seed, tol=SUITE_TOL, s=s, kappa=kappa,
    ))
    return combine_reports("prop32", parts)


@pytest.mark.parametrize("suite, whole", [(check_lemma31, lemma31_whole),
                                          (check_prop32, prop32_whole)],
                         ids=["lemma31", "prop32"])
@pytest.mark.parametrize("samples", [_CHUNK - 1, _CHUNK, _CHUNK + 1])
def test_sampled_suite_at_the_chunk_edges(samples, suite, whole):
    """A suite's chunked report equals the whole-array evaluation of its
    formulas, worst point and margin to the bit, on either side of a chunk."""
    for seed in (1, 2):
        assert suite(samples, seed) == whole(samples, seed)


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
