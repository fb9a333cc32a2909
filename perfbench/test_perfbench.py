"""Tests of the benchmark itself: failure accounting, checks, tracing arithmetic.

None of them starts a worker or times anything; run with
``python3 -m pytest perfbench -q``.
"""

import json
import os

import numpy as np
import pytest

import run
import tracer
import workloads

# ``trcq constants --mu 1.5 --out F`` at the baseline commit
CONSTANTS_1_5 = (
    "# trcq-kit 0.1.0 config=eb7a44f2784f\n"
    "mu,m,alpha,beta,epsilon,Cm1,Cmu1,Cmu2,Cm,Cmu3,Cmu\n"
    "1.5,2,4,8,3.5,6.7087495178513628,5.4162327645792754,2.3432138927745827,"
    "2.9023928174171085,4.104603285725533,4.104603285725533\n"
)


class FakeWorkers:
    """Stands in for the worker pool: writes a canned output, reports rc 0."""

    def __init__(self, text):
        self.text = text

    def run(self, argv, flags):
        path = os.path.join(run.ROOT, argv[argv.index("--out") + 1])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.text)
        return {"rc": 0, "main_s": 0.25, "maxrss_kib": 1024, "stdout": "", "error": None}


@pytest.fixture
def constants_call(tmp_path):
    out = os.path.relpath(tmp_path / "constants.csv", run.ROOT)
    return workloads.Call("constants mu=1.5", ["constants", "--mu", "1.5"], out, 0,
                          lambda o: workloads.check_constants(o, 1.5))


def test_corrupted_output_counts_as_failed_call(constants_call):
    rng = run.random.Random(0)
    problems = []
    good = run.run_op(FakeWorkers(CONSTANTS_1_5), [constants_call], rng, False, problems)
    assert (good["failed"], problems) == (0, [])

    corrupted = CONSTANTS_1_5.replace("6.7087495178513628", "6.7087495178613628")
    bad = run.run_op(FakeWorkers(corrupted), [constants_call], rng, False, problems)
    assert bad["failed"] == 1
    assert "constants" in problems[0]


def test_crash_and_wrong_exit_code_fail():
    ok = workloads.Outcome(0, "", None, CONSTANTS_1_5)
    assert workloads.check_constants(ok, 1.5) == []
    assert workloads.check_constants(workloads.Outcome(1, "", None, CONSTANTS_1_5), 1.5)
    crashed = workloads.Outcome(None, "", "Traceback ...\nOverflowError: boom", "")
    assert workloads.check_constants(crashed, 1.5) == ["raised: OverflowError: boom"]


def test_engine_check_rejects_a_perturbed_signal():
    ref = np.linspace(1.0, 2.0, 5) + 0.0j
    rows = "".join(f"{n},{n * 0.5},{float(z.real)!r},0\n" for n, z in enumerate(ref))
    text = "# trcq-kit 0.1.0 config=0123456789ab\nn,t,re_0,im_0\n" + rows
    assert workloads.check_engines(workloads.Outcome(0, "", None, text), ref) == []
    off = ref.copy()
    off[3] += 1e-9
    assert workloads.check_engines(workloads.Outcome(0, "", None, text), off)


def test_verify_check_counts_violations():
    text = ("# trcq-kit 0.1.0 config=0123456789ab\n"
            "suite,samples,seed,violations,worst_margin,worst_point\n"
            'lemma32,600000,7,{v},0.5,"{{}}"\n')
    ok = workloads.Outcome(0, "", None, text.format(v=0))
    assert workloads.check_verify(ok, "lemma32", 7) == []
    bad = workloads.Outcome(0, "", None, text.format(v=3))
    assert workloads.check_verify(bad, "lemma32", 7) == ["3 violations"]


def test_resolvent_matrix_is_seeded_and_dissipative():
    for seed in range(20):
        A = workloads.resolvent_matrix(seed)
        assert np.linalg.eigvalsh(0.5 * (A + A.T)).max() < 0.0
        np.testing.assert_array_equal(A, workloads.resolvent_matrix(seed))
    assert not np.array_equal(workloads.resolvent_matrix(1), workloads.resolvent_matrix(2))


def test_self_time_subtracts_direct_children():
    spans = [
        ("cli.main", 0.0, 10.0, -1),
        ("weights.cq_weights_fft", 1.0, 7.0, 0),
        ("symbols.eval", 2.0, 5.0, 1),
        ("convolution.sample", 7.0, 9.0, 0),
    ]
    rows = tracer.summarize(spans)
    assert rows["cli.main"]["self_s"] == pytest.approx(2.0)
    assert rows["weights.cq_weights_fft"]["self_s"] == pytest.approx(3.0)
    assert rows["weights.cq_weights_fft"]["incl_s"] == pytest.approx(6.0)
    assert rows["symbols.eval"]["calls"] == 1


def test_recorder_nests_spans():
    rec = tracer.Recorder()
    inner = rec.span("inner", lambda x: x + 1)
    outer = rec.span("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert [(name, parent) for name, _, _, parent in rec.spans] == [("outer", -1), ("inner", 0)]


def test_tail_keeps_ten_ops_beyond_it():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "max of 3")
    value, label = run.tail([float(i) for i in range(20)])
    assert (value, label) == (9.0, "p50.0 of 20")


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    reported = [name for name, _, _ in run.LAYER_METRICS] + [n for n, _ in run.RUN_METRICS]
    assert [m["name"] for m in bench["per_layer"]] == reported
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "op_s_p50", "steps_per_s", "peak_rss_mib"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
