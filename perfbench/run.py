"""trcq-kit pipeline benchmark: drives the ``trcq`` CLI the way users do.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src``.  Each CLI call runs in a fresh worker interpreter (users pay the
cold ``lru_cache`` constant chain on every invocation), one call at a time,
with BLAS/OpenMP threads capped at the CPU count.  An *op* is one pass over
the workload's call list, in an order drawn from the seed; ops repeat while
one more fits in ``--seconds`` of wall time.  Op time is the summed in-worker wall
time of ``trcq_kit.cli.main(argv)``, interpreter start and import excluded.
Every call's output is checked (see ``workloads.py``), and a call fails on a
wrong exit code, an exception or a failed check.

With ``--trace 0`` the result carries the end-to-end metrics:

* ``setup_s``: median over several fresh interpreters of ``import trcq_kit.cli``;
* ``op_s_p50``: the median op time;
* ``steps_per_s``: grid nodes (N+1 summed over an op's discrete runs) per
  second of median op time;
* ``peak_rss_mib``: the median over ops of the largest worker peak RSS.

``op_s_tail``, the highest percentile with ten ops beyond it (the maximum
when there are fewer ops), is printed with the op count but not returned as
a metric: a run holds too few ops for a steady tail.

With ``--trace 1`` traced and untraced ops alternate; the traced ones wrap the
package's functions from outside (``tracer.py``) and give per-layer self times
and counts, the untraced ones give the tracing overhead.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it name every metric with its
unit, the failed-call fraction and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from tracer import VERIFY_SUITES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKDIR = ".perfbench_run"
SETUP_PROBES = 5
RUN_BUDGET_S = 170.0  # a run must end well within 180 s
TAIL_BEYOND = 10      # ops required beyond the reported tail percentile
MIB = float(1 << 20)

# Counts that depend only on the workload, never on the seed or the clock.
EXACT_COUNTS = (
    "weights.fft_points",
    "kernels.cmacs",
    "quadrature.integrand_evals",
    "functions.derivative_calls",
    "convolution.csv_bytes",
)

# --------------------------------------------------------------------------
# environment and workers
# --------------------------------------------------------------------------


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def worker_env(nproc: int) -> "dict[str, str]":
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    env["PYTHONHASHSEED"] = "0"  # the same str hashes, so the same set/dict layouts
    env.pop("TRCQ_BACKEND", None)
    return env


def _tree_sha256(top: str) -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, top).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _git_sha() -> "str | None":
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None  # not a git checkout (or a checkout nested in another repository)
    return lines[1]


def environment(nproc: int) -> dict:
    import numpy

    numba = importlib.util.find_spec("numba") is not None
    return {
        "git_sha": _git_sha(),
        "src_sha256": _tree_sha256(os.path.join(ROOT, "src")),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": nproc,
        "thread_caps": {v: str(nproc) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                "MKL_NUM_THREADS")},
        "numba_importable": numba,
        "naive_engine": "numba" if numba else "numpy sweep",
    }


class BudgetExhausted(Exception):
    pass


class Workers:
    """Starts one worker interpreter per CLI call and waits for it to end."""

    def __init__(self, nproc: int, started: float):
        self.env = worker_env(nproc)
        self.started = started

    def run(self, argv: "list[str]", flags: "list[str]") -> dict:
        remaining = RUN_BUDGET_S - (time.monotonic() - self.started)
        if remaining <= 1.0:
            raise BudgetExhausted("run time budget spent")
        cmd = [sys.executable, os.path.join(HERE, "worker.py")] + flags + ["--"] + argv
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
            raise BudgetExhausted(f"worker timed out: {' '.join(argv[:3])}") from None
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            result = {"rc": None, "error": f"worker exit {proc.returncode}: {tail[0]}",
                      "main_s": 0.0, "maxrss_kib": 0}
        result["stderr"] = proc.stderr
        return result


def run_call(workers: Workers, call: "workloads.Call", trace: bool) -> "tuple[dict, list[str]]":
    """One CLI call in a fresh worker, then its output check."""
    result = workers.run(call.full_argv(), ["--trace"] if trace else [])
    path = os.path.join(ROOT, call.out)
    text = ""
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(path)  # the next op must write it afresh
    outcome = workloads.Outcome(result.get("rc"), result.get("stdout", ""), result.get("error"), text)
    try:
        problems = call.check(outcome)
    except Exception as exc:  # a check that cannot read the output fails the call
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    result["text"] = text
    return result, problems


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------


def tail(values: "list[float]") -> "tuple[float, str]":
    """Highest percentile with TAIL_BEYOND values beyond it, else the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], f"max of {n}"
    return ordered[n - TAIL_BEYOND - 1], f"p{100.0 * (n - TAIL_BEYOND) / n:.1f} of {n}"


class OpTrace:
    """Spans and counts of one traced op, summed over its calls."""

    def __init__(self, op: dict):
        self.op_s = op["time_s"]
        self.spans: "dict[str, dict[str, float]]" = {}
        self.counts: "dict[str, float]" = {}
        self.naive_main_s = 0.0
        for label, res in op["results"]:
            trace = res.get("trace") or {"spans": {}, "counts": {}}
            for name, row in trace["spans"].items():
                acc = self.spans.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
                for key in acc:
                    acc[key] += row[key]
            for key, val in trace["counts"].items():
                self.counts[key] = self.counts.get(key, 0) + val
            if label.startswith("convolve naive"):
                self.naive_main_s += res.get("main_s", 0.0)

    def self_s(self, name: str) -> float:
        return self.spans.get(name, {}).get("self_s", 0.0)

    def incl_s(self, name: str) -> float:
        return self.spans.get(name, {}).get("incl_s", 0.0)

    def calls(self, name: str) -> int:
        return int(self.spans.get(name, {}).get("calls", 0))

    def count(self, key: str) -> float:
        return self.counts.get(key, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0.0 else 0.0


def _layer_table():
    """(name, unit, value of one traced op) for every per-layer metric."""
    s, n = "s", "count"
    table = [
        ("weights.cq_weights_fft_s", s, lambda t: t.self_s("weights.cq_weights_fft")),
        ("weights.calls", n, lambda t: t.count("weights.calls")),
        ("weights.fft_points", n, lambda t: t.count("weights.fft_points")),
        # computed from L x rows x cols x 32 B, not measured
        ("weights.contour_mib", "MiB", lambda t: t.count("weights.contour_bytes") / MIB),
        ("weights.weights_to_csv_s", s, lambda t: t.self_s("weights.weights_to_csv")),
        ("weights.op_share", "fraction",
         lambda t: _ratio(t.incl_s("weights.cq_weights_fft"), t.op_s)),
        ("symbols.eval_s", s, lambda t: t.self_s("symbols.eval")),
        ("symbols.eval_points", n, lambda t: t.count("symbols.eval_points")),
        ("symbols.validate_growth_s", s, lambda t: t.self_s("symbols.validate_growth")),
        ("trmap.delta_char_s", s, lambda t: t.self_s("trmap.delta_char")),
        ("trmap.D_eval_s", s, lambda t: t.self_s("trmap.D_eval")),
        ("trmap.D_eval_calls", n, lambda t: t.calls("trmap.D_eval")),
        ("trmap.E_m_eval_s", s, lambda t: t.self_s("trmap.E_m_eval")),
        ("trmap.E_m_eval_calls", n, lambda t: t.calls("trmap.E_m_eval")),
        ("trmap.s_kappa_s", s, lambda t: t.self_s("trmap.s_kappa")),
        ("trmap.q_ratio_s", s, lambda t: t.self_s("trmap.q_ratio")),
        ("convolution.sample_s", s, lambda t: t.self_s("convolution.sample")),
        ("convolution.convolve_fft_s", s, lambda t: t.self_s("convolution.convolve_fft")),
        # measured: the transform length convolve_fft used, summed over its calls
        ("convolution.fft_len", n, lambda t: t.count("convolution.fft_len")),
        ("convolution.signal_to_csv_s", s, lambda t: t.self_s("convolution.signal_to_csv")),
        ("convolution.csv_mib", "MiB", lambda t: t.count("convolution.csv_bytes") / MIB),
        ("convolution.error_vs_exact_s", s, lambda t: t.self_s("convolution.error_vs_exact")),
        ("convolution.convolve_naive_s", s, lambda t: t.self_s("convolution.convolve_naive")),
        ("kernels.causal_convolve_s", s, lambda t: t.self_s("kernels.causal_convolve")),
        # computed: M(M+1)/2 x rows x cols complex multiply-adds
        ("kernels.cmacs", n, lambda t: t.count("kernels.cmacs")),
        ("kernels.cmacs_per_s", "1/s",
         lambda t: _ratio(t.count("kernels.cmacs"), t.self_s("kernels.causal_convolve"))),
        ("kernels.naive_call_share", "fraction",
         lambda t: _ratio(t.incl_s("kernels.causal_convolve"), t.naive_main_s)),
        ("functions.derivative_calls", n, lambda t: t.count("functions.derivative_calls")),
        ("functions.exact_calls", n, lambda t: t.calls("functions.exact")),
        ("functions.exact_s", s, lambda t: t.self_s("functions.exact")),
        ("quadrature.adaptive_simpson_calls", n, lambda t: t.calls("quadrature.adaptive_simpson")),
        ("quadrature.integrand_evals", n, lambda t: t.count("quadrature.integrand_evals")),
        ("quadrature.adaptive_simpson_s", s, lambda t: t.self_s("quadrature.adaptive_simpson")),
        ("bounds.derive_params_s", s, lambda t: t.self_s("bounds.derive_params")),
        ("bounds.bound_rhs_s", s, lambda t: t.self_s("bounds.bound_rhs")),
        ("bounds.bound_rhs_calls", n, lambda t: t.calls("bounds.bound_rhs")),
    ]
    for suite in VERIFY_SUITES:
        table.append((f"verify.{suite}_s", s, lambda t, x=suite: t.self_s(f"verify.{x}")))
    table += [
        ("verify.samples_per_s", "1/s",
         lambda t: _ratio(t.count("verify.samples"),
                          sum(t.incl_s(f"verify.{x}") for x in VERIFY_SUITES))),
        ("verify.violations", n, lambda t: t.count("verify.violations")),
        ("cli.main_s", s, lambda t: t.self_s("cli.main")),
    ]
    return table


LAYER_METRICS = _layer_table()
# per-layer metrics about the traced run as a whole
RUN_METRICS = (
    ("trace.op_s_p50", "s"),
    ("trace.overhead_s", "s"),
    ("counts.drift", "count"),
)


def count_drift(traces: "list[OpTrace]") -> "list[str]":
    """Exact counts that differ between the traced ops of one run.

    ``spread.py`` compares the counts of runs with different seeds; the
    trajectory entries hold them for a comparison across commits.
    """
    notes = []
    for key in EXACT_COUNTS:
        seen = sorted({t.count(key) for t in traces})
        if len(seen) > 1:
            notes.append(f"{key} differs between ops: {seen}")
    return notes


def end_to_end(ops: "list[dict]", setup: "list[float]", steps: int) -> dict:
    setup = setup + [res["import_s"] for op in ops for _, res in op["results"] if "import_s" in res]
    times = [op["time_s"] for op in ops]
    p50 = statistics.median(times)
    values = {
        "setup_s": (statistics.median(setup) if setup else 0.0, "s"),
        "op_s_p50": (p50, "s"),
        "steps_per_s": (steps / p50 if p50 > 0 else 0.0, "1/s"),
        "peak_rss_mib": (statistics.median(op["rss_kib"] for op in ops) / 1024.0, "MiB"),
    }
    return values


# --------------------------------------------------------------------------
# the run
# --------------------------------------------------------------------------


def run_op(workers: Workers, calls: "list[workloads.Call]", rng: random.Random,
           trace: bool, problems_out: "list[str]") -> dict:
    order = list(calls)
    rng.shuffle(order)
    op = {"time_s": 0.0, "rss_kib": 0, "failed": 0, "results": [], "traced": trace}
    for call in order:
        result, problems = run_call(workers, call, trace)
        op["time_s"] += result.get("main_s", 0.0)
        op["rss_kib"] = max(op["rss_kib"], result.get("maxrss_kib", 0))
        result.pop("text", None)
        op["results"].append((call.label, result))
        if problems:
            op["failed"] += 1
            problems_out.extend(f"{call.label}: {p}" for p in problems)
    return op


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "trcq_kit", "cli.py")):
        print(f"error: no trcq_kit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))  # the checks use the package's own rules
    nproc = cpu_count()
    env = environment(nproc)
    workers = Workers(nproc, started)
    workdir = os.path.join(ROOT, WORKDIR)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        return measure(args, env, workers)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, env: dict, workers: Workers) -> int:
    rng = random.Random(args.seed)
    load = workloads.build(args.workload, args.seed, ROOT, WORKDIR)
    problems: "list[str]" = []
    steps = sum(c.steps for c in load.calls)

    # set-up: import probes (the first may compile bytecode and is discarded);
    # every worker of the measured ops adds its own import time to these
    probes = [workers.run([], ["--import-only"]) for _ in range(SETUP_PROBES + 1)][1:]
    setup = [p["import_s"] for p in probes if "import_s" in p]

    references_ok = True
    for call, keep in load.references:
        result, ref_problems = run_call(workers, call, trace=False)
        if ref_problems:
            references_ok = False
            problems.extend(f"{call.label}: {p}" for p in ref_problems)
        else:
            keep(result["text"])

    ops: "list[dict]" = []
    walls: "list[float]" = []
    deadline = time.monotonic() + args.seconds
    budget_note = None
    try:
        # no op starts that would, at the median op's wall time, end after
        # the deadline, so a run lasts --seconds plus its set-up
        while True:
            traced = bool(args.trace) and len(ops) % 2 == 1
            started = time.monotonic()
            ops.append(run_op(workers, load.calls, rng, traced, problems))
            walls.append(time.monotonic() - started)
            enough = len(ops) >= (2 if args.trace else 1)
            if enough and time.monotonic() + statistics.median(walls) > deadline:
                break
    except BudgetExhausted as exc:
        budget_note = str(exc)
        problems.append(budget_note)

    attempted = sum(len(op["results"]) for op in ops)
    failed = sum(op["failed"] for op in ops)
    plain = [op for op in ops if not op["traced"]]
    traced_ops = [OpTrace(op) for op in ops if op["traced"]]

    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed}: {len(ops)} ops "
          f"({len(traced_ops)} traced), {attempted} calls, {failed} failed")
    print("# op_s of each op: " + " ".join(f"{op['time_s']:.4f}" for op in ops))
    print("# setup_s probes: " + " ".join(f"{x:.4f}" for x in setup))
    for note in problems:
        print(f"# problem: {note}", file=sys.stderr)

    metrics: "dict[str, dict]" = {}
    if not args.trace and plain:
        for name, (value, unit) in end_to_end(plain, setup, steps).items():
            metrics[name] = {"value": value, "unit": unit}
        tail_s, tail_label = tail([op["time_s"] for op in plain])
        print(f"# op_s_tail = {tail_s:.6g} s ({tail_label} ops)")
    elif args.trace and plain and traced_ops:
        for name, unit, get in LAYER_METRICS:
            metrics[name] = {"value": statistics.median(get(t) for t in traced_ops), "unit": unit}
        traced_p50 = statistics.median(t.op_s for t in traced_ops)
        print("# exact counts " + json.dumps({k: traced_ops[0].count(k) for k in EXACT_COUNTS}))
        drift = count_drift(traced_ops)
        for note in drift:
            print(f"# count drift: {note}", file=sys.stderr)
        run_values = {
            "trace.op_s_p50": traced_p50,
            "trace.overhead_s": traced_p50 - statistics.median(op["time_s"] for op in plain),
            "counts.drift": len(drift),
        }
        for name, unit in RUN_METRICS:
            metrics[name] = {"value": run_values[name], "unit": unit}
    fail_frac = failed / attempted if attempted else 1.0
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(f"# fail_frac = {fail_frac:.6g} ({failed}/{attempted} calls)")

    result = {
        "correct": references_ok and failed == 0 and budget_note is None and attempted > 0,
        # a run cut before its first op ends reports one attempted, failed call
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
