"""The three workloads: their CLI calls, the references and the output checks.

A workload is a fixed list of ``trcq`` calls; one pass over the list is an
op.  Every call has a check that reads what the call printed and wrote and
returns the problems it found, so a call fails on a wrong exit code, an
exception, or a wrong output.  The checks are pure functions of text, which
lets the benchmark's own test feed them corrupted outputs.  Closed-form
values and contour sizes come from the package itself (``src`` must be on
``sys.path``), so the checks follow the program's own rules.

Why these workloads:

* ``long_horizon`` is the scale path: one fft convolution of 2^16 steps
  whose time goes mostly to the weight contour, then CSV writing, input
  sampling and the fft engine.  Weight, CSV and memory changes show here.
  (2^16 rather than 2^18 so that a run of ``run_seconds`` holds well over ten
  ops, which a steady median needs.)
* ``accuracy_study`` runs many mid-size weight tables, a matrix symbol,
  the closed-form references and the O(N^2) naive engine, the only user
  of ``kernels``.
* ``certify`` runs the constant chain, the a-priori bound and all eight
  verification suites; it bypasses the weight contour and CSV, so a weights
  change must leave it unmoved.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

NAMES = ("long_horizon", "accuracy_study", "certify")

PROVENANCE = re.compile(r"# trcq-kit \S+ config=([0-9a-f]{12})\Z")

# --------------------------------------------------------------------------
# frozen expectations
# --------------------------------------------------------------------------

CONVERGE_KAPPAS = [2.0**-k for k in range(4, 12)]

# error_at_t of each converge ladder at the baseline commit.  A change that
# keeps the scheme leaves them within CONVERGE_RTOL; a wrong weight table or
# engine moves them by orders of magnitude.
CONVERGE_ERRORS = {
    ("power:0.5", "mono:7"): [
        181.54924724181183, 45.38990253652446, 11.347637557657436, 2.8369195256382227,
        0.70923052309081036, 0.1773076867684843, 0.044326965697303169, 0.011081825013575587,
    ],
    ("decay:2.0", "mono:5"): [
        0.24169539888680447, 0.060424564970162464, 0.015106185948752682,
        0.0037765492870676103, 0.00094413750775857938, 0.00023603440968161923,
        5.900864744303434e-05, 1.4752251488256058e-05,
    ],
    ("power:1", "poly6exp"): [
        0.0073559784227867908, 0.0018389467433266304, 0.00045969598728134997,
        0.0001149240271445251, 2.8730888118389053e-05, 7.1829074741489746e-06,
        1.7961602415242172e-06, 4.4942071784175288e-07,
    ],
}
CONVERGE_RTOL = 0.05
EOC_TOL = 0.05  # |observed order - 2| on the finer rungs (third onwards)

# Constant chain rows.  (m, alpha, beta, epsilon) and Cm1(m), Cmu1(mu - m)
# come from PARAM_TABLE and CHAIN_TABLE in tests/test_bounds.py, whose values
# are 50-digit references; Cm1(3) and the mu = 2.5 parameters are not in
# those tables and are pinned at the baseline commit.
CONSTANTS_MU = (0.0, 0.5, 1.0, 1.5, 2.5)
PARAMS = {
    0.0: (0, 5, 5, 3.0),
    0.5: (1, 4, 6, 2.5),
    1.0: (1, 5, 6, 3.0),
    1.5: (2, 4, 8, 3.5),
    2.5: (3, 4, 10, 4.5),
}
CM1 = {0: 0.0, 1: 1.6312623571634567761, 2: 6.7087495178513277561, 3: 31.455691145404661}
CMU1 = {0.0: 1.7115017345609548217, -0.5: 5.4162327645792753024}
CONSTANTS_RTOL = 5e-14  # the tolerance of the pinned-chain test

VERIFY_SAMPLES = {
    "hyperbolic": 400000,
    "lemma31": 800000,
    "prop32": 800000,
    "lemma32": 600000,
    "prop41": 700000,
    "lemma42": 2,
    "lemma33": 1,
    "prop34a": 1,
}

# the suites that sample at random; the quadrature suites report seed 0
SEEDED_SUITES = ("hyperbolic", "lemma31", "prop32", "lemma32", "prop41")

BOUND_CASES = (("power:0.5", "mono:7"), ("power:1", "poly6exp"), ("delay:1.0", "poly6exp"))
BOUND_KAPPAS = (0.1, 0.05)  # the CLI defaults
BOUND_T_MAX = 16.0

LONG_KAPPA = 2.0**-13
NAIVE_KAPPA = 2.0**-11
RESOLVENT_KAPPA = 0.01
RESOLVENT_N = 1 << 14

ENGINE_RTOL = 1e-12     # the repository's engine-agreement gate
WEIGHTS_ATOL = 1e-10    # the repository's fft-size-doubling gate
LONG_RTOL = 1e-9        # last long_horizon value against the closed form


def steps_for(t_final: float, kappa: float) -> int:
    """Grid nodes N+1 of one discrete run, by the CLI's own step rule."""
    from trcq_kit.cli import _steps_for

    return _steps_for(t_final, kappa) + 1


# --------------------------------------------------------------------------
# output parsing and checks
# --------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one call left behind: exit code, echo lines, error, output text."""

    rc: "int | None"
    stdout: str = ""
    error: "str | None" = None
    text: str = ""


def basic_problems(o: Outcome) -> "list[str]":
    """A call passes only if it returned 0 and its output starts with provenance."""
    if o.error:
        return ["raised: " + o.error.strip().splitlines()[-1]]
    if o.rc != 0:
        return [f"exit code {o.rc}, expected 0"]
    first = o.text.split("\n", 1)[0]
    if not PROVENANCE.match(first):
        return [f"provenance line malformed: {first[:80]!r}"]
    return []


def _data_rows(text: str) -> "list[str]":
    return [ln for ln in text.splitlines()[1:] if ln and not ln.startswith("#")]


def _floats(text: str, cols: int) -> np.ndarray:
    """The numeric table under the column header line."""
    rows = _data_rows(text)[1:]
    arr = np.array([[float(x) for x in r.split(",")] for r in rows], dtype=float)
    if arr.ndim != 2 or arr.shape[1] != cols:
        raise ValueError("unexpected column count")
    return arr


def check_long_horizon(o: Outcome) -> "list[str]":
    problems = basic_problems(o)
    if problems:
        return problems
    from trcq_kit.functions import exact_solution

    text = o.text
    n = steps_for(8.0, LONG_KAPPA)
    first, _, _ = text.partition("\n")
    if text.count("\n") != n + 2:
        problems.append(f"{text.count(chr(10))} lines, expected {n + 2}")
    if not text.startswith(first + "\nn,t,re_0,im_0\n"):
        problems.append("CSV header changed")
    last = text.rstrip("\n").rsplit("\n", 1)[-1].split(",")
    try:
        idx, t, re_, im = int(last[0]), float(last[1]), float(last[2]), float(last[3])
    except (ValueError, IndexError):
        return problems + [f"last row unparsable: {last!r}"]
    exact = float(exact_solution("power:0.5", "mono:7")(8.0)[0])
    if idx != n - 1 or t != 8.0:
        problems.append(f"last row is n={idx}, t={t}")
    if not (abs(re_ - exact) <= LONG_RTOL * exact and abs(im) <= LONG_RTOL * exact):
        problems.append(f"value at t=8 is {re_}+{im}j, exact {exact}")
    return problems


def check_converge(o: Outcome, symbol: str, g: str) -> "list[str]":
    problems = basic_problems(o)
    if problems:
        return problems
    rows = _data_rows(o.text)
    if not rows or rows[0] != "kappa,error_at_t,eoc":
        return ["converge header changed"]
    rows = rows[1:]
    want = CONVERGE_ERRORS[(symbol, g)]
    if len(rows) != len(want):
        return [f"{len(rows)} converge rows, expected {len(want)}"]
    for i, row in enumerate(rows):
        kappa, err, eoc = row.split(",")
        if float(kappa) != CONVERGE_KAPPAS[i]:
            problems.append(f"rung {i}: kappa {kappa}")
        if not abs(float(err) - want[i]) <= CONVERGE_RTOL * want[i]:
            problems.append(f"rung {i}: error {err}, reference {want[i]:.6g}")
        if i >= 2 and not abs(float(eoc) - 2.0) <= EOC_TOL:
            problems.append(f"rung {i}: observed order {eoc}, expected 2")
    return problems


def check_longtime(o: Outcome) -> "list[str]":
    problems = basic_problems(o)
    if problems:
        return problems
    rows = _data_rows(o.text)
    if not rows or rows[0] != "t,error":
        return ["longtime header changed"]
    ts = [200.0 / 2**k for k in range(7, -1, -1)]
    got = [tuple(map(float, r.split(","))) for r in rows[1:]]
    if [t for t, _ in got] != ts:
        problems.append(f"time grid {[t for t, _ in got]}")
    if not all(0.0 <= e <= 1e-4 for _, e in got):
        problems.append(f"pointwise errors out of range: {[e for _, e in got]}")
    fits = dict(
        ln[2:].split(" = ") for ln in o.text.splitlines() if ln.startswith("# ") and " = " in ln
    )
    for key in ("exp_rate_r", "loglog_slope_p"):
        if key not in fits or not float(fits[key]) < 0.0:
            problems.append(f"{key} missing or not negative: {fits.get(key)}")
    return problems


def parse_signal(text: str) -> np.ndarray:
    """Complex samples of a single-component ``n,t,re_0,im_0`` CSV."""
    arr = _floats(text, 4)
    return arr[:, 2] + 1j * arr[:, 3]


def check_engines(o: Outcome, reference: np.ndarray) -> "list[str]":
    problems = basic_problems(o)
    if problems:
        return problems
    try:
        got = parse_signal(o.text)
    except ValueError as exc:
        return [f"CSV unparsable: {exc}"]
    if got.shape != reference.shape:
        return [f"{got.size} rows, fft reference has {reference.size}"]
    scale = float(np.max(np.abs(reference))) or 1.0
    diff = float(np.max(np.abs(got - reference)))
    if not diff <= ENGINE_RTOL * scale:
        problems.append(f"naive and fft engines differ by {diff / scale:.3e} relative")
    return problems


def parse_weights(text: str) -> np.ndarray:
    """Weight entries of a ``trcq weights`` table as (entries, N+1) complex."""
    blocks: "list[list[complex]]" = []
    for ln in text.splitlines():
        if ln.startswith("# entry"):
            blocks.append([])
        elif blocks and ln and ln[0].isdigit():
            _, re_, im = ln.split(",")
            blocks[-1].append(complex(float(re_), float(im)))
    if not blocks or len({len(b) for b in blocks}) != 1:
        raise ValueError("weight blocks missing or ragged")
    return np.array(blocks)


def check_weights(o: Outcome, reference: np.ndarray) -> "list[str]":
    problems = basic_problems(o)
    if problems:
        return problems
    if "\n# accuracy_estimate = " not in o.text:
        problems.append("accuracy_estimate line missing")
    try:
        got = parse_weights(o.text)
    except ValueError as exc:
        return problems + [str(exc)]
    if got.shape != reference.shape:
        return problems + [f"table shape {got.shape}, reference {reference.shape}"]
    diff = float(np.max(np.abs(got - reference)))
    if not diff <= WEIGHTS_ATOL:
        problems.append(f"weights differ from the 2L-contour table by {diff:.3e}")
    return problems


def expected_constants(mu: float) -> "list[float]":
    """mu,m,alpha,beta,epsilon,Cm1,Cmu1,Cmu2,Cm,Cmu3,Cmu for one mu."""
    m, alpha, beta, eps = PARAMS[mu]
    cm1, cmu1 = CM1[m], CMU1[mu - m]
    scale = math.e / (2.0 * math.pi)
    cm, cmu2 = scale * cm1, scale * cmu1
    cmu3 = cm * 2.0 ** (m - mu)
    return [mu, m, alpha, beta, eps, cm1, cmu1, cmu2, cm, cmu3, max(cmu2, cmu3)]


def check_constants(o: Outcome, mu: float) -> "list[str]":
    problems = basic_problems(o)
    if problems:
        return problems
    rows = _data_rows(o.text)
    if len(rows) != 2 or rows[0] != "mu,m,alpha,beta,epsilon,Cm1,Cmu1,Cmu2,Cm,Cmu3,Cmu":
        return ["constants table layout changed"]
    got = [float(x) for x in rows[1].split(",")]
    want = expected_constants(mu)
    if got[:5] != want[:5]:
        problems.append(f"mu={mu}: parameters {got[:5]}, expected {want[:5]}")
    if not np.allclose(got[5:], want[5:], rtol=CONSTANTS_RTOL, atol=1e-300):
        problems.append(f"mu={mu}: constants {got[5:]}, expected {want[5:]}")
    return problems


def check_bound(o: Outcome) -> "list[str]":
    problems = basic_problems(o)
    if problems:
        return problems
    try:
        arr = _floats(o.text, 5)
    except ValueError as exc:
        return [f"bound table unparsable: {exc}"]
    if arr.shape[0] != 10:
        problems.append(f"{arr.shape[0]} bound rows, expected 10")
    observed, rhs, ratio = arr[:, 2], arr[:, 3], arr[:, 4]
    if not (np.all(observed > 0.0) and np.all(rhs > 0.0)):
        problems.append("non-positive observed error or bound")
    if not np.all(ratio <= 1.0):
        problems.append(f"worst bound ratio {ratio.max()} exceeds 1")
    m = re.search(r"worst ratio = (\S+)", o.stdout)
    if not m or float(m.group(1)) != float(ratio.max()):
        problems.append("echoed worst ratio disagrees with the table")
    return problems


def check_verify(o: Outcome, suite: str, seed: int) -> "list[str]":
    problems = basic_problems(o)
    if problems:
        return problems
    rows = _data_rows(o.text)
    if len(rows) != 2:
        return [f"{len(rows)} verify rows, expected header and one report"]
    name, samples, row_seed, violations, _ = rows[1].split(",", 4)
    if not name.startswith(suite):
        problems.append(f"report is for suite {name!r}")
    if int(samples) != VERIFY_SAMPLES[suite]:
        problems.append(f"{samples} samples, expected {VERIFY_SAMPLES[suite]}")
    if suite in SEEDED_SUITES and int(row_seed) != seed:
        problems.append(f"seed {row_seed}, expected {seed}")
    if int(violations) != 0:
        problems.append(f"{violations} violations")
    return problems


# --------------------------------------------------------------------------
# workload definitions
# --------------------------------------------------------------------------


@dataclass
class Call:
    """One CLI call: its arguments, output file, grid nodes and check."""

    label: str
    argv: "list[str]"
    out: str
    steps: int = 0
    check: "Callable[[Outcome], list[str]]" = basic_problems

    def full_argv(self) -> "list[str]":
        return self.argv + ["--out", self.out]


@dataclass
class Workload:
    name: str
    calls: "list[Call]"
    # reference calls run before timing; each maps its output text to a value
    # that the matching check compares against
    references: "list[tuple[Call, Callable[[str], object]]]" = field(default_factory=list)


def resolvent_matrix(seed: int) -> np.ndarray:
    """A seeded 2x2 real matrix A = S - P, S skew-symmetric, P positive definite.

    The Hermitian part of A is -P, so the numerical range of A lies in
    Re < 0 and the resolvent's default growth certificate holds.
    """
    rng = np.random.default_rng(seed)
    b = rng.uniform(0.5, 2.0)
    skew = np.array([[0.0, b], [-b, 0.0]])
    B = rng.normal(scale=0.6, size=(2, 2))
    P = B @ B.T + 0.05 * np.eye(2)
    A = skew - P
    if np.linalg.eigvalsh(0.5 * (A + A.T)).max() > 0.0:
        raise ValueError("generated matrix has numerical range outside Re <= 0")
    return A


def _fmt(x: float) -> str:
    return repr(float(x))


def build(name: str, seed: int, root: str, workdir: str) -> Workload:
    """The call list of one workload; ``workdir`` is relative to the checkout ``root``."""

    def out(stem: str) -> str:
        return os.path.join(workdir, stem + ".csv")

    if name == "long_horizon":
        argv = ["convolve", "--symbol", "power:0.5", "--g", "mono:7",
                "--kappa", _fmt(LONG_KAPPA), "--t-final", "8"]
        call = Call("convolve power:0.5 N=2^16", argv, out("long_horizon"),
                    steps_for(8.0, LONG_KAPPA), check_long_horizon)
        return Workload(name, [call])

    if name == "accuracy_study":
        calls = []
        refs = []
        kappas = ",".join(_fmt(k) for k in CONVERGE_KAPPAS)
        for i, (symbol, g) in enumerate(CONVERGE_ERRORS):
            calls.append(Call(
                f"converge {symbol}/{g}",
                ["converge", "--symbol", symbol, "--g", g, "--t-final", "8",
                 "--kappa-list", kappas],
                out(f"converge{i}"),
                sum(steps_for(8.0, k) for k in CONVERGE_KAPPAS),
                lambda o, s=symbol, gg=g: check_converge(o, s, gg),
            ))
        calls.append(Call(
            "longtime decay:1.0/poly5exp",
            ["longtime", "--symbol", "decay:1.0", "--g", "poly5exp", "--kappa", "0.01",
             "--t-final", "200"],
            out("longtime"),
            steps_for(200.0, 0.01),
            check_longtime,
        ))
        naive = ["convolve", "--symbol", "power:0.5", "--g", "mono:7",
                 "--kappa", _fmt(NAIVE_KAPPA), "--t-final", "8"]
        engines: dict = {}
        refs.append((Call("convolve fft reference", naive + ["--engine", "fft"], out("fft_ref")),
                     lambda text: engines.setdefault("ref", parse_signal(text))))
        calls.append(Call(
            "convolve naive N=2^14",
            naive + ["--engine", "naive"],
            out("naive"),
            steps_for(8.0, NAIVE_KAPPA),
            lambda o: check_engines(o, engines["ref"]),
        ))
        from trcq_kit.weights import default_fft_size

        matrix = os.path.join(workdir, f"resolvent_{seed}.txt")
        np.savetxt(os.path.join(root, matrix), resolvent_matrix(seed), fmt="%.17g")
        wargs = ["weights", "--symbol", f"resolvent:{matrix}", "--kappa", _fmt(RESOLVENT_KAPPA),
                 "--n", str(RESOLVENT_N)]
        tables: dict = {}
        refs.append((Call("weights 2L reference",
                          wargs + ["--fft-size", str(2 * default_fft_size(RESOLVENT_N))],
                          out("weights_ref")),
                     lambda text: tables.setdefault("ref", parse_weights(text))))
        calls.append(Call("weights resolvent 2x2 N=2^14", wargs, out("weights"), 0,
                          lambda o: check_weights(o, tables["ref"])))
        return Workload(name, calls, refs)

    if name == "certify":
        calls = []
        for mu in CONSTANTS_MU:
            calls.append(Call(f"constants mu={mu:g}", ["constants", "--mu", _fmt(mu)],
                              out(f"constants_{mu:g}"), 0,
                              lambda o, mu=mu: check_constants(o, mu)))
        for i, (symbol, g) in enumerate(BOUND_CASES):
            calls.append(Call(f"bound {symbol}/{g}",
                              ["bound", "--symbol", symbol, "--g", g, "--seed", str(seed)],
                              out(f"bound{i}"),
                              sum(steps_for(BOUND_T_MAX, k) for k in BOUND_KAPPAS),
                              check_bound))
        for suite in VERIFY_SAMPLES:
            calls.append(Call(f"verify {suite}",
                              ["verify", "--suite", suite, "--seed", str(seed)],
                              out(f"verify_{suite}"), 0,
                              lambda o, s=suite: check_verify(o, s, seed)))
        return Workload(name, calls)

    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
