"""Record what the ``trcq`` command line does on a fixed list of arguments.

    python3 tools/cli_snapshot.py OUT.json [--root CHECKOUT]

Each argument vector in ``ARGVS`` runs through ``trcq_kit.cli.main`` in a
fresh interpreter (``PYTHONPATH=CHECKOUT/src``), once writing its CSV to
stdout and once with ``--out``.  Per vector the JSON records, for both runs,
the exit code and the last stderr line; for the stdout run the sha256 of
stdout, and for the ``--out`` run the sha256 of the file and the lines echoed
to stdout.

``tests/cli_golden.json`` is this snapshot of the committed tree, and
``tests/test_cli.py`` reruns every vector in its own interpreter
(:func:`in_process`) against it, naming each field that differs
(:func:`differences`).  A change that moves output bytes rewrites the table:

    python3 tools/cli_snapshot.py tests/cli_golden.json

and its diff is the list of moved records.  The subprocess mode stays for
faults that only a fresh interpreter shows.

Every run starts in its own empty directory holding only ``FILES``, so the
relative paths in ``ARGVS`` (two resolvent matrices and a config file) resolve
the same way on every checkout.  The suite names come from this checkout's
``trcq_kit.cli._SUITES``; ``OUT_OF_RANGE`` and ``NON_FINITE`` are the argvs
that ``tests/test_cli.py`` expects to exit 2, and ``TINY_RATE`` and
``SMALL_TIME`` those it expects to exit 0, so the list is the same whichever
checkout ``--root`` names.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
from trcq_kit.cli import _SUITES  # noqa: E402

FILES = {
    "skew2.txt": "0 1\n-1 0\n",
    "damped2.txt": "-0.5 1\n-1.5 -0.25\n",
    "weights.cfg": "symbol = power:1\nn = 4\nkappa = 0.5\n",
}

OUT_OF_RANGE = {
    "poly300exp": ["bound", "--symbol", "power:0.5", "--g", "poly300exp"],
    "mono400": ["convolve", "--symbol", "power:0.5", "--g", "mono:400", "--kappa", "0.1",
                "--t-final", "1"],
    "mu1e6": ["constants", "--mu", "1e6"],
    "mu100": ["constants", "--mu", "100"],
    "lemma33-mono0": ["verify", "--suite", "lemma33", "--g", "mono:0"],
    # an empty spec is refused, not replaced by the suite's fallback
    "lemma33-g-empty": ["verify", "--suite", "lemma33", "--g="],
    "prop41-symbol-empty": ["verify", "--suite", "prop41", "--symbol="],
    # run lengths t_final/kappa that are not finite
    "convolve-t-inf": ["convolve", "--symbol", "power:1", "--g", "poly5exp", "--kappa", "0.1",
                       "--t-final", "inf"],
    "converge-t-inf": ["converge", "--symbol", "power:1", "--g", "poly5exp", "--t-final", "inf"],
    "bound-t-inf": ["bound", "--symbol", "power:1", "--g", "poly6exp", "--t-list", "1,inf"],
    "convolve-kappa-1e-300": ["convolve", "--symbol", "power:1", "--g", "poly5exp",
                              "--kappa", "1e-300", "--t-final", "1e10"],
    # suite parameters that are not finite
    "lemma42-alpha-inf": ["verify", "--suite", "lemma42", "--alpha", "inf"],
    "lemma42-c-inf": ["verify", "--suite", "lemma42", "--c", "inf"],
    "lemma42-sigma-inf": ["verify", "--suite", "lemma42", "--sigma", "inf"],
    "lemma33-sigma-nan": ["verify", "--suite", "lemma33", "--sigma", "nan"],
    # non-finite times name their option
    "longtime-t-min-nan": ["longtime", "--symbol", "delay:1.0", "--g", "poly5exp",
                           "--t-min", "nan"],
    "longtime-t-min-inf": ["longtime", "--symbol", "delay:1.0", "--g", "poly5exp",
                           "--t-min", "inf"],
    "bound-t-nan": ["bound", "--symbol", "power:1", "--g", "poly6exp", "--t-list", "nan,1"],
    # inputs outside a theorem's hypothesis: some g^(k)(0) != 0 below the order it needs
    "bound-power0.5-mono2": ["bound", "--symbol", "power:0.5", "--g", "mono:2"],
    "bound-power0.5-mono4": ["bound", "--symbol", "power:0.5", "--g", "mono:4"],
    "bound-power1-mono3": ["bound", "--symbol", "power:1", "--g", "mono:3"],
    "bound-power1-poly1exp": ["bound", "--symbol", "power:1", "--g", "poly1exp"],
    "bound-delay-poly1exp": ["bound", "--symbol", "delay:1.0", "--g", "poly1exp"],
    **{f"prop34a-poly{m + 1}exp-m{m}": ["verify", "--suite", "prop34a", "--g", f"poly{m + 1}exp",
                                       "--m", str(m)] for m in range(1, 6)},
}

NON_FINITE = {
    "poly170exp": ["convolve", "--symbol", "power:0", "--g", "poly170exp", "--kappa", "1",
                   "--t-final", "200"],
    "mono170": ["convolve", "--symbol", "power:0", "--g", "mono:170", "--kappa", "1",
                "--t-final", "100"],
    "delay-inf": ["converge", "--symbol", "delay:inf", "--g", "poly5exp"],
    "decay-inf": ["converge", "--symbol", "decay:inf", "--g", "mono:2"],
    "reference-gamma172": ["converge", "--symbol", "power:-1", "--g", "mono:170",
                           "--t-final", "64", "--kappa-list", "1,0.5"],
    "reference-decay-mono170": ["converge", "--symbol", "decay:1", "--g", "mono:170",
                                "--t-final", "64", "--kappa-list", "1,0.5"],
    # the grid route of a reference: pow overflows at t = 64, Horner reaches inf at t = 65
    "reference-decay1-poly170exp": ["converge", "--symbol", "decay:1", "--g", "poly170exp",
                                    "--t-final", "65", "--kappa-list", "1,0.5"],
    "reference-power1-poly170exp": ["converge", "--symbol", "power:1", "--g", "poly170exp",
                                    "--t-final", "65", "--kappa-list", "1,0.5"],
    # a non-canonical spec: the reference is named by its symbol, decay:1
    "reference-decay1.0-poly170exp": ["converge", "--symbol", "decay:1.0", "--g", "poly170exp",
                                      "--t-final", "65", "--kappa-list", "1,0.5"],
    "weights-power79": ["weights", "--symbol", "power:79", "--kappa", "0.001", "--n", "300"],
    "weights-power79-contour": ["weights", "--symbol", "power:79", "--kappa", "0.001",
                                "--n", "300", "--fft-size", "4096"],
    # finite suite parameters whose frequency-check arithmetic overflows or divides by 0
    "lemma42-c-1e-300": ["verify", "--suite", "lemma42", "--c", "1e-300", "--alpha", "3"],
    "lemma42-sigma-1e-200": ["verify", "--suite", "lemma42", "--sigma", "1e-200",
                             "--alpha", "3"],
    "lemma42-sigma-1e300": ["verify", "--suite", "lemma42", "--sigma", "1e300"],
    "prop34a-sigma-1e-200": ["verify", "--suite", "prop34a", "--sigma", "1e-200"],
    "prop34a-kappa-1e-300": ["verify", "--suite", "prop34a", "--kappa", "1e-300"],
    # lemma42 (a) from omega0 = sqrt((c/kappa)^2 - sigma^2), which overflows to inf
    "lemma42-kappa-1e-300": ["verify", "--suite", "lemma42", "--kappa", "1e-300"],
    "lemma42-c-1e300": ["verify", "--suite", "lemma42", "--c", "1e300"],
    "lemma42-kappa-1e-200": ["verify", "--suite", "lemma42", "--kappa", "1e-200",
                             "--alpha", "3"],
}

# decay rates whose a^(p+1) underflows to 0; the references stay finite
TINY_RATE = {
    "decay-0.001-mono170": ["converge", "--symbol", "decay:0.001", "--g", "mono:170",
                            "--t-final", "2", "--kappa-list", "1,0.5"],
    "decay-1e-300-mono1": ["converge", "--symbol", "decay:1e-300", "--g", "mono:1",
                           "--t-final", "2", "--kappa-list", "1,0.5"],
}

# times so small that (1/t)^epsilon would pass the double range; C(1/t) is finite
SMALL_TIME = {
    "power0-poly5exp": ["bound", "--symbol", "power:0", "--g", "poly5exp", "--t-list", "1e-300"],
    "power0.5-mono7": ["bound", "--symbol", "power:0.5", "--g", "mono:7", "--t-list", "1e-200"],
    "delay-poly6exp": ["bound", "--symbol", "delay:1.0", "--g", "poly6exp", "--t-list", "1e-300"],
}

ARGVS: "list[list[str]]" = [
    # README's examples
    ["weights", "--symbol", "power:1", "--kappa", "0.1", "--n", "3"],
    ["converge", "--symbol", "delay:1.0", "--g", "poly5exp", "--t-final", "3.0",
     "--kappa-list", "0.2,0.1,0.05"],
    ["constants", "--mu", "0.5"],
    # weights
    ["weights", "--symbol", "power:0.5", "--kappa", "0.01", "--n", "200", "--fft-size", "1024"],
    ["weights", "--symbol", "delay:1.0", "--kappa", "0.05", "--n", "64"],
    ["weights", "--symbol", "resolvent:skew2.txt", "--kappa", "0.1", "--n", "16"],
    ["weights", "--config", "weights.cfg", "--kappa", "0.1"],
    # each exact weight route at its default (no --fft-size)
    ["weights", "--symbol", "power:2.5", "--kappa", "0.05", "--n", "64"],
    ["weights", "--symbol", "decay:2", "--kappa", "0.05", "--n", "64"],
    ["weights", "--symbol", "resolvent:damped2.txt", "--kappa", "0.05", "--n", "64"],
    # tables of many recurrence blocks and many 4096-row CSV blocks
    ["weights", "--symbol", "power:0.5", "--kappa", "0.001", "--n", "20000"],
    ["weights", "--symbol", "power:1", "--kappa", "0.001", "--n", "20000"],
    # CSVs of 4097 rows, one past a block, with negative values
    ["weights", "--symbol", "power:0.5", "--kappa", "0.01", "--n", "4096"],
    ["convolve", "--symbol", "power:0.5", "--g", "poly5exp", "--kappa", "0.125",
     "--t-final", "512"],
    # t^170 from 1e-170 to 1.5e221: exponents of 2 and 3 digits, both signs
    ["convolve", "--symbol", "power:0", "--g", "mono:170", "--kappa", "0.1", "--t-final", "20",
     "--engine", "naive"],
    # convolve
    ["convolve", "--symbol", "power:0.5", "--g", "mono:3", "--kappa", "0.1", "--t-final", "1"],
    ["convolve", "--symbol", "decay:1.0", "--g", "poly5exp", "--kappa", "0.05",
     "--t-final", "4", "--engine", "naive"],
    ["convolve", "--symbol", "resolvent:skew2.txt", "--g", "poly5exp", "--kappa", "0.1",
     "--t-final", "3"],
    ["convolve", "--symbol", "power:0.5", "--g", "mono:7", "--kappa", "0.0005", "--t-final", "8"],
    # converge
    ["converge", "--symbol", "power:0.5", "--g", "mono:7"],
    ["converge", "--symbol", "decay:1", "--g", "poly5exp"],
    ["converge", "--symbol", "power:-1", "--g", "poly4exp"],
    ["converge", "--symbol", "power:-1", "--g", "mono:1", "--t-final", "1.0",
     "--kappa-list", "0.1,0.05"],
    ["converge", "--symbol", "power:0", "--g", "mono:170", "--t-final", "20",
     "--kappa-list", "0.5,0.25"],
    ["converge", "--symbol", "power:-1", "--g", "mono:170", "--t-final", "2",
     "--kappa-list", "1,0.5"],
    ["converge", "--symbol", "power:abc", "--g", "poly5exp"],
    # bound
    ["bound", "--symbol", "delay:1.0", "--g", "poly5exp", "--t-list", "1,2", "--kappa-list", "0.1"],
    ["bound", "--symbol", "power:0.5", "--g", "mono:7"],
    ["bound", "--symbol", "power:1", "--g", "poly6exp"],
    ["bound", "--symbol", "power:1", "--g", "mono:170"],
    ["bound", "--symbol", "power:1", "--g", "mono:20"],
    ["bound", "--symbol", "power:0.5", "--g", "mono:7", "--kappa-list", "0.1,0.05,0.025"],
    ["bound", "--symbol", "delay:1.0", "--g", "poly6exp"],
    # longtime
    ["longtime", "--symbol", "delay:1.0", "--g", "poly5exp", "--kappa", "0.1",
     "--t-final", "16", "--t-min", "1"],
    ["longtime", "--symbol", "power:1", "--g", "poly6exp"],
    ["longtime", "--symbol", "delay:1.0", "--g", "poly5exp", "--kappa", "0.1",
     "--t-final", "1.5", "--t-min", "1"],
    ["longtime", "--symbol", "delay:1.0", "--g", "zero", "--kappa", "0.25",
     "--t-final", "4", "--t-min", "1"],
    # verify: every suite at seeds 1-3, then edge inputs
    *[["verify", "--suite", suite, "--seed", str(seed)] for suite in _SUITES for seed in (1, 2, 3)],
    ["verify", "--suite", "prop41", "--symbol", "resolvent:skew2.txt", "--samples", "2000"],
    ["verify", "--suite", "prop41", "--symbol", "resolvent:damped2.txt", "--seed", "1"],
    # prop41 part (b) on each family's closed-form derivative
    *[["verify", "--suite", "prop41", "--symbol", spec]
      for spec in ("power:-0.5", "decay:1.0", "power:0")],
    # sample counts at the edges of the 2^14-sample evaluation chunks
    ["verify", "--suite", "prop32", "--samples", "16384"],
    ["verify", "--suite", "prop32", "--samples", "16385"],
    ["verify", "--suite", "prop41", "--symbol", "resolvent:damped2.txt", "--samples", "32769"],
    ["verify", "--suite", "lemma33", "--g", "poly12exp", "--sigma", "0.3"],
    ["verify", "--suite", "prop34a", "--g", "poly9exp", "--m", "2"],
    ["verify", "--suite", "prop34a", "--g", "poly12exp", "--m", "3"],
    ["verify", "--suite", "lemma33", "--g", "mono:7"],
    ["verify", "--suite", "lemma33", "--g", "mono:3"],
    ["verify", "--suite", "lemma33", "--g", "zero"],
    ["verify", "--suite", "lemma33", "--g", "poly145exp"],
    ["verify", "--suite", "prop34a", "--g", "poly170exp"],
    ["verify", "--suite", "prop34a", "--g", "zero"],
    # frequency checks at the edges: a spike of width sigma at omega = 0, a tail
    # R^(1-alpha)/(alpha-1) that decays slowly, and an integrand that underflows
    ["verify", "--suite", "lemma42", "--sigma", "1e-17"],
    ["verify", "--suite", "lemma42", "--alpha", "1.05"],
    ["verify", "--suite", "lemma42", "--kappa", "1e-150", "--alpha", "3"],
    # constants
    *[["constants", "--mu", mu] for mu in ("0", "1", "1.5", "2.5", "3.7", "79")],
    # just below an integer: alpha 4, and e1 divides by -mu' ~ 1e-12 or 4e-16
    ["constants", "--mu", "0.999999999999"],
    ["constants", "--mu", "2.9999999999999996"],
    # 0 < mu <= 2^-54, where mu - ceil(mu) rounds to -1
    ["constants", "--mu", "1e-17"],
    ["bound", "--symbol", "power:1e-17", "--g", "mono:7"],
    # usage errors, degenerate data and refusals (tests/test_cli.py)
    ["weights", "--kappa", "0.1", "--n", "4"],
    ["weights", "--symbol", "banana:1", "--kappa", "0.1", "--n", "4"],
    ["weights", "--symbol", "power:1", "--kappa", "0.1", "--n", "8", "--fft-size", "6"],
    ["weights", "--symbol", "power:1", "--kappa", "fast", "--n", "4"],
    ["weights", "--config", "missing.cfg", "--kappa", "0.1", "--n", "4"],
    ["weights", "--symbol", "power:1", "--kappa", "0.1", "--n", "4.5"],
    ["convolve", "--symbol", "power:0", "--g", "poly5exp", "--kappa", "0.1",
     "--t-final", "1.0", "--engine", "banana"],
    ["convolve", "--symbol", "power:0", "--g", "poly5exp", "--kappa", "0.001",
     "--t-final", "5000"],
    ["converge", "--symbol", "delay:1.0", "--g", "poly5exp", "--kappa-list", "0.05,0.1"],
    ["converge", "--symbol", "delay:1.0", "--g", "poly5exp", "--kappa-list", "1.5,0.1"],
    ["converge", "--symbol", "delay:1.0", "--g", "poly5exp", "--kappa-list", ","],
    ["converge", "--symbol", "power:0.5", "--g", "poly5exp"],
    ["converge", "--symbol", "power:0.50", "--g", "poly5exp"],
    ["converge", "--symbol", "power:0.1234567", "--g", "poly5exp"],
    ["bound", "--symbol", "decay:1.0", "--g", "poly5exp"],
    ["bound", "--symbol", "power:0.5", "--g", "poly5exp"],
    ["longtime", "--symbol", "delay:1.0", "--g", "poly5exp", "--kappa", "0.1",
     "--t-final", "0.1", "--t-min", "1"],
    ["verify", "--suite", "banana"],
    ["constants", "--mu", "-1"],
    ["constants", "--mu", "banana"],
    ["frobnicate"],
    [],
    ["--help"],
    *OUT_OF_RANGE.values(),
    *NON_FINITE.values(),
    *TINY_RATE.values(),
    *SMALL_TIME.values(),
]

_RUN = "import sys; from trcq_kit.cli import main; sys.exit(main(sys.argv[1:]))"

# argparse wraps its usage text to the terminal width, which a pipe does not have
_COLUMNS = "80"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _last_line(text: bytes) -> str:
    lines = text.decode("utf-8", "replace").splitlines()
    return lines[-1] if lines else ""


def in_subprocess(root: str):
    """A runner: ``argv`` through ``main`` in a fresh interpreter on ``root/src``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0",
               COLUMNS=_COLUMNS)

    def run(cwd: str, argv: "list[str]") -> "tuple[int, bytes, bytes]":
        proc = subprocess.run(
            [sys.executable, "-c", _RUN, *argv], cwd=cwd, env=env, capture_output=True
        )
        return proc.returncode, proc.stdout, proc.stderr

    return run


def in_process(cwd: str, argv: "list[str]") -> "tuple[int, bytes, bytes]":
    """A runner: ``argv`` through this interpreter's ``main``, in ``cwd``."""
    from trcq_kit.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with mock.patch.dict(os.environ, COLUMNS=_COLUMNS), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        os.chdir(here)
    return code, stdout.getvalue().encode("utf-8"), stderr.getvalue().encode("utf-8")


def _record(run, argv: "list[str]", out: bool) -> dict:
    with tempfile.TemporaryDirectory(prefix="cli_snapshot_") as cwd:
        for name, text in FILES.items():
            with open(os.path.join(cwd, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        extra = ["--out", "snapshot.csv"] if out else []
        code, stdout, stderr = run(cwd, [*argv, *extra])
        record = {"exit": code, "stderr_last": _last_line(stderr)}
        if not out:
            record["stdout_sha256"] = _sha256(stdout)
            return record
        path = os.path.join(cwd, "snapshot.csv")
        if os.path.exists(path):
            with open(path, "rb") as fh:
                record["out_sha256"] = _sha256(fh.read())
        else:
            record["out_sha256"] = None
        record["echo"] = stdout.decode("utf-8", "replace").splitlines()
        return record


def snapshot(run) -> "list[dict]":
    """One record per entry of ``ARGVS``, in order, each argv run by ``run``."""
    return [
        {"argv": argv, "stdout": _record(run, argv, False), "out": _record(run, argv, True)}
        for argv in ARGVS
    ]


def differences(want: "list[dict]", got: "list[dict]") -> "list[str]":
    """One line per field of a record in ``got`` that differs from ``want``."""
    if [r["argv"] for r in want] != [r["argv"] for r in got]:
        return ["the argv lists differ; rewrite the table"]
    lines = []
    for old, new in zip(want, got):
        for mode in ("stdout", "out"):
            for field in sorted(set(old[mode]) | set(new[mode])):
                if old[mode].get(field) != new[mode].get(field):
                    lines.append(f"{shlex.join(new['argv'])} [{mode}] {field}: "
                                 f"{old[mode].get(field)!r} -> {new[mode].get(field)!r}")
    return lines


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="JSON file to write")
    parser.add_argument(
        "--root",
        default=ROOT,
        help="checkout whose src/ is run (default: this one)",
    )
    args = parser.parse_args(argv)
    records = snapshot(in_subprocess(os.path.abspath(args.root)))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
