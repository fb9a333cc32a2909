"""The package namespace: each public name is declared once, in its module,
and every name the benchmark's tracer wraps exists."""

import json
import os
import subprocess
import sys
from pathlib import Path

import trcq_kit
from trcq_kit import (
    bounds,
    convolution,
    functions,
    kernels,
    quadrature,
    report,
    symbols,
    trmap,
    verify,
    weights,
)

LIBRARY_MODULES = (
    bounds, convolution, functions, kernels, quadrature, report, symbols, trmap, verify, weights
)


def test_all_is_the_union_of_the_module_lists():
    expected = ["__version__"] + [name for mod in LIBRARY_MODULES for name in mod.__all__]
    assert trcq_kit.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_each_name_is_the_module_attribute():
    for mod in LIBRARY_MODULES:
        for name in mod.__all__:
            assert getattr(trcq_kit, name) is getattr(mod, name), f"{mod.__name__}.{name}"


def test_benchmark_tracer_installs():
    """perfbench/tracer.py wraps package functions by name (``verify.adaptive_simpson``,
    ``symbols.s_kappa``, ``trmap.q_ratio``, ``cli.<name>``, ...); one that disappears
    fails here, in a fresh interpreter, rather than only in a benchmark run.  Two
    traced calls then run its wrappers, the parsed input's counted derivative
    callback (a ``dataclasses.replace`` of the input) among them."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    script = """
import json
from tracer import Recorder, install
rec = Recorder()
install(rec)
from trcq_kit.cli import main
codes = [
    main(["bound", "--symbol", "power:1", "--g", "poly6exp", "--t-list", "1",
          "--kappa-list", "0.1"]),
    main(["verify", "--suite", "lemma33"]),
]
print(json.dumps({"codes": codes, "derivative_calls": rec.counts["functions.derivative_calls"]}))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    assert result["derivative_calls"] > 0
