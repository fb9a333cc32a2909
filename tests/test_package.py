"""The package namespace: each public name is declared once, in its module,
and every name the benchmark's tracer wraps exists."""

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
    fails here, in a fresh interpreter, rather than only in a benchmark run."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", "from tracer import Recorder, install; install(Recorder())"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
