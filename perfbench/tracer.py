"""Per-layer spans and counts for one ``trcq`` call, recorded from outside the package.

``install(recorder)`` replaces public functions of the trcq_kit modules with
timing wrappers.  Each wrapper sits at the attribute its caller looks up
(``cli.cq_weights_fft`` rather than ``weights.cq_weights_fft``, because the
CLI imported the name into its own namespace), so nothing under ``src/`` is
edited.  Every wrapped call becomes a span ``(name, start, end, parent)``;
spans stay in memory until the call ends, when :func:`summarize` turns them
into per-layer self time, inclusive time and call counts.  Functions called
once per grid node or per quadrature point (input derivatives, integrands)
are counted only, because a span per call would cost more than the call.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import Counter, defaultdict

# Bytes of one clongdouble contour value (two 16-byte long doubles).
CLONGDOUBLE_BYTES = 32


class Recorder:
    """Spans and counts of one process, kept in memory until summarized."""

    def __init__(self) -> None:
        self.spans: "list[tuple[str, float, float, int]]" = []  # name, start, end, parent
        self.counts: Counter = Counter()
        self._open: "list[int]" = []

    def span(self, name, fn, facts=None):
        """Wrap ``fn`` so each call records a span; ``facts`` adds counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
            self._open.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = (name, start, end, parent)
            if facts is not None:
                facts(self.counts, args, kwargs, result)
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrap ``fn`` so each call only increments ``counts[name]``."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def summarize(spans) -> "dict[str, dict[str, float]]":
    """Per span name: ``calls``, ``self_s`` and ``incl_s``.

    Self time is a span's duration minus the time its direct children cover;
    children of one parent never overlap, because the program is single
    threaded.  Inclusive time counts only the outermost span of a name, so a
    name nested inside itself is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: "dict[str, dict[str, float]]" = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
    )
    for i, (name, start, end, parent) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row["incl_s"] += end - start
    return dict(out)


# --------------------------------------------------------------------------
# facts recorded at the layer boundaries
# --------------------------------------------------------------------------


def _weights_facts(counts, args, kwargs, table):
    rows, cols = table.dims
    counts["weights.calls"] += 1
    counts["weights.fft_points"] += table.fft_size
    # computed, not measured: one clongdouble contour array of L x rows x cols
    counts["weights.contour_bytes"] += table.fft_size * rows * cols * CLONGDOUBLE_BYTES


def _csv_facts(counts, args, kwargs, result):
    # the CLI hands signal_to_csv a fresh StringIO, so its position is the size
    counts["convolution.csv_bytes"] += args[1].tell()


def _kernel_facts(counts, args, kwargs, result):
    w, g = args[0], args[1]
    m = g.shape[0]
    counts["kernels.cmacs"] += m * (m + 1) // 2 * w.shape[1] * w.shape[2]


def _verify_facts(counts, args, kwargs, report):
    counts["verify.samples"] += report.samples
    counts["verify.violations"] += report.violations


def _fft_lengths(rec, convolve_fft):
    """``convolve_fft`` that adds its longest transform to ``convolution.fft_len``.

    While it runs, ``numpy.fft.fft`` is replaced by a function that notes the
    length of each transform it returns, so the count is the padded length
    the engine really used, not a copy of its padding rule.
    """
    import numpy

    def traced(*args, **kwargs):
        fft = numpy.fft.fft
        lengths = []

        def noted_fft(a, n=None, axis=-1, *rest, **kw):
            out = fft(a, n, axis, *rest, **kw)
            lengths.append(out.shape[axis])
            return out

        numpy.fft.fft = noted_fft
        try:
            return convolve_fft(*args, **kwargs)
        finally:
            numpy.fft.fft = fft
            rec.counts["convolution.fft_len"] += max(lengths, default=0)

    return traced


VERIFY_SUITES = (
    "hyperbolic",
    "lemma31",
    "prop32",
    "lemma32",
    "prop41",
    "lemma42",
    "lemma33",
    "prop34a",
)


def install(rec: Recorder) -> None:
    """Wrap the trcq_kit functions whose time and counts the benchmark reports."""
    from trcq_kit import bounds, cli, convolution, quadrature, symbols, trmap, verify, weights

    def wrap(module, attr, name, facts=None):
        setattr(module, attr, rec.span(name, getattr(module, attr), facts))

    wrap(cli, "main", "cli.main")

    wrap(cli, "cq_weights_fft", "weights.cq_weights_fft", _weights_facts)
    wrap(cli, "weights_to_csv", "weights.weights_to_csv")

    parse_symbol = cli._parse_symbol

    def traced_parse_symbol(spec):
        F = parse_symbol(spec)
        evaluator = rec.span(
            "symbols.eval",
            F.evaluator,
            lambda counts, args, kwargs, result: counts.update(
                {"symbols.eval_points": args[0].size}
            ),
        )
        return dataclasses.replace(F, evaluator=evaluator)

    cli._parse_symbol = traced_parse_symbol
    wrap(cli, "validate_growth", "symbols.validate_growth")

    wrap(weights, "delta_char", "trmap.delta_char")
    for module in (trmap, bounds, verify):
        wrap(module, "D_eval", "trmap.D_eval")
    for module in (bounds, verify):
        wrap(module, "E_m_eval", "trmap.E_m_eval")
    for module in (verify, symbols):
        wrap(module, "s_kappa", "trmap.s_kappa")
    wrap(trmap, "q_ratio", "trmap.q_ratio")

    wrap(cli, "sample", "convolution.sample")
    cli.convolve_fft = rec.span("convolution.convolve_fft", _fft_lengths(rec, cli.convolve_fft))
    wrap(cli, "convolve_naive", "convolution.convolve_naive")
    wrap(cli, "error_vs_exact", "convolution.error_vs_exact")
    wrap(cli, "signal_to_csv", "convolution.signal_to_csv", _csv_facts)
    wrap(convolution, "causal_convolve", "kernels.causal_convolve", _kernel_facts)

    parse_input = cli._parse_input

    def traced_parse_input(spec):
        g = parse_input(spec)
        derivative = rec.counter("functions.derivative_calls", g.derivative)
        return dataclasses.replace(g, derivative=derivative)

    cli._parse_input = traced_parse_input

    exact_solution = cli.exact_solution

    def traced_exact_solution(symbol_spec, g_spec):
        exact = exact_solution(symbol_spec, g_spec)
        return None if exact is None else rec.span("functions.exact", exact)

    cli.exact_solution = traced_exact_solution

    for module in (quadrature, verify):

        def traced_simpson(f, *args, _simpson=module.adaptive_simpson, **kwargs):
            return _simpson(rec.counter("quadrature.integrand_evals", f), *args, **kwargs)

        module.adaptive_simpson = rec.span("quadrature.adaptive_simpson", traced_simpson)

    wrap(cli, "derive_params", "bounds.derive_params")
    wrap(cli, "bound_rhs", "bounds.bound_rhs")

    for suite in VERIFY_SUITES:
        wrap(cli, f"check_{suite}", f"verify.{suite}", _verify_facts)
