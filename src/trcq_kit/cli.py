"""Batch experiment harness emitting CSV: weight tables, convolution runs,
convergence studies, bound-validity checks, long-time growth fits, inequality
verification suites, and constant-chain reports.

Conventions shared by every subcommand:

* options may come from ``--config`` (plain ``key=value`` lines); explicit
  flags win over config entries;
* every CSV starts with a ``# trcq-kit <version> config=<hash>`` provenance
  line whose hash digests the effective option set, so identical inputs give
  byte-identical outputs;
* every option is declared once, in ``_COMMANDS``: the parser, the config
  keys, the defaults, the required-option check and the help text all come
  from that table;
* exit codes: 0 success, 1 assertion failure (violations, ratio > 1),
  2 usage/parse error, 3 degenerate data, 4 internal error (an unexpected
  exception, reported with its traceback; never passed off as a failed check).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import math
import sys
import traceback
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .bounds import CONSTANTS_CSV_HEADER, bound_rhs, derive_params, params_csv_row
from .convolution import (
    CausalSignal,
    Grid,
    convolve_fft,
    convolve_naive,
    error_vs_exact,
    sample,
    signal_to_csv,
)
from .functions import exact_solution, parse_g
from .report import CSV_HEADER
from .symbols import from_spec, validate_growth
from .verify import (
    check_hyperbolic,
    check_lemma31,
    check_lemma32,
    check_lemma33,
    check_lemma42,
    check_prop32,
    check_prop34a,
    check_prop41,
)
from .weights import cq_weights_fft, default_fft_size, weights_to_csv

__all__ = ["main"]

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_INTERNAL = 4

# A step cap, not a memory budget: at 2^22 steps a weight contour (explicit
# --fft-size, or a symbol without exact weights) holds 2^26 clongdouble points
# of 32 bytes, 2 GiB per array; the exact weight routes need no contour.
MAX_STEPS = 1 << 22
MAX_FFT_SIZE = default_fft_size(MAX_STEPS)

def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


# --------------------------------------------------------------------------
# option conversion and config merging
# --------------------------------------------------------------------------


def _conv_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _conv_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"expected a real number, got {text!r}") from None


def _conv_float_list(text: str) -> "list[float]":
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError(f"expected a comma-separated list of reals, got {text!r}")
    return [_conv_float(p) for p in parts]


class Opt(NamedTuple):
    """One option: ``--name`` flag and ``name`` config key, converted from text."""

    name: str
    convert: Callable[[str], object]
    help: str
    default: object = None
    required: bool = False


class Command(NamedTuple):
    handler: Callable[["dict[str, object]"], int]
    help: str
    options: "tuple[Opt, ...]"


# options every subcommand takes; ``--config`` itself is parser-only
_COMMON = (
    Opt("out", str, "output CSV path (default: stdout)"),
    Opt("seed", _conv_int, "RNG seed", default=0),
)


def _load_config(path: str) -> "dict[str, str]":
    """Parse ``key=value`` lines; ``#`` comments and blank lines are skipped."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    entries: "dict[str, str]" = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def _effective_options(ns: argparse.Namespace) -> "dict[str, object]":
    """Merge CLI flags, config entries, and defaults (in that precedence).

    The result holds every declared option of the command, unset ones as
    ``None``: the provenance hash covers all of them.
    """
    command = ns.command
    options = _COMMANDS[command].options + _COMMON
    config = _load_config(ns.config) if ns.config else {}
    unknown = sorted(set(config) - {opt.name for opt in options})
    if unknown:
        raise ValueError(f"config keys not recognized by '{command}': {', '.join(unknown)}")

    eff: "dict[str, object]" = {}
    for opt in options:
        text = getattr(ns, opt.name)
        if text is None:
            text = config.get(opt.name)
        eff[opt.name] = opt.default if text is None else opt.convert(text)
    missing = [opt.name for opt in options if opt.required and eff[opt.name] is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise ValueError(f"missing required option(s): {flags} (flag or config entry)")
    return eff


def _canonical(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, (list, tuple)):
        return ";".join(_canonical(v) for v in value)
    return str(value)


def _provenance(command: str, eff: "dict[str, object]") -> str:
    """``# trcq-kit <version> config=<hash>`` over the effective option set."""
    payload = "\n".join(
        [command]
        + [f"{k}={_canonical(v)}" for k, v in sorted(eff.items()) if k != "out"]
    )
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]
    return f"# trcq-kit {__version__} config={digest}"


def _write_output(out: "str | None", lines: "list[str]", echo=(), table: str = "") -> None:
    """Write ``lines``, then the CSV ``table`` text as built, to ``out`` or stdout."""
    text = ("\n".join(lines) + "\n", table)
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(text)
        for line in echo:
            print(line)
    else:
        sys.stdout.writelines(text)


# --------------------------------------------------------------------------
# shared pieces
# --------------------------------------------------------------------------


def _parse_symbol(spec: str):
    try:
        return from_spec(spec)
    except (ValueError, FileNotFoundError) as exc:
        raise ValueError(f"bad symbol spec {spec!r}: {exc}") from None


def _parse_input(spec: str):
    try:
        return parse_g(spec)
    except ValueError as exc:
        raise ValueError(f"bad input spec {spec!r}: {exc}") from None


def _steps_for(t_final: float, kappa: float) -> int:
    """Index of the last grid node ``n kappa`` at or before ``t_final``."""
    if not (0.0 < kappa <= 1.0):
        raise ValueError(f"kappa must lie in (0, 1], got {kappa:g}")
    if t_final <= 0.0:
        raise ValueError("t_final must be positive")
    ratio = t_final / kappa
    if not math.isfinite(ratio):
        raise ValueError(
            f"t_final/kappa = {ratio:g} is not finite; the step budget is {MAX_STEPS}"
        )
    steps = math.floor(ratio + 1e-9)
    if steps > MAX_STEPS:
        raise ValueError(f"t_final/kappa = {ratio:.3g} exceeds the step budget {MAX_STEPS}")
    return steps


def _check_kappa_list(kappas: "list[float]") -> "list[float]":
    if not kappas:
        raise ValueError("kappa list is empty")
    for k in kappas:
        if not (0.0 < k <= 1.0):
            raise ValueError(f"kappa values must lie in (0, 1], got {k:g}")
    if any(a <= b for a, b in zip(kappas, kappas[1:])):
        raise ValueError("kappa list must be strictly decreasing")
    return kappas


def _inputs(F, g, kappa: float, t_final: float):
    """Weight table and samples of one TRCQ run to ``t_final``; ``g`` is sampled,
    and refused if ``F`` cannot act on it, before any weight is built."""
    grid = Grid(kappa=kappa, steps=_steps_for(t_final, kappa))
    signal = sample(g, grid)
    if F.cols != signal.dim:
        raise ValueError("weight columns must match signal dimension")
    return cq_weights_fft(F, kappa, grid.steps), signal


def _errors(F, g, exact, kappa: float, times: "list[float]") -> "list[np.ndarray]":
    """Error per grid node of the TRCQ run (FFT engine) to each of ``times``
    against ``exact``: one sampling, reference and weight table, sized to
    ``max(times)``, and one run per t on its prefix.  The engine is causal,
    but the FFT's roundoff scales with the largest value it transforms, so a
    longer run would charge later values' roundoff to t."""
    steps = [_steps_for(t, kappa) for t in times]
    table, signal = _inputs(F, g, kappa, max(times))
    reference = sample(exact, signal.grid)
    prefixes = (CausalSignal(Grid(kappa, n), signal.samples[: n + 1]) for n in steps)
    return [error_vs_exact(convolve_fft(table, prefix), reference) for prefix in prefixes]


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_weights(eff: "dict[str, object]") -> int:
    n, fft_size = eff["n"], eff["fft_size"]
    if n > MAX_STEPS:
        raise ValueError(f"n = {n} exceeds the step budget {MAX_STEPS}")
    if fft_size is not None and fft_size > MAX_FFT_SIZE:
        raise ValueError(f"fft_size = {fft_size} exceeds the contour budget {MAX_FFT_SIZE}")
    F = _parse_symbol(eff["symbol"])
    table = cq_weights_fft(F, eff["kappa"], n, fft_size=fft_size)
    buf = io.StringIO()
    weights_to_csv(table, buf)
    acc = _fmt(table.accuracy_estimate)
    head = [_provenance("weights", eff), f"# accuracy_estimate = {acc}"]
    _write_output(eff["out"], head, echo=(f"accuracy_estimate = {acc}",), table=buf.getvalue())
    return EXIT_OK


def cmd_convolve(eff: "dict[str, object]") -> int:
    engine = eff["engine"]
    if engine not in ("fft", "naive"):
        raise ValueError(f"unknown engine {engine!r}; choose fft or naive")
    F = _parse_symbol(eff["symbol"])
    g = _parse_input(eff["g"])
    table, signal = _inputs(F, g, eff["kappa"], eff["t_final"])
    result = convolve_fft(table, signal) if engine == "fft" else convolve_naive(table, signal)
    buf = io.StringIO()
    signal_to_csv(result, buf)
    _write_output(eff["out"], [_provenance("convolve", eff)], table=buf.getvalue())
    return EXIT_OK


def cmd_converge(eff: "dict[str, object]") -> int:
    kappas = _check_kappa_list(eff["kappa_list"])
    F = _parse_symbol(eff["symbol"])
    g = _parse_input(eff["g"])
    exact = exact_solution(F, g)

    errors = [float(_errors(F, g, exact, kappa, [eff["t_final"]])[0].max()) for kappa in kappas]

    rows = []
    for i, (kappa, err) in enumerate(zip(kappas, errors)):
        if i == 0:
            eoc = ""
        elif errors[i - 1] <= 1e-12 or err <= 1e-12:
            eoc = "exact"  # both at roundoff level; the ratio is meaningless
        else:
            eoc = _fmt(math.log(errors[i - 1] / err) / math.log(kappas[i - 1] / kappa))
        rows.append(f"{_fmt(kappa)},{_fmt(err)},{eoc}")
    lines = [_provenance("converge", eff), "kappa,error_at_t,eoc"] + rows
    _write_output(eff["out"], lines)
    return EXIT_OK


def cmd_bound(eff: "dict[str, object]") -> int:
    kappas = _check_kappa_list(eff["kappa_list"])
    for t in eff["t_list"]:
        if not t > 0.0:  # NaN too
            raise ValueError(f"--t-list times must be positive, got {t:g}")
    t_list = sorted(set(eff["t_list"]))
    F = _parse_symbol(eff["symbol"])
    if F.mu < 0.0:
        raise ValueError("the a-priori bound applies to mu >= 0 symbols only")
    g = _parse_input(eff["g"])
    exact = exact_solution(F, g)
    params = derive_params(F.mu)
    g.require(params.beta, "the bound")
    certificate = validate_growth(F, samples=20000, seed=int(eff["seed"]))
    if certificate.violations:
        raise RuntimeError(
            f"growth certificate of {F.name} failed validation "
            f"({certificate.violations} violations); the bound is meaningless"
        )

    errors = {kappa: _errors(F, g, exact, kappa, t_list) for kappa in sorted(kappas)}
    kappa_array = np.array(list(errors))
    rows = []
    worst_ratio = 0.0
    for i, t in enumerate(t_list):
        rhs_t = bound_rhs(F, g, kappa_array, t, params)  # the time integrals once per t
        for (kappa, errs), rhs in zip(errors.items(), rhs_t.tolist()):
            observed = float(errs[i].max())
            ratio = 0.0 if observed == 0.0 else observed / rhs if rhs != 0.0 else math.inf
            worst_ratio = max(worst_ratio, ratio)
            rows.append(f"{_fmt(t)},{_fmt(kappa)},{_fmt(observed)},{_fmt(rhs)},{_fmt(ratio)}")
    lines = [_provenance("bound", eff), "t,kappa,observed_error,bound_rhs,ratio"] + rows
    _write_output(eff["out"], lines, echo=(f"worst ratio = {_fmt(worst_ratio)}",))
    return EXIT_OK if worst_ratio <= 1.0 else EXIT_ASSERTION


def cmd_longtime(eff: "dict[str, object]") -> int:
    kappa, t_final, t_min = eff["kappa"], eff["t_final"], eff["t_min"]
    F = _parse_symbol(eff["symbol"])
    g = _parse_input(eff["g"])
    exact = exact_solution(F, g)
    _steps_for(t_final, kappa)  # refuse a run it cannot size before halving t_final
    if not math.isfinite(t_min):
        raise ValueError(f"--t-min = {t_min:g} is not finite")

    times = []
    t = float(t_final)
    while t >= max(float(t_min), 2.0 * kappa):
        times.append(t)
        t *= 0.5
    times.reverse()
    if not times:
        raise ValueError("t grid is empty; lower --t-min or raise --t-final")

    # each t's error is the last node of its own run
    errors = [float(errs[-1]) for errs in _errors(F, g, exact, kappa, times)]
    lines = [_provenance("longtime", eff), "t,error"]
    lines += [f"{_fmt(t)},{_fmt(err)}" for t, err in zip(times, errors)]
    points = [(t, err) for t, err in zip(times, errors) if err > 0.0]
    if len(points) < 2:
        lines.append("# fit degenerate: need at least two positive errors")
        _write_output(eff["out"], lines, echo=("fit degenerate",))
        return EXIT_DEGENERATE

    ts, errs = np.array(points).T
    fits = (f"exp_rate_r = {_fmt(np.polyfit(ts, np.log(errs), 1)[0])}",
            f"loglog_slope_p = {_fmt(np.polyfit(np.log(ts), np.log(errs), 1)[0])}")
    _write_output(eff["out"], lines + ["# " + fit for fit in fits], echo=fits)
    return EXIT_OK


def _given(value: object, fallback: object) -> object:
    return fallback if value is None else value


# suite name -> runner.  Each runner applies its suite's own fallbacks to
# options left unset; they never enter the effective options, so the
# provenance hash does not see them.  Runners look the check functions up by
# name at call time.
_SUITES: "dict[str, Callable[[dict[str, object]], object]]" = {
    "hyperbolic": lambda o: check_hyperbolic(o["samples"], o["seed"]),
    "lemma31": lambda o: check_lemma31(o["samples"], o["seed"]),
    "prop32": lambda o: check_prop32(o["samples"], o["seed"]),
    "lemma32": lambda o: check_lemma32(o["samples"], o["seed"]),
    "lemma33": lambda o: check_lemma33(_parse_input(o["g"] or "poly5exp"), o["sigma"]),
    "prop34a": lambda o: check_prop34a(
        _parse_input(o["g"] or "poly6exp"), o["sigma"], o["m"], _given(o["kappa"], 0.1)
    ),
    "lemma42": lambda o: check_lemma42(o["sigma"], o["alpha"], o["c"], _given(o["kappa"], 0.5)),
    "prop41": lambda o: check_prop41(
        _parse_symbol(o["symbol"] or "delay:1.0"), o["samples"], o["seed"]
    ),
}


def cmd_verify(eff: "dict[str, object]") -> int:
    suite = eff["suite"]
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; known suites: {', '.join(_SUITES)}")
    report = _SUITES[suite](eff)

    lines = [_provenance("verify", eff), CSV_HEADER, report.csv_row()]
    summary = (
        f"{report.suite}: samples={report.samples} violations={report.violations} "
        f"worst_margin={_fmt(report.worst_margin)}"
    )
    _write_output(eff["out"], lines, echo=(summary,))
    return EXIT_OK if report.violations == 0 else EXIT_ASSERTION


def cmd_constants(eff: "dict[str, object]") -> int:
    params = derive_params(float(eff["mu"]))
    row = params_csv_row(params)
    lines = [_provenance("constants", eff), CONSTANTS_CSV_HEADER, row]
    _write_output(eff["out"], lines, echo=(row,))
    return EXIT_OK


_COMMANDS: "dict[str, Command]" = {
    "weights": Command(cmd_weights, "export a CQ weight table", (
        Opt("symbol", str, "symbol spec, e.g. power:1 or delay:1.0", required=True),
        Opt("kappa", _conv_float, "time step in (0, 1]", required=True),
        Opt("n", _conv_int, "largest weight index N", required=True),
        Opt("fft_size", _conv_int, "contour length (power of two); forces the contour route"),
    )),
    "convolve": Command(cmd_convolve, "run a discrete convolution", (
        Opt("symbol", str, "symbol spec", required=True),
        Opt("g", str, "input spec, e.g. poly5exp or mono:7", required=True),
        Opt("kappa", _conv_float, "time step in (0, 1]", required=True),
        Opt("t_final", _conv_float, "final time", required=True),
        Opt("engine", str, "fft or naive", default="fft"),
    )),
    "converge": Command(cmd_converge, "convergence study (EOC)", (
        Opt("symbol", str, "symbol spec (needs a closed-form reference)", required=True),
        Opt("g", str, "input spec", required=True),
        Opt("t_final", _conv_float, "error horizon", default=2.0),
        Opt("kappa_list", _conv_float_list, "comma-separated decreasing steps",
            default=(0.1, 0.05, 0.025, 0.0125, 0.00625)),
    )),
    "bound": Command(cmd_bound, "error vs a-priori bound", (
        Opt("symbol", str, "mu >= 0 symbol spec with a closed-form reference", required=True),
        Opt("g", str, "input spec", required=True),
        Opt("t_list", _conv_float_list, "comma-separated times",
            default=(1.0, 2.0, 4.0, 8.0, 16.0)),
        Opt("kappa_list", _conv_float_list, "comma-separated steps", default=(0.1, 0.05)),
    )),
    "longtime": Command(cmd_longtime, "long-time error growth fits", (
        Opt("symbol", str, "symbol spec with a closed-form reference", required=True),
        Opt("g", str, "input spec", required=True),
        Opt("kappa", _conv_float, "fixed step", default=0.05),
        Opt("t_final", _conv_float, "largest time", default=100.0),
        Opt("t_min", _conv_float, "smallest grid time", default=1.0),
    )),
    "verify": Command(cmd_verify, "run an inequality suite", (
        Opt("suite", str, "one of " + ", ".join(_SUITES), required=True),
        Opt("samples", _conv_int, "sample count", default=100000),
        Opt("symbol", str, "symbol for prop41 (delay:1.0 when unset)"),
        Opt("g", str, "input for lemma33 (poly5exp when unset) and prop34a (poly6exp)"),
        Opt("sigma", _conv_float, "line abscissa", default=1.0),
        Opt("alpha", _conv_float, "moment exponent for lemma42", default=2.0),
        Opt("c", _conv_float, "radius parameter for lemma42", default=1.0),
        Opt("kappa", _conv_float, "step for lemma42 (0.5 when unset) and prop34a (0.1)"),
        Opt("m", _conv_int, "power for prop34a", default=1),
    )),
    "constants": Command(cmd_constants, "theorem parameter/constant row", (
        Opt("mu", _conv_float, "symbol growth exponent (mu >= 0)", required=True),
    )),
}


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _help(opt: Opt) -> str:
    if opt.default is None:
        return opt.help
    values = opt.default if isinstance(opt.default, tuple) else (opt.default,)
    shown = ",".join(f"{v:g}" if isinstance(v, float) else str(v) for v in values)
    return f"{opt.help} (default {shown})"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trcq",
        description="Trapezoidal-rule convolution quadrature toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for opt in _COMMON + command.options:
            p.add_argument("--" + opt.name.replace("_", "-"), dest=opt.name, help=_help(opt))
        p.add_argument("--config", help="key=value config file; flags win")
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its diagnostic
        code = exc.code
        return EXIT_USAGE if code not in (0, None) else int(code or 0)
    try:
        eff = _effective_options(ns)
        return _COMMANDS[ns.command].handler(eff)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except Exception as exc:  # a crash must never read as a failed check (exit 1)
        traceback.print_exc()
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
