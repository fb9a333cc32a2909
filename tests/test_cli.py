"""End-to-end tests of the command-line harness, run in-process.

Covers the output schemas, the exit-code contract (0 success, 1 assertion
failure, 2 usage error, 3 degenerate data, 4 internal error), config-file merging with
flags-win precedence, and byte-identical determinism of repeated runs.
"""

import dataclasses
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from trcq_kit.bounds import derive_params, params_csv_row
from trcq_kit import cli, functions
from trcq_kit.cli import EXIT_DEGENERATE, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from trcq_kit.convolution import Grid, convolve_naive, error_vs_exact, sample
from trcq_kit.functions import PolyExp, exact_solution, parse_g
from trcq_kit.symbols import from_spec
from trcq_kit.weights import cq_weights_fft

PROVENANCE_RE = re.compile(r"^# trcq-kit \S+ config=[0-9a-f]{12}$")


def _load_snapshot_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "cli_snapshot.py"
    spec = importlib.util.spec_from_file_location("cli_snapshot", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# tools/cli_snapshot.py owns the usage-error argvs, so the snapshot and these
# tests run the same list.
SNAPSHOT = _load_snapshot_tool()


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def data_rows(lines):
    """Rows after the provenance/comment lines and the header."""
    body = [ln for ln in lines if not ln.startswith("#")]
    return body[1:]  # drop the CSV header


def naive_errors(symbol, g_spec, kappa, t):
    """Error per node of the naive engine, the Dot2-accurate oracle, on the
    grid that ends at ``t``."""
    grid = Grid(kappa=kappa, steps=round(t / kappa))
    table = cq_weights_fft(from_spec(symbol), kappa, grid.steps)
    result = convolve_naive(table, sample(parse_g(g_spec), grid))
    return error_vs_exact(result, sample(exact_solution(symbol, g_spec), grid))


# --------------------------------------------------------------------------
# weights
# --------------------------------------------------------------------------


class TestWeights:
    def test_derivative_symbol_values(self, tmp_path):
        """w_0 = 2/kappa and w_1 = -4/kappa for F(s) = s at kappa = 0.1."""
        out = tmp_path / "w.csv"
        code = main(
            ["weights", "--symbol", "power:1", "--kappa", "0.1", "--n", "4",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = read_lines(out)
        assert PROVENANCE_RE.match(lines[0])
        assert lines[1].startswith("# accuracy_estimate = ")
        assert lines[2] == "m,re,im"
        assert lines[3] == "# entry 0,0"
        rows = [ln.split(",") for ln in lines[4:9]]
        w = [complex(float(r[1]), float(r[2])) for r in rows]
        assert abs(w[0] - 20.0) <= 1e-8
        assert abs(w[1] + 40.0) <= 1e-8

    def test_stdout_when_no_out(self, capsys):
        code = main(["weights", "--symbol", "power:0", "--kappa", "0.5", "--n", "2"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert PROVENANCE_RE.match(lines[0])
        assert lines[2] == "m,re,im"

    def test_echo_accompanies_file_output(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        main(["weights", "--symbol", "power:0", "--kappa", "0.5", "--n", "2",
              "--out", str(out)])
        assert "accuracy_estimate = " in capsys.readouterr().out

    def test_missing_required_option(self, tmp_path, capsys):
        code = main(["weights", "--kappa", "0.1", "--n", "4"])
        assert code == EXIT_USAGE
        assert "missing required option" in capsys.readouterr().err

    def test_bad_symbol_spec(self, capsys):
        code = main(["weights", "--symbol", "banana:1", "--kappa", "0.1", "--n", "4"])
        assert code == EXIT_USAGE
        assert "bad symbol spec" in capsys.readouterr().err

    def test_bad_fft_size(self, capsys):
        code = main(
            ["weights", "--symbol", "power:1", "--kappa", "0.1", "--n", "8",
             "--fft-size", "6"]
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("size", [
        ["--n", str(cli.MAX_STEPS + 1)],
        ["--n", "8", "--fft-size", str(2 * cli.MAX_FFT_SIZE)],
    ], ids=["n", "fft-size"])
    def test_budgets_refused_before_weights(self, size, monkeypatch, capsys):
        """The step budget, and the 2^26-point contour it sizes, bind here too."""
        def no_weights(*args, **kwargs):
            raise AssertionError("weights were built")

        monkeypatch.setattr(cli, "cq_weights_fft", no_weights)
        assert cli.MAX_FFT_SIZE == 1 << 26
        assert main(["weights", "--symbol", "power:1", "--kappa", "0.1", *size]) == EXIT_USAGE
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, name", [
        (["convolve", "--symbol", "power:1e17", "--g", "poly5exp", "--kappa", "0.1",
          "--t-final", "1"], "power:1e+17"),
        (["weights", "--symbol", "power:4000", "--kappa", "0.1", "--n", "4"], "power:4000"),
    ], ids=["convolve-1e17", "weights-4000"])
    def test_power_scale_past_long_double_refused(self, argv, name, capsys):
        """(2/kappa)**mu past the long-double range is inf, refused at w_0 with one
        error line and no overflow warning (which this suite makes an error)."""
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == [
            f"error: weights of {name} at kappa = 0.1 leave the double range, first at w_0"
        ]


# --------------------------------------------------------------------------
# determinism and config handling
# --------------------------------------------------------------------------


PINNED_PROVENANCE = [
    (["weights", "--symbol", "power:1", "--kappa", "0.1", "--n", "3"], "f72f46f76270"),
    (["convolve", "--symbol", "power:0.5", "--g", "mono:3", "--kappa", "0.1",
      "--t-final", "1"], "f9214399f70e"),
    (["converge", "--symbol", "delay:1.0", "--g", "poly5exp", "--t-final", "3.0",
      "--kappa-list", "0.2,0.1,0.05"], "dfbfe4d33486"),
    (["bound", "--symbol", "delay:1.0", "--g", "poly5exp", "--t-list", "1,2",
      "--kappa-list", "0.1"], "a1bcd2c2fa33"),
    (["longtime", "--symbol", "delay:1.0", "--g", "poly5exp", "--kappa", "0.1",
      "--t-final", "16", "--t-min", "1"], "48b198533871"),
    (["verify", "--suite", "hyperbolic", "--samples", "2000", "--seed", "5"], "4667b39a183d"),
    (["constants", "--mu", "0.5"], "075477b0365a"),
]


class TestDeterminismAndConfig:
    @pytest.mark.parametrize(
        "argv, digest", PINNED_PROVENANCE, ids=[argv[0] for argv, _ in PINNED_PROVENANCE]
    )
    def test_provenance_hash_is_pinned(self, tmp_path, argv, digest):
        """The hash covers every declared option, unset ones included; it must
        not move when the option plumbing changes."""
        out = tmp_path / "o.csv"
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        assert read_lines(out)[0] == f"# trcq-kit 0.1.0 config={digest}"

    def test_provenance_hash_pinned_with_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# c\nsymbol = delay:1.0\ng=poly5exp\nkappa=0.5\nt-final = 1.0\n",
            encoding="utf-8",
        )
        out = tmp_path / "o.csv"
        code = main(["convolve", "--config", str(cfg), "--kappa", "0.25", "--out", str(out)])
        assert code == EXIT_OK
        assert read_lines(out)[0] == "# trcq-kit 0.1.0 config=e38d3c96f44e"

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["weights", "--symbol", "power:1", "--kappa", "0.1", "--n", "8"]
        assert main(argv + ["--out", str(a)]) == EXIT_OK
        assert main(argv + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_config_supplies_options(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# weight export\nsymbol = power:1\nn = 4\nfft-size = 64\n",
            encoding="utf-8",
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        code = main(
            ["weights", "--config", str(cfg), "--kappa", "0.1", "--out", str(a)]
        )
        assert code == EXIT_OK
        code = main(
            ["weights", "--symbol", "power:1", "--kappa", "0.1", "--n", "4",
             "--fft-size", "64", "--out", str(b)]
        )
        assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_flags_beat_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("symbol=power:1\nkappa=0.5\nn=4\n", encoding="utf-8")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["weights", "--config", str(cfg), "--kappa", "0.1", "--out", str(a)])
        main(["weights", "--symbol", "power:1", "--kappa", "0.1", "--n", "4",
              "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("symbol=power:1\nbanana=1\n", encoding="utf-8")
        code = main(["weights", "--config", str(cfg), "--kappa", "0.1", "--n", "4"])
        assert code == EXIT_USAGE
        assert "banana" in capsys.readouterr().err

    def test_malformed_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("symbol power:1\n", encoding="utf-8")
        code = main(["weights", "--config", str(cfg), "--kappa", "0.1", "--n", "4"])
        assert code == EXIT_USAGE
        assert ":1:" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(
            ["weights", "--config", str(tmp_path / "nope.cfg"), "--kappa", "0.1",
             "--n", "4", "--symbol", "power:1"]
        )
        assert code == EXIT_USAGE
        assert "cannot read config file" in capsys.readouterr().err


# --------------------------------------------------------------------------
# convolve
# --------------------------------------------------------------------------


class TestConvolve:
    def test_engines_agree(self, tmp_path):
        """fft and naive engines give the same samples to 1e-12."""
        common = ["convolve", "--symbol", "decay:1.0", "--g", "poly5exp",
                  "--kappa", "0.1", "--t-final", "1.0"]
        a, b = tmp_path / "fft.csv", tmp_path / "naive.csv"
        assert main(common + ["--engine", "fft", "--out", str(a)]) == EXIT_OK
        assert main(common + ["--engine", "naive", "--out", str(b)]) == EXIT_OK
        rows_a = [r.split(",") for r in data_rows(read_lines(a))]
        rows_b = [r.split(",") for r in data_rows(read_lines(b))]
        assert len(rows_a) == len(rows_b) == 11
        for ra, rb in zip(rows_a, rows_b):
            assert abs(float(ra[2]) - float(rb[2])) <= 1e-12
            assert abs(float(ra[3]) - float(rb[3])) <= 1e-12

    def test_dimension_mismatch_refused_before_weights(self, tmp_path, monkeypatch, capsys):
        """A 2x2 resolvent on a scalar input exits 2 without building weights."""
        for name, text in SNAPSHOT.FILES.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        monkeypatch.chdir(tmp_path)

        def no_weights(*args, **kwargs):
            raise AssertionError("weights were built")

        monkeypatch.setattr(cli, "cq_weights_fft", no_weights)
        argv = next(a for a in SNAPSHOT.ARGVS
                    if a[:1] == ["convolve"] and "resolvent:skew2.txt" in a)
        assert main(argv) == EXIT_USAGE
        assert "weight columns must match signal dimension" in capsys.readouterr().err

    def test_traced_run_counts_no_contour_points(self):
        """perfbench's traced worker, run as its runner does, on the exact route."""
        root = Path(__file__).resolve().parents[1]
        path = os.environ.get("PYTHONPATH")
        src = str(root / "src") + (os.pathsep + path if path else "")
        argv = ["convolve", "--symbol", "power:0.5", "--g", "mono:7",
                "--kappa", "0.01", "--t-final", "1"]
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "worker.py"), "--trace", "--", *argv],
            cwd=root, env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0"),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["rc"] == 0, report["error"]
        counts = report["trace"]["counts"]
        assert counts["weights.calls"] == 1
        assert counts["weights.fft_points"] == 0

    def test_unknown_engine(self, capsys):
        code = main(["convolve", "--symbol", "power:0", "--g", "poly5exp",
                     "--kappa", "0.1", "--t-final", "1.0", "--engine", "banana"])
        assert code == EXIT_USAGE
        assert "unknown engine" in capsys.readouterr().err

    def test_step_budget_enforced(self, capsys):
        code = main(["convolve", "--symbol", "power:0", "--g", "poly5exp",
                     "--kappa", "0.001", "--t-final", "5000"])
        assert code == EXIT_USAGE
        assert "step budget" in capsys.readouterr().err

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "c.csv"
        main(["convolve", "--symbol", "power:0", "--g", "mono:2",
              "--kappa", "0.5", "--t-final", "1.0", "--out", str(out)])
        lines = read_lines(out)
        assert lines[1] == "n,t,re_0,im_0"
        # identity symbol: output equals the sampled input t^2
        last = lines[-1].split(",")
        assert float(last[1]) == 1.0
        assert float(last[2]) == pytest.approx(1.0, abs=1e-10)


# --------------------------------------------------------------------------
# converge
# --------------------------------------------------------------------------


class TestConverge:
    def test_second_order_for_delay(self, tmp_path):
        out = tmp_path / "eoc.csv"
        code = main(["converge", "--symbol", "delay:1.0", "--g", "poly5exp",
                     "--t-final", "2.0", "--kappa-list", "0.1,0.05",
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = read_lines(out)
        assert lines[1] == "kappa,error_at_t,eoc"
        rows = [r.split(",") for r in data_rows(lines)]
        assert rows[0][2] == ""
        eoc = float(rows[1][2])
        assert 1.8 <= eoc <= 2.2

    def test_exact_flag_at_roundoff(self, tmp_path):
        """Trapezoid integration of t is exact, so errors sit at roundoff."""
        out = tmp_path / "eoc.csv"
        code = main(["converge", "--symbol", "power:-1", "--g", "mono:1",
                     "--t-final", "1.0", "--kappa-list", "0.1,0.05",
                     "--out", str(out)])
        assert code == EXIT_OK
        rows = [r.split(",") for r in data_rows(read_lines(out))]
        assert all(float(r[1]) <= 1e-12 for r in rows)
        assert rows[1][2] == "exact"

    def test_huge_errors_stay_finite(self, tmp_path):
        """Errors near 1e221 are squared inside the norm; they must not read inf.
        Gamma(172) overflows a double, but the coefficient Gamma(171)/Gamma(172)
        = 1/171 and the reference t^171/171 at t = 2 do not."""
        out = tmp_path / "eoc.csv"
        for argv in (["--symbol", "power:0", "--t-final", "20", "--kappa-list", "0.5,0.25"],
                     ["--symbol", "power:-1", "--t-final", "2", "--kappa-list", "1,0.5"]):
            code = main(["converge", "--g", "mono:170", *argv, "--out", str(out)])
            assert code == EXIT_OK
            rows = [r.split(",") for r in data_rows(read_lines(out))]
            assert len(rows) == 2
            assert all(math.isfinite(float(x)) for r in rows for x in r if x)

    @pytest.mark.parametrize("case", list(SNAPSHOT.TINY_RATE))
    def test_underflowing_decay_rate_has_a_reference(self, case, tmp_path):
        """a^(p+1) underflows to 0 for these decay rates; the reference never divides by it."""
        out = tmp_path / "eoc.csv"
        assert main([*SNAPSHOT.TINY_RATE[case], "--out", str(out)]) == EXIT_OK
        rows = [r.split(",") for r in data_rows(read_lines(out))]
        assert len(rows) == 2
        assert all(math.isfinite(float(x)) for r in rows for x in r[:2])

    def test_kappa_list_must_decrease(self, capsys):
        code = main(["converge", "--symbol", "delay:1.0", "--g", "poly5exp",
                     "--kappa-list", "0.05,0.1"])
        assert code == EXIT_USAGE
        assert "strictly decreasing" in capsys.readouterr().err

    def test_kappa_range_validated(self, capsys):
        code = main(["converge", "--symbol", "delay:1.0", "--g", "poly5exp",
                     "--kappa-list", "1.5,0.1"])
        assert code == EXIT_USAGE

    def test_unsupported_pair_refused(self, capsys):
        code = main(["converge", "--symbol", "power:0.5", "--g", "poly5exp"])
        assert code == EXIT_USAGE
        assert "no closed-form reference" in capsys.readouterr().err

    def test_refusal_names_the_symbol_with_every_digit(self, capsys):
        code = main(["converge", "--symbol", "power:0.1234567", "--g", "poly5exp"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: no closed-form reference for symbol='power:0.1234567' with g='poly5exp'; "
            f"{functions.EXACT_PAIRS_HELP}\n"
        )


# --------------------------------------------------------------------------
# bound
# --------------------------------------------------------------------------


class TestBound:
    def test_bound_holds_small_case(self, tmp_path):
        out = tmp_path / "bound.csv"
        code = main(["bound", "--symbol", "delay:1.0", "--g", "poly5exp",
                     "--t-list", "1,2", "--kappa-list", "0.1",
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = read_lines(out)
        assert lines[1] == "t,kappa,observed_error,bound_rhs,ratio"
        rows = [r.split(",") for r in data_rows(lines)]
        assert len(rows) == 2
        for r in rows:
            assert 0.0 <= float(r[4]) <= 1.0

    @pytest.mark.parametrize("case", list(SNAPSHOT.SMALL_TIME))
    def test_small_time_holds(self, case, tmp_path):
        """At t = 1e-300 or 1e-200, (1/t)**epsilon would pass the double range;
        the bound's C(1/t) stays finite, so the row is written and holds."""
        out = tmp_path / "bound.csv"
        assert main([*SNAPSHOT.SMALL_TIME[case], "--out", str(out)]) == EXIT_OK
        rows = [r.split(",") for r in data_rows(read_lines(out))]
        assert rows and all(float(r[4]) <= 1.0 for r in rows)

    @pytest.mark.parametrize("g", ["mono:20", "mono:170"])
    def test_later_values_do_not_fail_early_rows(self, g, tmp_path):
        """On a fast-growing input, the FFT roundoff of a run to the last time
        would swamp the early rows; each row comes from its own run."""
        out = tmp_path / "bound.csv"
        assert main(["bound", "--symbol", "power:1", "--g", g, "--out", str(out)]) == EXIT_OK
        rows = [r.split(",") for r in data_rows(read_lines(out))]
        assert len(rows) == 10
        assert all(0.0 < float(r[4]) <= 1.0 for r in rows)

    @pytest.mark.parametrize("symbol, g", [("power:0.5", "mono:7"), ("power:1", "mono:20")])
    def test_observed_error_is_the_naive_engines(self, symbol, g, tmp_path):
        out = tmp_path / "bound.csv"
        main(["bound", "--symbol", symbol, "--g", g, "--out", str(out)])
        rows = [[float(x) for x in r.split(",")] for r in data_rows(read_lines(out))]
        assert len(rows) == 10
        for t, kappa, observed, _, _ in rows:
            oracle = float(naive_errors(symbol, g, kappa, t).max())
            assert observed == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_one_weight_table_per_kappa(self, monkeypatch, tmp_path):
        """At the default lists (five times, two steps) each step builds one
        table, sized to the last time, and every time runs on a prefix of it."""
        built = []

        def counted(F, kappa, n, **kwargs):
            built.append((kappa, n))
            return cq_weights_fft(F, kappa, n, **kwargs)

        monkeypatch.setattr(cli, "cq_weights_fft", counted)
        out = tmp_path / "bound.csv"
        assert main(["bound", "--symbol", "power:1", "--g", "poly6exp", "--out", str(out)]) == EXIT_OK
        assert built == [(0.05, 320), (0.1, 160)]
        assert len(data_rows(read_lines(out))) == 10

    def test_time_integrals_once_per_t(self, monkeypatch, tmp_path):
        """I1 and I2 do not depend on kappa, so at the default lists (five
        times, two steps) the exact time integral runs twice per t, not twice
        per (t, kappa); and being a sum on the input's coefficients, it never
        calls the derivative callback, which only the hypothesis check reads,
        at t = 0."""
        called_at = []
        parse_input = cli._parse_input

        def counting_input(spec):
            g = parse_input(spec)

            def derivative(t, k):
                called_at.append(t)
                return g.derivative(t, k)

            return dataclasses.replace(g, derivative=derivative)

        integrals = []
        time_l1 = PolyExp.time_l1

        def counted(g, k, m, t_end):
            integrals.append(t_end)
            return time_l1(g, k, m, t_end)

        monkeypatch.setattr(cli, "_parse_input", counting_input)
        monkeypatch.setattr(PolyExp, "time_l1", counted)
        out = tmp_path / "bound.csv"
        assert main(["bound", "--symbol", "power:0.5", "--g", "mono:7", "--out", str(out)]) == EXIT_OK
        assert len(data_rows(read_lines(out))) == 10

        t_list = {opt.name: opt.default for opt in cli._COMMANDS["bound"].options}["t_list"]
        assert sorted(integrals) == sorted(2 * t_list)
        assert called_at and set(called_at) == {0.0}

    def test_negative_mu_symbol_refused(self, capsys):
        code = main(["bound", "--symbol", "decay:1.0", "--g", "poly5exp"])
        assert code == EXIT_USAGE
        assert "mu >= 0" in capsys.readouterr().err

    def test_pair_without_reference_refused(self, capsys):
        code = main(["bound", "--symbol", "power:0.5", "--g", "poly5exp"])
        assert code == EXIT_USAGE

    def test_failed_growth_certificate_is_degenerate(self, monkeypatch, capsys):
        """A certificate that fails validation makes the bound meaningless: exit 3."""
        monkeypatch.setattr(cli, "validate_growth", lambda F, samples, seed: SimpleNamespace(
            violations=3))
        assert main(["bound", "--symbol", "power:0.5", "--g", "mono:7"]) == EXIT_DEGENERATE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: growth certificate of power:0.5 failed validation (3 violations); "
            "the bound is meaningless"
        ]


# --------------------------------------------------------------------------
# longtime
# --------------------------------------------------------------------------


class TestLongtime:
    def test_fits_reported(self, tmp_path):
        out = tmp_path / "lt.csv"
        code = main(["longtime", "--symbol", "delay:1.0", "--g", "poly5exp",
                     "--kappa", "0.1", "--t-final", "16", "--t-min", "1",
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = read_lines(out)
        assert lines[1] == "t,error"
        rates = [ln for ln in lines if ln.startswith("# exp_rate_r = ")]
        slopes = [ln for ln in lines if ln.startswith("# loglog_slope_p = ")]
        assert len(rates) == 1 and len(slopes) == 1
        float(rates[0].split("=")[1])
        float(slopes[0].split("=")[1])
        rows = [r.split(",") for r in data_rows(lines)]
        assert [float(r[0]) for r in rows] == [1.0, 2.0, 4.0, 8.0, 16.0]

    def test_single_time_is_degenerate(self, tmp_path):
        out = tmp_path / "lt.csv"
        code = main(["longtime", "--symbol", "delay:1.0", "--g", "poly5exp",
                     "--kappa", "0.1", "--t-final", "1.5", "--t-min", "1",
                     "--out", str(out)])
        assert code == EXIT_DEGENERATE
        assert any("fit degenerate" in ln for ln in read_lines(out))

    def test_zero_signal_is_degenerate(self, tmp_path):
        out = tmp_path / "lt.csv"
        code = main(["longtime", "--symbol", "delay:1.0", "--g", "zero",
                     "--kappa", "0.25", "--t-final", "4", "--t-min", "1",
                     "--out", str(out)])
        assert code == EXIT_DEGENERATE

    def test_empty_grid_rejected(self, capsys):
        code = main(["longtime", "--symbol", "delay:1.0", "--g", "poly5exp",
                     "--kappa", "0.1", "--t-final", "0.1", "--t-min", "1"])
        assert code == EXIT_USAGE

    def test_error_is_the_naive_engines_at_each_time(self, tmp_path):
        out = tmp_path / "lt.csv"
        argv = ["--symbol", "power:1", "--g", "mono:20", "--kappa", "0.05",
                "--t-final", "16", "--t-min", "1"]
        assert main(["longtime", *argv, "--out", str(out)]) == EXIT_OK
        rows = [[float(x) for x in r.split(",")] for r in data_rows(read_lines(out))]
        assert [r[0] for r in rows] == [1.0, 2.0, 4.0, 8.0, 16.0]
        for t, err in rows:
            oracle = float(naive_errors("power:1", "mono:20", 0.05, t)[-1])
            assert err == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_reference_evaluated_once_per_node(self, monkeypatch, tmp_path):
        """perfbench's accuracy_study longtime call evaluates the closed form
        once at each of its 20001 nodes, not again on every prefix."""
        calls = []

        def counted_solution(F, g):
            exact = exact_solution(F, g)
            return lambda t: calls.append(t) or exact(t)

        monkeypatch.setattr(cli, "exact_solution", counted_solution)
        argv = ["longtime", "--symbol", "decay:1.0", "--g", "poly5exp", "--kappa", "0.01",
                "--t-final", "200", "--out", str(tmp_path / "lt.csv")]
        assert main(argv) == EXIT_OK
        assert len(calls) == 20001

    def test_infinite_t_final_returns(self):
        """The time list halves down from t_final, so an infinite t_final must be
        refused first.  Run capped in memory and time: the loop would not end."""
        root = Path(__file__).resolve().parents[1]
        path = os.environ.get("PYTHONPATH")
        src = str(root / "src") + (os.pathsep + path if path else "")
        code = ("import resource, sys; "
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31)); "
                "from trcq_kit.cli import main; sys.exit(main(sys.argv[1:]))")
        proc = subprocess.run(
            [sys.executable, "-c", code, "longtime", "--symbol", "delay:1.0", "--g", "poly5exp",
             "--t-final", "inf"],
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.splitlines()[-1] == (
            f"error: t_final/kappa = inf is not finite; the step budget is {cli.MAX_STEPS}"
        )


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------


class TestVerify:
    def test_suite_runs_clean(self, tmp_path):
        out = tmp_path / "v.csv"
        code = main(["verify", "--suite", "hyperbolic", "--samples", "2000",
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = read_lines(out)
        assert lines[1] == "suite,samples,seed,violations,worst_margin,worst_point_json"
        assert lines[2].startswith("hyperbolic,")
        assert ",0," in lines[2]  # zero violations

    def test_lemma42_defaults(self, tmp_path):
        out = tmp_path / "v.csv"
        code = main(["verify", "--suite", "lemma42", "--out", str(out)])
        assert code == EXIT_OK
        assert read_lines(out)[2].startswith("lemma42,")

    def test_unknown_suite(self, capsys):
        code = main(["verify", "--suite", "banana"])
        assert code == EXIT_USAGE
        assert "known suites" in capsys.readouterr().err

    def test_summary_echoed_with_file_output(self, tmp_path, capsys):
        out = tmp_path / "v.csv"
        main(["verify", "--suite", "lemma32", "--samples", "1000", "--out", str(out)])
        assert "violations=0" in capsys.readouterr().out

    def test_prop41_symbol_without_derivative_is_a_usage_error(self, monkeypatch, capsys):
        bare = dataclasses.replace(from_spec("delay:1.0"), name="bare", derivative=None)
        monkeypatch.setattr(cli, "_parse_symbol", lambda spec: bare)
        assert main(["verify", "--suite", "prop41", "--samples", "100"]) == EXIT_USAGE
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: prop41 part (b) needs the derivative of bare, which declares none"
        )

    @pytest.mark.parametrize("m", [4, 5])
    def test_prop34a_at_high_order(self, m, capsys):
        """P_m g^(m+4) of poly15exp changes sign on [8, 16], where adaptive
        Simpson bisected the kinks of its modulus for minutes; the exact time
        integral cuts at the roots instead."""
        start = time.monotonic()
        assert main(["verify", "--suite", "prop34a", "--g", "poly15exp", "--m", str(m)]) == EXIT_OK
        assert time.monotonic() - start < 10.0

    @pytest.mark.parametrize("suite, g, integral", [
        ("lemma33", "mono:3", "lemma33 time integral int_0^inf |g''|"),
        ("prop34a", "mono:7", "prop34a time integral int_0^inf |P_1 g^(5)|"),
    ])
    def test_growing_input_has_no_time_integral(self, suite, g, integral, capsys):
        """A monomial's time integrand does not decay: exit 3, naming the integral."""
        assert main(["verify", "--suite", suite, "--g", g]) == EXIT_DEGENERATE
        assert capsys.readouterr().err == (
            f"error: {integral}: time integrand does not decay; integral did not localize\n"
        )


# --------------------------------------------------------------------------
# constants
# --------------------------------------------------------------------------


class TestConstants:
    def test_row_matches_library(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code = main(["constants", "--mu", "1.0", "--out", str(out)])
        assert code == EXIT_OK
        lines = read_lines(out)
        assert lines[1] == "mu,m,alpha,beta,epsilon,Cm1,Cmu1,Cmu2,Cm,Cmu3,Cmu"
        assert lines[2] == params_csv_row(derive_params(1.0))
        assert lines[2] in capsys.readouterr().out

    def test_negative_mu_rejected(self, capsys):
        assert main(["constants", "--mu", "-1"]) == EXIT_USAGE

    def test_non_numeric_mu_rejected(self, capsys):
        assert main(["constants", "--mu", "banana"]) == EXIT_USAGE


# --------------------------------------------------------------------------
# parser-level behavior
# --------------------------------------------------------------------------


class TestParser:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_no_subcommand(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    # the whole stderr of refusals whose cause must be named
    NAMED_REFUSALS = {
        "poly300exp": "bad input spec 'poly300exp': p must lie in 0..170 (p! must fit a double), "
                      "got 300",
        "lemma33-mono0": "need a transform decay certificate with exponent > 1",
        "bound-t-inf": f"t_final/kappa = inf is not finite; the step budget is {cli.MAX_STEPS}",
        "longtime-t-min-nan": "--t-min = nan is not finite",
        "longtime-t-min-inf": "--t-min = inf is not finite",
        "bound-t-nan": "--t-list times must be positive, got nan",
        "bound-power0.5-mono2": "mono:2 has g^(2)(0) = 2; the bound needs g^(k)(0) = 0 for k < 6",
        "bound-power0.5-mono4": "mono:4 has g^(4)(0) = 24; the bound needs g^(k)(0) = 0 for k < 6",
        "bound-power1-mono3": "mono:3 has g^(3)(0) = 6; the bound needs g^(k)(0) = 0 for k < 6",
        "bound-power1-poly1exp":
            "poly1exp has g^(1)(0) = 1; the bound needs g^(k)(0) = 0 for k < 6",
        "bound-delay-poly1exp":
            "poly1exp has g^(1)(0) = 1; the bound needs g^(k)(0) = 0 for k < 5",
        **{f"prop34a-poly{m + 1}exp-m{m}":
           f"poly{m + 1}exp has g^({m + 1})(0) = {math.factorial(m + 1)}; "
           f"prop34a at m = {m} needs g^(k)(0) = 0 for k < {2 * m + 4}" for m in range(1, 6)},
    }

    @pytest.mark.parametrize("case", list(SNAPSHOT.OUT_OF_RANGE))
    def test_out_of_range_input_is_a_usage_error(self, case, capsys):
        assert main(SNAPSHOT.OUT_OF_RANGE[case]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if case in self.NAMED_REFUSALS:
            assert err == f"error: {self.NAMED_REFUSALS[case]}\n"

    NAMED_FAILURES = {
        "weights-power79": "error: weights of power:79 at kappa = 0.001 leave the double "
                           "range, first at w_53",
        "weights-power79-contour": "error: weights of power:79 at kappa = 0.001 leave the "
                                   "double range, first at w_",
        **{f"reference-{symbol.replace(':', '')}-poly170exp":
           f"error: the closed-form reference for symbol '{symbol}' on input 'poly170exp' "
           f"overflows a double at t = {t}" for symbol, t in (("decay:1", 64), ("power:1", 65))},
        # a non-canonical spec is named as its symbol's name
        "reference-decay1.0-poly170exp": "error: the closed-form reference for symbol 'decay:1' "
                                         "on input 'poly170exp' overflows a double at t = 64",
        **{f"lemma42-{case}": "error: lemma42 (a) integral over |s| >= c/kappa of |s|^-alpha: "
                              "cutoff inf is not finite"
           for case in ("kappa-1e-300", "c-1e300", "kappa-1e-200")},
    }

    @pytest.mark.parametrize("command", ["converge", "longtime", "bound"])
    @pytest.mark.parametrize("symbol, g, message", [
        ("power:abc", "poly5exp", "bad symbol spec 'power:abc': could not convert string to "
                                  "float: 'abc'"),
        ("power:0.5", "poly300exp", "bad input spec 'poly300exp': p must lie in 0..170 (p! must "
                                    "fit a double), got 300"),
        ("power:1", "mono:2.5", "bad input spec 'mono:2.5': unknown input spec 'mono:2.5' "
                                "(try poly5exp, mono:7, zero)"),
    ])
    def test_bad_spec_is_named_before_the_reference(self, command, symbol, g, message, capsys):
        """The specs are parsed before the closed-form reference is looked up,
        so a bad one is refused with its name, as ``convolve`` refuses it."""
        assert main([command, "--symbol", symbol, "--g", g]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, p", [
        (["converge", "--symbol", "delay:1.0", "--g", "poly5exp", "--t-final", "1",
          "--kappa-list", "0.5,0.25"], 5),
        (["bound", "--symbol", "power:1", "--g", "poly6exp", "--t-list", "1",
          "--kappa-list", "0.5"], 6),
        (["longtime", "--symbol", "delay:1.0", "--g", "poly5exp", "--kappa", "0.25",
          "--t-final", "4", "--t-min", "1"], 5),
    ], ids=["converge", "bound", "longtime"])
    def test_input_spec_parsed_once(self, argv, p, monkeypatch, capsys):
        """The closed-form reference dispatches on the input the command built,
        so the input's data is constructed once, not again from its spec."""
        built = []
        poly_exp_data = functions.PolyExp

        def counted(*args):
            built.append(args)
            return poly_exp_data(*args)

        monkeypatch.setattr(functions, "PolyExp", counted)
        assert main(argv) == EXIT_OK
        assert built == [("poly", p, 16)]

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "lemma33", "--g", "poly145exp"],
        ["verify", "--suite", "prop34a", "--g", "poly170exp"],
    ])
    def test_large_finite_time_integrals_run(self, argv, capsys):
        """int |g''| of poly145exp is 5.39e249 and int |P_1 g^(5)| of poly170exp
        1.19e302: both finite, so both checks run."""
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("case", list(SNAPSHOT.NON_FINITE))
    def test_non_finite_input_is_a_usage_error(self, case, capsys):
        """Overflowing inputs and infinite symbol parameters never reach a CSV."""
        start = time.monotonic()
        assert main(SNAPSHOT.NON_FINITE[case]) == EXIT_USAGE
        assert time.monotonic() - start < 10.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith(self.NAMED_FAILURES.get(case, "error: "))

    @pytest.mark.parametrize("kappa, t_final, message", [
        ("0.1", "nan", f"t_final/kappa = nan is not finite; the step budget is {cli.MAX_STEPS}"),
        ("0", "1", "kappa must lie in (0, 1], got 0"),
    ], ids=["nan", "kappa0"])
    def test_run_length_refusal_names_its_cause(self, kappa, t_final, message, capsys):
        code = main(["convolve", "--symbol", "power:1", "--g", "poly5exp",
                     "--kappa", kappa, "--t-final", t_final])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unexpected_exception_is_internal_not_a_violation(self, monkeypatch, capsys):
        def broken(mu):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(cli, "derive_params", broken)
        assert main(["constants", "--mu", "1"]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert err.splitlines()[-1] == "error: internal error: ZeroDivisionError: float division by zero"

    def test_non_numeric_kappa(self, capsys):
        code = main(["weights", "--symbol", "power:1", "--kappa", "fast", "--n", "4"])
        assert code == EXIT_USAGE
        assert "expected a real number" in capsys.readouterr().err


def test_cli_snapshot_covers_every_command_and_suite():
    """tools/cli_snapshot.py runs every subcommand and every verify suite."""
    commands = {argv[0] for argv in SNAPSHOT.ARGVS if argv}
    suites = {argv[argv.index("--suite") + 1] for argv in SNAPSHOT.ARGVS if "--suite" in argv}
    assert set(cli._COMMANDS) <= commands
    assert set(cli._SUITES) <= suites


def test_cli_matches_the_golden_table():
    """Every ``ARGVS`` entry, run in this interpreter with and without ``--out``,
    reproduces its record in tests/cli_golden.json: exit code, last stderr line,
    stdout, file and echo.  A change that moves output bytes rewrites the table
    with ``python3 tools/cli_snapshot.py tests/cli_golden.json``."""
    golden = json.loads((Path(__file__).with_name("cli_golden.json")).read_text("utf-8"))
    moved = SNAPSHOT.differences(golden, SNAPSHOT.snapshot(SNAPSHOT.in_process))
    assert not moved, "\n".join(moved)
