"""End-to-end tests of the command-line harness, run in-process.

Covers the output schemas, the exit-code contract (0 success, 1 assertion
failure, 2 usage error, 3 degenerate data, 4 internal error), config-file merging with
flags-win precedence, and byte-identical determinism of repeated runs.
"""

import math
import re
import time

import pytest

from trcq_kit.bounds import derive_params, params_csv_row
from trcq_kit import cli
from trcq_kit.cli import EXIT_DEGENERATE, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main

PROVENANCE_RE = re.compile(r"^# trcq-kit \S+ config=[0-9a-f]{12}$")


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def data_rows(lines):
    """Rows after the provenance/comment lines and the header."""
    body = [ln for ln in lines if not ln.startswith("#")]
    return body[1:]  # drop the CSV header


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
        """Errors near 1e221 are squared inside the norm; they must not read inf."""
        out = tmp_path / "eoc.csv"
        code = main(["converge", "--symbol", "power:0", "--g", "mono:170",
                     "--t-final", "20", "--kappa-list", "0.5,0.25",
                     "--out", str(out)])
        assert code == EXIT_OK
        rows = [r.split(",") for r in data_rows(read_lines(out))]
        assert len(rows) == 2
        assert all(math.isfinite(float(x)) for r in rows for x in r if x)

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

    def test_negative_mu_symbol_refused(self, capsys):
        code = main(["bound", "--symbol", "decay:1.0", "--g", "poly5exp"])
        assert code == EXIT_USAGE
        assert "mu >= 0" in capsys.readouterr().err

    def test_pair_without_reference_refused(self, capsys):
        code = main(["bound", "--symbol", "power:0.5", "--g", "poly5exp"])
        assert code == EXIT_USAGE


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--symbol", "power:0.5", "--g", "poly300exp"],
            ["convolve", "--symbol", "power:0.5", "--g", "mono:400", "--kappa", "0.1",
             "--t-final", "1"],
            ["constants", "--mu", "1e6"],
            ["constants", "--mu", "100"],
            ["verify", "--suite", "lemma33", "--g", "mono:0"],
        ],
        ids=["poly300exp", "mono400", "mu1e6", "mu100", "lemma33-mono0"],
    )
    def test_out_of_range_input_is_a_usage_error(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "prop34a", "--g", "poly170exp"],
            ["convolve", "--symbol", "power:0", "--g", "poly170exp", "--kappa", "1",
             "--t-final", "200"],
            ["convolve", "--symbol", "power:0", "--g", "mono:170", "--kappa", "1",
             "--t-final", "100"],
            ["converge", "--symbol", "delay:inf", "--g", "poly5exp"],
            ["converge", "--symbol", "decay:inf", "--g", "mono:2"],
            ["converge", "--symbol", "power:-1", "--g", "mono:170", "--t-final", "64",
             "--kappa-list", "1,0.5"],
            ["converge", "--symbol", "decay:1", "--g", "mono:170", "--t-final", "64",
             "--kappa-list", "1,0.5"],
        ],
        ids=["prop34a-poly170exp", "poly170exp", "mono170", "delay-inf", "decay-inf",
             "reference-gamma172", "reference-decay-mono170"],
    )
    def test_non_finite_input_is_a_usage_error(self, argv, capsys):
        """Overflowing inputs and infinite symbol parameters never reach a CSV."""
        start = time.monotonic()
        assert main(argv) == EXIT_USAGE
        assert time.monotonic() - start < 10.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith("error: ")

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
