"""End-to-end CLI behavior: CSV output, exit codes, replay."""

import argparse
import json
import math
import os
import subprocess
import sys

import pytest

import renvol.cli
from renvol.cli import run

from test_comparison import patch_volumes

FOUR_PI = 4.0 * math.pi

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
# CSVs written with --out; each replays its own command and byte-compares
GOLDEN_DIR = os.path.join(TESTS_DIR, "golden")
GOLDEN = sorted(
    os.path.join(GOLDEN_DIR, name) for name in os.listdir(GOLDEN_DIR) if name.endswith(".csv")
)
# exit code, stdout and stderr of run() on help and usage-error argvs, recorded
# with COLUMNS=80 from the CLI that built every subcommand's parser on each run
with open(os.path.join(GOLDEN_DIR, "cli_messages.json"), encoding="utf-8") as _fh:
    MESSAGES = json.load(_fh)

# usage errors (exit 2) and the cause each names; DIR holds one.txt, a
# one-profile file, and empty.txt, an empty one
USAGE_ERRORS = [
    (["sweep", "--grid", "1:x:3"], "bad grid component in '1:x:3'"),
    (["sweep", "--grid", "1:2:0"], "grid count must be >= 1, got 0"),
    (["hawking", "--m", "2", "--grid", "1:inf:3"],
     "grid start and stop must be finite, got '1:inf:3'"),
    (["sweep", "--grid", "log:nan:2:3"], "grid start and stop must be finite, got 'log:nan:2:3'"),
    (["hawking", "--m", "2", "--s", "inf"], "radius must be positive and finite, got inf"),
    (["bounds", "--m", "2", "--tau", "inf"], "tau must be nonnegative and finite, got inf"),
    (["bounds", "--m", "2", "--tau", "nan"], "tau must be nonnegative and finite, got nan"),
    (["volume", "--family", "custom", "--profile", "1 + s^2 - m/s", "--param", "m2"],
     "parameter must be NAME=VALUE, got 'm2'"),
    (["volume", "--family", "rn-ads", "--m", "2"], "--family rn-ads needs --m and --c"),
    (["volume", "--family", "custom", "--profile", "1 + s^2 - 2/s",
      "--profile-file", "DIR/one.txt"], "provide --profile or --profile-file, not both"),
    (["volume", "--family", "custom", "--profile-file", "DIR/empty.txt"],
     "empty.txt defines no profiles"),
    (["volume", "--family", "custom", "--profile-file", "DIR/one.txt", "--name", "c"],
     "no profile 'c' in"),
    (["volume", "--family", "custom"],
     "--family custom needs --profile EXPR or --profile-file PATH"),
    (["ialpha", "--alpha", "1", "--grid", "0:1:3"], "provide --alpha or --grid, not both"),
]


def rows_of(output):
    lines = [ln for ln in output.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


class TestVolume:
    def test_model_volume_row(self, capsys):
        assert run(["volume", "--family", "ads", "--m", "2"]) == 0
        header, rows = rows_of(capsys.readouterr().out)
        assert header == ["label", "m", "tau", "lhs", "rhs", "rel_err", "evals"]
        assert len(rows) == 1
        label, m, tau, lhs, rhs, rel_err, evals = rows[0]
        assert label == "ads m=2"
        assert float(m) == 2.0
        assert tau == ""
        assert float(lhs) == pytest.approx(10.579797094324156, rel=1e-9)
        assert int(evals) > 0

    def test_negative_mass_is_usage_error(self, capsys):
        assert run(["volume", "--m", "-1"]) == 2
        assert "mass must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--rel-tol", "--abs-tol"])
    def test_infinite_tolerance_is_usage_error(self, capsys, flag):
        # an infinite target accepted the first panels: 60 evaluations, stability 0
        assert run(["volume", "--family", "ads", "--m", "2", flag, "inf"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: %s tolerance must be finite, got inf\n" % flag[2:5]

    def test_custom_profile(self, capsys):
        code = run(["volume", "--family", "custom", "--profile", "1 + s^2 - 3/s + 1/s^3"])
        assert code == 0
        _, rows = rows_of(capsys.readouterr().out)
        assert float(rows[0][3]) == pytest.approx(17.350763775510305, rel=1e-9)

    def test_custom_profile_with_parameter(self, capsys):
        code = run(["volume", "--family", "custom", "--profile", "1 + s^2 - m/s",
                    "--param", "m=2"])
        assert code == 0
        _, rows = rows_of(capsys.readouterr().out)
        assert float(rows[0][3]) == pytest.approx(10.579797094324156, rel=1e-9)

    def test_bad_expression_is_usage_error(self, capsys):
        assert run(["volume", "--family", "custom", "--profile", "1 + * s"]) == 2
        assert "syntax error at offset 4" in capsys.readouterr().err

    def test_profile_file(self, tmp_path, capsys):
        path = tmp_path / "profiles.txt"
        path.write_text("bh = 1 + s^2 - m/s  # model family\nflat = 1 + s^2\n")
        code = run(["volume", "--family", "custom", "--profile-file", str(path),
                    "--name", "bh", "--param", "m=2"])
        assert code == 0
        _, rows = rows_of(capsys.readouterr().out)
        assert rows[0][0] == "bh"
        assert float(rows[0][3]) == pytest.approx(10.579797094324156, rel=1e-9)

    def test_profile_file_needs_a_name_when_ambiguous(self, tmp_path, capsys):
        path = tmp_path / "profiles.txt"
        path.write_text("a = 1 + s^2\nb = 1 + s^2 - 1/s\n")
        assert run(["volume", "--family", "custom", "--profile-file", str(path)]) == 2
        assert "--name" in capsys.readouterr().err

    def test_profile_file_with_one_profile_needs_no_name(self, tmp_path, capsys):
        path = tmp_path / "profiles.txt"
        path.write_text("bh = 1 + s^2 - m/s\n")
        code = run(["volume", "--family", "custom", "--profile-file", str(path),
                    "--param", "m=2"])
        assert code == 0
        _, rows = rows_of(capsys.readouterr().out)
        assert rows[0][0] == "bh"
        assert float(rows[0][3]) == pytest.approx(10.579797094324156, rel=1e-9)

    def test_slow_decay_is_numerical_failure(self, capsys):
        assert run(["volume", "--family", "custom", "--profile", "1 + s^2 - s"]) == 3
        assert "decays like" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_parameter_is_usage_error(self, value, capsys):
        code = run(["volume", "--family", "custom", "--profile", "1 + s^2 - m/s",
                    "--param", "m=" + value])
        assert code == 2
        assert "profile parameter 'm' must be finite, got %s" % value in capsys.readouterr().err

    def test_missing_mass(self, capsys):
        assert run(["volume"]) == 2

    def test_tightest_admitted_tolerance(self, capsys):
        assert run(["volume", "--family", "ads", "--m", "2", "--rel-tol", "1e-14"]) == 0
        _, rows = rows_of(capsys.readouterr().out)
        # the 50-digit renormalized volume is 10.579797094324155972...
        assert float(rows[0][3]) == pytest.approx(10.579797094324156, rel=1e-13)


class TestHawking:
    def test_grid_rows_with_undefined_cells(self, capsys):
        assert run(["hawking", "--m", "2", "--grid", "0.5:2:4"]) == 0
        header, rows = rows_of(capsys.readouterr().out)
        assert header == ["label", "s", "f", "H", "R", "m_H"]
        assert len(rows) == 4
        # s = 0.5 lies inside the horizon: f < 0, H and m_H are undefined
        assert float(rows[0][2]) < 0.0
        assert rows[0][3] == "" and rows[0][5] == ""
        # s = 2 is outside: every column is filled
        assert all(cell != "" for cell in rows[-1])
        assert float(rows[-1][5]) == pytest.approx(32.0 * math.pi**1.5 * 2.0, rel=1e-12)

    def test_explicit_points(self, capsys):
        assert run(["hawking", "--m", "2", "--s", "1.5", "--s", "3"]) == 0
        _, rows = rows_of(capsys.readouterr().out)
        assert [float(r[1]) for r in rows] == [1.5, 3.0]

    def test_one_point_grid(self, capsys):
        assert run(["hawking", "--m", "2", "--grid", "1:2:1"]) == 0
        _, rows = rows_of(capsys.readouterr().out)
        assert [float(r[1]) for r in rows] == [1.0]

    def test_requires_points(self, capsys):
        assert run(["hawking", "--m", "2"]) == 2

    def test_rejects_both_point_styles(self, capsys):
        assert run(["hawking", "--m", "2", "--s", "1", "--grid", "1:2:2"]) == 2


class TestBounds:
    def test_two_rows_and_success(self, capsys):
        assert run(["bounds", "--family", "rn-ads", "--m", "4", "--c", "1",
                    "--tau", "1"]) == 0
        header, rows = rows_of(capsys.readouterr().out)
        assert header == ["label", "m", "tau", "lhs", "rhs", "rel_err", "evals"]
        assert [r[0] for r in rows] == ["rn-ads m=4 c=1 flow", "rn-ads m=4 c=1 area"]
        flow_row, area_row = rows
        assert float(flow_row[5]) < 1e-9
        # area bound stays below twice the volume on positive charge
        assert float(area_row[3]) < float(area_row[4])

    def test_horizonless_profile(self, capsys):
        assert run(["bounds", "--family", "hyperbolic", "--tau", "1"]) == 2
        assert "no horizon" in capsys.readouterr().err

    def test_overflowing_tau_is_usage_error(self, capsys):
        # at 710 a weighted integrand value is infinite; at 800 so is 4 e^t A
        for tau in ("710", "800"):
            assert run(["bounds", "--family", "ads", "--m", "2", "--tau", tau]) == 2
            assert capsys.readouterr().err == (
                "error: tau = %r is too large: the bound overflows with e^tau\n" % float(tau))


class TestIsoCheck:
    def test_identity_row(self, capsys):
        assert run(["iso-check", "--m", "2", "--tau", "1"]) == 0
        _, rows = rows_of(capsys.readouterr().out)
        assert rows[0][0] == "iso m=2"
        assert float(rows[0][2]) == pytest.approx(1.0, rel=1e-12)
        assert float(rows[0][5]) < 1e-9

    def test_s_top_form(self, capsys):
        assert run(["iso-check", "--m", "2", "--s-top", "2"]) == 0
        _, rows = rows_of(capsys.readouterr().out)
        assert float(rows[0][2]) == pytest.approx(2.0 * math.log(2.0), rel=1e-12)

    def test_requires_exactly_one_form(self, capsys):
        assert run(["iso-check", "--m", "2"]) == 2
        assert run(["iso-check", "--m", "2", "--tau", "1", "--s-top", "2"]) == 2


class TestIAlpha:
    def test_header_and_value(self, capsys):
        assert run(["ialpha", "--alpha", "1"]) == 0
        header, rows = rows_of(capsys.readouterr().out)
        assert header == ["A_bar", "alpha", "eps", "value"]
        assert float(rows[0][0]) == pytest.approx(FOUR_PI, rel=1e-15)
        assert float(rows[0][3]) == pytest.approx(0.461001648067862677, rel=1e-9)

    def test_grid_with_regularization(self, capsys):
        assert run(["ialpha", "--grid", "0.5:1.5:3", "--eps", "1e-4"]) == 0
        _, rows = rows_of(capsys.readouterr().out)
        assert len(rows) == 3
        values = [float(r[3]) for r in rows]
        assert values == sorted(values)

    def test_requires_alpha(self, capsys):
        assert run(["ialpha"]) == 2

    @pytest.mark.parametrize("alpha", ["705", "709.5", "710"])
    def test_overflowing_alpha_is_a_usage_error(self, capsys, alpha):
        # the gap integrals overflow with e^alpha from about 705 at this
        # area, and e^alpha itself beyond 709.78
        assert run(["ialpha", "--a-bar", "10", "--alpha", alpha]) == 2
        assert "alpha = %r is too large" % float(alpha) in capsys.readouterr().err


class TestLemmaAux:
    def test_margin_mode(self, capsys):
        assert run(["lemma-aux", "--eps", "1e-4", "--mu", "1"]) == 0
        header, rows = rows_of(capsys.readouterr().out)
        assert header == ["eps", "mu", "margin"]
        assert float(rows[0][2]) == pytest.approx(1.7507096622, rel=1e-8)

    def test_threshold_mode(self, capsys):
        assert run(["lemma-aux", "--threshold", "--mu", "1"]) == 0
        header, rows = rows_of(capsys.readouterr().out)
        assert header == ["mu", "rho_star"]
        assert 1e-3 < float(rows[0][1]) < 1.0

    def test_threshold_mode_tight_tolerance(self, capsys):
        assert run(["lemma-aux", "--threshold", "--mu", "1", "--rel-tol", "1e-12"]) == 0
        header, rows = rows_of(capsys.readouterr().out)
        assert 1e-3 < float(rows[0][1]) < 1.0

    def test_requires_arguments(self, capsys):
        assert run(["lemma-aux"]) == 2
        assert run(["lemma-aux", "--threshold"]) == 2


class TestCompare:
    def test_verified_violation_exits_one(self, capsys):
        code = run(["compare", "--family", "rn-ads", "--m", "4", "--c", "-1",
                    "--model-m", "4"])
        out = capsys.readouterr().out
        assert code == 1
        assert "falls below -6" in out
        assert "verdict: hypothesis_failed" in out

    def test_equality_case(self, capsys):
        code = run(["compare", "--family", "ads", "--m", "2", "--model-m", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: equality" in out

    def test_strict_inequality(self, capsys):
        code = run(["compare", "--family", "rn-ads", "--m", "4", "--c", "1",
                    "--model-m", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: holds" in out

    def test_smaller_volume_exits_one(self, capsys, monkeypatch):
        patch_volumes(monkeypatch, 1.0, 2.0)
        code = run(["compare", "--family", "ads", "--m", "2", "--model-m", "2"])
        assert code == 1
        assert "verdict: violated" in capsys.readouterr().out

    def test_csv_written_alongside_report(self, tmp_path, capsys):
        out_path = tmp_path / "cmp.csv"
        code = run(["compare", "--family", "ads", "--m", "2", "--model-m", "2",
                    "--out", str(out_path)])
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("# argv: compare --family ads --m 2 --model-m 2\n")
        header = text.splitlines()[1].split(",")
        assert header == ["label", "model_m", "A", "A_bar", "alpha", "V",
                          "V_model", "margin", "verdict"]
        assert text.splitlines()[2].endswith("equality")


class TestSweep:
    def test_monotone_sweep(self, capsys):
        assert run(["sweep", "--grid", "log:0.5:4:4"]) == 0
        header, rows = rows_of(capsys.readouterr().out)
        assert header == ["m", "V", "dV_prev"]
        assert rows[0][2] == ""
        deltas = [float(r[2]) for r in rows[1:]]
        assert all(d > 0.0 for d in deltas)

    def test_falling_volume_exits_one(self, capsys, monkeypatch):
        patch_volumes(monkeypatch, 3.0, 2.0, 4.0)
        assert run(["sweep", "--grid", "1:3:3"]) == 1
        _, rows = rows_of(capsys.readouterr().out)
        assert [r[2] for r in rows] == ["", "-1", "2"]

    def test_reversed_grid(self, capsys):
        assert run(["sweep", "--grid", "4:0.5:4"]) == 2

    def test_malformed_grid(self, capsys):
        assert run(["sweep", "--grid", "1:2"]) == 2
        assert run(["sweep", "--grid", "log:0:2:5"]) == 2


class TestOutputAndReplay:
    def test_byte_identical_reruns(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for path in (first, second):
            assert run(["volume", "--family", "ads", "--m", "2",
                        "--out", str(path)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_argv_comment_strips_out_flag(self, tmp_path):
        path = tmp_path / "v.csv"
        assert run(["volume", "--m", "2", "--out", str(path)]) == 0
        assert path.read_text().splitlines()[0] == "# argv: volume --m 2"

    def test_replay_round_trip(self, tmp_path, capsys):
        path = tmp_path / "v.csv"
        assert run(["volume", "--m", "2", "--out", str(path)]) == 0
        assert run(["replay", "--from-csv", str(path)]) == 0
        assert "replay matches" in capsys.readouterr().out

    def test_replay_detects_tampering(self, tmp_path, capsys):
        path = tmp_path / "v.csv"
        assert run(["volume", "--m", "2", "--out", str(path)]) == 0
        text = path.read_text().replace("10.57", "10.58")
        path.write_text(text)
        assert run(["replay", "--from-csv", str(path)]) == 1

    def test_replay_needs_the_comment(self, tmp_path, capsys):
        path = tmp_path / "bare.csv"
        path.write_text("label,m\nx,1\n")
        assert run(["replay", "--from-csv", str(path)]) == 2

    def test_replay_of_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "v.csv"
        path.write_text("# argv: volume --m -1\nlabel\n")
        assert run(["replay", "--from-csv", str(path)]) == 3
        assert "replay run exited 2 without output" in capsys.readouterr().err

    def test_replay_missing_file(self, tmp_path, capsys):
        assert run(["replay", "--from-csv", str(tmp_path / "nope.csv")]) == 3

    def test_unwritable_output(self, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "x.csv"
        assert run(["volume", "--m", "2", "--out", str(target)]) == 3


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert run([]) == 2

    def test_unknown_flag(self, capsys):
        assert run(["volume", "--m", "2", "--frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "subcommand" in capsys.readouterr().out or True

    @pytest.mark.parametrize("case", MESSAGES, ids=lambda case: " ".join(case["argv"]) or "(none)")
    def test_messages_match_the_golden(self, case, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
        code = run(case["argv"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])

    @pytest.mark.parametrize("argv, cause", USAGE_ERRORS, ids=" ".join)
    def test_usage_error_names_its_cause(self, argv, cause, tmp_path, capsys):
        (tmp_path / "one.txt").write_text("bh = 1 + s^2 - m/s\n")
        (tmp_path / "empty.txt").write_text("")
        assert run([arg.replace("DIR", str(tmp_path)) for arg in argv]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and cause in out.err

    def test_messages_cover_every_subcommand(self):
        argvs = [case["argv"] for case in MESSAGES]
        for argv in (["-h"], [], ["frobnicate"]):
            assert argv in argvs
        for name in renvol.cli._SUBCOMMANDS:
            assert [name, "-h"] in argvs, name

    def test_a_run_builds_one_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert run(["volume", "--family", "ads", "--m", "2"]) == 0
        assert built == ["renvol volume"]
        del built[:]
        assert run(["volume", "--m", "2", "extra"]) == 2
        # the leftover is reported by the full parser: itself and ten subparsers
        assert built[:2] == ["renvol volume", "renvol"] and len(built) == 12


def test_verify_runs_every_criterion(capsys):
    assert run(["verify"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.startswith("pass")]
    assert len(lines) == 10


def test_import_loads_only_what_every_subcommand_needs():
    # tempfile and typing are left out: site loads them before renvol
    unwanted = ["numpy", "dataclasses", "inspect", "shlex", "renvol.acceptance"]
    code = (
        "import sys, renvol, renvol.cli; "
        "print(' '.join(m for m in %r if m in sys.modules))" % (unwanted,)
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(TESTS_DIR), "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_import_compiles_no_panel_kernel():
    # the generic, area and gap kernels each compile on first use
    code = (
        "import builtins\n"
        "compile_ = builtins.compile\n"
        "names = []\n"
        "def counted(source, filename, *args, **kwargs):\n"
        "    names.append(filename)\n"
        "    return compile_(source, filename, *args, **kwargs)\n"
        "builtins.compile = counted\n"
        "import renvol, renvol.cli\n"
        "import renvol.quadrature as q\n"
        "assert 'renvol.comparison' in __import__('sys').modules\n"
        "print(names.count('<panel>'))\n"
        "q.integrate(abs, 0.0, 1.0)\n"
        "print(names.count('<panel>'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(TESTS_DIR), "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1"]


def test_golden_set_covers_the_subcommands():
    names = [os.path.basename(path) for path in GOLDEN]
    assert len(names) >= 8
    for prefix in (
        "volume_", "compare_", "hawking_", "ialpha_", "sweep_", "bounds_", "iso_check_", "lemma_aux_"
    ):
        assert any(name.startswith(prefix) for name in names), prefix


@pytest.mark.parametrize("path", GOLDEN, ids=os.path.basename)
def test_golden_replay(path, capsys):
    assert run(["replay", "--from-csv", path]) == 0
    # compare also prints its report before the replay verdict
    assert capsys.readouterr().out.endswith("replay matches %s\n" % path)
