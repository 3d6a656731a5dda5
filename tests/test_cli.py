"""End-to-end CLI behavior: CSV output, exit codes, replay."""

import math
import os
import subprocess
import sys

import pytest

from renvol.cli import run

FOUR_PI = 4.0 * math.pi

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
# CSVs written with --out; each replays its own command and byte-compares
GOLDEN_DIR = os.path.join(TESTS_DIR, "golden")
GOLDEN = sorted(
    os.path.join(GOLDEN_DIR, name) for name in os.listdir(GOLDEN_DIR) if name.endswith(".csv")
)


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

    @pytest.mark.xfail(
        strict=True,
        reason="exits 3 with 'profile nonpositive at s=1.0 inside a volume "
        "integral': below rel = 1e-13 the sqrt-endpoint panels sample the "
        "horizon itself",
    )
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


def test_verify_runs_every_criterion(capsys):
    assert run(["verify"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.startswith("pass")]
    assert len(lines) == 10


def test_import_loads_only_what_every_subcommand_needs():
    # tempfile and typing are left out: site loads them before renvol
    unwanted = ["numpy", "dataclasses", "inspect", "renvol.acceptance"]
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
