"""Command-line interface: exit codes, output contracts, artifacts."""

import json
import math
import re
import shutil
import subprocess

import pytest

from multisection import Problem, corpus, lambert_w0
from multisection.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def extract(pattern, text):
    match = re.search(pattern, text)
    assert match, f"{pattern!r} not found in:\n{text}"
    return match.group(1)


class TestSolve:
    def test_corpus_problem_text_output(self, capsys):
        code, out, _ = run(capsys, "solve", "--corpus", "3")
        assert code == 0
        root = float(extract(r"root = (\S+)", out))
        assert abs(root - (-2.8284271247461903)) <= 2.0 ** -51
        assert extract(r"termination = (\S+)", out) == "WidthReached"
        assert extract(r"iterations = (\d+)", out) == "54"

    def test_many_sections(self, capsys):
        code, out, _ = run(capsys, "solve", "--corpus", "1", "--sections", "81")
        assert code == 0
        root = float(extract(r"root = (\S+)", out))
        assert abs(root - math.pi / 4) <= 2.0 ** -51

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "solve", "--corpus", "4", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["problem"] == "inv-shift"
        assert payload["root"] == 6.0
        assert payload["termination"] == "ExactZero"
        assert set(payload) == {
            "problem", "bracket", "sections", "root", "residual",
            "iterations", "function_evaluations", "termination",
        }

    def test_custom_function_with_bracket(self, capsys):
        code, out, _ = run(capsys, "solve", "--function", "square-8",
                           "--lo", "-5", "--hi", "0")
        assert code == 0
        root = float(extract(r"root = (\S+)", out))
        assert abs(root - (-2.8284271247461903)) <= 2.0 ** -51

    @pytest.mark.parametrize("lo", ["-5e0", "-5E+0", "-.5e1"])
    def test_negative_exponent_value_reads_as_a_value(self, capsys, lo):
        expected = run(capsys, "solve", "--function", "square-8", f"--lo={lo}", "--hi", "-2")
        assert expected[0] == 0
        assert run(capsys, "solve", "--function", "square-8", "--lo", lo, "--hi", "-2") == expected

    def test_bad_sections_exits_3(self, capsys):
        code, _, err = run(capsys, "solve", "--corpus", "1", "--sections", "1")
        assert code == 3
        assert ">= 2" in err

    def test_section_count_beyond_binary64_exits_3(self, capsys):
        code, out, err = run(capsys, "solve", "--corpus", "3", "--sections", "1" + "0" * 400)
        assert (code, out) == (3, "")
        assert err.startswith("multisection: error: sections must be at most")

    def test_more_nodes_than_one_array_holds_exits_3(self, capsys):
        code, out, err = run(capsys, "solve", "--corpus", "3", "--sections", str(2 ** 62))
        assert (code, out) == (3, "")
        assert err.startswith("multisection: error: 4611686018427387904 sections make "
                              "4611686018427387903 nodes per pass")

    def test_bad_corpus_index_exits_3(self, capsys):
        code, _, err = run(capsys, "solve", "--corpus", "99")
        assert code == 3
        assert "1..6" in err

    def test_no_sign_change_exits_2(self, capsys):
        code, _, err = run(capsys, "solve", "--function", "square-8",
                           "--lo", "3", "--hi", "5")
        assert code == 2
        assert "bracket" in err.lower()

    def test_missing_selector_exits_3(self, capsys):
        code, _, err = run(capsys, "solve")
        assert code == 3
        assert "--corpus" in err

    def test_function_without_bracket_exits_3(self, capsys):
        code, _, err = run(capsys, "solve", "--function", "square-8", "--lo", "3")
        assert code == 3
        assert "--hi" in err

    def test_unknown_flag_exits_3(self, capsys):
        code, _, err = run(capsys, "solve", "--corpus", "1", "--frobnicate")
        assert code == 3
        assert "usage" in err


class TestPredict:
    def test_ratio_273(self, capsys):
        code, out, _ = run(capsys, "predict", "--ratio", "273")
        assert code == 0
        assert extract(r"n_min_integer = (\d+)", out) == "81"
        eff = float(extract(r"rel_eff = (\S+)", out))
        assert abs(eff - 0.20304396656231755) <= 1e-15

    def test_ratio_360(self, capsys):
        code, out, _ = run(capsys, "predict", "--ratio", "360")
        assert code == 0
        assert extract(r"n_min_integer = (\d+)", out) == "100"
        eff = float(extract(r"rel_eff = (\S+)", out))
        assert abs(eff - 0.191) <= 0.001

    def test_tiny_ratio_approaches_e(self, capsys):
        code, out, _ = run(capsys, "predict", "--ratio", "1e-9")
        assert code == 0
        assert extract(r"n_min_integer = (\d+)", out) == "3"
        real = float(extract(r"n_min_real = (\S+)", out))
        assert abs(real - math.e) <= 1e-6

    def test_huge_ratio(self, capsys):
        # W(R/e) of a ratio above 2.55e305 once failed to converge
        code, out, _ = run(capsys, "predict", "--ratio", "1e306")
        assert code == 0
        real = float(extract(r"n_min_real = (\S+)", out))
        assert real == 1e306 / lambert_w0(1e306 / math.e)

    def test_m_and_c_form(self, capsys):
        code, out, _ = run(capsys, "predict", "--m", "2e-9", "--c", "5e-7")
        assert code == 0
        assert extract(r"n_min_integer = (\d+)", out) == "75"

    def test_negative_ratio_exits_3(self, capsys):
        code, _, err = run(capsys, "predict", "--ratio", "-5")
        assert code == 3

    def test_ratio_and_m_are_exclusive(self, capsys):
        code, _, err = run(capsys, "predict", "--ratio", "273", "--m", "1e-9",
                           "--c", "1e-7")
        assert code == 3
        assert "exclusive" in err

    def test_no_cost_arguments_exits_3(self, capsys):
        code, _, err = run(capsys, "predict")
        assert code == 3

    def test_json_is_reproducible(self, capsys):
        code_a, out_a, _ = run(capsys, "predict", "--ratio", "273", "--json")
        code_b, out_b, _ = run(capsys, "predict", "--ratio", "273", "--json")
        assert code_a == code_b == 0
        assert out_a == out_b  # no timestamps: byte-identical
        payload = json.loads(out_a)
        assert payload["n_min_integer"] == 81

    def test_curve_artifact(self, capsys, tmp_path):
        curve = tmp_path / "curve.csv"
        code, out, _ = run(capsys, "predict", "--ratio", "250",
                           "--curve", str(curve), "--n-max", "100")
        assert code == 0
        lines = curve.read_text().splitlines()
        assert lines[0] == "N,t_t_seconds"
        assert len(lines) == 100  # header + N in 2..100
        manifest = json.loads(
            (tmp_path / "curve.csv.manifest.json").read_text()
        )
        assert manifest["command"] == "predict"
        assert any("curve.csv" in entry for entry in manifest["outputs"])


class TestCalibrate:
    def test_synthetic_end_to_end(self, capsys, tmp_path):
        out_dir = tmp_path / "cal"
        code, out, _ = run(capsys, "calibrate", "--corpus", "4",
                           "--out", str(out_dir), "--synthetic", "2e-9,5e-7")
        assert code == 0
        assert "N_min=75" in out

        report = json.loads((out_dir / "report.json").read_text())
        assert set(report) == {
            "m", "c", "R", "n_min_real", "n_min_integer", "rel_eff",
            "rel_eff_integer", "r_squared", "measured_ratio",
        }
        assert abs(report["R"] - 250.0) <= 1e-6
        assert report["n_min_integer"] == 75
        assert report["r_squared"] == 1.0
        gap = abs(report["measured_ratio"] - report["rel_eff"]) / report["rel_eff"]
        assert gap <= 0.02

        csv_lines = (out_dir / "sweep.csv").read_text().splitlines()
        assert csv_lines[0] == "N,mean_loop_seconds,stddev_loop_seconds,loop_count"
        assert len(csv_lines) == 250

        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "calibrate"
        outputs = " ".join(manifest["outputs"])
        assert "sweep.csv" in outputs and "report.json" in outputs

    def test_two_point_fit_flagged_low_confidence(self, capsys, tmp_path):
        out_dir = tmp_path / "cal2"
        code, out, _ = run(capsys, "calibrate", "--corpus", "4",
                           "--out", str(out_dir), "--synthetic", "2e-9,5e-7",
                           "--n-values", "2,3")
        assert code == 0
        assert "low-confidence" in out

    def test_unusable_fit_keeps_sweep_csv(self, capsys, tmp_path):
        out_dir = tmp_path / "cal3"
        code, _, err = run(capsys, "calibrate", "--corpus", "4",
                           "--out", str(out_dir),
                           "--synthetic=-1e-9,5e-7",
                           "--n-values", "2,100,250")
        assert code == 4
        assert "unusable fit" in err
        assert (out_dir / "sweep.csv").exists()
        assert not (out_dir / "report.json").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert any("sweep.csv" in entry for entry in manifest["outputs"])
        assert not any("report.json" in entry for entry in manifest["outputs"])

    def test_bad_n_values_exit_3(self, capsys, tmp_path):
        code, _, _ = run(capsys, "calibrate", "--corpus", "4",
                         "--out", str(tmp_path / "x"),
                         "--synthetic", "2e-9,5e-7", "--n-values", "0,5")
        assert code == 3

    def test_malformed_synthetic_exit_3(self, capsys, tmp_path):
        code, _, _ = run(capsys, "calibrate", "--corpus", "4",
                         "--out", str(tmp_path / "x"), "--synthetic", "2e-9")
        assert code == 3


class TestAppendix:
    def test_unit_width_report(self, capsys):
        code, out, _ = run(capsys, "appendix", "--width", "1")
        assert code == 0
        assert extract(r"first_index_below\(eps=\S+\) = (\d+)", out) == "52"
        assert extract(r"\(subnormal\) = (\d+)", out) == "1075"
        assert extract(r"\(flush-to-zero\) = (\d+)", out) == "1023"
        assert "z = 1024" in out  # reference comparison, not asserted
        assert out.count(": PASS") == 6

    def test_custom_width_sections_eps(self, capsys):
        code, out, _ = run(capsys, "appendix", "--width", "3",
                           "--sections", "6", "--eps", "1e-10")
        assert code == 0
        assert extract(r"first_index_below\(eps=\S+\) = (\d+)", out) == "14"

    def test_bound_violation_exits_5(self, capsys, monkeypatch):
        real = corpus()[2]
        broken = Problem(id="square-8-broken", f=real.f,
                         bracket=real.bracket, reference_root=-2.82)
        monkeypatch.setattr("multisection.cli.corpus", lambda: [broken])
        code, _, err = run(capsys, "appendix", "--width", "1")
        assert code == 5
        assert "bound violation" in err


class TestConsoleScript:
    def test_installed_entry_point(self):
        script = shutil.which("multisection")
        if script is None:
            pytest.skip("console script not on PATH (package not installed)")
        proc = subprocess.run(
            [script, "solve", "--corpus", "4", "--sections", "10",
             "--backend", "numpy"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "root = 6.0" in proc.stdout
        assert "termination = ExactZero" in proc.stdout
