"""Byte-level CLI contracts: stdout, stderr, files and exit codes.

Each expected output lives in ``tests/golden/`` with the run's output
directory written as ``{out}``.  The files were produced by the CLI and
checked by hand; a change that alters one byte of them changes what a
script reading this CLI sees.  Manifests carry a timestamp and a host,
so only their command, config and outputs are pinned.
"""

import json
from pathlib import Path

import pytest

from multisection.cli import main

GOLDEN = Path(__file__).parent / "golden"


def golden(name, out_dir=None):
    text = (GOLDEN / name).read_text()
    return text.replace("{out}", str(out_dir)) if out_dir is not None else text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def manifest(path):
    payload = json.loads(path.read_text())
    return payload["command"], payload["config"], payload["outputs"]


class TestPredictGolden:
    def test_json_stdout(self, capsys):
        code, out, err = run(capsys, "predict", "--ratio", "273", "--json")
        assert (code, out, err) == (0, golden("predict_273.json"), "")

    def test_text_stdout(self, capsys):
        code, out, err = run(capsys, "predict", "--ratio", "273")
        assert (code, out, err) == (0, golden("predict_273.txt"), "")

    def test_curve_csv(self, capsys, tmp_path):
        curve = tmp_path / "curve.csv"
        code, out, err = run(capsys, "predict", "--ratio", "273",
                             "--curve", str(curve), "--n-max", "100")
        assert (code, out, err) == (0, golden("predict_273_curve.out", tmp_path), "")
        assert curve.read_text() == golden("curve_273_n100.csv")
        assert manifest(tmp_path / "curve.csv.manifest.json") == (
            "predict",
            {"R": 273.0, "m": 1.0, "c": 273.0, "width": 1.0,
             "mu": 2.0 ** -52, "n_max": 100},
            [str(curve)],
        )

    def test_n_max_checked_only_with_curve(self, capsys, tmp_path):
        code, out, _ = run(capsys, "predict", "--ratio", "273", "--n-max", "1")
        assert (code, out) == (0, golden("predict_273.txt"))
        code, out, err = run(capsys, "predict", "--ratio", "273", "--n-max", "1",
                             "--curve", str(tmp_path / "curve.csv"))
        assert (code, out) == (3, golden("predict_273.txt"))
        assert err == "multisection: error: --n-max must be >= 2, got 1\n"
        assert not (tmp_path / "curve.csv").exists()


class TestCalibrateGolden:
    def test_synthetic_files(self, capsys, tmp_path):
        out_dir = tmp_path / "cal"
        code, out, err = run(capsys, "calibrate", "--corpus", "4",
                             "--synthetic", "2e-9,5e-7", "--n-values", "2,40,80",
                             "--out", str(out_dir))
        assert (code, out, err) == (0, golden("calibrate.out", out_dir), "")
        assert (out_dir / "sweep.csv").read_text() == golden("calibrate_sweep.csv")
        assert (out_dir / "report.json").read_text() == golden("calibrate_report.json")
        command, config, outputs = manifest(out_dir / "manifest.json")
        assert command == "calibrate"
        assert config == {
            "problem": "inv-shift", "bracket": [-2.0, 7.0],
            "n_values": [2, 40, 80], "min_loops": 1000, "warmup_loops": 100,
            "synthetic": [2e-9, 5e-7], "backend": None,
        }
        assert outputs == [str(out_dir / "sweep.csv"), str(out_dir / "report.json")]

    def test_unusable_fit_files(self, capsys, tmp_path):
        out_dir = tmp_path / "bad"
        code, out, err = run(capsys, "calibrate", "--corpus", "4",
                             "--synthetic=-1e-9,5e-7", "--n-values", "2,100,250",
                             "--out", str(out_dir))
        assert (code, out, err) == (4, "", golden("calibrate_unusable.err", out_dir))
        assert sorted(p.name for p in out_dir.iterdir()) == ["manifest.json", "sweep.csv"]
        assert (out_dir / "sweep.csv").read_text() == golden("calibrate_unusable_sweep.csv")
        command, config, outputs = manifest(out_dir / "manifest.json")
        assert command == "calibrate"
        assert config["n_values"] == [2, 100, 250]
        assert config["synthetic"] == [-1e-9, 5e-7]
        assert outputs == [str(out_dir / "sweep.csv")]


class TestAppendixGolden:
    @pytest.mark.parametrize("sections", ["2", "10"])
    def test_stdout(self, capsys, sections):
        code, out, err = run(capsys, "appendix", "--width", "1", "--sections", sections)
        assert (code, out, err) == (0, golden(f"appendix_w1_n{sections}.out"), "")
