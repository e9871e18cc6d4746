"""Tests for the command-line interface and shipped configuration files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fedsim
from conftest import base_config_dict
from fedsim.cli import main
from fedsim.config import load_config, load_csv_dataset

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config_dict()))
    return path


class TestValidate:
    def test_valid_config(self, config_path, capsys):
        assert main(["validate", str(config_path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_invalid_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(base_config_dict(num_clients=0)))
        assert main(["validate", str(path)]) == 1
        assert "num_clients" in capsys.readouterr().err

    def test_non_integer_seed_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(base_config_dict(data_seed="abc")))
        assert main(["validate", str(path)]) == 1
        assert "data_seed" in capsys.readouterr().err

    def test_unparsable_config_exits_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["validate", str(path)]) == 1


class TestRun:
    def test_writes_reports(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--out", str(out)]) == 0
        for name in ("accuracy.csv", "timing.csv", "summary.json"):
            assert (out / name).exists()

    def test_missing_csv_exits_2(self, tmp_path):
        raw = base_config_dict(
            data={"kind": "csv", "path": "nope.csv", "label_column": "label"}
        )
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2

    def test_insufficient_data_exits_1(self, tmp_path):
        raw = base_config_dict(
            data={"kind": "synth", "classes": 3, "features": 5, "rows": 100,
                  "separation": 2.5},
        )
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1

    def test_byte_identical_reruns(self, config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(config_path), "--out", str(out_a)]) == 0
        assert main(["run", str(config_path), "--out", str(out_b)]) == 0
        for name in ("accuracy.csv", "timing.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestSynth:
    def test_writes_loadable_csv(self, tmp_path):
        out = tmp_path / "data.csv"
        code = main([
            "synth", "--classes", "3", "--features", "4", "--rows", "60",
            "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        data = load_csv_dataset(out, "label")
        assert data.features.shape == (60, 4)
        assert set(data.labels) == {0, 1, 2}

    def test_bad_dimensions_exit_1(self, tmp_path):
        code = main([
            "synth", "--classes", "1", "--features", "4", "--rows", "60",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["synth", "--classes", "3", "--features", "4", "--rows", "60",
                  "--seed", "5", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()


class TestShippedConfigs:
    @pytest.mark.parametrize(
        "name",
        [
            "example.json",
            "three_city_latency.json",
            "scenario1.json",
            "scenario2.json",
            "scenario3.json",
            "scenario4.json",
        ],
    )
    def test_all_shipped_configs_validate(self, name):
        load_config(CONFIG_DIR / name)

    def test_latency_config_round_trips(self, tmp_path):
        config = load_config(CONFIG_DIR / "three_city_latency.json")
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(config.to_dict()))
        assert load_config(echo) == config

    def test_console_script_entry_point(self):
        # the child process imports the same fedsim as this one, installed or not
        source_root = str(Path(fedsim.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "fedsim.cli", "validate",
             str(CONFIG_DIR / "example.json")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0
