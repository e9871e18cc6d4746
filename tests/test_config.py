"""Tests for configuration validation, partitioning, synthesis and reports."""

import json
import re

import numpy as np
import pytest

from conftest import base_config_dict, make_config, make_simulation
from fedsim.config import (
    ConfigError,
    build_inputs,
    config_from_dict,
    emit_reports,
    load_config,
    load_csv_dataset,
    materialize,
    partition_dataset,
    synth_dataset,
)
from fedsim.dp import calibrate
from fedsim.models import Dataset, TrainConfig, evaluate, sgd_train, zero_weights


class TestLoadConfig:
    def test_valid_document_loads(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config_dict()))
        config = load_config(path)
        assert config.num_clients == 3
        assert config.train == TrainConfig(15, 0.5, 0.01, 10)

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(path)

    def test_round_trip_is_identity(self, tmp_path):
        config = make_config()
        path = tmp_path / "echo.json"
        path.write_text(json.dumps(config.to_dict()))
        assert load_config(path) == config

    def test_missing_latency_entry_names_the_pair(self):
        latencies = {
            "server_agent0": {"client_agent0": 0.3, "client_agent1": 2.0},
            "client_agent0": {"server_agent0": 0.3},
            "client_agent1": {"server_agent0": 2.0},
        }
        with pytest.raises(ConfigError, match="client_agent2"):
            make_config(simulate_latencies=True, latencies=latencies)

    def test_epsilon_list_length_checked(self):
        with pytest.raises(ConfigError, match="epsilons"):
            make_config(epsilons=[1.0])

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            config_from_dict(base_config_dict(bogus_key=1))

    def test_bad_topology(self):
        with pytest.raises(ConfigError, match="topology"):
            make_config(topology="ring")

    def test_bad_algorithm(self):
        with pytest.raises(ConfigError, match="algorithm"):
            make_config(algorithm="alg1")

    def test_gaussian_requires_deltas(self):
        with pytest.raises(ConfigError, match="deltas"):
            make_config(
                use_dp_privacy=True, mechanism="gaussian", epsilons=[1.0, 1.0, 1.0]
            )

    def test_distributed_pairing_enforced(self):
        with pytest.raises(ConfigError, match="dp_placement"):
            make_config(
                use_dp_privacy=True,
                mechanism="laplace",
                dp_placement="distributed",
                epsilons=[1.0, 1.0, 1.0],
            )

    def test_serverless_cannot_use_server_noise(self):
        with pytest.raises(ConfigError, match="global_server"):
            make_config(
                topology="serverless",
                use_dp_privacy=True,
                dp_placement="global_server",
                epsilons=[1.0, 1.0, 1.0],
            )

    def test_tolerance_must_be_finite_positive(self):
        with pytest.raises(ConfigError, match="tolerance"):
            make_config(tolerance=0.0)

    def test_dataset_sizes_shape_checked(self):
        with pytest.raises(ConfigError, match="dataset_sizes"):
            make_config(dataset_sizes=[[20, 20]] * 3)

    def test_cumulative_pairing_warns(self):
        with pytest.warns(UserWarning, match="using_cumulative"):
            make_config(using_cumulative=True, algorithm="incremental")
        with pytest.warns(UserWarning, match="using_cumulative"):
            make_config(using_cumulative=False, algorithm="retrain")

    def test_seeds_length_checked(self):
        with pytest.raises(ConfigError, match="seeds"):
            make_config(seeds=[1, 2])

    def test_per_client_null_epsilon_allowed(self):
        config = make_config(
            use_dp_privacy=True, mechanism="laplace", epsilons=[1.0, None, 0.5]
        )
        sizes = {c: [20] for c in config.client_names()}
        names = config.client_names()
        assert calibrate(config, sizes, names, 1, "client_agent0") is not None
        assert calibrate(config, sizes, names, 1, "client_agent1") is None

    def test_global_dp_uses_minimum_epsilon(self):
        config = make_config(
            use_dp_privacy=True,
            mechanism="laplace",
            dp_placement="global_server",
            epsilons=[1.0, 0.25, 4.0],
        )
        sizes = {c: [20] for c in config.client_names()}
        cal = calibrate(config, sizes, ["client_agent0", "client_agent2"], 1)
        assert cal.epsilon == 1.0
        cal = calibrate(config, sizes, config.client_names(), 1)
        assert cal.epsilon == 0.25

    def test_weighted_averaging_defaults_off(self):
        assert make_config().weighted_averaging is False

    def test_weighted_averaging_excludes_security(self):
        with pytest.raises(ConfigError, match="weighted_averaging"):
            make_config(weighted_averaging=True, use_security=True)

    def test_weighted_averaging_excludes_noise_subtraction(self):
        with pytest.raises(ConfigError, match="weighted_averaging"):
            make_config(
                weighted_averaging=True,
                use_dp_privacy=True,
                subtract_dp_noise=True,
                mechanism="laplace",
                epsilons=[1.0, 1.0, 1.0],
            )


def _set(path: str, value) -> dict:
    """The base document with the dotted ``path`` set to ``value``."""
    raw = base_config_dict()
    *parents, key = path.split(".")
    target = raw
    for parent in parents:
        target = target[parent]
    target[key] = value
    return raw


class TestFieldTypes:
    @pytest.mark.parametrize(
        "path,value",
        [
            ("num_clients", True),
            ("num_iterations", True),
            ("test_size", True),
            ("tolerance", True),
            ("tolerance", float("inf")),
            ("seeds", [11, True, 33]),
            ("seeds", [11, -1, 33]),
            ("dataset_sizes", [[20, True, 20], [20, 20, 20], [20, 20, 20]]),
            ("data.features", True),
            ("data.separation", True),
            ("epsilons", [True, None, None]),
            ("epsilons", [float("inf"), None, None]),
            ("deltas", [False, 0.0, 0.0]),
            ("data_seed", "abc"),
            ("data_seed", -1),
            ("data_seed", 1.5),
            ("data_seed", True),
            ("server_seed", "abc"),
            ("server_seed", -1),
            ("server_seed", 1.5),
            ("train.local_steps", 2.5),
            ("train.local_steps", True),
            ("train.batch_size", 2.5),
            ("train.learning_rate", "0.5"),
            ("train.l2_alpha", "0.01"),
            ("train.learning_rate", float("inf")),
            ("train.l2_alpha", float("nan")),
            ("compute", []),
            ("compute.client_s", True),
            ("compute.server_s", float("inf")),
            ("latencies", 0),
            ("latencies", []),
        ],
    )
    def test_rejected_with_the_field_named(self, path, value):
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}(\[\d+\])*: "):
            config_from_dict(_set(path, value))

    @pytest.mark.parametrize("key", ["compute", "latencies"])
    def test_null_object_reads_as_absent(self, key):
        config = config_from_dict(base_config_dict(**{key: None}))
        assert config == config_from_dict(
            {k: v for k, v in base_config_dict().items() if k != key}
        )

    def test_integral_numbers_keep_their_values(self):
        config = config_from_dict(
            base_config_dict(tolerance=1, data_seed=0, server_seed=7)
        )
        assert config.to_dict()["tolerance"] == 1.0
        assert (config.data_seed, config.server_seed) == (0, 7)


class TestPartitionDataset:
    def test_shortfall_is_reported(self):
        # 3 clients x 30 rows x 8 iterations + 0-row test floor needs 720
        config = make_config(
            num_iterations=8,
            dataset_sizes=[[30] * 8] * 3,
            test_size=1,
            data={"kind": "synth", "classes": 3, "features": 5, "rows": 701,
                  "separation": 1.0},
        )
        rng = np.random.default_rng(0)
        source = synth_dataset(3, 5, 701, 1.0, rng)
        with pytest.raises(ConfigError, match="short 20"):
            partition_dataset(source, config, np.random.default_rng(1))

    def test_cumulative_iterations_are_nested(self):
        config = make_config(using_cumulative=True, algorithm="retrain")
        source = synth_dataset(3, 5, 400, 1.0, np.random.default_rng(2))
        plan = partition_dataset(source, config, np.random.default_rng(3))
        for per_client in plan.client_iteration_rows:
            for earlier, later in zip(per_client, per_client[1:]):
                assert set(earlier).issubset(set(later))

    def test_non_cumulative_iterations_are_disjoint(self):
        config = make_config()
        source = synth_dataset(3, 5, 400, 1.0, np.random.default_rng(4))
        plan = partition_dataset(source, config, np.random.default_rng(5))
        for per_client in plan.client_iteration_rows:
            seen = set()
            for rows in per_client:
                assert not seen & set(rows)
                seen |= set(rows)

    def test_clients_and_test_are_pairwise_disjoint(self):
        config = make_config()
        source = synth_dataset(3, 5, 400, 1.0, np.random.default_rng(6))
        plan = partition_dataset(source, config, np.random.default_rng(7))
        all_rows = [set(plan.test_rows)]
        for per_client in plan.client_iteration_rows:
            union = set()
            for rows in per_client:
                union |= set(rows)
            all_rows.append(union)
        for i, a in enumerate(all_rows):
            for b in all_rows[i + 1 :]:
                assert not a & b

    def test_deterministic_under_seed(self):
        config = make_config()
        source = synth_dataset(3, 5, 400, 1.0, np.random.default_rng(8))
        plan_a = partition_dataset(source, config, np.random.default_rng(9))
        plan_b = partition_dataset(source, config, np.random.default_rng(9))
        assert np.array_equal(plan_a.test_rows, plan_b.test_rows)
        for pa, pb in zip(plan_a.client_iteration_rows, plan_b.client_iteration_rows):
            for ra, rb in zip(pa, pb):
                assert np.array_equal(ra, rb)

    def test_materialize_shapes(self):
        config = make_config()
        source = synth_dataset(3, 5, 400, 1.0, np.random.default_rng(10))
        plan = partition_dataset(source, config, np.random.default_rng(11))
        datasets, test_set = materialize(source, plan)
        assert len(test_set) == 60
        assert all(len(ds) == 20 for per_client in datasets for ds in per_client)


class TestSynthDataset:
    def test_zero_separation_is_chance_level(self):
        rng = np.random.default_rng(12)
        data = synth_dataset(4, 6, 800, 0.0, rng)
        cfg = TrainConfig(local_steps=200, learning_rate=0.5, l2_alpha=0.01, batch_size=32)
        train = Dataset(data.features[:600], data.labels[:600])
        test = Dataset(data.features[600:], data.labels[600:])
        w = sgd_train(train, zero_weights(4, 6), cfg, np.random.default_rng(13))
        assert abs(evaluate(w, test) - 0.25) < 0.08

    def test_large_separation_is_linearly_solvable(self):
        rng = np.random.default_rng(14)
        data = synth_dataset(4, 6, 800, 10.0, rng)
        cfg = TrainConfig(local_steps=300, learning_rate=0.5, l2_alpha=0.01, batch_size=32)
        train = Dataset(data.features[:600], data.labels[:600])
        test = Dataset(data.features[600:], data.labels[600:])
        w = sgd_train(train, zero_weights(4, 6), cfg, np.random.default_rng(15))
        assert evaluate(w, test) >= 0.99

    def test_fixed_seed_reproduces_bytes(self):
        a = synth_dataset(3, 4, 100, 2.0, np.random.default_rng(16))
        b = synth_dataset(3, 4, 100, 2.0, np.random.default_rng(16))
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_label_balance_within_one(self):
        data = synth_dataset(3, 4, 101, 2.0, np.random.default_rng(17))
        counts = np.bincount(data.labels)
        assert counts.max() - counts.min() <= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(classes=1, features=2, rows=10, separation=1.0),
            dict(classes=3, features=0, rows=10, separation=1.0),
            dict(classes=3, features=2, rows=2, separation=1.0),
            dict(classes=3, features=2, rows=10, separation=-1.0),
        ],
    )
    def test_invalid_dimensions(self, kwargs):
        with pytest.raises(ValueError):
            synth_dataset(rng=np.random.default_rng(0), **kwargs)


class TestLoadCsvDataset:
    def test_small_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,label\n1.0,2.0,0\n3.5,4.0,1\n5.0,6.5,1\n")
        data = load_csv_dataset(path, "label")
        assert data.features.shape == (3, 2)
        assert list(data.labels) == [0, 1, 1]

    def test_non_integer_label(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,label\n1.0,2.5\n")
        with pytest.raises(ValueError, match="not an integer"):
            load_csv_dataset(path, "label")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_csv_dataset(path, "label")

    def test_header_only(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,label\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv_dataset(path, "label")

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,label\n1.0,2.0,0\n1.0,1\n")
        with pytest.raises(ValueError, match="expected 3 cells"):
            load_csv_dataset(path, "label")

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,label\nfoo,0\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_csv_dataset(path, "label")

    def test_unknown_label_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="no column named"):
            load_csv_dataset(path, "label")

    def test_row_order_preserved(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,label\n9.0,1\n8.0,0\n7.0,1\n")
        data = load_csv_dataset(path, "label")
        assert list(data.features[:, 0]) == [9.0, 8.0, 7.0]


class TestEmitReports:
    def _run_and_emit(self, tmp_path, **overrides):
        sim = make_simulation(**overrides)
        reports = sim.run()
        out = tmp_path / "out"
        emit_reports(reports, out, sim.config)
        return out, reports

    def test_accuracy_row_count(self, tmp_path):
        out, _ = self._run_and_emit(
            tmp_path, num_iterations=8, dataset_sizes=[[20] * 8] * 3,
            data={"kind": "synth", "classes": 3, "features": 5, "rows": 600,
                  "separation": 2.5},
        )
        lines = (out / "accuracy.csv").read_text().strip().splitlines()
        assert lines[0] == "iteration,client,local_accuracy,federated_accuracy"
        assert len(lines) == 1 + 8 * 3

    def test_dropped_client_has_no_later_rows(self, tmp_path):
        from conftest import make_skewed_dropout_simulation

        sim = make_skewed_dropout_simulation()
        reports = sim.run()
        out = tmp_path / "out"
        emit_reports(reports, out, sim.config)
        rows = (out / "timing.csv").read_text().strip().splitlines()[1:]
        dropped_rows = [r for r in rows if "client_agent2" in r]
        assert len(dropped_rows) == 1
        assert dropped_rows[0].startswith("1,") and dropped_rows[0].endswith("true")
        # survivors keep reporting after the departure
        assert any(r.startswith("2,client_agent0") for r in rows)

    def test_summary_round_trips_config(self, tmp_path):
        out, _ = self._run_and_emit(tmp_path)
        summary = json.loads((out / "summary.json").read_text())
        assert config_from_dict(summary["config"]) == make_config()

    def test_times_use_six_decimals(self, tmp_path):
        out, _ = self._run_and_emit(tmp_path)
        row = (out / "timing.csv").read_text().strip().splitlines()[1]
        receipt, compute = row.split(",")[2:4]
        assert receipt == "0.010000"
        assert compute == "0.005000"

    def test_byte_identical_across_runs(self, tmp_path):
        out_a, _ = self._run_and_emit(tmp_path / "a")
        out_b, _ = self._run_and_emit(tmp_path / "b")
        for name in ("accuracy.csv", "timing.csv", "summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestBuildInputs:
    def test_synth_source(self):
        config = make_config()
        datasets, test_set = build_inputs(config)
        assert len(datasets) == 3
        assert len(test_set) == 60

    def test_csv_source(self, tmp_path):
        rng = np.random.default_rng(20)
        data = synth_dataset(3, 5, 400, 2.0, rng)
        path = tmp_path / "source.csv"
        with open(path, "w") as handle:
            handle.write(",".join([f"f{i}" for i in range(5)] + ["label"]) + "\n")
            for row, label in zip(data.features, data.labels):
                handle.write(",".join(f"{v:.9f}" for v in row) + f",{label}\n")
        config = make_config(
            data={"kind": "csv", "path": "source.csv", "label_column": "label"}
        )
        datasets, test_set = build_inputs(config, base_dir=tmp_path)
        assert len(test_set) == 60
        assert datasets[0][0].features.shape == (20, 5)
