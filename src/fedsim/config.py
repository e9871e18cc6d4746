"""Configuration ingestion, dataset loading/partitioning, report emission.

A simulation is described by a single JSON document; every cross-field
invariant is checked before any simulation work starts, so an invalid
configuration never reaches the engine.  Per-client seeds feed independent
child streams for training, noise and key generation, which keeps feature
toggles from perturbing one another's random sequences.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .dp import MECHANISMS, PLACEMENTS
from .models import Dataset, TrainConfig

TOPOLOGIES = ("centralized", "serverless")
ALGORITHMS = ("incremental", "retrain")

_TOP_LEVEL_KEYS = {
    "num_clients", "num_iterations", "topology", "algorithm",
    "use_security", "use_dp_privacy", "subtract_dp_noise", "client_dropout",
    "simulate_latencies", "using_cumulative", "weighted_averaging",
    "mechanism", "dp_placement", "epsilons", "deltas", "tolerance",
    "latencies", "seeds", "data_seed", "server_seed",
    "dataset_sizes", "test_size", "data", "train", "compute",
}


class ConfigError(ValueError):
    """A configuration document failed validation; the message names the field."""


@dataclass
class SimConfig:
    """Validated simulation parameters (see the JSON schema in the README)."""

    num_clients: int
    num_iterations: int
    topology: str
    algorithm: str
    use_security: bool
    use_dp_privacy: bool
    subtract_dp_noise: bool
    client_dropout: bool
    simulate_latencies: bool
    using_cumulative: bool
    mechanism: str
    dp_placement: str
    epsilons: list
    tolerance: float
    seeds: list
    dataset_sizes: list
    test_size: int
    data: dict
    train: TrainConfig
    deltas: list | None = None
    latencies: dict = field(default_factory=dict)
    weighted_averaging: bool = False
    data_seed: int = 0
    server_seed: int = 0
    client_compute_s: float | None = None
    server_compute_s: float | None = None

    # -- engine-facing accessors -----------------------------------------

    def client_names(self) -> list[str]:
        return [f"client_agent{i}" for i in range(self.num_clients)]

    def latency_entries(self) -> dict[tuple[str, str], float]:
        return {
            (sender, recipient): float(value)
            for sender, recipients in self.latencies.items()
            for recipient, value in recipients.items()
        }

    def to_dict(self) -> dict:
        out = asdict(self)
        out["compute"] = {
            "client_s": out.pop("client_compute_s"),
            "server_s": out.pop("server_compute_s"),
        }
        return out


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _numeric(value, integer: bool = False) -> bool:
    """True for a finite JSON number, or a JSON integer when ``integer``.

    JSON booleans parse as Python bools, which are ints, and ``1e999``,
    ``Infinity`` and ``NaN`` parse as non-finite floats; none is a number
    here.
    """
    if isinstance(value, bool):
        return False
    if isinstance(value, int):
        return True
    return not integer and isinstance(value, float) and math.isfinite(value)


def config_from_dict(raw: dict) -> SimConfig:
    """Build and fully validate a SimConfig from a parsed JSON document."""
    unknown = set(raw) - _TOP_LEVEL_KEYS
    _require(not unknown, f"unknown configuration keys: {sorted(unknown)}")
    missing = _TOP_LEVEL_KEYS - set(raw) - {
        "deltas", "latencies", "data_seed", "server_seed", "compute",
        "mechanism", "dp_placement", "epsilons", "weighted_averaging",
    }
    _require(not missing, f"missing configuration keys: {sorted(missing)}")

    n = raw["num_clients"]
    _require(
        _numeric(n, integer=True) and n >= 1,
        f"num_clients: must be a positive integer, got {n!r}",
    )
    iters = raw["num_iterations"]
    _require(
        _numeric(iters, integer=True) and iters >= 0,
        f"num_iterations: must be a nonnegative integer, got {iters!r}",
    )
    topology = raw["topology"]
    _require(topology in TOPOLOGIES, f"topology: must be one of {TOPOLOGIES}, got {topology!r}")
    algorithm = raw["algorithm"]
    _require(
        algorithm in ALGORITHMS, f"algorithm: must be one of {ALGORITHMS}, got {algorithm!r}"
    )
    for flag in (
        "use_security", "use_dp_privacy", "subtract_dp_noise",
        "client_dropout", "simulate_latencies", "using_cumulative",
    ):
        _require(isinstance(raw[flag], bool), f"{flag}: must be a boolean, got {raw[flag]!r}")
    weighted = raw.get("weighted_averaging", False)
    _require(
        isinstance(weighted, bool),
        f"weighted_averaging: must be a boolean, got {weighted!r}",
    )
    if weighted:
        # pairwise masks only cancel out of an unweighted mean, and the
        # noise-subtraction contract assumes an unweighted 1/n share
        _require(
            not raw["use_security"],
            "weighted_averaging: cannot be combined with use_security",
        )
        _require(
            not raw["subtract_dp_noise"],
            "weighted_averaging: cannot be combined with subtract_dp_noise",
        )

    use_dp = raw["use_dp_privacy"]
    mechanism = raw.get("mechanism", "laplace")
    placement = raw.get("dp_placement", "local")
    _require(mechanism in MECHANISMS, f"mechanism: must be one of {MECHANISMS}, got {mechanism!r}")
    _require(
        placement in PLACEMENTS, f"dp_placement: must be one of {PLACEMENTS}, got {placement!r}"
    )
    if use_dp:
        _require(
            (placement == "distributed") == (mechanism == "distributed_laplace"),
            "dp_placement: 'distributed' placement and 'distributed_laplace' "
            "mechanism must be used together",
        )
        _require(
            not (topology == "serverless" and placement == "global_server"),
            "dp_placement: 'global_server' requires the centralized topology",
        )

    epsilons = raw.get("epsilons", [None] * n)
    _require(
        isinstance(epsilons, list) and len(epsilons) == n,
        f"epsilons: must be a list of length num_clients={n}, got {epsilons!r}",
    )
    for i, eps in enumerate(epsilons):
        _require(
            eps is None or (_numeric(eps) and eps > 0),
            f"epsilons[{i}]: must be null or a positive number, got {eps!r}",
        )
    deltas = raw.get("deltas")
    if deltas is not None:
        _require(
            isinstance(deltas, list) and len(deltas) == n,
            f"deltas: must be null or a list of length num_clients={n}",
        )
        for i, d in enumerate(deltas):
            _require(
                _numeric(d) and 0 <= d < 1,
                f"deltas[{i}]: must be in [0, 1), got {d!r}",
            )
    if use_dp and mechanism == "gaussian":
        _require(deltas is not None, "deltas: required when mechanism is 'gaussian'")
        for i, d in enumerate(deltas):
            _require(
                d > 0 or epsilons[i] is None,
                f"deltas[{i}]: gaussian mechanism requires delta > 0",
            )

    tolerance = raw["tolerance"]
    _require(
        _numeric(tolerance) and tolerance > 0,
        f"tolerance: must be positive and finite, got {tolerance!r}",
    )

    seeds = raw["seeds"]
    _require(
        isinstance(seeds, list) and len(seeds) == n
        and all(_numeric(s, integer=True) and s >= 0 for s in seeds),
        f"seeds: must be a list of {n} nonnegative integers",
    )
    for key in ("data_seed", "server_seed"):
        value = raw.get(key, 0)
        _require(
            _numeric(value, integer=True) and value >= 0,
            f"{key}: must be a nonnegative integer, got {value!r}",
        )

    sizes = raw["dataset_sizes"]
    _require(
        isinstance(sizes, list) and len(sizes) == n,
        f"dataset_sizes: must be a list of length num_clients={n}",
    )
    for i, per_iter in enumerate(sizes):
        _require(
            isinstance(per_iter, list) and len(per_iter) == iters,
            f"dataset_sizes[{i}]: must list {iters} per-iteration sizes",
        )
        for j, s in enumerate(per_iter):
            _require(
                _numeric(s, integer=True) and s >= 1,
                f"dataset_sizes[{i}][{j}]: must be a positive integer, got {s!r}",
            )

    test_size = raw["test_size"]
    _require(
        _numeric(test_size, integer=True) and test_size >= 1,
        f"test_size: must be a positive integer, got {test_size!r}",
    )

    data = raw["data"]
    _require(isinstance(data, dict), "data: must be an object")
    kind = data.get("kind")
    if kind == "synth":
        for key, minimum in (("classes", 2), ("features", 1), ("rows", 1)):
            _require(
                _numeric(data.get(key), integer=True) and data[key] >= minimum,
                f"data.{key}: must be an integer >= {minimum}",
            )
        _require(
            _numeric(data.get("separation")) and data["separation"] >= 0,
            "data.separation: must be a nonnegative number",
        )
    elif kind == "csv":
        _require(isinstance(data.get("path"), str), "data.path: must be a string")
        _require(
            isinstance(data.get("label_column"), str), "data.label_column: must be a string"
        )
    else:
        raise ConfigError(f"data.kind: must be 'synth' or 'csv', got {kind!r}")

    train_raw = raw["train"]
    _require(isinstance(train_raw, dict), "train: must be an object")
    for key, integer in (
        ("local_steps", True), ("learning_rate", False),
        ("l2_alpha", False), ("batch_size", True),
    ):
        _require(key in train_raw, f"train.{key}: missing")
        _require(
            _numeric(train_raw[key], integer),
            f"train.{key}: must be {'an integer' if integer else 'a number'}, "
            f"got {train_raw[key]!r}",
        )
    try:
        train = TrainConfig(
            local_steps=train_raw["local_steps"],
            learning_rate=train_raw["learning_rate"],
            l2_alpha=train_raw["l2_alpha"],
            batch_size=train_raw["batch_size"],
        )
    except ValueError as exc:
        raise ConfigError(f"train: {exc}") from None

    compute = raw.get("compute")
    if compute is None:
        compute = {}
    _require(isinstance(compute, dict), "compute: must be an object")
    for key in compute:
        _require(key in ("client_s", "server_s"), f"compute.{key}: unknown key")
    client_s = compute.get("client_s")
    server_s = compute.get("server_s")
    for key, value in (("client_s", client_s), ("server_s", server_s)):
        _require(
            value is None or (_numeric(value) and value >= 0),
            f"compute.{key}: must be null or a nonnegative number, got {value!r}",
        )

    latencies = raw.get("latencies")
    if latencies is None:
        latencies = {}
    _require(isinstance(latencies, dict), "latencies: must be an object of objects")
    for sender, recipients in latencies.items():
        _require(
            isinstance(recipients, dict),
            f"latencies[{sender!r}]: must be an object",
        )
        for recipient, value in recipients.items():
            _require(
                _numeric(value) and value >= 0,
                f"latencies[{sender!r}][{recipient!r}]: must be nonnegative, got {value!r}",
            )

    config = SimConfig(
        num_clients=n,
        num_iterations=iters,
        topology=topology,
        algorithm=algorithm,
        use_security=raw["use_security"],
        use_dp_privacy=use_dp,
        subtract_dp_noise=raw["subtract_dp_noise"],
        client_dropout=raw["client_dropout"],
        simulate_latencies=raw["simulate_latencies"],
        using_cumulative=raw["using_cumulative"],
        mechanism=mechanism,
        dp_placement=placement,
        epsilons=list(epsilons),
        deltas=list(deltas) if deltas is not None else None,
        tolerance=float(tolerance),
        latencies=latencies,
        weighted_averaging=weighted,
        seeds=list(seeds),
        data_seed=raw.get("data_seed", 0),
        server_seed=raw.get("server_seed", 0),
        dataset_sizes=[list(map(int, per)) for per in sizes],
        test_size=test_size,
        data=dict(data),
        train=train,
        client_compute_s=float(client_s) if client_s is not None else None,
        server_compute_s=float(server_s) if server_s is not None else None,
    )
    _validate_latency_coverage(config)
    _pairing_warnings(config)
    return config


def _validate_latency_coverage(config: SimConfig) -> None:
    if not config.simulate_latencies:
        return
    from .engine import SERVER_NAME

    entries = config.latency_entries()
    names = config.client_names()
    if config.topology == "centralized":
        needed = [(SERVER_NAME, c) for c in names] + [(c, SERVER_NAME) for c in names]
    else:
        needed = [(a, b) for a in names for b in names if a != b]
    for pair in needed:
        _require(
            pair in entries,
            f"latencies: missing entry for pair ({pair[0]!r}, {pair[1]!r})",
        )


def _pairing_warnings(config: SimConfig) -> None:
    if config.using_cumulative and config.algorithm == "incremental":
        warnings.warn(
            "using_cumulative=true is intended for the 'retrain' algorithm",
            stacklevel=3,
        )
    if not config.using_cumulative and config.algorithm == "retrain":
        warnings.warn(
            "using_cumulative=false is intended for the 'incremental' algorithm",
            stacklevel=3,
        )
    if config.subtract_dp_noise and config.dp_placement == "global_server":
        warnings.warn(
            "subtract_dp_noise has no effect with server-placed noise",
            stacklevel=3,
        )


def load_config(path: str | Path) -> SimConfig:
    """Parse and validate a configuration file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    return config_from_dict(raw)


@dataclass
class PartitionPlan:
    """Row indices into a source dataset: per client, per iteration, plus test."""

    client_iteration_rows: list  # [client][iteration] -> np.ndarray of row indices
    test_rows: np.ndarray


def partition_dataset(
    source: Dataset, config: SimConfig, rng: np.random.Generator
) -> PartitionPlan:
    """Carve a shuffled source into a shared test set and disjoint client shards.

    In cumulative mode each iteration's rows extend the previous
    iteration's (nested sets); otherwise per-iteration sets are disjoint.
    """
    per_client_totals = [sum(per) for per in config.dataset_sizes]
    required = config.test_size + sum(per_client_totals)
    if len(source) < required:
        raise ConfigError(
            f"insufficient data: need {required} rows "
            f"(test {config.test_size} + training {sum(per_client_totals)}), "
            f"have {len(source)}, short {required - len(source)}"
        )
    order = rng.permutation(len(source))
    test_rows = order[: config.test_size]
    cursor = config.test_size
    client_rows = []
    for i in range(config.num_clients):
        block = order[cursor : cursor + per_client_totals[i]]
        cursor += per_client_totals[i]
        offsets = np.cumsum([0] + config.dataset_sizes[i])
        if config.using_cumulative:
            rows = [block[: offsets[j + 1]] for j in range(config.num_iterations)]
        else:
            rows = [
                block[offsets[j] : offsets[j + 1]]
                for j in range(config.num_iterations)
            ]
        client_rows.append(rows)
    return PartitionPlan(client_iteration_rows=client_rows, test_rows=test_rows)


def materialize(
    source: Dataset, plan: PartitionPlan
) -> tuple[list[list[Dataset]], Dataset]:
    """Turn a partition plan into per-client per-iteration datasets + test set."""
    client_datasets = [
        [Dataset(source.features[rows], source.labels[rows]) for rows in per_client]
        for per_client in plan.client_iteration_rows
    ]
    test_set = Dataset(source.features[plan.test_rows], source.labels[plan.test_rows])
    return client_datasets, test_set


def synth_dataset(
    classes: int,
    features: int,
    rows: int,
    separation: float,
    rng: np.random.Generator,
) -> Dataset:
    """Gaussian class blobs with unit noise and controllable mean separation.

    Class means sit on coordinate axes ``separation`` apart; labels are
    balanced to within one row and the rows are shuffled.
    """
    blobs, order = _synth_blobs(classes, features, rows, separation, rng)
    return Dataset(blobs.features[order], blobs.labels[order])


def _synth_blobs(
    classes: int,
    features: int,
    rows: int,
    separation: float,
    rng: np.random.Generator,
) -> tuple[Dataset, np.ndarray]:
    """The blobs of ``synth_dataset`` in label order, and the row order
    that shuffles them into its output.

    The class means are added in place, one class slice at a time, so the
    source is allocated once, and a caller that gathers rows of the
    shuffled source indexes ``order`` instead of building the shuffled
    copy.
    """
    if classes < 2:
        raise ValueError(f"classes must be >= 2, got {classes}")
    if features < 1:
        raise ValueError(f"features must be >= 1, got {features}")
    if rows < classes:
        raise ValueError(f"rows must be >= classes, got {rows} < {classes}")
    if separation < 0:
        raise ValueError(f"separation must be nonnegative, got {separation}")
    means = np.zeros((classes, features))
    for c in range(classes):
        means[c, c % features] = separation * (1 + c // features)
    counts = [rows // classes + (1 if c < rows % classes else 0) for c in range(classes)]
    labels = np.concatenate([np.full(k, c, dtype=np.int64) for c, k in enumerate(counts)])
    points = rng.standard_normal((rows, features))
    start = 0
    for c, k in enumerate(counts):
        points[start : start + k] += means[c]
        start += k
    return Dataset(points, labels), rng.permutation(rows)


def load_csv_dataset(path: str | Path, label_column: str) -> Dataset:
    """Load a rectangular numeric CSV with a header row.

    All cells must parse as numbers; the label column must hold integers.
    """
    path = Path(path)
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: file is empty") from None
        if label_column not in header:
            raise ValueError(f"{path}: no column named {label_column!r}")
        label_idx = header.index(label_column)
        features = []
        labels = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}:{line_no}: expected {len(header)} cells, got {len(row)}"
                )
            try:
                values = [float(cell) for cell in row]
            except ValueError:
                raise ValueError(f"{path}:{line_no}: non-numeric cell") from None
            label = values.pop(label_idx)
            if label != int(label):
                raise ValueError(
                    f"{path}:{line_no}: label {label} is not an integer"
                )
            features.append(values)
            labels.append(int(label))
    if not features:
        raise ValueError(f"{path}: no data rows")
    return Dataset(np.array(features, dtype=np.float64), np.array(labels, dtype=np.int64))


def build_inputs(
    config: SimConfig, base_dir: str | Path = "."
) -> tuple[list[list[Dataset]], Dataset]:
    """Materialize the configured data source into engine-ready datasets."""
    if config.data["kind"] == "synth":
        source, order = _synth_blobs(
            classes=config.data["classes"],
            features=config.data["features"],
            rows=config.data["rows"],
            separation=float(config.data["separation"]),
            rng=np.random.default_rng(np.random.SeedSequence(config.data_seed)),
        )
    else:
        csv_path = Path(base_dir) / config.data["path"]
        source = load_csv_dataset(csv_path, config.data["label_column"])
        order = None
    plan = partition_dataset(
        source, config, np.random.default_rng(np.random.SeedSequence(config.data_seed))
    )
    if order is not None:
        # row i of the shuffled synthetic source is row order[i] of ``source``
        plan = PartitionPlan(
            client_iteration_rows=[
                [order[rows] for rows in per_client]
                for per_client in plan.client_iteration_rows
            ],
            test_rows=order[plan.test_rows],
        )
    return materialize(source, plan)


def emit_reports(reports: list, out_dir: str | Path, config: SimConfig) -> None:
    """Write accuracy.csv, timing.csv and summary.json into ``out_dir``.

    Fixed column order and 6-decimal fixed-point times keep the outputs
    byte-identical across runs and machines.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "accuracy.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["iteration", "client", "local_accuracy", "federated_accuracy"])
        for report in reports:
            for client in sorted(report.evals):
                ev = report.evals[client]
                writer.writerow(
                    [
                        report.iteration,
                        client,
                        f"{ev.local_accuracy:.6f}",
                        f"{ev.federated_accuracy:.6f}",
                    ]
                )

    with open(out / "timing.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["iteration", "client", "receipt_sim_time_s", "compute_s", "dropped"]
        )
        for report in reports:
            for client in sorted(report.receipt_sim_time):
                writer.writerow(
                    [
                        report.iteration,
                        client,
                        f"{report.receipt_sim_time[client]:.6f}",
                        f"{report.compute_s[client]:.6f}",
                        "true" if client in report.dropouts else "false",
                    ]
                )

    summary = {
        "config": config.to_dict(),
        "iterations": [
            {
                "iteration": report.iteration,
                "dropouts": list(report.dropouts),
                "mean_local_accuracy": _round6(
                    sum(ev.local_accuracy for ev in report.evals.values())
                    / len(report.evals)
                ),
                "mean_federated_accuracy": _round6(
                    sum(ev.federated_accuracy for ev in report.evals.values())
                    / len(report.evals)
                ),
                "max_receipt_sim_time_s": _round6(
                    max(report.receipt_sim_time.values())
                ),
            }
            for report in reports
        ],
    }
    with open(out / "summary.json", "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _round6(value: float) -> float:
    return float(f"{value:.6f}")
