"""Configuration ingestion, dataset loading/partitioning, report emission.

A simulation is described by a single JSON document.  One table,
``FIELDS``, holds every key of the document with what it accepts, its
default and what it means; the rules that tie keys together follow it.
Both are checked before any simulation work starts, so an invalid
configuration never reaches the engine.  Per-client seeds feed independent
child streams for training, noise and key generation, which keeps feature
toggles from perturbing one another's random sequences.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .dp import MECHANISMS, PLACEMENTS
from .models import Dataset, TrainConfig


class ConfigError(ValueError):
    """A configuration document failed validation; the message names the field."""


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


class Type(NamedTuple):
    """What a value must be: ``phrase`` names it in errors, ``test`` accepts
    it and ``read`` turns an accepted value into the stored one."""

    phrase: str
    test: Callable[[object], bool]
    read: Callable[[object], object] = lambda value: value


INTEGER = Type("an integer", lambda value: _numeric(value, integer=True))
NUMBER = Type("a number", _numeric, float)
BOOLEAN = Type("a boolean", lambda value: isinstance(value, bool))
STRING = Type("a string", lambda value: isinstance(value, str))


def one_of(choices: tuple) -> Type:
    return Type(f"one of {choices}", lambda value: value in choices)


def or_null(type_: Type) -> Type:
    return Type(
        f"null or {type_.phrase}",
        lambda value: value is None or type_.test(value),
        lambda value: None if value is None else type_.read(value),
    )


class Range(NamedTuple):
    """The numbers a value may be: ``phrase`` names them in errors."""

    phrase: str
    test: Callable[[float], bool]


def at_least(low: int) -> Range:
    return Range(f">= {low}", lambda value: value >= low)


def above(low: int) -> Range:
    return Range(f"> {low}", lambda value: value > low)


REQUIRED = object()


@dataclass(frozen=True)
class Field:
    """One key of the configuration document.

    ``key`` is dotted for a key of an object (``train.batch_size``), and
    ``when`` confines a ``data`` key to one data kind.  A value must be a
    ``type`` and, unless null, lie in ``range``; ``shape`` nests such values
    in lists or objects, whose entries errors name ``key[i]`` or
    ``key['name']``.  An absent key takes its ``default``, which may depend
    on the client count; a ``nullable`` key reads null as its default too.
    """

    key: str
    type: Type
    range: Range | None
    doc: str
    default: object = REQUIRED
    shape: tuple[str, ...] = ()
    nullable: bool = False
    when: str | None = None


FIELDS = (
    Field("num_clients", INTEGER, at_least(1), "number of client agents"),
    Field("num_iterations", INTEGER, at_least(0), "federated rounds to run"),
    Field("topology", one_of(("centralized", "serverless")), None,
          "whether a server coordinates the rounds"),
    Field("algorithm", one_of(("incremental", "retrain")), None,
          "train on each round's fresh rows, or retrain on all local rows"),
    Field("use_security", BOOLEAN, None, "mask outgoing weights with pairwise keys"),
    Field("use_dp_privacy", BOOLEAN, None, "add differentially private noise"),
    Field("subtract_dp_noise", BOOLEAN, None, "clients remove their own noise share"),
    Field("client_dropout", BOOLEAN, None, "converged clients leave after the round"),
    Field("simulate_latencies", BOOLEAN, None, "stamp messages from ``latencies``"),
    Field("using_cumulative", BOOLEAN, None, "each round's rows extend the last round's"),
    Field("weighted_averaging", BOOLEAN, None, "weight the mean by dataset size",
          default=False),
    Field("mechanism", one_of(MECHANISMS), None, "noise mechanism", default="laplace"),
    Field("dp_placement", one_of(PLACEMENTS), None, "who adds the noise", default="local"),
    Field("epsilons", or_null(NUMBER), above(0), "privacy loss per client; null adds no noise",
          default=lambda n: [None] * n, shape=("list",)),
    Field("deltas", NUMBER, Range("in [0, 1)", lambda value: 0 <= value < 1),
          "delta per client", default=None, shape=("list",), nullable=True),
    Field("tolerance", NUMBER, above(0), "convergence threshold on weight distance"),
    Field("latencies", NUMBER, at_least(0), "seconds per link, by sender then recipient",
          default={}, shape=("object", "object"), nullable=True),
    Field("seeds", INTEGER, at_least(0), "seed per client", shape=("list",)),
    Field("data_seed", INTEGER, at_least(0), "seeds synthesis and partitioning", default=0),
    Field("server_seed", INTEGER, at_least(0), "seeds server-placed noise", default=0),
    Field("dataset_sizes", INTEGER, at_least(1), "new rows per client per round",
          shape=("list", "list")),
    Field("test_size", INTEGER, at_least(1), "rows of the shared test set"),
    Field("data.kind", one_of(("synth", "csv")), None, "where the rows come from"),
    Field("data.classes", INTEGER, at_least(2), "class count", when="synth"),
    Field("data.features", INTEGER, at_least(1), "feature count", when="synth"),
    Field("data.rows", INTEGER, at_least(1), "rows to synthesize", when="synth"),
    Field("data.separation", NUMBER, at_least(0), "distance between class means",
          when="synth"),
    Field("data.path", STRING, None, "CSV file, relative to the config file", when="csv"),
    Field("data.label_column", STRING, None, "column of integer labels", when="csv"),
    Field("train.local_steps", INTEGER, at_least(1), "SGD steps per round"),
    Field("train.learning_rate", NUMBER, above(0), "SGD step size"),
    Field("train.l2_alpha", NUMBER, above(0), "L2 regularization strength"),
    Field("train.batch_size", INTEGER, at_least(1), "rows per SGD step"),
    Field("compute.client_s", or_null(NUMBER), at_least(0),
          "injected client compute seconds; null measures", default=None),
    Field("compute.server_s", or_null(NUMBER), at_least(0),
          "injected server compute seconds; null measures", default=None),
)

_SECTIONS = {f.key.split(".")[0] for f in FIELDS if "." in f.key}
# an object whose every key has a default may be null or left out
_OPTIONAL_SECTIONS = _SECTIONS - {
    f.key.split(".")[0] for f in FIELDS if "." in f.key and f.default is REQUIRED
}


@dataclass
class SimConfig:
    """Validated simulation parameters: one attribute per top-level key of
    ``FIELDS``, every default filled in."""

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
    weighted_averaging: bool
    mechanism: str
    dp_placement: str
    epsilons: list
    deltas: list | None
    tolerance: float
    latencies: dict
    seeds: list
    data_seed: int
    server_seed: int
    dataset_sizes: list
    test_size: int
    data: dict
    train: TrainConfig
    compute: dict

    # -- engine-facing accessors -----------------------------------------

    @property
    def client_compute_s(self) -> float | None:
        return self.compute["client_s"]

    @property
    def server_compute_s(self) -> float | None:
        return self.compute["server_s"]

    def client_names(self) -> list[str]:
        return [f"client_agent{i}" for i in range(self.num_clients)]

    def latency_entries(self) -> dict[tuple[str, str], float]:
        return {
            (sender, recipient): float(value)
            for sender, recipients in self.latencies.items()
            for recipient, value in recipients.items()
        }

    def to_dict(self) -> dict:
        return asdict(self)


def config_from_dict(raw: dict) -> SimConfig:
    """Build and fully validate a SimConfig from a parsed JSON document."""
    flat = {}
    for key, value in raw.items():
        if key not in _SECTIONS:
            if "." in key:  # no top-level key may pose as a nested one
                raise ConfigError(f"{key}: unknown key")
            flat[key] = value
            continue
        if value is None and key in _OPTIONAL_SECTIONS:
            value = {}
        if not isinstance(value, dict):
            raise ConfigError(f"{key}: must be an object, got {value!r}")
        flat.update((f"{key}.{name}", item) for name, item in value.items())

    values = {}
    for f in FIELDS:
        if f.when is None or f.when == values["data.kind"]:
            values[f.key] = _read(f, flat, values.get("num_clients"))
    unknown = sorted(set(flat) - set(values))
    if unknown:
        raise ConfigError(f"{unknown[0]}: unknown key")

    doc = {section: {} for section in _SECTIONS}
    for key, value in values.items():
        section, _, name = key.rpartition(".")
        (doc[section] if section else doc)[name] = value
    doc["train"] = TrainConfig(**doc["train"])
    config = SimConfig(**doc)
    _check_across(config)
    return config


def _read(f: Field, flat: dict, num_clients: int | None):
    """The stored value of ``f`` in the flattened document ``flat``."""
    if f.key in flat and not (flat[f.key] is None and f.nullable):
        return _checked(f.key, flat[f.key], f, f.shape)
    if f.default is REQUIRED:
        raise ConfigError(f"{f.key}: missing")
    # a callable default has one entry per client; checking a default copies it
    default = f.default(num_clients) if callable(f.default) else f.default
    return default if default is None else _checked(f.key, default, f, f.shape)


def _checked(path: str, value, f: Field, shape: tuple[str, ...]):
    """``value``, nested as ``shape`` says, read as ``f`` stores it."""
    if not shape:
        if not (
            f.type.test(value)
            and (value is None or f.range is None or f.range.test(value))
        ):
            must = f.type.phrase if f.range is None else f"{f.type.phrase} {f.range.phrase}"
            raise ConfigError(f"{path}: must be {must}, got {value!r}")
        return f.type.read(value)
    if shape[0] == "list":
        if not isinstance(value, list):
            raise ConfigError(f"{path}: must be a list, got {value!r}")
        return [_checked(f"{path}[{i}]", item, f, shape[1:]) for i, item in enumerate(value)]
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: must be an object, got {value!r}")
    return {k: _checked(f"{path}[{k!r}]", item, f, shape[1:]) for k, item in value.items()}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _check_across(c: SimConfig) -> None:
    """The rules that tie keys together, then the pairing warnings."""
    n, iters = c.num_clients, c.num_iterations
    if c.weighted_averaging:
        # pairwise masks only cancel out of an unweighted mean, and the
        # noise-subtraction contract assumes an unweighted 1/n share
        _require(not c.use_security, "weighted_averaging: cannot be combined with use_security")
        _require(
            not c.subtract_dp_noise,
            "weighted_averaging: cannot be combined with subtract_dp_noise",
        )
    if c.use_dp_privacy:
        _require(
            (c.dp_placement == "distributed") == (c.mechanism == "distributed_laplace"),
            "dp_placement: 'distributed' placement and 'distributed_laplace' "
            "mechanism must be used together",
        )
        _require(
            not (c.topology == "serverless" and c.dp_placement == "global_server"),
            "dp_placement: 'global_server' requires the centralized topology",
        )
    for key in ("epsilons", "deltas", "seeds", "dataset_sizes"):
        value = getattr(c, key)
        if value is not None and len(value) != n:
            raise ConfigError(f"{key}: must be a list of length num_clients={n}, got {value!r}")
    for i, sizes in enumerate(c.dataset_sizes):
        if len(sizes) != iters:
            raise ConfigError(f"dataset_sizes[{i}]: must list {iters} per-iteration sizes")
    if c.use_dp_privacy and c.mechanism == "gaussian":
        _require(c.deltas is not None, "deltas: required when mechanism is 'gaussian'")
        for i, (epsilon, delta) in enumerate(zip(c.epsilons, c.deltas)):
            if delta <= 0 and epsilon is not None:
                raise ConfigError(f"deltas[{i}]: gaussian mechanism requires delta > 0")
    if c.data["kind"] == "synth":
        rows = c.data["rows"]
        _require(
            rows >= c.data["classes"],
            f"data.rows: must be >= data.classes={c.data['classes']}, got {rows}",
        )
        # a CSV source's row count is known only once it is read, so
        # partition_dataset checks that one
        need = c.test_size + sum(map(sum, c.dataset_sizes))
        _require(
            rows >= need,
            f"data.rows: must be >= test_size + sum of dataset_sizes = {need}, "
            f"got {rows}, short {need - rows}",
        )
    if c.simulate_latencies:
        from .engine import SERVER_NAME

        entries = c.latency_entries()
        names = c.client_names()
        if c.topology == "centralized":
            needed = [(SERVER_NAME, x) for x in names] + [(x, SERVER_NAME) for x in names]
        else:
            needed = [(a, b) for a in names for b in names if a != b]
        for sender, recipient in needed:
            if (sender, recipient) not in entries:
                raise ConfigError(
                    f"latencies: missing entry for pair ({sender!r}, {recipient!r})"
                )

    if c.using_cumulative and c.algorithm == "incremental":
        warnings.warn(
            "using_cumulative=true is intended for the 'retrain' algorithm", stacklevel=3
        )
    if not c.using_cumulative and c.algorithm == "retrain":
        warnings.warn(
            "using_cumulative=false is intended for the 'incremental' algorithm", stacklevel=3
        )
    if c.subtract_dp_noise and c.dp_placement == "global_server":
        warnings.warn("subtract_dp_noise has no effect with server-placed noise", stacklevel=3)


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
    iteration's: every iteration's index array is a leading slice of the
    client's last one, which lets ``materialize`` gather that client's rows
    once.  Otherwise per-iteration sets are disjoint.
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
    source: Dataset, plan: PartitionPlan, order: np.ndarray | None = None
) -> tuple[list[list[Dataset]], Dataset]:
    """Turn a partition plan into per-client per-iteration datasets + test set.

    Plan rows index ``source`` or, when ``order`` is given, the shuffled
    source whose row i is ``source`` row ``order[i]``.  A client whose
    every iteration's rows lead its last iteration's rows (a cumulative
    plan) has those last rows gathered once, and each iteration's dataset
    is a leading slice of that one block; a client with disjoint
    iterations gets one gather per iteration.  Every array returned is
    read-only, so no round can change another round's rows.
    """
    def gather(rows: np.ndarray) -> Dataset:
        if order is not None:
            rows = order[rows]
        features, labels = source.features[rows], source.labels[rows]
        features.setflags(write=False)
        labels.setflags(write=False)
        return Dataset(features, labels)

    client_datasets = []
    for per_client in plan.client_iteration_rows:
        if per_client and all(_leads(rows, per_client[-1]) for rows in per_client):
            block = gather(per_client[-1])
            client_datasets.append([
                Dataset(block.features[: len(rows)], block.labels[: len(rows)])
                for rows in per_client
            ])
        else:
            client_datasets.append([gather(rows) for rows in per_client])
    return client_datasets, gather(plan.test_rows)


def _leads(rows: np.ndarray, last: np.ndarray) -> bool:
    """Whether the index array ``rows`` is a leading slice of ``last``."""
    return len(rows) <= len(last) and np.array_equal(rows, last[: len(rows)])


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

    All cells must parse as finite numbers; the label column must hold
    nonnegative integers.  An error names the offending ``path:line``.
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
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{path}:{line_no}: non-finite cell")
            label = values.pop(label_idx)
            if label != int(label):
                raise ValueError(
                    f"{path}:{line_no}: label {label} is not an integer"
                )
            if label < 0:
                raise ValueError(f"{path}:{line_no}: label {int(label)} is negative")
            features.append(values)
            labels.append(int(label))
    if not features:
        raise ValueError(f"{path}: no data rows")
    return Dataset(np.array(features, dtype=np.float64), np.array(labels, dtype=np.int64))


def build_inputs(
    config: SimConfig, base_dir: str | Path = "."
) -> tuple[list[list[Dataset]], Dataset]:
    """Materialize the configured data source into engine-ready, read-only
    datasets (see ``materialize``)."""
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
    return materialize(source, plan, order)


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
