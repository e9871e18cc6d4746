"""Seeded workload configs for the benchmark.

Each workload is a plain config dict, the same document ``fedsim run``
reads from a JSON file.  Every seed in it (per-client ``seeds``,
``data_seed``, ``server_seed``) and every simulated latency is derived from
the benchmark's ``--seed``, so one seed always gives one config.  Compute
durations are injected, which makes the written reports byte-deterministic
and lets the benchmark compare report digests between runs.

The workloads vary the two axes the secure-aggregation protocol's cost
grows with: the client count (one key agreement per peer pair, one mask
per peer per round) and the work each client does per round.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Shape:
    """The parts of a workload that set how much work a round does."""

    topology: str
    clients: int
    rounds: int
    classes: int
    features: int
    rows_per_round: int
    local_steps: int
    batch_size: int
    test_size: int
    algorithm: str
    use_security: bool
    use_dp: bool
    subtract_dp_noise: bool
    simulate_latencies: bool


# Why each workload exists (one line each, mirrored in BENCHMARK.json):
#   secure_dp     - DH key agreement and pairwise masks dominate host time.
#   serverless_dp - every client averages all 10 contributions, so the exact
#                   mean and DP perturbation dominate; no DH and no masks.
#   plain_train   - SGD dominates; the control for masking/exact/dp changes,
#                   and where the per-client thread pool costs most.
WORKLOADS: dict[str, Shape] = {
    "secure_dp": Shape(
        topology="centralized", clients=10, rounds=8, classes=10, features=50,
        rows_per_round=40, local_steps=60, batch_size=30, test_size=300,
        algorithm="incremental", use_security=True, use_dp=True,
        subtract_dp_noise=False, simulate_latencies=True,
    ),
    "serverless_dp": Shape(
        topology="serverless", clients=10, rounds=8, classes=10, features=50,
        rows_per_round=40, local_steps=60, batch_size=30, test_size=300,
        algorithm="retrain", use_security=False, use_dp=True,
        subtract_dp_noise=True, simulate_latencies=True,
    ),
    "plain_train": Shape(
        topology="centralized", clients=4, rounds=20, classes=4, features=10,
        rows_per_round=200, local_steps=400, batch_size=64, test_size=2000,
        algorithm="incremental", use_security=False, use_dp=False,
        subtract_dp_noise=False, simulate_latencies=False,
    ),
}

EPSILON = 1.0


def _latencies(shape: Shape, names: list[str], rng: np.random.Generator) -> dict:
    if not shape.simulate_latencies:
        return {}
    def draw() -> float:
        return round(float(rng.uniform(0.05, 2.0)), 3)
    if shape.topology == "centralized":
        server = "server_agent0"
        table = {server: {c: draw() for c in names}}
        table.update({c: {server: draw()} for c in names})
        return table
    return {a: {b: draw() for b in names if b != a} for a in names}


def make_config(name: str, seed: int, rounds: int | None = None) -> dict:
    """The config dict for workload ``name`` under benchmark seed ``seed``.

    ``rounds`` overrides the workload's round count; the self-test uses it
    to run a workload briefly.
    """
    shape = WORKLOADS[name]
    rounds = shape.rounds if rounds is None else rounds
    index = list(WORKLOADS).index(name)
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    n = shape.clients
    names = [f"client_agent{i}" for i in range(n)]
    seeds = [int(s) for s in rng.integers(0, 2**31, size=n)]
    data_seed, server_seed = (int(s) for s in rng.integers(0, 2**31, size=2))
    train_rows = n * shape.rows_per_round * rounds
    return {
        "num_clients": n,
        "num_iterations": rounds,
        "topology": shape.topology,
        "algorithm": shape.algorithm,
        "use_security": shape.use_security,
        "use_dp_privacy": shape.use_dp,
        "subtract_dp_noise": shape.subtract_dp_noise,
        "client_dropout": False,
        "simulate_latencies": shape.simulate_latencies,
        # cumulative data is what the retrain algorithm is meant for
        "using_cumulative": shape.algorithm == "retrain",
        "mechanism": "distributed_laplace",
        "dp_placement": "distributed",
        "epsilons": [EPSILON if shape.use_dp else None] * n,
        "tolerance": 0.001,
        "latencies": _latencies(shape, names, rng),
        "seeds": seeds,
        "data_seed": data_seed,
        "server_seed": server_seed,
        "dataset_sizes": [[shape.rows_per_round] * rounds for _ in range(n)],
        "test_size": shape.test_size,
        "data": {
            "kind": "synth",
            "classes": shape.classes,
            "features": shape.features,
            "rows": shape.test_size + train_rows,
            "separation": 2.0,
        },
        "train": {
            "local_steps": shape.local_steps,
            "learning_rate": 0.5,
            "l2_alpha": 0.01,
            "batch_size": shape.batch_size,
        },
        "compute": {"client_s": 0.005, "server_s": 0.005},
    }


def config_hash(raw: dict) -> str:
    """SHA-256 of the config's canonical JSON form."""
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
