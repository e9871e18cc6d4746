"""Shared builders for engine-level tests."""

import numpy as np
import pytest

from fedsim.config import SimConfig, build_inputs, config_from_dict
from fedsim.engine import Simulation


def base_config_dict(**overrides) -> dict:
    """A small, valid 3-client configuration; override freely per test."""
    raw = {
        "num_clients": 3,
        "num_iterations": 3,
        "topology": "centralized",
        "algorithm": "incremental",
        "use_security": False,
        "use_dp_privacy": False,
        "subtract_dp_noise": False,
        "client_dropout": False,
        "simulate_latencies": False,
        "using_cumulative": False,
        "mechanism": "laplace",
        "dp_placement": "local",
        "epsilons": [None, None, None],
        "tolerance": 1e-6,
        "seeds": [11, 22, 33],
        "data_seed": 5,
        "dataset_sizes": [[20, 20, 20]] * 3,
        "test_size": 60,
        "data": {
            "kind": "synth",
            "classes": 3,
            "features": 5,
            "rows": 400,
            "separation": 2.5,
        },
        "train": {
            "local_steps": 15,
            "learning_rate": 0.5,
            "l2_alpha": 0.01,
            "batch_size": 10,
        },
        "compute": {"client_s": 0.005, "server_s": 0.005},
    }
    raw.update(overrides)
    return raw


def make_config(**overrides) -> SimConfig:
    return config_from_dict(base_config_dict(**overrides))


def make_simulation(**overrides) -> Simulation:
    config = make_config(**overrides)
    client_datasets, test_set = build_inputs(config)
    return Simulation(config, client_datasets, test_set)


def open_round(sim: Simulation, iteration: int) -> dict:
    """Open and train ``iteration`` for every active client, as the first
    phase of ``run_round`` does, so a test can drive the later phases by
    hand.  Returns each client's send-step arguments: its trained weights
    (None on a retrain cache hit) and their host seconds."""
    return sim._train_cohorts(iteration, list(sim.active))


def make_skewed_dropout_simulation(
    topology: str = "centralized", use_security: bool = False
) -> Simulation:
    """A 3-client setup where exactly one client converges at iteration 1.

    Clients 0 and 1 see only half the classes each, so their local models
    sit far from the federated average; client 2 trains on balanced data
    and lands within tolerance (max-abs distances calibrated at roughly
    0.77 / 0.85 / 0.38 against a 0.5 tolerance).
    """
    from fedsim.config import synth_dataset
    from fedsim.models import Dataset

    rng = np.random.default_rng(88)
    source = synth_dataset(4, 8, 2400, 2.5, rng)
    by_class = {c: np.where(source.labels == c)[0] for c in range(4)}
    cursors = {c: 0 for c in range(4)}

    def take(classes, count):
        rows = []
        per = count // len(classes)
        for c in classes:
            rows.extend(by_class[c][cursors[c] : cursors[c] + per])
            cursors[c] += per
        idx = np.array(rows)
        return Dataset(source.features[idx], source.labels[idx])

    iters = 4
    datasets = [
        [take([0, 1], 30) for _ in range(iters)],
        [take([2, 3], 30) for _ in range(iters)],
        [take([0, 1, 2, 3], 32) for _ in range(iters)],
    ]
    test_set = take([0, 1, 2, 3], 200)
    config = make_config(
        topology=topology,
        use_security=use_security,
        num_iterations=iters,
        client_dropout=True,
        tolerance=0.5,
        seeds=[5, 6, 7],
        dataset_sizes=[[30] * iters, [30] * iters, [32] * iters],
        test_size=200,
        data={"kind": "synth", "classes": 4, "features": 8, "rows": 2400,
              "separation": 2.5},
        train={"local_steps": 25, "learning_rate": 0.4, "l2_alpha": 0.01,
               "batch_size": 10},
        compute={"client_s": 0.0, "server_s": 0.0},
    )
    return Simulation(config, datasets, test_set)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
