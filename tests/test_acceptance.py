"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines on a green run (pytest shows captured output for failures anyway).
"""

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from conftest import base_config_dict, make_simulation, make_skewed_dropout_simulation
from fedsim.cli import main as cli_main
from fedsim.config import config_from_dict, load_config
from fedsim.dp import gamma_difference_share
from fedsim.exact import to_exact, to_float
from fedsim.masking import MaskSchedule, apply_masks, dh_common_key, dh_generate
from fedsim.models import Dataset, federated_average, gradient, loss

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

PAPER_LATENCIES = {
    "server_agent0": {"client_agent0": 0.3, "client_agent1": 2.0, "client_agent2": 0.1},
    "client_agent0": {"server_agent0": 0.3},
    "client_agent1": {"server_agent0": 2.0},
    "client_agent2": {"server_agent0": 0.1},
}


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_c01_latency_reproduction():
    with criterion(1, "latency reproduction"):
        sim = make_simulation(
            simulate_latencies=True,
            latencies=PAPER_LATENCIES,
            train={"local_steps": 5, "learning_rate": 0.5, "l2_alpha": 0.01,
                   "batch_size": 10},
        )
        sim.offline_phase()
        r1 = sim.run_round(1)
        assert r1.receipt_sim_time["client_agent0"] == pytest.approx(4.310, abs=0.001)
        assert r1.receipt_sim_time["client_agent1"] == pytest.approx(6.010, abs=0.001)
        assert r1.receipt_sim_time["client_agent2"] == pytest.approx(4.110, abs=0.001)
        sim.run_round(2)
        r3 = sim.run_round(3, active=["client_agent0", "client_agent2"])
        assert r3.receipt_sim_time["client_agent0"] == pytest.approx(0.909, abs=0.01)
        assert r3.receipt_sim_time["client_agent2"] == pytest.approx(0.709, abs=0.01)
        assert "client_agent1" not in r3.receipt_sim_time


def test_c02_mask_cancellation_oracle():
    with criterion(2, "mask cancellation"):
        # direct oracle over active-set sizes and 20 weight seeds each
        for n in (1, 2, 3, 5, 10):
            names = [f"client_agent{i}" for i in range(n)]
            key_rng = np.random.default_rng(9000 + n)
            keypairs = {c: dh_generate(key_rng) for c in names}
            schedules = {
                a: MaskSchedule(
                    owner=a,
                    keys={
                        b: dh_common_key(
                            keypairs[a],
                            keypairs[b].public,
                            (a, b),
                            powers=keypairs[b].powers,
                        )
                        for b in names
                        if b != a
                    },
                )
                for a in names
            }
            for seed in range(20):
                rng = np.random.default_rng(seed)
                ws = {c: rng.standard_normal((3, 5)) for c in names}
                masked = [
                    apply_masks(ws[c], schedules[c], names, seed + 1) for c in names
                ]
                total_masked = masked[0]
                for m in masked[1:]:
                    total_masked = total_masked + m
                total_raw = to_exact(ws[names[0]])
                for c in names[1:]:
                    total_raw = total_raw + to_exact(ws[c])
                assert np.all(total_masked == total_raw)
                assert np.array_equal(to_float(total_masked), to_float(total_raw))
        # end to end: security on / DP off leaves the federated average
        # equal to the clean average bit for bit
        sim = make_simulation(use_security=True)
        sim.offline_phase()
        for iteration in (1, 2, 3):
            sim.run_round(iteration)
            clean = [sim.directory[c].clean_weights(iteration) for c in sim.client_names]
            expected = federated_average(clean)
            for c in sim.client_names:
                assert np.array_equal(sim.directory[c].federated_weights, expected)


def test_c03_distributed_laplace_reconstruction():
    with criterion(3, "distributed Laplace reconstruction"):
        for n in (1, 3, 5):
            for scale in (0.5, 2.0):
                rng = np.random.default_rng(7000 + 13 * n + int(scale * 10))
                total = sum(
                    gamma_difference_share(n, scale, rng, size=100_000)
                    for _ in range(n)
                )
                p = stats.kstest(total, stats.laplace(scale=scale).cdf).pvalue
                assert p > 0.01, f"KS failed for n={n}, scale={scale}: p={p}"


def test_c04_noise_subtraction_identity():
    with criterion(4, "noise subtraction identity"):
        # one client: subtraction recovers the clean weights bit for bit
        sim = make_simulation(
            num_clients=1,
            use_dp_privacy=True,
            subtract_dp_noise=True,
            mechanism="laplace",
            epsilons=[0.25],
            seeds=[3],
            dataset_sizes=[[20, 20, 20]],
        )
        sim.offline_phase()
        sim.run_round(1)
        client = sim.directory["client_agent0"]
        assert np.array_equal(client.federated_weights, client.clean_weights(1))

        # two clients, one noiseless: the noisy client's corrected model
        # equals the clean two-client average bit for bit
        sim2 = make_simulation(
            num_clients=2,
            use_security=True,
            use_dp_privacy=True,
            subtract_dp_noise=True,
            mechanism="laplace",
            epsilons=[0.25, None],
            seeds=[3, 4],
            dataset_sizes=[[20, 20, 20]] * 2,
        )
        sim2.offline_phase()
        sim2.run_round(1)
        clean_avg = federated_average(
            [sim2.directory[c].clean_weights(1) for c in sim2.client_names]
        )
        assert np.array_equal(
            sim2.directory["client_agent0"].federated_weights, clean_avg
        )


def _trend_run(epsilon, trial):
    config = config_from_dict(base_config_dict(
        num_iterations=8,
        algorithm="retrain",
        using_cumulative=True,
        use_dp_privacy=True,
        mechanism="distributed_laplace",
        dp_placement="distributed",
        epsilons=[epsilon] * 3,
        seeds=[1000 + trial, 2000 + trial, 3000 + trial],
        data_seed=500 + trial,
        dataset_sizes=[[20] * 8] * 3,
        test_size=300,
        data={"kind": "synth", "classes": 4, "features": 10, "rows": 800,
              "separation": 1.5},
        train={"local_steps": 60, "learning_rate": 0.5, "l2_alpha": 0.01,
               "batch_size": 20},
        compute={"client_s": 0.0, "server_s": 0.0},
    ))
    from fedsim.config import build_inputs
    from fedsim.engine import run_simulation

    datasets, test_set = build_inputs(config)
    last = run_simulation(config, datasets, test_set)[-1]
    fed = float(np.mean([e.federated_accuracy for e in last.evals.values()]))
    local = float(np.mean([e.local_accuracy for e in last.evals.values()]))
    return fed, local


def test_c05_privacy_accuracy_trend():
    with criterion(5, "privacy/accuracy trend"):
        medians = {}
        locals_at_8 = []
        for epsilon in (0.1, 1.0, 8.0):
            feds = []
            for trial in range(10):
                fed, local = _trend_run(epsilon, trial)
                feds.append(fed)
                if epsilon == 8.0:
                    locals_at_8.append(local)
            medians[epsilon] = float(np.median(feds))
        assert medians[8.0] >= medians[1.0] >= medians[0.1], medians
        assert medians[8.0] >= float(np.mean(locals_at_8))


def test_c06_serverless_equivalence():
    with criterion(6, "serverless equivalence"):
        central = make_simulation(use_security=True)
        serverless = make_simulation(use_security=True, topology="serverless")
        central.offline_phase()
        serverless.offline_phase()
        for iteration in (1, 2, 3):
            central.run_round(iteration)
            serverless.run_round(iteration)
            for c in central.client_names:
                a = central.directory[c].federated_weights
                b = serverless.directory[c].federated_weights
                assert np.max(np.abs(a - b)) <= 1e-12
                assert np.array_equal(a, b)


def test_c07_dropout_protocol():
    with criterion(7, "dropout protocol"):
        sim = make_skewed_dropout_simulation()
        reports = sim.run()
        # the balanced client converges at iteration 1 and drops out alone
        assert reports[0].dropouts == ["client_agent2"]
        assert len(reports) >= 2
        assert sorted(reports[1].evals) == ["client_agent0", "client_agent1"]
        assert len(reports[0].evals) - len(reports[1].evals) == 1
        dropped = sim.directory["client_agent2"]
        assert not dropped.active
        assert 2 not in dropped._compute  # no produce call after departure
        assert sim.counters.online_client_client == 0


def test_c08_gradient_check():
    with criterion(8, "gradient finite-difference check"):
        rng = np.random.default_rng(4242)
        data = Dataset(rng.standard_normal((25, 6)), rng.integers(0, 4, 25))
        h = 1e-6
        for _ in range(10):
            w = rng.standard_normal((4, 7))
            analytic = gradient(w, data, 0.03)
            numeric = np.zeros_like(w)
            for idx in np.ndindex(w.shape):
                wp, wm = w.copy(), w.copy()
                wp[idx] += h
                wm[idx] -= h
                numeric[idx] = (loss(wp, data, 0.03) - loss(wm, data, 0.03)) / (2 * h)
            rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(analytic)
            assert rel < 1e-4


def test_c09_cli_determinism(tmp_path):
    with criterion(9, "CLI determinism"):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        example = CONFIG_DIR / "example.json"
        assert cli_main(["run", str(example), "--out", str(out_a)]) == 0
        assert cli_main(["run", str(example), "--out", str(out_b)]) == 0
        for name in ("accuracy.csv", "timing.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_c10_scenario_expressiveness(tmp_path):
    with criterion(10, "scenario expressiveness"):
        for name in ("scenario1", "scenario2", "scenario3", "scenario4"):
            out = tmp_path / name
            config = load_config(CONFIG_DIR / f"{name}.json")
            code = cli_main(["run", str(CONFIG_DIR / f"{name}.json"),
                             "--out", str(out)])
            assert code == 0, name
            lines = (out / "accuracy.csv").read_text().strip().splitlines()
            expected_rows = config.num_clients * config.num_iterations
            assert len(lines) == 1 + expected_rows, name
            summary = json.loads((out / "summary.json").read_text())
            assert len(summary["iterations"]) == config.num_iterations
