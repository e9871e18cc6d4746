"""Tests for the agent framework, lifecycle, clock and dropout bookkeeping."""

import threading
import time

import numpy as np
import pytest

from conftest import base_config_dict, make_simulation, make_skewed_dropout_simulation
from fedsim.config import build_inputs, config_from_dict
from fedsim.engine import (
    ClientAgent,
    Envelope,
    LatencyTable,
    ProtocolError,
    Simulation,
    SimulationError,
    run_simulation,
)
from fedsim.dp import gamma_difference_share, laplace_sample
from fedsim.exact import exact_mean, to_exact, to_float
from fedsim.masking import GROUP_PRIME, DhKeyPair

PAPER_LATENCIES = {
    "server_agent0": {"client_agent0": 0.3, "client_agent1": 2.0, "client_agent2": 0.1},
    "client_agent0": {"server_agent0": 0.3},
    "client_agent1": {"server_agent0": 2.0},
    "client_agent2": {"server_agent0": 0.1},
}


class TestLatencyTable:
    def test_missing_pair_is_an_error(self):
        table = LatencyTable({("a", "b"): 1.0})
        with pytest.raises(SimulationError):
            table.latency("b", "a")

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyTable({("a", "b"): -1.0})

    def test_zeros_constructor(self):
        table = LatencyTable.zeros(["a", "b", "c"])
        assert table.latency("a", "c") == 0.0


class TestOfflinePhase:
    def test_three_clients_exchange_six_messages(self):
        sim = make_simulation(use_security=True)
        sim.offline_phase()
        assert sim.counters.offline_client_client == 6

    def test_single_client_exchanges_nothing(self):
        sim = make_simulation(
            use_security=True,
            num_clients=1,
            epsilons=[None],
            seeds=[1],
            dataset_sizes=[[20, 20, 20]],
        )
        sim.offline_phase()
        assert sim.counters.offline_client_client == 0
        assert sim.directory["client_agent0"].schedule.keys == {}

    def test_endpoints_hold_equal_key_material(self):
        sim = make_simulation(use_security=True)
        sim.offline_phase()
        names = sim.client_names
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                key_ab = sim.directory[a].schedule.key_for(b)
                key_ba = sim.directory[b].schedule.key_for(a)
                assert key_ab.key_material == key_ba.key_material

    def test_skipped_when_security_disabled(self):
        sim = make_simulation(use_security=False)
        sim.offline_phase()
        assert sim.counters.offline_client_client == 0

    def test_rejected_public_value_names_client_and_iteration(self):
        sim = make_simulation(use_security=True)
        victim = sim.directory["client_agent2"]
        receive = victim.receive_pubkey

        def receive_forged(env):
            if env.sender == "client_agent0":
                body = {**env.body, "value": GROUP_PRIME - 1}
                env = Envelope(env.sender, env.recipient, 0, body, env.sim_time)
            receive(env)

        victim.receive_pubkey = receive_forged
        with pytest.raises(
            SimulationError, match="'client_agent2' failed during iteration 0"
        ):
            sim.offline_phase()

    def test_public_key_sent_only_after_generation(self):
        sim = make_simulation(use_security=True)
        with pytest.raises(ProtocolError, match="no key pair"):
            sim.directory["client_agent0"].public_key()

    def test_key_material_dropped_after_agreement(self):
        sim = make_simulation(use_security=True)
        sim.offline_phase()
        for name in sim.client_names:
            client = sim.directory[name]
            with pytest.raises(ProtocolError, match="no key pair"):
                client.public_key()
            assert not any(isinstance(v, DhKeyPair) for v in vars(client).values())
            assert not client._peer_publics
            assert sorted(client.schedule.keys) == [c for c in sim.client_names if c != name]
        # the common keys alone still cancel the masks
        sim.run_round(1)
        clean = [sim.directory[c].clean_weights(1) for c in sim.client_names]
        expected = to_float(exact_mean(clean))
        for c in sim.client_names:
            assert np.array_equal(sim.directory[c].federated_weights, expected)


class TestServerRound:
    def test_single_client_federated_equals_own_weights(self):
        sim = make_simulation(
            num_clients=1, epsilons=[None], seeds=[1], dataset_sizes=[[20, 20, 20]]
        )
        sim.offline_phase()
        sim.run_round(1)
        client = sim.directory["client_agent0"]
        assert np.array_equal(client.federated_weights, client.clean_weights(1))

    def test_mask_cancellation_end_to_end(self):
        # with security on and DP off, the federated weights equal the
        # average of the clean local weights bit for bit
        sim = make_simulation(use_security=True)
        sim.offline_phase()
        sim.run_round(1)
        clean = [sim.directory[c].clean_weights(1) for c in sim.client_names]
        expected = to_float(exact_mean(clean))
        for c in sim.client_names:
            assert np.array_equal(sim.directory[c].federated_weights, expected)

    def test_security_toggle_does_not_change_results(self):
        sim_on = make_simulation(use_security=True)
        sim_off = make_simulation(use_security=False)
        reports_on = sim_on.run()
        reports_off = sim_off.run()
        for r_on, r_off in zip(reports_on, reports_off):
            assert r_on.evals == r_off.evals
        for c in sim_on.client_names:
            assert np.array_equal(
                sim_on.directory[c].federated_weights,
                sim_off.directory[c].federated_weights,
            )

    def test_paper_latency_regime(self):
        sim = make_simulation(simulate_latencies=True, latencies=PAPER_LATENCIES)
        sim.offline_phase()
        r1 = sim.run_round(1)
        assert r1.receipt_sim_time["client_agent0"] == pytest.approx(4.310, abs=1e-3)
        assert r1.receipt_sim_time["client_agent1"] == pytest.approx(6.010, abs=1e-3)
        assert r1.receipt_sim_time["client_agent2"] == pytest.approx(4.110, abs=1e-3)
        sim.run_round(2)
        r3 = sim.run_round(3, active=["client_agent0", "client_agent2"])
        assert r3.receipt_sim_time["client_agent0"] == pytest.approx(0.909, abs=1e-2)
        assert r3.receipt_sim_time["client_agent2"] == pytest.approx(0.709, abs=1e-2)

    def test_no_online_client_client_messages(self):
        sim = make_simulation(use_security=True, use_dp_privacy=True,
                              mechanism="laplace", epsilons=[1.0, 1.0, 1.0])
        sim.run()
        assert sim.counters.online_client_client == 0
        assert sim.counters.offline_client_client == 6

    def test_global_server_noise_applied_once(self):
        sim = make_simulation(
            use_dp_privacy=True,
            dp_placement="global_server",
            mechanism="laplace",
            epsilons=[1.0, 2.0, 0.5],
        )
        sim.offline_phase()
        sim.run_round(1)
        clean = [sim.directory[c].clean_weights(1) for c in sim.client_names]
        fed = sim.directory["client_agent0"].federated_weights
        assert not np.array_equal(fed, to_float(exact_mean(clean)))
        for c in sim.client_names[1:]:
            assert np.array_equal(sim.directory[c].federated_weights, fed)

    def test_gaussian_mechanism_end_to_end(self):
        for placement in ("local", "global_server"):
            sim = make_simulation(
                use_dp_privacy=True,
                dp_placement=placement,
                mechanism="gaussian",
                epsilons=[1.0, 1.0, 1.0],
                deltas=[0.05, 0.05, 0.05],
            )
            sim.offline_phase()
            sim.run_round(1)
            clean = [sim.directory[c].clean_weights(1) for c in sim.client_names]
            fed = sim.directory["client_agent0"].federated_weights
            assert not np.array_equal(fed, to_float(exact_mean(clean)))

    def test_retrain_cache_reused_once_converged(self):
        # single client: the federated model equals the cached weights, so
        # iteration 2 must return the cache instead of retraining
        sim = make_simulation(
            num_clients=1,
            algorithm="retrain",
            using_cumulative=True,
            tolerance=1e-9,
            epsilons=[None],
            seeds=[1],
            dataset_sizes=[[20, 20, 20]],
        )
        sim.offline_phase()
        sim.run_round(1)
        sim.run_round(2)
        client = sim.directory["client_agent0"]
        assert np.array_equal(client.clean_weights(2), client.clean_weights(1))


class TestClientAgent:
    def test_produce_stamps_reply_time(self):
        sim = make_simulation(simulate_latencies=True, latencies=PAPER_LATENCIES)
        sim.offline_phase()
        client = sim.directory["client_agent1"]
        request = Envelope(
            "server_agent0", "client_agent1", 1, {"kind": "weights_request"}, 2.0
        )
        reply = sim._send(
            "client_agent1", "server_agent0", 1, *client.produce_weights(request)
        )
        assert reply.sim_time == pytest.approx(2.0 + 0.005 + 2.0)
        assert reply.recipient == "server_agent0"

    def test_inactive_client_rejects_requests(self):
        sim = make_simulation()
        client = sim.directory["client_agent0"]
        client.retire()
        with pytest.raises(ProtocolError):
            client.produce_weights(
                Envelope("server_agent0", "client_agent0", 1, {}, 0.0)
            )

    def test_clean_weights_never_leave_with_privacy_on(self):
        sim = make_simulation(
            use_security=True,
            use_dp_privacy=True,
            mechanism="distributed_laplace",
            dp_placement="distributed",
            epsilons=[0.5, 0.5, 0.5],
        )
        sim.offline_phase()
        client = sim.directory["client_agent0"]
        reply, _ = client.produce_weights(
            Envelope("server_agent0", "client_agent0", 1, {"kind": "weights_request"}, 0.0)
        )
        body = to_float(reply["weights"])
        assert not np.array_equal(body, client.clean_weights(1))

    def test_receive_rejects_iteration_mismatch(self):
        sim = make_simulation()
        sim.offline_phase()
        client = sim.directory["client_agent0"]
        client.produce_weights(
            Envelope("server_agent0", "client_agent0", 1, {"kind": "weights_request"}, 0.0)
        )
        with pytest.raises(ProtocolError):
            client.receive_weights(
                Envelope(
                    "server_agent0", "client_agent0", 2,
                    {"kind": "federated_weights", "weights": client.federated_weights},
                    0.0,
                )
            )

    def test_dominating_tolerance_converges_first_iteration(self):
        sim = make_simulation(tolerance=1e9)
        sim.offline_phase()
        report = sim.run_round(1)
        # convergence flags are reflected in dropouts only when the dropout
        # flag is on; with it off the active set must not shrink
        assert report.dropouts == []
        assert sim.active == sim.client_names

    def test_dropout_flag_gates_departure(self):
        reports = make_simulation(tolerance=1e9, client_dropout=True).run()
        assert len(reports) == 1
        assert reports[0].dropouts == ["client_agent0", "client_agent1", "client_agent2"]

    def test_eval_accuracies_within_unit_interval(self):
        for report in make_simulation().run():
            for ev in report.evals.values():
                assert 0.0 <= ev.local_accuracy <= 1.0
                assert 0.0 <= ev.federated_accuracy <= 1.0


class TestNoiseSubtraction:
    def test_conservation_through_privacy_layers(self):
        sim = make_simulation(
            use_security=True,
            use_dp_privacy=True,
            subtract_dp_noise=True,
            mechanism="distributed_laplace",
            dp_placement="distributed",
            epsilons=[1.0, 1.0, 1.0],
        )
        sim.offline_phase()
        names = sim.client_names
        requests = {
            c: Envelope("server_agent0", c, 1, {"kind": "weights_request"}, 0.0)
            for c in names
        }
        replies = {c: sim.directory[c].produce_weights(requests[c]) for c in names}
        records = {c: sim.directory[c]._records[1].copy() for c in names}
        fed = exact_mean([replies[c][0]["weights"] for c in sorted(names)])
        for c in names:
            sim.directory[c].receive_weights(
                Envelope("server_agent0", c, 1,
                         {"kind": "federated_weights", "weights": fed}, 0.0)
            )
        n = len(names)
        for c in names:
            own_corrected = fed - to_exact(records[c]) / n
            assert np.array_equal(
                sim.directory[c].federated_weights, to_float(own_corrected)
            )
        # removing every share reconstructs the clean mean exactly
        clean_mean = exact_mean([sim.directory[c].clean_weights(1) for c in names])
        total_noise = exact_mean([records[c] for c in names])
        assert np.array_equal(to_float(fed - total_noise), to_float(clean_mean))

    def test_single_client_subtraction_recovers_clean(self):
        sim = make_simulation(
            num_clients=1,
            use_dp_privacy=True,
            subtract_dp_noise=True,
            mechanism="laplace",
            epsilons=[0.5],
            seeds=[1],
            dataset_sizes=[[20, 20, 20]],
        )
        sim.offline_phase()
        sim.run_round(1)
        client = sim.directory["client_agent0"]
        assert np.array_equal(client.federated_weights, client.clean_weights(1))


CALIBRATION_SIZES = [[10] * 3, [20] * 3, [50] * 3]


class TestNoiseCalibration:
    """Noise that reaches an aggregate is drawn at the round's (n, k, epsilon)."""

    def test_server_noise_follows_the_active_set(self):
        sim = make_simulation(
            use_dp_privacy=True,
            mechanism="laplace",
            dp_placement="global_server",
            epsilons=[1.0, 2.0, 0.5],
            server_seed=9,
            dataset_sizes=CALIBRATION_SIZES,
        )
        alpha = sim.config.train.l2_alpha
        rng = np.random.default_rng(np.random.SeedSequence(9))
        sim.offline_phase()
        rounds = [
            (1, sim.client_names, 10, 0.5),
            (2, ["client_agent1", "client_agent2"], 20, 0.5),
        ]
        for iteration, active, k, epsilon in rounds:
            sim.run_round(iteration, active)
            clean = exact_mean([sim.directory[c].clean_weights(iteration) for c in active])
            scale = 2.0 / (len(active) * k * alpha) / epsilon
            noise = laplace_sample(scale, rng, clean.shape)
            expected = to_float(clean + to_exact(noise))
            for c in active:
                assert np.array_equal(sim.directory[c].federated_weights, expected)

    def test_local_noise_uses_the_smallest_active_dataset(self):
        sim = make_simulation(
            use_dp_privacy=True,
            mechanism="laplace",
            dp_placement="local",
            epsilons=[1.0, 2.0, 0.5],
            dataset_sizes=CALIBRATION_SIZES,
        )
        client = sim.directory["client_agent2"]
        assert len(client.datasets[0]) == 50
        sim.offline_phase()
        reply, _ = client.produce_weights(
            Envelope("server_agent0", "client_agent2", 1, {"kind": "weights_request"}, 0.0)
        )
        _, noise_seq, _ = np.random.SeedSequence(sim.config.seeds[2]).spawn(3)
        clean = client.clean_weights(1)
        scale = 2.0 / (3 * 10 * sim.config.train.l2_alpha) / 0.5
        noise = laplace_sample(scale, np.random.default_rng(noise_seq), clean.shape)
        assert np.array_equal(
            to_float(reply["weights"]), to_float(to_exact(clean) + to_exact(noise))
        )


    def test_distributed_share_follows_the_active_set(self):
        # after a dropout each share is drawn at the new n, so the
        # survivors' shares still sum to one Laplace draw
        sim = make_simulation(
            use_dp_privacy=True,
            mechanism="distributed_laplace",
            dp_placement="distributed",
            epsilons=[1.0, 2.0, 0.5],
            dataset_sizes=CALIBRATION_SIZES,
        )
        alpha = sim.config.train.l2_alpha
        two_of_three = ["client_agent1", "client_agent2"]
        sim.offline_phase()
        sim.run_round(1)
        sim.run_round(2, two_of_three)
        noisy = []
        for c in two_of_three:
            i = sim.client_names.index(c)
            epsilon = sim.config.epsilons[i]
            _, noise_seq, _ = np.random.SeedSequence(sim.config.seeds[i]).spawn(3)
            rng = np.random.default_rng(noise_seq)
            clean = sim.directory[c].clean_weights(2)
            gamma_difference_share(3, 2.0 / (3 * 10 * alpha) / epsilon, rng, clean.shape)
            noise = gamma_difference_share(
                2, 2.0 / (2 * 20 * alpha) / epsilon, rng, clean.shape
            )
            noisy.append(to_exact(clean) + to_exact(noise))
        expected = to_float(exact_mean(noisy))
        for c in two_of_three:
            assert np.array_equal(sim.directory[c].federated_weights, expected)


class TestServerlessRound:
    def test_two_client_receipt_times(self):
        latencies = {
            "client_agent0": {"client_agent1": 1.0},
            "client_agent1": {"client_agent0": 3.0},
        }
        sim = make_simulation(
            topology="serverless",
            num_clients=2,
            epsilons=[None, None],
            seeds=[1, 2],
            dataset_sizes=[[20, 20, 20]] * 2,
            simulate_latencies=True,
            latencies=latencies,
            compute={"client_s": 0.0, "server_s": None},
        )
        sim.offline_phase()
        report = sim.run_round(1)
        assert report.receipt_sim_time["client_agent0"] == pytest.approx(3.0)
        assert report.receipt_sim_time["client_agent1"] == pytest.approx(1.0)

    def test_matches_centralized_federated_weights(self):
        central = make_simulation(use_security=True)
        serverless = make_simulation(use_security=True, topology="serverless")
        central.offline_phase()
        serverless.offline_phase()
        for iteration in (1, 2, 3):
            central.run_round(iteration)
            serverless.run_round(iteration)
            for c in central.client_names:
                assert np.array_equal(
                    central.directory[c].federated_weights,
                    serverless.directory[c].federated_weights,
                )

    def test_all_clients_agree_on_clean_average(self):
        sim = make_simulation(use_security=True, topology="serverless")
        sim.offline_phase()
        sim.run_round(1)
        clean = [sim.directory[c].clean_weights(1) for c in sim.client_names]
        expected = to_float(exact_mean(clean))
        for c in sim.client_names:
            assert np.array_equal(sim.directory[c].federated_weights, expected)

    def test_counts_broadcast_messages(self):
        sim = make_simulation(topology="serverless")
        sim.run()
        assert sim.counters.online_client_client == 3 * 2 * 3  # n*(n-1) per iteration

    def test_selective_dropout_with_survivors(self):
        sim = make_skewed_dropout_simulation(topology="serverless")
        reports = sim.run()
        assert reports[0].dropouts == ["client_agent2"]
        assert sorted(reports[1].evals) == ["client_agent0", "client_agent1"]
        for survivor in ("client_agent0", "client_agent1"):
            assert "client_agent2" not in sim.directory[survivor].active_view


class TestRunSimulation:
    def test_zero_iterations_runs_offline_only(self):
        sim = make_simulation(
            use_security=True, num_iterations=0, dataset_sizes=[[]] * 3
        )
        reports = sim.run()
        assert reports == []
        assert sim.counters.offline_client_client == 6

    def test_early_termination_when_all_drop(self):
        sim = make_simulation(tolerance=1e9, client_dropout=True, num_iterations=3)
        reports = sim.run()
        assert len(reports) == 1

    def test_eight_iteration_receipt_times_constant(self):
        raw = base_config_dict(
            num_iterations=8,
            dataset_sizes=[[15] * 8] * 3,
            simulate_latencies=True,
            latencies=PAPER_LATENCIES,
            data={"kind": "synth", "classes": 3, "features": 5, "rows": 500,
                  "separation": 2.5},
        )
        config = config_from_dict(raw)
        datasets, test_set = build_inputs(config)
        reports = run_simulation(config, datasets, test_set)
        assert len(reports) == 8
        for report in reports:
            assert report.receipt_sim_time == reports[0].receipt_sim_time

    def test_dropped_client_receives_no_further_calls(self):
        sim = make_simulation(tolerance=1e9, client_dropout=True, num_iterations=3)
        reports = sim.run()
        assert reports[0].dropouts == sim.client_names
        for c in sim.client_names:
            assert not sim.directory[c].active
            assert 2 not in sim.directory[c]._compute

    def test_run_aborts_with_diagnostic_naming_client(self):
        sim = make_simulation(num_iterations=3)
        sim.offline_phase()
        sim.run_round(1)
        # sabotage one client's data for iteration 2
        sim.directory["client_agent1"].datasets[1] = None
        with pytest.raises(SimulationError, match="client_agent1"):
            sim.run_round(2)


class TestMessageCounts:
    @pytest.mark.parametrize("topology", ["centralized", "serverless"])
    def test_every_edge_follows_the_protocol(self, topology):
        sim = make_skewed_dropout_simulation(topology=topology, use_security=True)
        reports = sim.run()
        assert [r.dropouts for r in reports] == [
            ["client_agent2"], ["client_agent0", "client_agent1"]
        ]
        total = len(sim.client_names)
        expected = {
            "offline_client_client": total * (total - 1),
            "online_client_client": 0,
            "client_server": 0,
            "server_client": 0,
        }
        for report in reports:
            n = len(report.evals)
            survivors = n - len(report.dropouts)
            if topology == "centralized":
                expected["server_client"] += 2 * n  # requests and returns
                expected["client_server"] += n  # replies
                if report.dropouts:
                    expected["server_client"] += survivors  # one announcement each
            else:
                expected["online_client_client"] += n * (n - 1)  # peer envelopes
                # each departing client announces itself to each survivor
                expected["online_client_client"] += len(report.dropouts) * survivors
        assert vars(sim.counters) == expected


SIX_SECURE_DP = dict(
    num_clients=6,
    use_security=True,
    use_dp_privacy=True,
    epsilons=[1.0] * 6,
    seeds=[11, 22, 33, 44, 55, 66],
    dataset_sizes=[[20, 20, 20]] * 6,
    data={"kind": "synth", "classes": 3, "features": 5, "rows": 500,
          "separation": 2.5},
)


class TestSerialExecution:
    def test_clients_run_in_name_order_on_the_calling_thread(self, monkeypatch):
        sim = make_simulation(**SIX_SECURE_DP)
        sim.offline_phase()
        seen = []
        produce = ClientAgent.produce_weights

        def spy(self, env):
            seen.append((self.name, threading.active_count()))
            return produce(self, env)

        monkeypatch.setattr(ClientAgent, "produce_weights", spy)
        before = threading.active_count()
        sim.run_round(1)
        assert seen == [(c, before) for c in sorted(sim.client_names)]

    def test_measured_compute_fits_in_round_wall_time(self):
        # enough training per client that concurrent clients would interleave
        sim = make_simulation(
            compute={"client_s": None, "server_s": None},
            train={"local_steps": 300, "learning_rate": 0.5, "l2_alpha": 0.01,
                   "batch_size": 10},
            **SIX_SECURE_DP,
        )
        sim.offline_phase()
        started = time.perf_counter()
        report = sim.run_round(1)
        wall = time.perf_counter() - started
        assert sum(report.compute_s.values()) <= wall


class TestWeightedAveraging:
    SIZES = [[10, 10, 10], [20, 20, 20], [50, 50, 50]]

    def test_weighted_mean_by_dataset_size(self):
        sim = make_simulation(weighted_averaging=True, dataset_sizes=self.SIZES)
        sim.offline_phase()
        sim.run_round(1)
        clean = [sim.directory[c].clean_weights(1) for c in sim.client_names]
        expected = to_float(
            exact_mean([to_exact(w) for w in clean], weights=[10, 20, 50])
        )
        for c in sim.client_names:
            assert np.array_equal(sim.directory[c].federated_weights, expected)

    def test_serverless_weighting_matches_centralized(self):
        central = make_simulation(weighted_averaging=True, dataset_sizes=self.SIZES)
        serverless = make_simulation(
            weighted_averaging=True, dataset_sizes=self.SIZES, topology="serverless"
        )
        central.run()
        serverless.run()
        for c in central.client_names:
            assert np.array_equal(
                central.directory[c].federated_weights,
                serverless.directory[c].federated_weights,
            )

    def test_default_is_unweighted(self):
        sim = make_simulation(dataset_sizes=self.SIZES)
        sim.offline_phase()
        sim.run_round(1)
        clean = [sim.directory[c].clean_weights(1) for c in sim.client_names]
        expected = to_float(exact_mean(clean))
        assert np.array_equal(
            sim.directory["client_agent0"].federated_weights, expected
        )


class TestIncrementalTrend:
    def _final_federated(self, epsilon, trial):
        sim = make_simulation(
            num_iterations=8,
            use_dp_privacy=True,
            mechanism="distributed_laplace",
            dp_placement="distributed",
            epsilons=[epsilon] * 3,
            seeds=[100 + trial, 200 + trial, 300 + trial],
            data_seed=trial,
            dataset_sizes=[[20] * 8] * 3,
            test_size=200,
            data={"kind": "synth", "classes": 4, "features": 8, "rows": 700,
                  "separation": 1.5},
            train={"local_steps": 30, "learning_rate": 0.5, "l2_alpha": 0.01,
                   "batch_size": 20},
        )
        last = sim.run()[-1]
        return float(np.mean([e.federated_accuracy for e in last.evals.values()]))

    def test_less_noise_does_not_hurt_accuracy(self):
        # fresh-data algorithm: median final federated accuracy over paired
        # seeds must not decrease as epsilon grows
        high = np.median([self._final_federated(8.0, t) for t in range(10)])
        low = np.median([self._final_federated(0.1, t) for t in range(10)])
        assert high >= low
