"""Tests for the agent framework, lifecycle, clock and dropout bookkeeping."""

import re
import threading
import time

import numpy as np
import pytest

import fedsim.engine as engine_module
import fedsim.masking as masking_module
import fedsim.models as models_module
from conftest import (
    base_config_dict,
    make_simulation,
    make_skewed_dropout_simulation,
    open_round,
)
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
from fedsim.masking import (
    GROUP_PRIME,
    CommonKey,
    dh_common_key,
    dh_generate,
    power_table,
)
from fedsim.models import evaluate, sgd_train

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
        assert sim.secagg.schedules["client_agent0"].keys == {}

    def test_endpoints_hold_equal_key_material(self):
        sim = make_simulation(use_security=True)
        sim.offline_phase()
        names = sim.client_names
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                key_ab = sim.secagg.schedules[a].key_for(b)
                key_ba = sim.secagg.schedules[b].key_for(a)
                assert key_ab.key_material == key_ba.key_material

    def test_skipped_when_security_disabled(self):
        sim = make_simulation(use_security=False)
        assert sim.secagg is None
        sim.offline_phase()
        assert sim.counters.offline_client_client == 0

    @staticmethod
    def _forge(sim, victim, sender, forge):
        """Make ``victim`` receive ``sender``'s public-key body as ``forge`` rewrites it."""
        receive = sim.secagg.receive

        def receive_forged(env):
            if env.recipient == victim and env.sender == sender:
                env = Envelope(env.sender, env.recipient, 0, forge(env.body), env.sim_time)
            receive(env)

        sim.secagg.receive = receive_forged

    def test_rejected_public_value_names_client_and_iteration(self):
        # client_agent2 takes the pair's key from client_agent0, but checks its value
        sim = make_simulation(use_security=True)
        self._forge(
            sim, "client_agent2", "client_agent0", lambda body: {**body, "value": GROUP_PRIME - 1}
        )
        with pytest.raises(
            SimulationError, match="'client_agent2' failed during iteration 0"
        ):
            sim.offline_phase()

    @pytest.mark.parametrize("n", [3, 4])
    def test_each_pair_derived_once(self, monkeypatch, n):
        # one derivation per pair, one table per raised value, value-only bodies
        sim = make_simulation(
            use_security=True,
            num_clients=n,
            epsilons=[None] * n,
            seeds=list(range(1, n + 1)),
            dataset_sizes=[[20, 20, 20]] * n,
        )
        pairs, tables, bodies = [], [], []

        def derive_spy(own, other_public, pair=("", ""), tables=None):
            pairs.append(pair)
            return dh_common_key(own, other_public, pair, tables)

        def table_spy(base):
            tables.append(base)
            return power_table(base)

        receive = sim.secagg.receive

        def receive_spy(env):
            bodies.append(env.body)
            receive(env)

        monkeypatch.setattr(masking_module, "dh_common_key", derive_spy)
        monkeypatch.setattr(masking_module, "power_table", table_spy)
        sim.secagg.receive = receive_spy
        sim.offline_phase()
        assert len(pairs) == n * (n - 1) // 2
        assert sorted(pairs) == [
            (a, b) for a in sim.client_names for b in sim.client_names if a < b
        ]
        assert len(tables) == n - 1
        assert len(bodies) == sim.counters.offline_client_client == n * (n - 1)
        assert all(set(body) == {"kind", "value"} for body in bodies)

    def test_rejected_public_value_at_deriving_end(self):
        # client_agent0 derives the pair's key from client_agent2's value
        sim = make_simulation(use_security=True)
        self._forge(
            sim, "client_agent0", "client_agent2", lambda body: {**body, "value": GROUP_PRIME - 1}
        )
        with pytest.raises(
            SimulationError, match="'client_agent0' failed during iteration 0"
        ):
            sim.offline_phase()

    def test_key_material_equals_independent_derivation(self, monkeypatch):
        sim = make_simulation(use_security=True)
        keypairs = []

        def spy(rng):
            keypairs.append(dh_generate(rng))
            return keypairs[-1]

        monkeypatch.setattr(masking_module, "dh_generate", spy)
        sim.offline_phase()
        own = dict(zip(sim.client_names, keypairs))
        for a in sim.client_names:
            for b in sim.client_names:
                if a < b:
                    k_ab = dh_common_key(own[a], own[b].public, (a, b))
                    k_ba = dh_common_key(own[b], own[a].public, (b, a))
                    assert k_ab == k_ba
                    assert sim.secagg.schedules[a].key_for(b) == k_ab
                    assert sim.secagg.schedules[b].key_for(a) == k_ab

    @pytest.mark.parametrize("tamper", ["missing", "wrong_pair"])
    def test_handed_key_must_name_the_pair(self, monkeypatch, tamper):
        sim = make_simulation(use_security=True)
        if tamper == "missing":
            # client_agent0 never agrees, so it hands client_agent1 nothing
            agree = sim.secagg.agree
            monkeypatch.setattr(
                sim.secagg, "agree", lambda name: None if name == "client_agent0" else agree(name)
            )
            message = r"was handed common keys for \[\], not \['client_agent0'\]"
        else:
            def derive(own, other_public, pair=("", ""), tables=None):
                key = dh_common_key(own, other_public, pair, tables)
                if key.pair == ("client_agent0", "client_agent1"):
                    key = CommonKey(("client_agent0", "client_agent2"), key.key_material)
                return key

            monkeypatch.setattr(masking_module, "dh_common_key", derive)
            message = r"was handed a common key for \('client_agent0', 'client_agent2'\)"
        with pytest.raises(ProtocolError, match=f"client_agent1 {message}"):
            sim.offline_phase()

    def test_public_key_sent_only_after_generation(self):
        # advertising generates the key pair before it returns the body
        sim = make_simulation(use_security=True)
        with pytest.raises(ProtocolError, match="client_agent0 has no key pair"):
            sim.secagg.agree("client_agent0")
        body, peers = sim.secagg.advertise("client_agent0")
        assert set(body) == {"kind", "value"} and body["kind"] == "public_key"
        assert peers == ["client_agent1", "client_agent2"]
        with pytest.raises(ProtocolError, match="client_agent0 is missing public keys"):
            sim.secagg.agree("client_agent0")

    def test_key_material_dropped_after_agreement(self):
        sim = make_simulation(use_security=True)
        sim.offline_phase()
        # key pairs, peer values, handed keys and power tables are all gone
        kept = ("names", "_seeds", "schedules")
        leftover = {k: v for k, v in vars(sim.secagg).items() if k not in kept}
        assert not any(leftover.values()), leftover
        for name in sim.client_names:
            with pytest.raises(ProtocolError, match="no key pair"):
                sim.secagg.agree(name)
            keys = sim.secagg.schedules[name].keys
            assert sorted(keys) == [c for c in sim.client_names if c != name]
        # the common keys alone still cancel the masks
        sim.run_round(1)
        clean = [sim.directory[c].clean_weights(1) for c in sim.client_names]
        expected = to_float(exact_mean(clean))
        for c in sim.client_names:
            assert np.array_equal(sim.directory[c].federated_weights, expected)

    def test_offline_phase_runs_once(self):
        sim = make_simulation(use_security=True)
        sim.offline_phase()
        with pytest.raises(ProtocolError, match="client_agent0 already advertised"):
            sim.offline_phase()

    def test_mask_refused_before_the_offline_phase(self):
        # the refusal names the client and the iteration it was asked to mask
        sim = make_simulation(use_security=True)
        with pytest.raises(
            ProtocolError, match="client_agent0 has no mask schedule for iteration 1"
        ):
            sim.run_round(1)


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
        trained = open_round(sim, 1)
        request = Envelope(
            "server_agent0", "client_agent1", 1, {"kind": "weights_request"}, 2.0
        )
        reply = sim._send(
            "client_agent1", "server_agent0", 1,
            *client.produce_weights(request, *trained["client_agent1"]),
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
        trained = open_round(sim, 1)
        reply, _ = client.produce_weights(
            Envelope("server_agent0", "client_agent0", 1, {"kind": "weights_request"}, 0.0),
            *trained["client_agent0"],
        )
        body = to_float(reply["weights"])
        assert not np.array_equal(body, client.clean_weights(1))

    def test_receive_rejects_iteration_mismatch(self):
        sim = make_simulation()
        sim.offline_phase()
        client = sim.directory["client_agent0"]
        trained = open_round(sim, 1)
        client.produce_weights(
            Envelope("server_agent0", "client_agent0", 1, {"kind": "weights_request"}, 0.0),
            *trained["client_agent0"],
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
        trained = open_round(sim, 1)
        replies = {
            c: sim.directory[c].produce_weights(requests[c], *trained[c]) for c in names
        }
        records = {c: sim.directory[c]._records[1] for c in names}
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
        trained = open_round(sim, 1)
        reply, _ = client.produce_weights(
            Envelope("server_agent0", "client_agent2", 1, {"kind": "weights_request"}, 0.0),
            *trained["client_agent2"],
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


class TestGridBound:
    """A body outside ``grid_bound`` for the round's n, or a server n * Z
    outside it, fails the round naming the agent and the iteration."""

    @staticmethod
    def _oversize(monkeypatch, sim, name, iteration, value):
        """Hand ``name`` trained weights of ``value`` at ``iteration``."""
        client = sim.directory[name]
        method = "broadcast_weights" if sim.server is None else "produce_weights"
        original = getattr(client, method)

        def send(first, trained=None, seconds=0.0):
            at = first if sim.server is None else first.iteration
            if at == iteration:
                trained = np.full_like(trained, value)
            return original(first, trained, seconds)

        monkeypatch.setattr(client, method, send)

    @pytest.mark.parametrize("topology", ["centralized", "serverless"])
    @pytest.mark.parametrize("security", [False, True])
    def test_oversized_body_names_client_and_iteration(self, monkeypatch, topology, security):
        # three clients: bodies must stay below 2^60, that is |w| < 2^28
        sim = make_simulation(topology=topology, use_security=security)
        self._oversize(monkeypatch, sim, "client_agent1", 2, 2.0**28)
        sim.offline_phase()
        sim.run_round(1)
        with pytest.raises(
            SimulationError,
            match=r"agent 'client_agent1' failed during iteration 2: grid integer "
            r"of magnitude 1152921504606846976 is not below 2\^60, the bound for 3 clients",
        ):
            sim.run_round(2)

    @pytest.mark.parametrize("topology", ["centralized", "serverless"])
    def test_body_just_inside_the_bound_is_sent(self, monkeypatch, topology):
        sim = make_simulation(topology=topology, use_security=True)
        self._oversize(monkeypatch, sim, "client_agent1", 1, 2.0**28 - 2.0**-24)
        sim.offline_phase()
        sim.run_round(1)
        assert np.all(sim.directory["client_agent0"].federated_weights > 2.0**26)

    def test_server_noise_past_the_bound_names_the_server(self):
        # the server forms 3 * Z: Z of about 2^27 breaks 2^60 on the grid
        sizes = [[20, 20, 20]] * 3
        alpha = make_simulation().config.train.l2_alpha
        epsilon = 2.0 / (3 * 20 * alpha) / 2.0**27
        sim = make_simulation(
            use_dp_privacy=True, dp_placement="global_server", mechanism="laplace",
            epsilons=[epsilon] * 3, dataset_sizes=sizes,
        )
        sim.offline_phase()
        with pytest.raises(
            SimulationError,
            match=r"agent 'server_agent0' failed during iteration 1: grid integer "
            r"of magnitude \d+ is not below 2\^60, the bound for 3 clients",
        ):
            sim.run_round(1)


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


SERVERLESS_DP = dict(
    topology="serverless",
    use_dp_privacy=True,
    mechanism="distributed_laplace",
    dp_placement="distributed",
    epsilons=[1.0, 1.0, 1.0],
)


class TestServerlessMean:
    """The host forms each serverless round's mean once, for every client."""

    @pytest.mark.parametrize("subtract", [False, True])
    def test_one_mean_per_round(self, monkeypatch, subtract):
        sim = make_simulation(subtract_dp_noise=subtract, **SERVERLESS_DP)
        calls = []

        def spy(mats, weights=None):
            calls.append(len(mats))
            return exact_mean(mats, weights=weights)

        monkeypatch.setattr(engine_module, "exact_mean", spy)
        sent, records = {}, {}
        for c in sim.client_names:
            client = sim.directory[c]

            def broadcast(
                iteration, *trained, client=client, original=client.broadcast_weights
            ):
                body, ready = original(iteration, *trained)
                sent[client.name] = body["weights"]
                records[client.name] = client._records[iteration]
                return body, ready

            monkeypatch.setattr(client, "broadcast_weights", broadcast)
        sim.offline_phase()
        n = len(sim.client_names)
        for iteration in (1, 2):
            sim.run_round(iteration)
            assert calls == [n] * iteration
            mean = exact_mean([sent[c] for c in sorted(sent)])
            for c in sim.client_names:
                expected = mean - to_exact(records[c]) / n if subtract else mean
                assert np.array_equal(
                    sim.directory[c].federated_weights, to_float(expected)
                )

    def _broadcast(self, sim, iteration):
        """Every client opens, trains and broadcasts by hand; returns the
        bodies' weights."""
        sent = {}
        trained = open_round(sim, iteration)
        for c in sim.client_names:
            body, ready = sim.directory[c].broadcast_weights(iteration, *trained[c])
            sent[c] = body["weights"]
            for peer in sim.client_names:
                if peer != c:
                    sim._send(c, peer, iteration, body, ready, "receive_peer_weights")
        return sent

    def test_missing_peer_envelope_is_named(self):
        sim = make_simulation(**SERVERLESS_DP)
        sim.offline_phase()
        sent = self._broadcast(sim, 1)
        client = sim.directory["client_agent0"]
        del client._peer_buffer[1]["client_agent2"]
        with pytest.raises(ProtocolError, match=r"from \['client_agent2'\]"):
            client.complete_peer_round(1, exact_mean(list(sent.values())), list(sent))

    def test_mean_over_another_set_is_refused(self):
        sim = make_simulation(**SERVERLESS_DP)
        sim.offline_phase()
        sent = self._broadcast(sim, 1)
        two = ["client_agent0", "client_agent1"]
        with pytest.raises(ProtocolError, match="client_agent0 got an iteration-1 mean"):
            sim.directory["client_agent0"].complete_peer_round(
                1, exact_mean([sent[c] for c in two]), two
            )

    def test_lagging_active_view_fails_the_round(self):
        # a client whose view lacks an active peer averages a different set
        # than the round's mean was formed over
        sim = make_simulation(**SERVERLESS_DP)
        sim.offline_phase()
        sim.directory["client_agent1"].sync_active_view(["client_agent0", "client_agent1"])
        with pytest.raises(ProtocolError, match="client_agent1 got an iteration-1 mean"):
            sim.run_round(1)


class TestRoundedMean:
    """Without noise subtraction every client takes the same model, so the
    round rounds the mean to float once; with it, once per client."""

    @pytest.mark.parametrize("topology", ["centralized", "serverless"])
    @pytest.mark.parametrize("subtract", [False, True])
    def test_mean_rounded_once_per_round(self, monkeypatch, topology, subtract):
        sim = make_simulation(
            topology=topology,
            use_dp_privacy=True,
            subtract_dp_noise=subtract,
            mechanism="distributed_laplace",
            dp_placement="distributed",
            epsilons=[1.0, 1.0, 1.0],
        )
        calls = []

        def spy(values):
            calls.append(values)
            return to_float(values)

        monkeypatch.setattr(engine_module, "to_float", spy)
        sim.offline_phase()
        sim.run_round(1)
        assert len(calls) == (3 if subtract else 1)
        if not subtract:
            expected = to_float(calls[0])
            for c in sim.client_names:
                assert np.array_equal(sim.directory[c].federated_weights, expected)


class TestSharedEvaluation:
    """Without noise subtraction every client takes the same model and test
    set, so the round evaluates it once; with it, each client its own.  All
    of a round's models are one stack, evaluated in one call."""

    @pytest.mark.parametrize("topology", ["centralized", "serverless"])
    @pytest.mark.parametrize("subtract", [False, True])
    def test_federated_model_evaluated_once_per_round(self, monkeypatch, topology, subtract):
        kwargs = dict(
            topology=topology,
            use_dp_privacy=True,
            subtract_dp_noise=subtract,
            mechanism="distributed_laplace",
            dp_placement="distributed",
            epsilons=[1.0, 1.0, 1.0],
        )
        plain = make_simulation(**kwargs)
        plain.offline_phase()
        expected = [plain.run_round(i) for i in (1, 2)]
        sim = make_simulation(**kwargs)
        models = []

        def spy(w, test):
            models.append(len(w) if np.ndim(w) == 3 else 1)
            return evaluate(w, test)

        monkeypatch.setattr(engine_module, "evaluate", spy)
        sim.offline_phase()
        for iteration in (1, 2):
            models.clear()
            report = sim.run_round(iteration)
            active = len(sim.client_names)
            assert models == [2 * active if subtract else active + 1]
            assert report == expected[iteration - 1]

    def test_test_set_augmented_once_at_first_use(self, monkeypatch):
        augmented = []
        augment = models_module._augment

        def spy(features):
            augmented.append(features)
            return augment(features)

        monkeypatch.setattr(models_module, "_augment", spy)
        sim = make_simulation()
        features = sim.test_set.features
        sim.offline_phase()
        assert augmented == []
        for iteration in (1, 2, 3):
            sim.run_round(iteration)
        assert len(augmented) == 1 and augmented[0] is features
        assert sim.test_set.features.base is sim.test_set.augmented()


class TestAggregateFailure:
    """The host's aggregate-phase steps fail like agent steps: as a
    SimulationError naming the iteration, and the server when centralized."""

    @staticmethod
    def _fail(*args):
        raise ValueError("mean failed")

    @pytest.mark.parametrize("topology", ["centralized", "serverless"])
    def test_mean_failure_is_named(self, monkeypatch, topology):
        sim = make_simulation(topology=topology, use_security=True)
        sim.offline_phase()
        if topology == "centralized":
            monkeypatch.setattr(sim.server, "aggregate", self._fail)
            where = "agent 'server_agent0'"
        else:
            monkeypatch.setattr(engine_module, "federated_mean", self._fail)
            where = "agents " + re.escape(str(sim.client_names))
        with pytest.raises(
            SimulationError, match=f"{where} failed during iteration 1: mean failed"
        ):
            sim.run_round(1)

    @pytest.mark.parametrize("topology", ["centralized", "serverless"])
    def test_rounding_failure_is_named(self, monkeypatch, topology):
        sim = make_simulation(topology=topology)
        monkeypatch.setattr(engine_module, "to_float", self._fail)
        where = "'server_agent0'"
        if topology == "serverless":
            where = "agents " + re.escape(str(sim.client_names))
        with pytest.raises(
            SimulationError, match=f"{where} failed during iteration 1: mean failed"
        ):
            sim.run_round(1)


class TestActiveListValidation:
    """An explicit active list is checked before any phase runs."""

    @staticmethod
    def _spy_training(monkeypatch):
        opened = []
        job = ClientAgent.training_job

        def spy(self, iteration):
            opened.append(self.name)
            return job(self, iteration)

        monkeypatch.setattr(ClientAgent, "training_job", spy)
        return opened

    def test_repeated_client_is_named(self, monkeypatch):
        sim = make_simulation()
        opened = self._spy_training(monkeypatch)
        with pytest.raises(
            SimulationError, match=r"iteration 1: active list repeats \['client_agent0'\]",
        ):
            sim.run_round(1, ["client_agent0", "client_agent0", "client_agent1"])
        assert opened == []

    def test_unknown_client_is_named(self, monkeypatch):
        sim = make_simulation()
        opened = self._spy_training(monkeypatch)
        with pytest.raises(
            SimulationError,
            match=r"iteration 1: active list names unknown clients \['nobody'\]",
        ):
            sim.run_round(1, ["client_agent0", "nobody"])
        assert opened == []

    def test_retired_client_is_named_before_training(self, monkeypatch):
        sim = make_simulation(tolerance=1e9, client_dropout=True)
        sim.run_round(1)
        assert sim.active == []
        opened = self._spy_training(monkeypatch)
        with pytest.raises(
            SimulationError,
            match=r"iteration 2: active list names retired clients \['client_agent1'\]",
        ):
            sim.run_round(2, ["client_agent1"])
        assert opened == []
        assert sim.active == []
        assert 2 not in sim.directory["client_agent1"]._compute

    def test_empty_round_names_the_iteration(self):
        sim = make_simulation(tolerance=1e9, client_dropout=True)
        sim.run_round(1)
        with pytest.raises(SimulationError, match="iteration 2: no active clients remain"):
            sim.run_round(2)


class TestPhaseOrder:
    """A phase that reaches a client out of order is a ProtocolError naming
    the client and the iteration."""

    REQUEST = Envelope("server_agent0", "client_agent0", 1, {"kind": "weights_request"}, 0.0)
    NOT_OPEN = "client_agent0 has no open iteration-1 round"

    def test_send_without_an_open_round(self):
        client = make_simulation().directory["client_agent0"]
        with pytest.raises(ProtocolError, match=self.NOT_OPEN):
            client.produce_weights(self.REQUEST, client.federated_weights, 0.0)
        with pytest.raises(ProtocolError, match=self.NOT_OPEN):
            client.broadcast_weights(1, client.federated_weights, 0.0)

    def test_second_send_for_one_iteration(self):
        sim = make_simulation()
        client = sim.directory["client_agent0"]
        trained = open_round(sim, 1)
        client.produce_weights(self.REQUEST, *trained["client_agent0"])
        with pytest.raises(ProtocolError, match=self.NOT_OPEN):
            client.produce_weights(self.REQUEST, *trained["client_agent0"])

    def test_accept_for_an_unsent_iteration(self):
        sim = make_simulation()
        client = sim.directory["client_agent0"]
        sim.run_round(1)
        body = {"kind": "federated_weights", "weights": client.federated_weights}
        for iteration in (1, 2):  # accepted already, and never opened
            unsent = f"client_agent0 never sent the iteration-{iteration} round"
            with pytest.raises(ProtocolError, match=unsent):
                client.receive_weights(
                    Envelope("server_agent0", "client_agent0", iteration, body, 0.0)
                )


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

        def spy(self, env, *trained):
            seen.append((self.name, threading.active_count()))
            return produce(self, env, *trained)

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


class TestCohortTraining:
    NAMES = ["client_agent0", "client_agent1", "client_agent2", "client_agent3"]
    RETRAIN = dict(algorithm="retrain", using_cumulative=True)

    def _four_clients(self, **overrides):
        # two row counts, 30 and 60, two clients each
        return make_simulation(
            num_clients=4,
            num_iterations=2,
            seeds=[11, 22, 33, 44],
            epsilons=[None] * 4,
            dataset_sizes=[[30, 30], [30, 30], [60, 60], [60, 60]],
            data={"kind": "synth", "classes": 3, "features": 5, "rows": 600,
                  "separation": 2.5},
            **overrides,
        )

    def _one_cache_hit(self, **overrides):
        """A retrain run in which exactly one client reuses its cache in
        round 2: the tolerance sits between the two smallest distances from
        a client's round-1 weights to the federated model."""
        probe = self._four_clients(tolerance=1e-9, **self.RETRAIN)
        probe.run_round(1)
        (near, hit), (far, _) = sorted(
            (np.max(np.abs(probe.directory[c].federated_weights
                           - probe.directory[c].clean_weights(1))), c)
            for c in probe.client_names
        )[:2]
        assert near < far
        return self._four_clients(tolerance=(near + far) / 2, **self.RETRAIN, **overrides), hit

    @staticmethod
    def _spy_cohorts(monkeypatch, sim):
        """Record the clients of every cohort kernel call, by their data."""
        owner = {id(ds): c for c in sim.client_names for ds in sim.directory[c].datasets}
        calls = []
        kernel = engine_module.sgd_train_cohort

        def spy(jobs, cfg):
            calls.append([owner[id(job.data)] for job in jobs])
            return kernel(jobs, cfg)

        monkeypatch.setattr(engine_module, "sgd_train_cohort", spy)
        return calls

    def test_one_kernel_call_per_row_count_each_round(self, monkeypatch):
        sim = self._four_clients()
        calls = self._spy_cohorts(monkeypatch, sim)
        sim.run()
        by_rows = [self.NAMES[:2], self.NAMES[2:]]
        assert calls == by_rows + by_rows

    def test_cache_hit_client_trains_in_no_cohort(self, monkeypatch):
        sim, hit = self._one_cache_hit()
        calls = self._spy_cohorts(monkeypatch, sim)
        sim.run()
        by_rows = [self.NAMES[:2], self.NAMES[2:]]
        assert calls[:2] == by_rows
        round_two = [[c for c in cohort if c != hit] for cohort in by_rows]
        assert calls[2:] == [cohort for cohort in round_two if cohort]
        client = sim.directory[hit]
        assert np.array_equal(client.clean_weights(2), client.clean_weights(1))

    def test_measured_compute_is_positive_for_every_client(self):
        sim, _ = self._one_cache_hit(compute={"client_s": None, "server_s": None})
        reports = sim.run()
        assert [sorted(r.compute_s) for r in reports] == [self.NAMES, self.NAMES]
        for report in reports:
            assert all(seconds > 0 for seconds in report.compute_s.values())

    def test_cohort_failure_names_iteration_and_every_member(self, monkeypatch):
        sim = self._four_clients()

        def diverged(jobs, cfg):
            raise FloatingPointError("overflow in exp")

        monkeypatch.setattr(engine_module, "sgd_train_cohort", diverged)
        with pytest.raises(SimulationError, match="iteration 1") as caught:
            sim.run_round(1)
        message = str(caught.value)
        assert "'client_agent0', 'client_agent1'" in message
        assert "overflow in exp" in message
        assert "client_agent2" not in message

    def test_cohorts_equal_solo_training(self):
        # sgd_train on a client's own job gives the weights its cohort gave
        sim = self._four_clients()
        sim.run_round(1)
        for c in self.NAMES:
            solo = self._four_clients().directory[c]
            job = solo.training_job(1)
            trained = sgd_train(job.data, job.init, solo.config.train, job.rng)
            solo.produce_weights(Envelope("server_agent0", c, 1, {}, 0.0), trained)
            assert np.array_equal(solo.clean_weights(1), sim.directory[c].clean_weights(1))


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
