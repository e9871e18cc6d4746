"""Agent framework and simulation lifecycle.

A simulation builds client agents (and, in the centralized topology, one
server agent) and drives them through an offline key exchange followed by
numbered iterations.  All timing is simulated: every message carries a
``sim_time`` stamp computed from declared latencies and compute durations,
never from the wall clock, and each iteration's clock restarts at zero.
Clients compute concurrently in simulated time but run one after another
on the host, in name order.  Each client owns its state and random
streams, and aggregation happens over exact matrices (integer numerators
over a shared denominator, see ``exact``) in name order, so the order of
host execution never shows in the results.  Every message between two
agents passes through ``Simulation._deliver``, which counts it by edge.

Message bodies use a closed set of kinds:

===================  ========================================
kind                 body keys
===================  ========================================
``public_key``       ``value`` (int)
``weights_request``  none
``weights``          ``weights`` (matrix)
``round_start``      none (serverless)
``federated_weights``  ``weights`` (matrix)
``dropouts``         ``dropped`` (list of client names)
===================  ========================================
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from .dp import DpSpec, NoiseRecord, SensitivityParams, perturb_weights
from .exact import exact_mean, to_float
from .masking import MaskSchedule, apply_masks, dh_common_key, dh_generate
from .models import (
    ClientRound,
    Dataset,
    EvalReport,
    TrainConfig,
    client_round_incremental,
    client_round_retrain,
    converged,
    evaluate,
    subtract_own_noise,
    zero_weights,
)

SERVER_NAME = "server_agent0"


class ProtocolError(RuntimeError):
    """An agent was driven outside the lifecycle contract."""


class SimulationError(RuntimeError):
    """A round failed; the message names the offending agent."""


@dataclass(frozen=True)
class Envelope:
    """One inter-agent message with its simulated delivery time."""

    sender: str
    recipient: str
    iteration: int
    body: Mapping[str, Any]
    sim_time: float

    def __post_init__(self) -> None:
        if self.sim_time < 0:
            raise ValueError(f"sim_time must be nonnegative, got {self.sim_time}")


class LatencyTable:
    """Directed (sender, recipient) -> seconds map; missing pairs are errors."""

    def __init__(self, entries: Mapping[tuple[str, str], float]):
        for pair, value in entries.items():
            if value < 0:
                raise ValueError(f"latency for {pair} must be nonnegative, got {value}")
        self._entries = dict(entries)

    @classmethod
    def zeros(cls, names: list[str]) -> "LatencyTable":
        return cls({(a, b): 0.0 for a in names for b in names if a != b})

    def latency(self, sender: str, recipient: str) -> float:
        try:
            return self._entries[(sender, recipient)]
        except KeyError:
            raise SimulationError(
                f"no latency configured for pair ({sender!r}, {recipient!r})"
            ) from None


@dataclass
class MessageCounters:
    """Per-simulation message accounting, split by phase and edge type."""

    offline_client_client: int = 0
    online_client_client: int = 0
    client_server: int = 0
    server_client: int = 0


@dataclass
class IterationReport:
    """Everything observed during one iteration, keyed by client name."""

    iteration: int
    evals: dict[str, EvalReport]
    receipt_sim_time: dict[str, float]
    compute_s: dict[str, float]
    dropouts: list[str] = field(default_factory=list)


def advance_time(
    incoming: list[Envelope], compute_duration: float, outgoing_latency: float
) -> float:
    """Stamp for an outgoing message: max input time + compute + latency."""
    if not incoming:
        raise ValueError("advance_time requires at least one incoming envelope")
    if compute_duration < 0:
        raise ValueError(f"compute duration must be nonnegative, got {compute_duration}")
    if outgoing_latency < 0:
        raise ValueError(f"outgoing latency must be nonnegative, got {outgoing_latency}")
    return max(env.sim_time for env in incoming) + compute_duration + outgoing_latency


def round_sensitivity(
    size_schedule: Mapping[str, list[int]],
    active: list[str],
    iteration: int,
    alpha: float,
    default_k: int | None = None,
) -> SensitivityParams:
    """Sensitivity parameters in force for one iteration's active set.

    ``n`` is the number of active clients and ``k`` the smallest dataset
    size among them this iteration (Chaudhuri, Monteleoni & Sarwate 2011).
    Clients missing from ``size_schedule`` are skipped; when none is
    present, ``k`` falls back to ``default_k``.
    """
    sizes = [size_schedule[c][iteration - 1] for c in active if c in size_schedule]
    if not sizes and default_k is None:
        raise ValueError(f"no dataset sizes known for active set {active}")
    return SensitivityParams(
        n=len(active), k=min(sizes) if sizes else default_k, alpha=alpha
    )


class ClientAgent:
    """A training participant: owns data, weights, noise records and keys.

    Names follow the ``client_agent<k>`` pattern.  Each client derives
    three independent child streams from its seed (training batches, DP
    noise, key generation) so that toggling one feature never perturbs the
    random sequence of another.
    """

    def __init__(
        self,
        name: str,
        datasets: list[Dataset],
        test_set: Dataset,
        n_classes: int,
        train_cfg: TrainConfig,
        algorithm: str,
        seed: int,
        *,
        tolerance: float,
        dp_spec: DpSpec | None = None,
        use_security: bool = False,
        subtract_dp_noise: bool = False,
        weighted_averaging: bool = False,
        size_schedule: Mapping[str, list[int]] | None = None,
        latencies: LatencyTable | None = None,
        compute_override: float | None = None,
    ):
        if algorithm not in ("incremental", "retrain"):
            raise ValueError(f"unknown algorithm {algorithm!r}")
        self.name = name
        self.datasets = datasets
        self.test_set = test_set
        self.train_cfg = train_cfg
        self.algorithm = algorithm
        self.tolerance = tolerance
        self.dp_spec = dp_spec
        self.use_security = use_security
        self.subtract_dp_noise = subtract_dp_noise
        self.weighted_averaging = weighted_averaging
        self.size_schedule = dict(size_schedule or {})
        self.latencies = latencies
        self.compute_override = compute_override

        n_features = test_set.features.shape[1]
        self.active = True
        self.active_view: list[str] = [name]
        self.federated_weights = zero_weights(n_classes, n_features)

        seq = np.random.SeedSequence(seed)
        train_seq, noise_seq, key_seq = seq.spawn(3)
        self._train_rng = np.random.default_rng(train_seq)
        self._noise_rng = np.random.default_rng(noise_seq)
        self._key_rng = np.random.default_rng(key_seq)

        self._keypair = None
        self._peer_publics: dict[str, int] = {}
        self.schedule: MaskSchedule | None = None

        self._clean: dict[int, np.ndarray] = {}
        self._records: dict[int, NoiseRecord] = {}
        self._cache: ClientRound | None = None
        self._compute: dict[int, float] = {}
        self._evals: dict[int, EvalReport] = {}
        self._receipts: dict[int, float] = {}
        self._current_iteration = 0
        self._peer_buffer: dict[int, dict[str, Envelope]] = {}
        self._own_contribution: dict[int, tuple[np.ndarray, float]] = {}

    # -- offline phase ----------------------------------------------------

    def sync_active_view(self, active: list[str]) -> None:
        """Reset this client's view of the active set (sorted by name)."""
        self.active_view = sorted(active)

    def generate_keys(self) -> None:
        self._keypair = dh_generate(self._key_rng)

    def pubkey_envelope(self, peer: str) -> Envelope:
        """Our public value, addressed to ``peer``."""
        if self._keypair is None:
            self.generate_keys()
        return Envelope(
            sender=self.name,
            recipient=peer,
            iteration=0,
            body={"kind": "public_key", "value": self._keypair.public},
            sim_time=0.0,
        )

    def receive_pubkey(self, env: Envelope) -> None:
        if env.sender in self._peer_publics:
            raise ProtocolError(f"duplicate public key from {env.sender!r}")
        self._peer_publics[env.sender] = env.body["value"]

    def initialize_common_keys(self) -> None:
        """Derive one common key per peer in the active view from the
        exchanged public values."""
        assert self._keypair is not None
        missing = set(self.active_view) - {self.name} - set(self._peer_publics)
        if missing:
            raise ProtocolError(f"missing public keys from {sorted(missing)}")
        keys = {
            peer: dh_common_key(self._keypair, public, (self.name, peer))
            for peer, public in self._peer_publics.items()
        }
        self.schedule = MaskSchedule(owner=self.name, keys=keys)

    # -- online phase ----------------------------------------------------

    def _latency(self, sender: str, recipient: str) -> float:
        if self.latencies is None:
            return 0.0
        return self.latencies.latency(sender, recipient)

    def _client_dp(self) -> DpSpec | None:
        # Server-placed noise is added by the server, not here.
        if self.dp_spec is None or self.dp_spec.placement == "global_server":
            return None
        return self.dp_spec

    def _train_and_mask(self, env: Envelope) -> tuple[np.ndarray, float]:
        iteration = env.iteration
        if iteration - 1 >= len(self.datasets):
            raise ProtocolError(
                f"{self.name} has no data for iteration {iteration}"
            )
        data = self.datasets[iteration - 1]
        started = time.perf_counter()
        dp = self._client_dp()
        sens = (
            round_sensitivity(
                self.size_schedule, self.active_view, iteration,
                self.train_cfg.l2_alpha, default_k=len(data),
            )
            if dp is not None
            else None
        )
        if self.algorithm == "incremental":
            result = client_round_incremental(
                self.federated_weights, data, self.train_cfg, dp, sens,
                self._train_rng, self._noise_rng, iteration, self.name,
            )
        else:
            result = client_round_retrain(
                self.federated_weights, data, self._cache, self.tolerance,
                self.train_cfg, dp, sens,
                self._train_rng, self._noise_rng, iteration, self.name,
            )
            self._cache = result
        self._clean[iteration] = result.clean
        self._records[iteration] = result.record
        if self.use_security:
            if self.schedule is None:
                raise ProtocolError(f"{self.name} has no mask schedule")
            outgoing = apply_masks(
                result.weights, self.schedule, self.active_view, iteration
            )
        else:
            outgoing = result.weights
        duration = (
            self.compute_override
            if self.compute_override is not None
            else time.perf_counter() - started
        )
        self._compute[iteration] = duration
        self._current_iteration = iteration
        return outgoing, duration

    def produce_weights(self, env: Envelope) -> Envelope:
        """Train for this iteration and reply with perturbed, masked weights."""
        if not self.active:
            raise ProtocolError(f"inactive client {self.name!r} asked to produce weights")
        outgoing, duration = self._train_and_mask(env)
        reply_time = advance_time([env], duration, self._latency(self.name, env.sender))
        return Envelope(
            sender=self.name,
            recipient=env.sender,
            iteration=env.iteration,
            body={"kind": "weights", "weights": outgoing},
            sim_time=reply_time,
        )

    def receive_weights(self, env: Envelope) -> bool:
        """Accept the federated model; evaluate and report convergence."""
        iteration = env.iteration
        if iteration != self._current_iteration:
            raise ProtocolError(
                f"{self.name} got federated weights for iteration {iteration}, "
                f"expected {self._current_iteration}"
            )
        fed = env.body["weights"]
        record = self._records[iteration]
        if self.subtract_dp_noise:
            fed = subtract_own_noise(fed, record, len(self.active_view))
        fed_f = to_float(fed)
        self.federated_weights = fed_f
        local = self._clean[iteration]
        self._evals[iteration] = EvalReport(
            iteration=iteration,
            local_accuracy=evaluate(local, self.test_set),
            federated_accuracy=evaluate(fed_f, self.test_set),
        )
        del self._records[iteration]
        self._receipts[iteration] = env.sim_time
        return converged(local, fed_f, self.tolerance)

    def remove_active_clients(self, env: Envelope) -> None:
        """End-of-iteration dropout announcement: shrink the active view."""
        dropped = env.body["dropped"]
        self.active_view = [c for c in self.active_view if c not in dropped]

    def retire(self) -> None:
        self.active = False

    # -- serverless topology ----------------------------------------------

    def broadcast_weights(self, env: Envelope) -> dict[str, Envelope]:
        """Train once and stamp one envelope per active peer."""
        if not self.active:
            raise ProtocolError(f"inactive client {self.name!r} asked to broadcast")
        outgoing, duration = self._train_and_mask(env)
        dispatch = env.sim_time + duration
        self._own_contribution[env.iteration] = (outgoing, dispatch)
        envelopes = {}
        for peer in self.active_view:
            if peer == self.name:
                continue
            envelopes[peer] = Envelope(
                sender=self.name,
                recipient=peer,
                iteration=env.iteration,
                body={"kind": "weights", "weights": outgoing},
                sim_time=advance_time([env], duration, self._latency(self.name, peer)),
            )
        return envelopes

    def receive_peer_weights(self, env: Envelope) -> None:
        self._peer_buffer.setdefault(env.iteration, {})[env.sender] = env

    def complete_peer_round(self, iteration: int) -> bool:
        """Average all held contributions locally and run the receive path."""
        own_weights, own_ready = self._own_contribution.pop(iteration)
        received = self._peer_buffer.pop(iteration, {})
        expected = [c for c in self.active_view if c != self.name]
        missing = set(expected) - set(received)
        if missing:
            raise ProtocolError(
                f"{self.name} is missing iteration-{iteration} weights "
                f"from {sorted(missing)}"
            )
        contributions = {self.name: own_weights}
        contributions.update(
            {peer: received[peer].body["weights"] for peer in expected}
        )
        order = sorted(contributions)
        sizes = (
            [self.size_schedule[c][iteration - 1] for c in order]
            if self.weighted_averaging
            else None
        )
        fed = exact_mean([contributions[c] for c in order], weights=sizes)
        receipt = max([own_ready] + [received[p].sim_time for p in expected])
        synthetic = Envelope(
            sender=self.name,
            recipient=self.name,
            iteration=iteration,
            body={"kind": "federated_weights", "weights": fed},
            sim_time=receipt,
        )
        return self.receive_weights(synthetic)

    # -- report accessors -------------------------------------------------

    def eval_report(self, iteration: int) -> EvalReport:
        return self._evals[iteration]

    def compute_duration(self, iteration: int) -> float:
        return self._compute[iteration]

    def receipt_time(self, iteration: int) -> float:
        return self._receipts[iteration]

    def clean_weights(self, iteration: int) -> np.ndarray:
        return self._clean[iteration]


class ServerAgent:
    """Coordinates centralized rounds; trains nothing itself."""

    def __init__(
        self,
        name: str = SERVER_NAME,
        *,
        compute_override: float | None = None,
        global_dp_for: Callable[[list[str]], DpSpec | None] | None = None,
        sens_for: Callable[[int, list[str]], SensitivityParams] | None = None,
        noise_seed: int = 0,
    ):
        self.name = name
        self.compute_override = compute_override
        self.global_dp_for = global_dp_for
        self.sens_for = sens_for
        self._noise_rng = np.random.default_rng(np.random.SeedSequence(noise_seed))

    def aggregate(
        self,
        replies: Mapping[str, Envelope],
        iteration: int,
        active: list[str],
        sizes: list[int] | None = None,
    ) -> np.ndarray:
        """Average the received matrices (canonical order, optionally
        dataset-size weighted), then add server-placed noise if configured."""
        fed = exact_mean(
            [replies[c].body["weights"] for c in sorted(active)], weights=sizes
        )
        spec = self.global_dp_for(active) if self.global_dp_for is not None else None
        if spec is not None:
            sens = self.sens_for(iteration, active) if self.sens_for else None
            if sens is None:
                raise SimulationError("server-placed noise requires sensitivity params")
            fed, _ = perturb_weights(
                fed, spec, sens, self._noise_rng, iteration, self.name
            )
        return fed


class Simulation:
    """Builds the agents from a prepared data split and drives the lifecycle."""

    def __init__(
        self,
        config,
        client_datasets: list[list[Dataset]],
        test_set: Dataset,
    ):
        if len(client_datasets) != config.num_clients:
            raise ValueError(
                f"got datasets for {len(client_datasets)} clients, "
                f"config declares {config.num_clients}"
            )
        for i, per_client in enumerate(client_datasets):
            if len(per_client) < config.num_iterations:
                raise ValueError(
                    f"client_agent{i} has data for {len(per_client)} iterations, "
                    f"config runs {config.num_iterations}"
                )
        self.config = config
        self.counters = MessageCounters()

        names = [f"client_agent{i}" for i in range(config.num_clients)]
        self.client_names = names
        all_names = names + ([SERVER_NAME] if config.topology == "centralized" else [])
        if config.simulate_latencies:
            self.latencies = LatencyTable(config.latency_entries())
        else:
            self.latencies = LatencyTable.zeros(all_names)

        n_classes = self._count_classes(client_datasets, test_set)
        size_schedule = {
            name: [len(ds) for ds in client_datasets[i]]
            for i, name in enumerate(names)
        }

        self.directory: dict[str, Any] = {}
        for i, name in enumerate(names):
            self.directory[name] = ClientAgent(
                name=name,
                datasets=client_datasets[i],
                test_set=test_set,
                n_classes=n_classes,
                train_cfg=config.train_config(),
                algorithm=config.algorithm,
                seed=config.seeds[i],
                tolerance=config.tolerance,
                dp_spec=config.dp_spec_for(i),
                use_security=config.use_security,
                subtract_dp_noise=config.subtract_dp_noise,
                weighted_averaging=config.weighted_averaging,
                size_schedule=size_schedule,
                latencies=self.latencies,
                compute_override=config.client_compute_s,
            )
            self.directory[name].sync_active_view(names)
        self.server: ServerAgent | None = None
        if config.topology == "centralized":
            self.server = ServerAgent(
                compute_override=config.server_compute_s,
                global_dp_for=config.global_dp_for,
                sens_for=lambda iteration, active: round_sensitivity(
                    size_schedule, active, iteration, config.train.l2_alpha
                ),
                noise_seed=config.server_seed,
            )
            self.directory[SERVER_NAME] = self.server
        self.active = sorted(names)
        self._size_schedule = size_schedule

    @staticmethod
    def _count_classes(client_datasets: list[list[Dataset]], test_set: Dataset) -> int:
        top = int(test_set.labels.max()) if len(test_set) else 0
        for per_client in client_datasets:
            for ds in per_client:
                if len(ds):
                    top = max(top, int(ds.labels.max()))
        return top + 1

    # -- message delivery ----------------------------------------------------

    @staticmethod
    def _invoke(name: str, iteration: int, fn: Callable[..., Any], *args: Any) -> Any:
        """Run one agent step; any failure but a ProtocolError is reported
        as a SimulationError naming the agent and the iteration."""
        try:
            return fn(*args)
        except ProtocolError:
            raise
        except Exception as exc:
            raise SimulationError(
                f"agent {name!r} failed during iteration {iteration}: {exc}"
            ) from exc

    def _deliver(self, env: Envelope, handler: str | None = None) -> Any:
        """Count ``env`` by edge and pass it to the recipient's ``handler``.

        Without a handler the envelope is returned to the caller, which
        holds it for the recipient: the round that drives the server
        collects the server's replies.  A self-addressed envelope is not a
        send and is not counted.
        """
        if env.sender != env.recipient:
            if env.iteration == 0:
                edge = "offline_client_client"
            elif env.sender == SERVER_NAME:
                edge = "server_client"
            elif env.recipient == SERVER_NAME:
                edge = "client_server"
            else:
                edge = "online_client_client"
            setattr(self.counters, edge, getattr(self.counters, edge) + 1)
        if handler is None:
            return env
        method = getattr(self.directory[env.recipient], handler)
        return self._invoke(env.recipient, env.iteration, method, env)

    # -- lifecycle ---------------------------------------------------------

    def offline_phase(self) -> None:
        """Diffie-Hellman exchange: after it, every client holds a common
        key for every other client and no further client-client
        communication is needed."""
        if not self.config.use_security:
            return
        clients = [self.directory[name] for name in self.client_names]
        for client in clients:
            client.generate_keys()
        for client in clients:
            for peer in self.client_names:
                if peer != client.name:
                    self._deliver(client.pubkey_envelope(peer), "receive_pubkey")
        for client in clients:
            client.initialize_common_keys()

    def run_round(self, iteration: int, active: list[str] | None = None) -> IterationReport:
        """Drive one full iteration against the given (or current) active set."""
        if active is not None:
            self.active = sorted(active)
            for name in self.active:
                self.directory[name].sync_active_view(self.active)
        if not self.active:
            raise SimulationError("no active clients remain")
        if self.config.topology == "centralized":
            report = self._server_round(iteration, list(self.active))
        else:
            report = self._serverless_round(iteration, list(self.active))
        for name in report.dropouts:
            self.directory[name].retire()
        self.active = [c for c in self.active if c not in report.dropouts]
        return report

    def _server_round(self, iteration: int, active: list[str]) -> IterationReport:
        server = self.server
        assert server is not None
        replies = {}
        for c in active:
            request = Envelope(
                sender=server.name,
                recipient=c,
                iteration=iteration,
                body={"kind": "weights_request"},
                sim_time=self.latencies.latency(server.name, c),
            )
            reply = self._deliver(request, "produce_weights")
            replies[c] = self._deliver(reply)  # held here for the server

        started = time.perf_counter()
        sizes = (
            [self._size_schedule[c][iteration - 1] for c in sorted(active)]
            if self.config.weighted_averaging
            else None
        )
        fed = server.aggregate(replies, iteration, active, sizes=sizes)
        server_dur = (
            server.compute_override
            if server.compute_override is not None
            else time.perf_counter() - started
        )
        incoming = list(replies.values())
        returns = {
            c: Envelope(
                sender=server.name,
                recipient=c,
                iteration=iteration,
                body={"kind": "federated_weights", "weights": fed},
                sim_time=advance_time(
                    incoming, server_dur, self.latencies.latency(server.name, c)
                ),
            )
            for c in active
        }
        flags = {c: self._deliver(returns[c], "receive_weights") for c in active}

        dropouts = (
            sorted(c for c in active if flags[c]) if self.config.client_dropout else []
        )
        if dropouts:
            for c in active:
                if c in dropouts:
                    continue
                announce = Envelope(
                    sender=server.name,
                    recipient=c,
                    iteration=iteration,
                    body={"kind": "dropouts", "dropped": dropouts},
                    sim_time=returns[c].sim_time,
                )
                self._deliver(announce, "remove_active_clients")
        return self._assemble_report(iteration, active, dropouts)

    def _serverless_round(self, iteration: int, active: list[str]) -> IterationReport:
        for c in active:
            start = Envelope(
                sender=c,
                recipient=c,
                iteration=iteration,
                body={"kind": "round_start"},
                sim_time=0.0,
            )
            for env in self._deliver(start, "broadcast_weights").values():
                self._deliver(env, "receive_peer_weights")
        flags = {
            c: self._invoke(c, iteration, self.directory[c].complete_peer_round, iteration)
            for c in active
        }
        dropouts = (
            sorted(c for c in active if flags[c]) if self.config.client_dropout else []
        )
        if dropouts:
            # without a server, each departing client announces itself
            for dropped in dropouts:
                for c in active:
                    if c in dropouts:
                        continue
                    announce = Envelope(
                        sender=dropped,
                        recipient=c,
                        iteration=iteration,
                        body={"kind": "dropouts", "dropped": [dropped]},
                        sim_time=self.directory[c].receipt_time(iteration),
                    )
                    self._deliver(announce, "remove_active_clients")
        return self._assemble_report(iteration, active, dropouts)

    def _assemble_report(
        self, iteration: int, active: list[str], dropouts: list[str]
    ) -> IterationReport:
        return IterationReport(
            iteration=iteration,
            evals={c: self.directory[c].eval_report(iteration) for c in active},
            receipt_sim_time={
                c: self.directory[c].receipt_time(iteration) for c in active
            },
            compute_s={c: self.directory[c].compute_duration(iteration) for c in active},
            dropouts=dropouts,
        )

    def run(self) -> list[IterationReport]:
        """Offline phase, then every configured iteration (stopping early
        once every client has dropped out)."""
        self.offline_phase()
        reports: list[IterationReport] = []
        for iteration in range(1, self.config.num_iterations + 1):
            if not self.active:
                break
            reports.append(self.run_round(iteration))
        return reports


def run_simulation(
    config,
    client_datasets: list[list[Dataset]],
    test_set: Dataset,
) -> list[IterationReport]:
    """Convenience wrapper: build a Simulation from prepared data and run it."""
    return Simulation(config, client_datasets, test_set).run()
