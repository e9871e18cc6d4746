"""Agent framework and simulation lifecycle.

A simulation builds client agents (and, in the centralized topology, one
server agent) and drives them through an offline key exchange followed by
numbered iterations.  All timing is simulated: every message carries a
``sim_time`` stamp computed from declared latencies and compute durations,
never from the wall clock, and each iteration's clock restarts at zero.
Clients compute concurrently in simulated time.  On the host, a round
first trains its clients together: clients with the same row count train
in lock step in one stacked kernel call, with weights equal to training
each alone; then each client, in name order, adds its noise and masks
and sends.  Each client owns its state and random streams, and
aggregation happens over exact matrices (integer numerators over a
shared denominator, see ``exact``) in name order, so the order of host
execution never shows in the results.  In the serverless topology every
active client averages the same broadcast bodies, so the host forms each
round's mean once and hands it to every client.  Agents return message
bodies with the time they are ready.  ``Simulation._send`` builds every
message between two agents, stamps it with its sender's ready time plus
the link latency (the offline key exchange is untimed) and counts it by
edge.

Message bodies use a closed set of kinds:

===================  ========================================
kind                 body keys
===================  ========================================
``public_key``       ``value`` (int), ``powers`` (its power table)
``weights_request``  none
``weights``          ``weights`` (matrix)
``federated_weights``  ``weights`` (matrix)
``dropouts``         ``dropped`` (list of client names)
===================  ========================================
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .dp import Calibration, calibrate, perturb_weights
from .exact import ExactMatrix, exact_mean, to_float
from .masking import MaskSchedule, apply_masks, dh_common_key, dh_generate
from .models import (
    ClientRound,
    Dataset,
    EvalReport,
    TrainJob,
    converged,
    evaluate,
    finish_round,
    reuse_cached_round,
    sgd_train,
    sgd_train_cohort,
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
class PendingRound:
    """A client's round between its training job and what it sends.

    ``job`` is None when ``reused`` holds the retrain cache's round.
    ``weights`` are the trained weights once they are handed back, and
    ``seconds`` the host time charged to the client so far.
    """

    iteration: int
    cal: Calibration | None
    job: TrainJob | None
    reused: ClientRound | None
    seconds: float
    weights: np.ndarray | None = None


@dataclass
class IterationReport:
    """Everything observed during one iteration, keyed by client name."""

    iteration: int
    evals: dict[str, EvalReport]
    receipt_sim_time: dict[str, float]
    compute_s: dict[str, float]
    dropouts: list[str] = field(default_factory=list)


def federated_mean(
    contributions: Mapping[str, Any],
    iteration: int,
    size_schedule: Mapping[str, list[int]],
    weighted: bool,
) -> ExactMatrix:
    """Exact mean of the contributions in name order, weighted by this
    iteration's dataset sizes when ``weighted``."""
    order = sorted(contributions)
    sizes = [size_schedule[c][iteration - 1] for c in order] if weighted else None
    return exact_mean([contributions[c] for c in order], weights=sizes)


class ClientAgent:
    """A training participant: owns data, weights, noise records and keys.

    Names follow the ``client_agent<k>`` pattern, where ``k`` is the
    client's ``index`` in the configuration.  Every setting is read from
    the run's validated ``SimConfig`` where it is used; the size schedule
    is the simulation's own, shared by all agents.  A client's steps
    return what it sends and when it is ready; the simulation stamps it.
    Each round it asks ``dp.calibrate`` whether and at what calibration it
    adds noise, over its own view of the active set, and the retrain
    cache is keyed on that calibration.
    Each client derives three independent child streams from its seed
    (training batches, DP noise, key generation) so that toggling one
    feature never perturbs the random sequence of another.
    """

    def __init__(
        self,
        name: str,
        index: int,
        config,
        datasets: list[Dataset],
        test_set: Dataset,
        n_classes: int,
        size_schedule: Mapping[str, list[int]],
    ):
        self.name = name
        self.config = config
        self.datasets = datasets
        self.test_set = test_set
        self.size_schedule = size_schedule

        n_features = test_set.features.shape[1]
        self.active = True
        self.active_view: list[str] = sorted(config.client_names())
        self.federated_weights = zero_weights(n_classes, n_features)

        seq = np.random.SeedSequence(config.seeds[index])
        train_seq, noise_seq, key_seq = seq.spawn(3)
        self._train_rng = np.random.default_rng(train_seq)
        self._noise_rng = np.random.default_rng(noise_seq)
        self._key_rng = np.random.default_rng(key_seq)

        self._keypair = None
        self._peer_publics: dict[str, tuple[int, tuple[int, ...]]] = {}
        self.schedule: MaskSchedule | None = None

        self._clean: dict[int, np.ndarray] = {}
        self._records: dict[int, np.ndarray] = {}
        self._cache: ClientRound | None = None
        self._pending: PendingRound | None = None
        self._compute: dict[int, float] = {}
        self._evals: dict[int, EvalReport] = {}
        self._receipts: dict[int, float] = {}
        self._current_iteration = 0
        self._peer_buffer: dict[int, dict[str, Envelope]] = {}
        self._own_ready: dict[int, float] = {}

    # -- offline phase ----------------------------------------------------

    def sync_active_view(self, active: list[str]) -> None:
        """Reset this client's view of the active set (sorted by name)."""
        self.active_view = sorted(active)

    def generate_keys(self) -> None:
        self._keypair = dh_generate(self._key_rng)

    def public_key(self) -> dict[str, Any]:
        """Our public value and its power table, the body sent to every peer."""
        if self._keypair is None:
            raise ProtocolError(f"{self.name} has no key pair to send")
        return {
            "kind": "public_key",
            "value": self._keypair.public,
            "powers": self._keypair.powers,
        }

    def receive_pubkey(self, env: Envelope) -> None:
        if env.sender in self._peer_publics:
            raise ProtocolError(f"duplicate public key from {env.sender!r}")
        self._peer_publics[env.sender] = (env.body["value"], env.body["powers"])

    def initialize_common_keys(self) -> None:
        """Derive one common key per peer in the active view from the
        exchanged public values, then drop the key pair and the peers'
        public values: nothing reads them after the agreement."""
        if self._keypair is None:
            raise ProtocolError(f"{self.name} has no key pair")
        missing = set(self.active_view) - {self.name} - set(self._peer_publics)
        if missing:
            raise ProtocolError(f"missing public keys from {sorted(missing)}")
        keys = {
            peer: dh_common_key(self._keypair, public, (self.name, peer), powers=powers)
            for peer, (public, powers) in self._peer_publics.items()
        }
        self.schedule = MaskSchedule(owner=self.name, keys=keys)
        self._keypair = None
        self._peer_publics = {}

    # -- online phase ----------------------------------------------------

    def training_job(self, iteration: int) -> TrainJob | None:
        """Open this iteration's round: calibrate over the active view and
        return the training it needs, or None when the retrain cache is
        reused.  The simulation trains the job and hands the weights back
        through ``take_trained``."""
        if iteration - 1 >= len(self.datasets):
            raise ProtocolError(
                f"{self.name} has no data for iteration {iteration}"
            )
        started = time.perf_counter()
        cfg = self.config
        cal = calibrate(cfg, self.size_schedule, self.active_view, iteration, self.name)
        data = self.datasets[iteration - 1]
        reused = None
        if cfg.algorithm == "incremental":
            init = self.federated_weights
        else:
            reused = reuse_cached_round(
                self.federated_weights, self._cache, cfg.tolerance, cal
            )
            init = np.zeros_like(self.federated_weights)
        job = TrainJob(data, init, self._train_rng) if reused is None else None
        self._pending = PendingRound(
            iteration, cal, job, reused, time.perf_counter() - started
        )
        return job

    def take_trained(self, iteration: int, weights: np.ndarray, seconds: float) -> None:
        """Accept the trained weights of this iteration's job, with the
        host time its training is charged."""
        pending = self._pending
        if pending is None or pending.iteration != iteration or pending.job is None:
            raise ProtocolError(f"{self.name} has no iteration-{iteration} job to train")
        pending.weights = weights
        pending.seconds += seconds

    def _train_and_mask(self, iteration: int) -> tuple[np.ndarray, float]:
        cfg = self.config
        pending = self._pending
        if pending is None or pending.iteration != iteration:
            # driven on its own rather than by Simulation.run_round
            job = self.training_job(iteration)
            if job is not None:
                started = time.perf_counter()
                weights = sgd_train(job.data, job.init, cfg.train, job.rng)
                self.take_trained(iteration, weights, time.perf_counter() - started)
            pending = self._pending
        self._pending = None
        started = time.perf_counter()
        if pending.reused is not None:
            result = pending.reused
        else:
            result = finish_round(pending.weights, pending.cal, self._noise_rng)
        if cfg.algorithm == "retrain":
            self._cache = result
        self._clean[iteration] = result.clean
        self._records[iteration] = result.record
        if cfg.use_security:
            if self.schedule is None:
                raise ProtocolError(f"{self.name} has no mask schedule")
            outgoing = apply_masks(
                result.weights, self.schedule, self.active_view, iteration
            )
        else:
            outgoing = result.weights
        duration = (
            cfg.client_compute_s
            if cfg.client_compute_s is not None
            else pending.seconds + time.perf_counter() - started
        )
        self._compute[iteration] = duration
        self._current_iteration = iteration
        return outgoing, duration

    def produce_weights(self, env: Envelope) -> tuple[dict[str, Any], float]:
        """Train for this iteration; return the perturbed, masked weights
        and the time they are ready (the request's stamp plus compute)."""
        if not self.active:
            raise ProtocolError(f"inactive client {self.name!r} asked to produce weights")
        outgoing, duration = self._train_and_mask(env.iteration)
        return {"kind": "weights", "weights": outgoing}, env.sim_time + duration

    def receive_weights(self, env: Envelope) -> bool:
        """Accept the federated model; evaluate and report convergence."""
        return self._accept(env.iteration, env.body["weights"], env.sim_time)

    def _accept(self, iteration: int, fed: Any, receipt: float) -> bool:
        if iteration != self._current_iteration:
            raise ProtocolError(
                f"{self.name} got federated weights for iteration {iteration}, "
                f"expected {self._current_iteration}"
            )
        record = self._records.pop(iteration)
        if self.config.subtract_dp_noise:
            fed = subtract_own_noise(fed, record, len(self.active_view))
        fed_f = to_float(fed)
        self.federated_weights = fed_f
        local = self._clean[iteration]
        self._evals[iteration] = EvalReport(
            iteration=iteration,
            local_accuracy=evaluate(local, self.test_set),
            federated_accuracy=evaluate(fed_f, self.test_set),
        )
        self._receipts[iteration] = receipt
        return converged(local, fed_f, self.config.tolerance)

    def remove_active_clients(self, env: Envelope) -> None:
        """End-of-iteration dropout announcement: shrink the active view."""
        dropped = env.body["dropped"]
        self.active_view = [c for c in self.active_view if c not in dropped]

    def retire(self) -> None:
        self.active = False

    # -- serverless topology ----------------------------------------------

    def broadcast_weights(self, iteration: int) -> tuple[dict[str, Any], float]:
        """Train once and return the body for every active peer with the
        time it is ready (the round starts at 0)."""
        if not self.active:
            raise ProtocolError(f"inactive client {self.name!r} asked to broadcast")
        outgoing, duration = self._train_and_mask(iteration)
        self._own_ready[iteration] = duration
        return {"kind": "weights", "weights": outgoing}, duration

    def receive_peer_weights(self, env: Envelope) -> None:
        self._peer_buffer.setdefault(env.iteration, {})[env.sender] = env

    def complete_peer_round(
        self, iteration: int, fed: ExactMatrix, contributors: Sequence[str]
    ) -> bool:
        """Take the round's mean of every active client's contribution,
        ours included, and run the receive path.

        The simulation forms ``fed`` once over ``contributors``, since every
        active client averages the same bodies.  The client checks that it
        holds an envelope from every peer in its active view and that the
        mean was formed over exactly that view, takes its receipt time from
        the stamps, then subtracts its own noise, evaluates and tests
        convergence.
        """
        own_ready = self._own_ready.pop(iteration)
        received = self._peer_buffer.pop(iteration, {})
        expected = [c for c in self.active_view if c != self.name]
        missing = set(expected) - set(received)
        if missing:
            raise ProtocolError(
                f"{self.name} is missing iteration-{iteration} weights "
                f"from {sorted(missing)}"
            )
        if sorted(contributors) != self.active_view:
            raise ProtocolError(
                f"{self.name} got an iteration-{iteration} mean over "
                f"{sorted(contributors)}, not its active view {self.active_view}"
            )
        receipt = max([own_ready] + [received[p].sim_time for p in expected])
        return self._accept(iteration, fed, receipt)

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
    """Coordinates centralized rounds; trains nothing itself.

    Like the clients, it reads the run's ``SimConfig`` and shares the
    simulation's one size schedule; the simulation stamps every envelope
    from its one latency table.  ``dp.calibrate`` decides whether it
    adds noise to the mean; its noise stream is seeded from
    ``config.server_seed``.
    """

    def __init__(self, config, size_schedule: Mapping[str, list[int]]):
        self.name = SERVER_NAME
        self.config = config
        self.size_schedule = size_schedule
        self._noise_rng = np.random.default_rng(np.random.SeedSequence(config.server_seed))

    def aggregate(
        self,
        replies: Mapping[str, Envelope],
        iteration: int,
        active: list[str],
    ) -> ExactMatrix:
        """Average the received matrices (canonical order, optionally
        dataset-size weighted), then add server-placed noise, if any."""
        fed = federated_mean(
            {c: replies[c].body["weights"] for c in active},
            iteration, self.size_schedule, self.config.weighted_averaging,
        )
        cal = calibrate(self.config, self.size_schedule, active, iteration)
        if cal is not None:
            fed, _ = perturb_weights(fed, cal, self._noise_rng)
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

        names = config.client_names()
        self.client_names = names
        all_names = names + ([SERVER_NAME] if config.topology == "centralized" else [])
        if config.simulate_latencies:
            self.latencies = LatencyTable(config.latency_entries())
        else:
            self.latencies = LatencyTable.zeros(all_names)

        n_classes = self._count_classes(client_datasets, test_set)
        # one size schedule, shared by every agent and the serverless mean
        self.size_schedule = size_schedule = {
            name: [len(ds) for ds in client_datasets[i]]
            for i, name in enumerate(names)
        }

        self.directory: dict[str, Any] = {}
        for i, name in enumerate(names):
            self.directory[name] = ClientAgent(
                name, i, config, client_datasets[i], test_set, n_classes, size_schedule
            )
        self.server: ServerAgent | None = None
        if config.topology == "centralized":
            self.server = ServerAgent(config, size_schedule)
            self.directory[SERVER_NAME] = self.server
        self.active = sorted(names)

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

    def _send(
        self,
        sender: str,
        recipient: str,
        iteration: int,
        body: Mapping[str, Any],
        ready: float,
        handler: str | None = None,
    ) -> Any:
        """Stamp one message, count it by edge and deliver it.

        The stamp is ``ready``, the simulated time at which the sender has
        the body, plus the latency from sender to recipient; the offline
        exchange (iteration 0) is untimed and stamped 0.  The envelope is
        passed to the recipient's ``handler``, or, without one, returned
        to the caller, which holds it for the recipient: the round that
        drives the server collects the server's replies.
        """
        if iteration == 0:
            sim_time = 0.0
            edge = "offline_client_client"
        else:
            sim_time = ready + self.latencies.latency(sender, recipient)
            if sender == SERVER_NAME:
                edge = "server_client"
            elif recipient == SERVER_NAME:
                edge = "client_server"
            else:
                edge = "online_client_client"
        setattr(self.counters, edge, getattr(self.counters, edge) + 1)
        env = Envelope(sender, recipient, iteration, body, sim_time)
        if handler is None:
            return env
        method = getattr(self.directory[recipient], handler)
        return self._invoke(recipient, iteration, method, env)

    # -- lifecycle ---------------------------------------------------------

    def offline_phase(self) -> None:
        """Diffie-Hellman exchange: after it, every client holds a common
        key for every other client and no further client-client
        communication is needed."""
        if not self.config.use_security:
            return
        clients = [self.directory[name] for name in self.client_names]
        for client in clients:
            self._invoke(client.name, 0, client.generate_keys)
        for client in clients:
            body = client.public_key()
            for peer in self.client_names:
                if peer != client.name:
                    self._send(client.name, peer, 0, body, 0.0, "receive_pubkey")
        for client in clients:
            self._invoke(client.name, 0, client.initialize_common_keys)

    def run_round(self, iteration: int, active: list[str] | None = None) -> IterationReport:
        """Drive one full iteration against the given (or current) active set."""
        if active is not None:
            self.active = sorted(active)
            for name in self.active:
                self.directory[name].sync_active_view(self.active)
        if not self.active:
            raise SimulationError("no active clients remain")
        self._train_cohorts(iteration, list(self.active))
        if self.config.topology == "centralized":
            report = self._server_round(iteration, list(self.active))
        else:
            report = self._serverless_round(iteration, list(self.active))
        for name in report.dropouts:
            self.directory[name].retire()
        self.active = [c for c in self.active if c not in report.dropouts]
        return report

    def _train_cohorts(self, iteration: int, active: list[str]) -> None:
        """Train the round's clients before it is dispatched.

        Each active client returns its training job, in name order.  Jobs
        with one row count form a cohort that trains in one call of
        ``sgd_train_cohort``, and each of its clients is charged an equal
        share of that call's host time.  A cache-hit client has no job.
        """
        jobs = {}
        for c in active:
            job = self._invoke(c, iteration, self.directory[c].training_job, iteration)
            if job is not None:
                jobs[c] = job
        cohorts: dict[int, list[str]] = {}
        for c, job in jobs.items():
            cohorts.setdefault(len(job.data), []).append(c)
        for names in cohorts.values():
            started = time.perf_counter()
            try:
                trained = sgd_train_cohort([jobs[c] for c in names], self.config.train)
            except Exception as exc:
                raise SimulationError(
                    f"agents {names} failed during iteration {iteration}: {exc}"
                ) from exc
            share = (time.perf_counter() - started) / len(names)
            for c, weights in zip(names, trained):
                self.directory[c].take_trained(iteration, weights, share)

    def _server_round(self, iteration: int, active: list[str]) -> IterationReport:
        server = self.server
        assert server is not None
        replies = {}
        for c in active:
            request = {"kind": "weights_request"}
            reply = self._send(server.name, c, iteration, request, 0.0, "produce_weights")
            replies[c] = self._send(c, server.name, iteration, *reply)  # held for the server

        started = time.perf_counter()
        fed = server.aggregate(replies, iteration, active)
        server_dur = (
            self.config.server_compute_s
            if self.config.server_compute_s is not None
            else time.perf_counter() - started
        )
        ready = max(env.sim_time for env in replies.values()) + server_dur
        body = {"kind": "federated_weights", "weights": fed}
        flags = {
            c: self._send(server.name, c, iteration, body, ready, "receive_weights")
            for c in active
        }

        dropouts = (
            sorted(c for c in active if flags[c]) if self.config.client_dropout else []
        )
        if dropouts:
            announce = {"kind": "dropouts", "dropped": dropouts}
            for c in active:
                if c not in dropouts:
                    self._send(
                        server.name, c, iteration, announce, ready, "remove_active_clients"
                    )
        return self._assemble_report(iteration, active, dropouts)

    def _serverless_round(self, iteration: int, active: list[str]) -> IterationReport:
        sent = {}
        for c in active:
            body, ready = self._invoke(
                c, iteration, self.directory[c].broadcast_weights, iteration
            )
            sent[c] = body["weights"]
            for peer in active:
                if peer != c:
                    self._send(c, peer, iteration, body, ready, "receive_peer_weights")
        # every active client averages exactly these bodies: form the mean once
        fed = federated_mean(
            sent, iteration, self.size_schedule, self.config.weighted_averaging
        )
        flags = {
            c: self._invoke(
                c, iteration, self.directory[c].complete_peer_round,
                iteration, fed, active,
            )
            for c in active
        }
        dropouts = (
            sorted(c for c in active if flags[c]) if self.config.client_dropout else []
        )
        # without a server, each departing client announces itself once it
        # holds the round's model
        for dropped in dropouts:
            announce = {"kind": "dropouts", "dropped": [dropped]}
            ready = self.directory[dropped].receipt_time(iteration)
            for c in active:
                if c not in dropouts:
                    self._send(dropped, c, iteration, announce, ready, "remove_active_clients")
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
