"""Agent framework and simulation lifecycle.

A simulation builds client agents (and, in the centralized topology, one
server agent) and drives them through an offline phase followed by
numbered iterations.  With security on, the offline phase runs the setup
of ``masking.SecureAggregation``: the engine delivers the ``public_key``
bodies the protocol returns, n(n - 1) messages, and runs each client's
steps as that client's at iteration 0; clients then mask through the
protocol object, which expands each pair's mask once per round.
Aggregation and evaluation run on the host, and a failure there, like a
failure in an agent step, is a ``SimulationError`` naming the agents and
the iteration.
All timing is simulated: every message carries a
``sim_time`` stamp computed from declared latencies and compute durations,
never from the wall clock, and each iteration's clock restarts at zero.
Clients compute concurrently in simulated time.  ``Simulation.run_round``
drives one list of phases over the active clients in name order: open and
train (clients with one row count train in lock step in one stacked
kernel call, equal to training each alone), send (noise, masks),
aggregate, accept and evaluate (every local and federated model of the
round in one stacked call of ``evaluate``, equal to evaluating each
alone).  The topologies differ only in who aggregates and on which edges
the bodies travel; the host forms a serverless round's mean once, as
every client averages the same bodies, and without noise subtraction
rounds and evaluates the shared model once.  Agents keep only
state that lives across rounds and raise ``ProtocolError`` on a phase out
of order.  Each client owns its random streams and sends int64 integers
on the grid 2^-32, refusing any outside ``grid_bound`` (see ``exact``);
aggregation is integer arithmetic in name order, so the order of host
execution never shows in the results.  Agents return message bodies with
the time they are ready.
``Simulation._send`` builds every message between two agents, stamps it
with its sender's ready time plus the link latency (the offline key
exchange is untimed) and counts it by edge.

Message bodies use a closed set of kinds:

===================  ========================================
kind                 body keys
===================  ========================================
``public_key``       ``value`` (int)
``weights_request``  none
``weights``          ``weights`` (matrix)
``federated_weights``  ``weights`` (matrix)
``dropouts``         ``dropped`` (list of client names)
===================  ========================================
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .dp import Calibration, calibrate, perturb_weights
from .exact import GridMatrix, check_bound, exact_mean, to_float
from .masking import ProtocolError, SecureAggregation
from .models import (
    ClientRound,
    Dataset,
    EvalReport,
    TrainJob,
    converged,
    evaluate,
    finish_round,
    reuse_cached_round,
    sgd_train_cohort,
    subtract_own_noise,
    zero_weights,
)

SERVER_NAME = "server_agent0"
Sent = tuple[dict[str, Any], float]  # a body and the time its sender has it
Accepted = tuple[float, bool]  # receipt time, converged


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


class OpenRound(NamedTuple):
    """What a client carries from opening a round to sending it: the
    round's calibration, the retrain cache's round when it is reused, and
    the host time spent opening."""

    iteration: int
    cal: Calibration | None
    reused: ClientRound | None
    seconds: float


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
) -> GridMatrix:
    """Exact mean of the contributions in name order, weighted by this
    iteration's dataset sizes when ``weighted``."""
    order = sorted(contributions)
    sizes = [size_schedule[c][iteration - 1] for c in order] if weighted else None
    return exact_mean([contributions[c] for c in order], weights=sizes)


def _charged(configured: float | None, started: float, earlier: float = 0.0) -> float:
    """The configured duration, or else ``earlier`` plus the host time since ``started``."""
    return configured if configured is not None else earlier + time.perf_counter() - started


class ClientAgent:
    """A training participant: owns data, weights and noise records.

    Names follow the ``client_agent<k>`` pattern, where ``k`` is the
    client's ``index`` in the configuration.  Every setting is read from
    the run's validated ``SimConfig`` where it is used; the size schedule
    is the simulation's own, shared by all agents.  A client's steps
    return what it sends and when it is ready; the simulation stamps it.
    Each round it asks ``dp.calibrate`` whether and at what calibration it
    adds noise, over its own view of the active set, and the retrain
    cache is keyed on that calibration.
    The client's seed gives independent child streams, so that toggling one
    feature never perturbs the random sequence of another: training batches
    and DP noise come from the first two, and with security on ``secagg``,
    the simulation's protocol object, draws the key pair from the third and
    masks every body the client sends.
    """

    def __init__(
        self,
        name: str,
        index: int,
        config,
        datasets: list[Dataset],
        n_classes: int,
        n_features: int,
        size_schedule: Mapping[str, list[int]],
        secagg: SecureAggregation | None,
    ):
        self.name = name
        self.config = config
        self.datasets = datasets
        self.size_schedule = size_schedule
        self.secagg = secagg

        self.active = True
        self.active_view: list[str] = sorted(config.client_names())
        self.federated_weights = zero_weights(n_classes, n_features)

        seq = np.random.SeedSequence(config.seeds[index])
        train_seq, noise_seq = seq.spawn(2)
        self._train_rng = np.random.default_rng(train_seq)
        self._noise_rng = np.random.default_rng(noise_seq)

        self._clean: dict[int, np.ndarray] = {}
        self._records: dict[int, GridMatrix] = {}
        self._cache: ClientRound | None = None
        self._open: OpenRound | None = None
        self._compute: dict[int, float] = {}
        self._peer_buffer: dict[int, dict[str, Envelope]] = {}

    # -- online phase ----------------------------------------------------

    def sync_active_view(self, active: list[str]) -> None:
        """Reset this client's view of the active set (sorted by name)."""
        self.active_view = sorted(active)

    def training_job(self, iteration: int) -> TrainJob | None:
        """Open this iteration's round: calibrate over the active view and
        return the training it needs, or None when the retrain cache is
        reused.  The simulation trains the job and passes the weights to
        the send step."""
        if iteration - 1 >= len(self.datasets):
            raise ProtocolError(f"{self.name} has no data for iteration {iteration}")
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
        self._open = OpenRound(iteration, cal, reused, time.perf_counter() - started)
        return TrainJob(data, init, self._train_rng) if reused is None else None

    def _perturb_and_mask(
        self, iteration: int, trained: np.ndarray | None, seconds: float
    ) -> Sent:
        """Send the open round: noise the ``trained`` weights (None on a cache
        hit, ``seconds`` to train) and mask them; return the body and duration."""
        if not self.active:
            raise ProtocolError(f"inactive client {self.name!r} asked to send weights")
        cfg, opened = self.config, self._open
        if opened is None or opened.iteration != iteration:
            raise ProtocolError(f"{self.name} has no open iteration-{iteration} round")
        self._open = None
        started = time.perf_counter()
        result = opened.reused
        if result is None:
            result = finish_round(trained, opened.cal, self._noise_rng)
        check_bound(result.weights.total, len(self.active_view))
        if cfg.algorithm == "retrain":
            self._cache = result
        self._clean[iteration] = result.clean
        self._records[iteration] = result.noise
        outgoing = result.weights
        if self.secagg is not None:
            outgoing = self.secagg.mask(self.name, outgoing, self.active_view, iteration)
        duration = _charged(cfg.client_compute_s, started, opened.seconds + seconds)
        self._compute[iteration] = duration
        return {"kind": "weights", "weights": outgoing}, duration

    def produce_weights(
        self, env: Envelope, trained: np.ndarray | None = None, seconds: float = 0.0
    ) -> Sent:
        """Answer the server's request: return the perturbed, masked weights
        and the time they are ready (the request's stamp plus compute)."""
        body, duration = self._perturb_and_mask(env.iteration, trained, seconds)
        return body, env.sim_time + duration

    def receive_weights(self, env: Envelope, shared: np.ndarray | None = None) -> Accepted:
        """Accept the federated model and report convergence."""
        return self._accept(env.iteration, env.body["weights"], env.sim_time, shared)

    def _accept(
        self, iteration: int, fed: Any, receipt: float, shared: np.ndarray | None
    ) -> Accepted:
        """Take the federated model ``fed``, less our noise share with
        ``subtract_dp_noise``, else as ``shared`` (the model rounded) when
        given; return the receipt time and whether we converged.  The
        simulation evaluates the models afterwards."""
        noise = self._records.pop(iteration, None)
        if noise is None:
            raise ProtocolError(f"{self.name} never sent the iteration-{iteration} round")
        if self.config.subtract_dp_noise:
            fed, shared = subtract_own_noise(fed, noise, len(self.active_view)), None
        self.federated_weights = to_float(fed) if shared is None else shared
        local = self._clean[iteration]
        return receipt, converged(local, self.federated_weights, self.config.tolerance)

    def remove_active_clients(self, env: Envelope) -> None:
        """End-of-iteration dropout announcement: shrink the active view."""
        dropped = env.body["dropped"]
        self.active_view = [c for c in self.active_view if c not in dropped]

    def retire(self) -> None:
        self.active = False

    # -- serverless topology ----------------------------------------------

    def broadcast_weights(
        self, iteration: int, trained: np.ndarray | None = None, seconds: float = 0.0
    ) -> Sent:
        """Return the perturbed, masked body for every active peer with
        the time it is ready (the round starts at 0)."""
        return self._perturb_and_mask(iteration, trained, seconds)

    def receive_peer_weights(self, env: Envelope) -> None:
        self._peer_buffer.setdefault(env.iteration, {})[env.sender] = env

    def complete_peer_round(
        self, iteration: int, fed: GridMatrix, contributors: Sequence[str],
        shared: np.ndarray | None = None,
    ) -> Accepted:
        """Take the round's mean of every active client's contribution,
        ours included, and run the receive path.

        The simulation forms ``fed`` once over ``contributors``, since every
        active client averages the same bodies.  The client checks that it
        holds an envelope from every peer in its active view and that the
        mean was formed over exactly that view, takes its receipt time from
        the stamps, then accepts the mean as ``_accept`` does.
        """
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
        own_ready = self._compute.get(iteration, 0.0)  # _accept refuses an unsent round
        receipt = max([own_ready] + [received[p].sim_time for p in expected])
        return self._accept(iteration, fed, receipt, shared)

    # -- report accessors -------------------------------------------------

    def compute_duration(self, iteration: int) -> float:
        return self._compute[iteration]

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
    ) -> GridMatrix:
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
        self.test_set = test_set
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

        seeds = dict(zip(names, config.seeds))
        self.secagg = SecureAggregation(seeds) if config.use_security else None
        self.directory: dict[str, Any] = {}
        for i, name in enumerate(names):
            self.directory[name] = ClientAgent(
                name, i, config, client_datasets[i], n_classes, test_set.features.shape[1],
                size_schedule, self.secagg,
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
    def _invoke(
        name: str | list[str], iteration: int, fn: Callable[..., Any], *args: Any
    ) -> Any:
        """Run one step of an agent, or of a list of agents the host runs
        it for; any failure but a ProtocolError is reported as a
        SimulationError naming the agents and the iteration."""
        try:
            return fn(*args)
        except ProtocolError:
            raise
        except Exception as exc:
            who = f"agent {name!r}" if isinstance(name, str) else f"agents {name}"
            raise SimulationError(f"{who} failed during iteration {iteration}: {exc}") from exc

    def _send(
        self,
        sender: str,
        recipient: str,
        iteration: int,
        body: Mapping[str, Any],
        ready: float,
        handler: str | None = None,
        *args: Any,
    ) -> Any:
        """Stamp one message, count it by edge and deliver it.

        The stamp is ``ready``, the simulated time at which the sender has
        the body, plus the latency from sender to recipient; the offline
        exchange (iteration 0) is untimed and stamped 0.  The envelope is
        passed to the recipient's ``handler``, followed by ``args``, the
        round's values the simulation carries to that step.  Without a
        handler it is returned to the caller, which holds it for the
        recipient: the round collects the server's replies.
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
        return self._invoke(recipient, iteration, method, env, *args)

    # -- lifecycle ---------------------------------------------------------

    def offline_phase(self) -> None:
        """Set up secure aggregation, if the run uses it: send each client's
        public value to every peer, n(n - 1) messages, then let each client
        agree in name order, every step as its client's own at iteration 0."""
        secagg = self.secagg
        if secagg is None:
            return
        for name in secagg.names:
            body, peers = self._invoke(name, 0, secagg.advertise, name)
            for peer in peers:
                self._invoke(peer, 0, secagg.receive, self._send(name, peer, 0, body, 0.0))
        for name in secagg.names:
            self._invoke(name, 0, secagg.agree, name)

    def run_round(self, iteration: int, active: list[str] | None = None) -> IterationReport:
        """Drive one full iteration against the given (or current) active set:
        open and train, send, aggregate and accept, each phase over the
        active clients in name order, then announce the departures."""
        if active is not None:
            # refuse a list that repeats a client or names an unknown or retired one
            known = [c for c in active if c in self.client_names]
            for what, bad in (
                ("repeats", [c for c in active if active.count(c) > 1]),
                ("names unknown clients", [c for c in active if c not in known]),
                ("names retired clients", [c for c in known if not self.directory[c].active]),
            ):
                if bad:
                    raise SimulationError(
                        f"iteration {iteration}: active list {what} {sorted(set(bad))}"
                    )
            self.active = sorted(active)
            for name in self.active:
                self.directory[name].sync_active_view(self.active)
        if not self.active:
            raise SimulationError(f"iteration {iteration}: no active clients remain")
        cfg, server, active = self.config, self.server, list(self.active)
        trained = self._train_cohorts(iteration, active)

        sent, replies = {}, {}
        secagg = self.secagg
        with contextlib.nullcontext() if secagg is None else secagg.round(iteration):
            for c in active:
                if server is None:
                    broadcast = self.directory[c].broadcast_weights
                    body, ready = self._invoke(c, iteration, broadcast, iteration, *trained[c])
                    for peer in active:
                        if peer != c:
                            self._send(c, peer, iteration, body, ready, "receive_peer_weights")
                else:
                    request = {"kind": "weights_request"}
                    body, ready = self._send(
                        SERVER_NAME, c, iteration, request, 0.0, "produce_weights", *trained[c]
                    )
                    # the reply is held for the server
                    replies[c] = self._send(c, SERVER_NAME, iteration, body, ready)
                sent[c] = body["weights"]

        # the host aggregates for the server, or serverless for every active client
        aggregator = active if server is None else SERVER_NAME
        if server is None:
            # every active client averages exactly these bodies: form the mean once
            fed = self._invoke(
                aggregator, iteration, federated_mean,
                sent, iteration, self.size_schedule, cfg.weighted_averaging,
            )
        else:
            started = time.perf_counter()
            fed = self._invoke(aggregator, iteration, server.aggregate, replies, iteration, active)
            server_dur = _charged(cfg.server_compute_s, started)
            ready = max(env.sim_time for env in replies.values()) + server_dur

        # without noise subtraction every client takes the same model: round it once
        shared = None
        if not cfg.subtract_dp_noise:
            shared = self._invoke(aggregator, iteration, to_float, fed)
        body = {"kind": "federated_weights", "weights": fed}
        receipts, flags = {}, {}
        for c in active:
            if server is None:
                complete = self.directory[c].complete_peer_round
                accepted = self._invoke(c, iteration, complete, iteration, fed, active, shared)
            else:
                accepted = self._send(
                    SERVER_NAME, c, iteration, body, ready, "receive_weights", shared
                )
            receipts[c], flags[c] = accepted
        evals = self._evaluate(iteration, active, shared)

        dropouts = sorted(c for c in active if flags[c]) if cfg.client_dropout else []
        survivors = [c for c in active if c not in dropouts]
        if server is None:
            # without a server, each departing client announces itself once it
            # holds the round's model
            announcements = [(c, [c], receipts[c]) for c in dropouts]
        else:
            announcements = [(SERVER_NAME, dropouts, ready)] if dropouts else []
        for sender, dropped, at in announcements:
            announce = {"kind": "dropouts", "dropped": dropped}
            for c in survivors:
                self._send(sender, c, iteration, announce, at, "remove_active_clients")
        for name in dropouts:
            self.directory[name].retire()
        self.active = survivors
        compute = {c: self.directory[c].compute_duration(iteration) for c in active}
        return IterationReport(iteration, evals, receipts, compute, dropouts)

    def _evaluate(
        self, iteration: int, active: list[str], shared: np.ndarray | None
    ) -> dict[str, EvalReport]:
        """Each active client's accuracies on the test set: its local model's
        and its federated model's, or the ``shared`` model's when every
        client took that one.  All the models are one stack, scored in one
        call of ``evaluate``."""
        models = [self.directory[c].clean_weights(iteration) for c in active]
        if shared is None:
            models += [self.directory[c].federated_weights for c in active]
        else:
            models.append(shared)
        accuracy = self._invoke(active, iteration, evaluate, np.stack(models), self.test_set)
        n = len(active)
        return {
            c: EvalReport(iteration, accuracy[i], accuracy[n if shared is not None else n + i])
            for i, c in enumerate(active)
        }

    def _train_cohorts(self, iteration: int, active: list[str]) -> dict[str, tuple]:
        """Open and train the round of every active client; return each
        client's trained weights (None on a cache hit) and seconds.

        Each active client opens its round and returns its training job,
        in name order.  Jobs with one row count form a cohort that trains
        in one call of ``sgd_train_cohort``, and each of its clients is
        charged an equal share of that call's host time.
        """
        jobs = {
            c: self._invoke(c, iteration, self.directory[c].training_job, iteration)
            for c in active
        }
        cohorts: dict[int, list[str]] = {}
        for c, job in jobs.items():
            if job is not None:
                cohorts.setdefault(len(job.data), []).append(c)
        trained = dict.fromkeys(active, (None, 0.0))
        for names in cohorts.values():
            started = time.perf_counter()
            weights = self._invoke(
                names, iteration, sgd_train_cohort, [jobs[c] for c in names], self.config.train
            )
            share = (time.perf_counter() - started) / len(names)
            trained.update((c, (w, share)) for c, w in zip(names, weights))
        return trained

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
