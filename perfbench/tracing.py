"""Spans around fedsim's public functions, recorded from outside the program.

A :class:`Tracer` replaces public functions and methods with timing
wrappers for the duration of one simulation and restores them afterwards.
Functions are patched at every module that holds a reference to them, not
only at their defining module: ``fedsim.engine`` imports ``apply_masks``,
``exact_mean``, ``perturb_weights`` and others by name, so patching only
``fedsim.masking`` would miss the engine's calls.

Each span records wall time (``time.perf_counter``) and the calling
thread's CPU time (``time.thread_time``).  The client thread pool runs
client calls concurrently, so wall-clock spans overlap; busy time is the
CPU time of the thread that ran the span, and wait time is wall time minus
busy time.  A span's self time is its busy time minus the busy time of its
child spans on the same thread.  Pool threads start with an empty span
stack, so a span opened there takes the open ``run_round`` span as its
parent.  Client calls are counted at the top level only:
``complete_peer_round`` ends by calling ``receive_weights``, and that inner
call opens no second ``engine.client_call`` span, so its work is counted
once.

Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, NamedTuple

import numpy as np

Count = Callable[[tuple, dict, Any], int]


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    thread: int
    t0: float
    t1: float
    busy: float
    count: int
    threads: int  # live threads other than the main one, sampled at entry; 0 if unsampled

    @property
    def wall(self) -> float:
        return self.t1 - self.t0


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _lifted(args, kwargs, result) -> int:
    arr = np.asarray(_arg(args, kwargs, 0, "values"))
    return 0 if arr.dtype == object else arr.size


def _elements(args, kwargs, result) -> int:
    return int(np.prod(_arg(args, kwargs, 2, "shape")))


def _matrices(args, kwargs, result) -> int:
    return len(_arg(args, kwargs, 0, "mats"))


def _steps(args, kwargs, result) -> int:
    return _arg(args, kwargs, 2, "cfg").local_steps


def _rows(args, kwargs, result) -> int:
    return len(_arg(args, kwargs, 1, "test"))


def _cache_hit(args, kwargs, result) -> int:
    # client_round_retrain returns (weights, record, retrained)
    return 0 if result[2] else 1


# Public functions traced per layer, with what a span counts beyond calls.
FUNCTIONS: dict[str, dict[str, Count | None]] = {
    "config": {"config_from_dict": None, "build_inputs": None, "emit_reports": None},
    "masking": {
        "dh_generate": None, "dh_common_key": None,
        "apply_masks": None, "mask_tensor": _elements,
    },
    "exact": {"to_exact": _lifted, "to_float": None, "exact_mean": _matrices},
    "dp": {"perturb_weights": None},
    "models": {
        "sgd_train": _steps, "evaluate": _rows, "subtract_own_noise": None,
        "converged": None, "client_round_retrain": _cache_hit,
    },
}

# The ClientAgent methods a round drives; all share one span name.
CLIENT_CALLS = ("produce_weights", "receive_weights", "broadcast_weights", "complete_peer_round")


class Tracer:
    """Records spans for one simulation while :meth:`installed` is active.

    With ``full=False`` only the two lifecycle phases are wrapped
    (``Simulation.offline_phase`` and ``Simulation.run_round``), which is
    what the untraced runs use to split host time into phases.
    """

    def __init__(self, full: bool):
        self.full = full
        self.spans: list[Span] = []
        self.simulation: Any = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._anchor: int | None = None

    def _wrap(
        self,
        name: str,
        fn: Callable,
        count: Count | None = None,
        *,
        anchor: bool = False,
        sample_threads: bool = False,
        keep_self: bool = False,
        outermost: bool = False,
    ) -> Callable:
        """``fn`` wrapped to record a span named ``name``.

        With ``outermost``, a call made while this thread's innermost open
        span already has ``name`` records no span of its own.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            if outermost and stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else tracer._anchor
            span_id = next(tracer._ids)
            if keep_self:
                tracer.simulation = args[0]
            threads = threading.active_count() - 1 if sample_threads else 0
            stack.append((span_id, name))
            if anchor:
                outer, tracer._anchor = tracer._anchor, span_id
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                busy = time.thread_time() - c0
                stack.pop()
                if anchor:
                    tracer._anchor = outer
            n = count(args, kwargs, result) if count is not None else 0
            tracer.spans.append(
                Span(span_id, parent, name, threading.get_ident(), t0, t1, busy, n, threads)
            )
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch fedsim for the duration of the block, then restore it."""
        engine = importlib.import_module("fedsim.engine")
        sim, server, client = engine.Simulation, engine.ServerAgent, engine.ClientAgent
        saved: list[tuple[Any, str, Any]] = []

        def patch(owner: Any, attr: str, wrapper: Callable) -> None:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

        patch(sim, "offline_phase",
              self._wrap("engine.offline_phase", sim.offline_phase, keep_self=True))
        patch(sim, "run_round", self._wrap("engine.run_round", sim.run_round, anchor=True))
        if self.full:
            patch(sim, "__init__", self._wrap("engine.Simulation.init", sim.__init__))
            patch(server, "aggregate", self._wrap("engine.ServerAgent.aggregate", server.aggregate))
            for method in CLIENT_CALLS:
                patch(client, method, self._wrap(
                    "engine.client_call", getattr(client, method),
                    sample_threads=True, outermost=True))
            wrappers = {}
            for layer, names in FUNCTIONS.items():
                module = importlib.import_module(f"fedsim.{layer}")
                for fname, count in names.items():
                    fn = getattr(module, fname)
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn, count))
            modules = [m for key, m in sys.modules.items()
                       if key == "fedsim" or key.startswith("fedsim.")]
            for module in modules:
                for attr, value in list(vars(module).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        patch(module, attr, hit[1])
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def first(self, name: str) -> Span:
        return next(s for s in self.spans if s.name == name)

    def walls(self, name: str) -> list[float]:
        return [s.wall for s in self.spans if s.name == name]

    def layer_metrics(self, client_rounds: int, weight_size: int) -> dict[str, float]:
        """Per-layer totals for the simulation this tracer recorded."""
        thread_of = {s.id: s.thread for s in self.spans}
        child_busy: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None and thread_of.get(s.parent) == s.thread:
                child_busy[s.parent] += s.busy
        calls: dict[str, int] = defaultdict(int)
        counted: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for s in self.spans:
            calls[s.name] += 1
            counted[s.name] += s.count
            self_s[s.name] += s.busy - child_busy[s.id]

        out: dict[str, float] = {}
        for name in ("config.config_from_dict", "config.build_inputs", "config.emit_reports",
                     "engine.Simulation.init", "engine.offline_phase", "engine.run_round",
                     "engine.ServerAgent.aggregate", "models.converged"):
            out[f"{name}.s"] = self_s[name]
        out["engine.offline_phase.wall_s"] = sum(self.walls("engine.offline_phase"))

        client = [s for s in self.spans if s.name == "engine.client_call"]
        busy = sum(s.busy for s in client)
        wall = sum(s.wall for s in client)
        out["engine.client_call.calls"] = len(client)
        out["engine.client_call.busy_s"] = busy
        out["engine.client_call.wait_s"] = wall - busy
        out["engine.client_call.wait_share"] = (wall - busy) / wall if wall > 0 else 0.0
        out["engine.threads.peak"] = max((s.threads for s in client), default=0)
        counters = self.simulation.counters
        for edge in ("offline_client_client", "online_client_client",
                     "client_server", "server_client"):
            out[f"engine.messages.{edge}"] = getattr(counters, edge)

        for name in ("masking.dh_generate", "masking.dh_common_key", "masking.apply_masks",
                     "masking.mask_tensor", "exact.to_exact", "exact.to_float",
                     "exact.exact_mean", "dp.perturb_weights", "models.sgd_train",
                     "models.evaluate", "models.subtract_own_noise"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = self_s[name]
        out["masking.mask_tensor.elements"] = counted["masking.mask_tensor"]
        out["exact.to_exact.elements"] = counted["exact.to_exact"]
        out["exact.exact_mean.matrices"] = counted["exact.exact_mean"]
        out["models.sgd_train.steps"] = counted["models.sgd_train"]
        out["models.evaluate.rows"] = counted["models.evaluate"]
        out["exact.lifts_per_weight"] = counted["exact.to_exact"] / (client_rounds * weight_size)
        retrains = calls["models.client_round_retrain"]
        hits = counted["models.client_round_retrain"]
        out["models.client_round_retrain.calls"] = retrains
        out["models.client_round_retrain.cache_hit_ratio"] = hits / retrains if retrains else 0.0
        return out

    def span_rows(self) -> list[dict]:
        """The recorded spans as JSON-ready dicts, in completion order."""
        return [s._asdict() for s in self.spans]
