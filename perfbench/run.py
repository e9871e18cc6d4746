"""fedsim benchmark: one seeded workload, run back to back for a fixed time.

Usage, from the repository root::

    python3 perfbench/run.py --workload secure_dp --seed 1 --seconds 30 --trace 0

The workloads are defined in ``perfbench/workloads.py``.  A run drives
each simulation through the public entry points ``fedsim run`` uses --
``config_from_dict``, ``build_inputs``, ``run_simulation`` and
``emit_reports`` -- with their default arguments, so the program's own
client thread pool is what gets measured.  The loop is closed: one process
runs one simulation at a time and adds no threads of its own.

Before the timed loop the run makes an untimed reference simulation of the
same config with ``use_security`` false.  Masks cancel exactly, so every
timed simulation must write the same ``accuracy.csv`` + ``timing.csv``
digest as the reference; a simulation also fails if it raises or if its
final mean federated accuracy is not above chance (1/classes).  No golden
digest is pinned, so a change that legitimately alters outputs still
passes.

``--trace 0`` reports the end-to-end metrics, measured with only the two
lifecycle phases wrapped.  ``--trace 1`` alternates untraced simulations
with traced ones, reports the per-layer metrics of the traced ones and the
tracing overhead, and writes the spans.  Metric names, units and
directions come from ``BENCHMARK.json``; ``perfbench/METRICS.md`` defines
them.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record of
the run (seed, config hash, commit, versions, digests, message counts) is
printed before it and written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS, config_hash, make_config

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".bench_out"

# Set-up takes a few milliseconds and the host's speed drifts within a run,
# so after each passing timed simulation the run also times this many
# set-ups on their own, and setup_s is the median over these and the
# simulations' own set-ups.  Spread through the run like this, extra samples
# narrowed setup_s's spread between seeds; taken all before the loop, they
# widened it.
SETUPS_PER_SIMULATION = 8

BLAS_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_fedsim():
    """Import fedsim from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "fedsim" / "__init__.py").is_file():
        raise BenchmarkError(f"no fedsim sources under {src}")
    sys.path.insert(0, str(src))
    import fedsim

    if Path(fedsim.__file__).resolve().parent != (src / "fedsim").resolve():
        raise BenchmarkError(f"imported fedsim from {fedsim.__file__}, not {src}")
    return fedsim


@dataclass
class SimRun:
    """What one simulation measured and produced."""

    traced: bool
    problems: list[str] = field(default_factory=list)
    setup_s: float = 0.0
    offline_s: float = 0.0
    round_s: list[float] = field(default_factory=list)
    online_s: float = 0.0
    run_s: float = 0.0
    client_rounds: int = 0
    digest: str = ""
    makespan_s: float = 0.0
    accuracy: float = 0.0
    messages: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def report_digest(out_dir: Path) -> str:
    """SHA-256 over accuracy.csv followed by timing.csv."""
    h = hashlib.sha256()
    for name in ("accuracy.csv", "timing.csv"):
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


def final_accuracy(out_dir: Path) -> float:
    """Mean federated accuracy of the last iteration, from summary.json."""
    summary = json.loads((out_dir / "summary.json").read_text())
    return summary["iterations"][-1]["mean_federated_accuracy"]


def check_outputs(out_dir: Path, reference: str | None, classes: int) -> list[str]:
    """Problems with the reports in ``out_dir``; empty when they pass.

    ``reference`` is the digest every run of the set must reproduce, or
    None for the reference run itself.
    """
    problems = []
    digest = report_digest(out_dir)
    if reference is not None and digest != reference:
        problems.append(f"report digest {digest[:12]} != reference {reference[:12]}")
    final = final_accuracy(out_dir)
    if not final > 1.0 / classes:
        problems.append(f"final federated accuracy {final} is not above 1/{classes}")
    return problems


def simulate(fedsim, raw: dict, out_dir: Path, reference: str | None, traced: bool) -> SimRun:
    """Run one simulation from the config dict to written reports."""
    run = SimRun(traced=traced)
    tracer = Tracer(full=traced)
    try:
        with tracer.installed():
            t0 = time.perf_counter()
            config = fedsim.config_from_dict(raw)
            datasets, test_set = fedsim.build_inputs(config)
            reports = fedsim.run_simulation(config, datasets, test_set)
            t_online = time.perf_counter()
            fedsim.emit_reports(reports, out_dir, config)
            t_end = time.perf_counter()
    except Exception as exc:  # a failed simulation is counted, not fatal
        run.problems.append(f"{type(exc).__name__}: {exc}")
        return run
    offline = tracer.first("engine.offline_phase")
    run.setup_s = offline.t0 - t0
    run.offline_s = offline.wall
    run.round_s = tracer.walls("engine.run_round")
    run.online_s = t_online - offline.t1
    run.run_s = t_end - t0
    run.client_rounds = sum(len(r.evals) for r in reports)
    run.makespan_s = sum(max(r.receipt_sim_time.values()) for r in reports)
    run.messages = vars(tracer.simulation.counters).copy()
    run.digest = report_digest(out_dir)
    run.accuracy = final_accuracy(out_dir)
    run.problems = check_outputs(out_dir, reference, raw["data"]["classes"])
    if traced:
        weight_size = raw["data"]["classes"] * (raw["data"]["features"] + 1)
        run.layers = tracer.layer_metrics(run.client_rounds, weight_size)
        run.spans = tracer.span_rows()
    return run


def time_setup(fedsim, raw: dict) -> float:
    """Host time from the config dict to a constructed Simulation."""
    t0 = time.perf_counter()
    config = fedsim.config_from_dict(raw)
    datasets, test_set = fedsim.build_inputs(config)
    fedsim.Simulation(config, datasets, test_set)
    elapsed = time.perf_counter() - t0
    # agents and their directory form reference cycles; free them now so
    # discarded simulations do not pile up and inflate peak_rss_mb
    gc.collect()
    return elapsed


def run_set(fedsim, raw: dict, seconds: float, trace: bool, work_dir: Path):
    """The reference run, then the timed loop with its set-up samples."""
    twin = dict(raw, use_security=False)
    reference = simulate(fedsim, twin, work_dir / "reference", None, traced=False)
    runs = [reference]
    ref_digest = reference.digest if not reference.problems else "(reference failed)"
    setups = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        untraced = sum(1 for r in runs[1:] if not r.traced)
        traced_turn = trace and untraced > len(runs) - 1 - untraced
        gc.collect()
        began = time.perf_counter()
        sim = simulate(fedsim, raw, work_dir / "run", ref_digest, traced_turn)
        runs.append(sim)
        if not sim.problems:
            setups.extend(time_setup(fedsim, raw) for _ in range(SETUPS_PER_SIMULATION))
        longest = max(longest, time.perf_counter() - began)
        have_both = not trace or len({r.traced for r in runs[1:]}) == 2
        # stop before a simulation that would overrun the measuring time
        if have_both and time.perf_counter() - start + longest > seconds:
            break
    return reference, setups, runs[1:]


def end_to_end(setups: list[float], timed: list[SimRun]) -> dict[str, float]:
    """End-to-end metrics over the simulations that passed; {} if none did."""
    good = [r for r in timed if not r.problems]
    if not good:
        return {}
    return {
        "setup_s": statistics.median(setups + [r.setup_s for r in good]),
        "round_s.p50": statistics.median([t for r in good for t in r.round_s] or [0.0]),
        "client_rounds_per_s": (
            sum(r.client_rounds for r in good) / sum(r.online_s for r in good)
            if sum(r.online_s for r in good) > 0 else 0.0
        ),
        "run_s": statistics.median(r.run_s for r in good),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(timed: list[SimRun]) -> dict[str, float]:
    """Per-layer metrics over the simulations that passed.

    {} unless at least one traced and one untraced simulation passed.
    """
    traced = [r for r in timed if r.traced and not r.problems]
    plain = [r for r in timed if not r.traced and not r.problems]
    if not traced or not plain:
        return {}
    out = {
        name: statistics.median(r.layers[name] for r in traced)
        for name in traced[0].layers
    }
    out["trace.overhead_s"] = (
        statistics.median(r.run_s for r in traced)
        - statistics.median(r.run_s for r in plain)
    )
    return out


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fedsim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        fedsim = import_fedsim()
    except (OSError, ValueError, ImportError, BenchmarkError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    import numpy

    result, record = run_benchmark(fedsim, spec, args.workload, args.seed,
                                   args.seconds, bool(args.trace))
    record.update(
        commit=commit(),
        source_sha256=source_hash(),
        nproc=os.cpu_count(),
        python=platform.python_version(),
        numpy=numpy.__version__,
        blas_env={name: os.environ.get(name) for name in BLAS_ENV},
    )
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans")
    if spans:
        with open(OUT_ROOT / f"{stem}.spans.jsonl", "w") as handle:
            for row in spans:
                handle.write(json.dumps(row) + "\n")
    (OUT_ROOT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    samples = ("round_s", "offline_s", "run_s")
    print("record " + json.dumps({k: v for k, v in record.items() if k not in samples},
                                 sort_keys=True))
    print(json.dumps(result))
    return 0


def run_benchmark(fedsim, spec: dict, workload: str, seed: int, seconds: float,
                  trace: bool, rounds: int | None = None) -> tuple[dict, dict]:
    """Run one workload; return the result line and the run's record."""
    raw = make_config(workload, seed, rounds)
    OUT_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_ROOT) as work:
        reference, setups, timed = run_set(fedsim, raw, seconds, trace, Path(work))
    runs = [reference, *timed]
    failed = [r for r in runs if r.problems]

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    measured = per_layer(timed) if trace else end_to_end(setups, timed)
    # With no passing simulation nothing is measured; the result line still
    # reports the failures.  A name the benchmark never produces is its own bug.
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if measured and missing:
        raise BenchmarkError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted if measured}

    untraced = [r for r in timed if not r.traced and not r.problems]
    for name, metric in metrics.items():
        print(f"{workload:14s} {name:45s} {metric['value']:.6g} {metric['unit']}")
    if not trace:
        # Printed but not gated: the offline phase exists only with
        # use_security, and error_rate is the result line's failed/attempted.
        offline = statistics.median(r.offline_s for r in untraced) if untraced else 0.0
        print(f"{workload:14s} {'offline_s':45s} {offline:.6g} s")
        print(f"{workload:14s} {'error_rate':45s} {len(failed) / len(runs):.6g} ratio")

    record = {
        "workload": workload,
        "benchmark_seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "config_sha256": config_hash(raw),
        "simulations": len(runs),
        "timed_simulations": len(timed),
        "digest": timed[-1].digest,
        "reference_digest": reference.digest,
        "sim_makespan_s": timed[-1].makespan_s,
        "messages": timed[-1].messages,
        "reference_messages": reference.messages,
        "final_federated_accuracy": timed[-1].accuracy,
        "problems": [p for r in failed for p in r.problems],
        "round_s": [t for r in untraced for t in r.round_s],
        "offline_s": [r.offline_s for r in untraced],
        "run_s": [r.run_s for r in timed],
        "spans": [row for r in timed for row in r.spans],
    }
    result = {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": metrics,
    }
    return result, record


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        sys.exit(2)
