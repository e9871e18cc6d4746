"""Run a set of benchmark runs and summarise them per workload.

Usage, from the repository root::

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

For each workload in ``BENCHMARK.json`` it makes ``--runs`` untraced runs
of ``run_seconds`` each, with seeds 1 to ``--runs``, and reports every
end-to-end metric's median, quartiles (``statistics.quantiles(values,
n=4)``) and spread, the distance between the quartiles as a share of the
median.  A spread above a third of the metric's bound is flagged WIDE.  It
then makes one traced run per workload, seed 1, and records its per-layer
table.  Runs are made one after another, each in a fresh process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run of the benchmark; returns its result line and its record."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True,
    )
    lines = done.stdout.strip().splitlines()
    record = json.loads(lines[-2].removeprefix("record "))
    return json.loads(lines[-1]), record


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {"seconds": seconds, "runs": args.runs, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in range(1, args.runs + 1):
            result, record = bench(workload, seed, seconds, 0)
            results.append(result)
            print(workload, seed, json.dumps(
                {k: round(v["value"], 6) for k, v in result["metrics"].items()}), flush=True)
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {
                name: summarise([r["metrics"][name]["value"] for r in results])
                for name in bounds
            },
            # the record of the last run: environment and deterministic outputs
            "record": {k: record[k] for k in (
                "benchmark_seed", "commit", "source_sha256", "nproc", "python", "numpy",
                "blas_env", "digest", "sim_makespan_s", "messages",
                "final_federated_accuracy")},
        }
        for name, stats in entry["end_to_end"].items():
            flag = "" if stats["spread"] < bounds[name] / 3 else "  WIDE"
            print(f"{workload:14s} {name:22s} median {stats['median']:.6g} "
                  f"spread {stats['spread']:.4f} (bound {bounds[name]}){flag}", flush=True)
        traced, _ = bench(workload, 1, seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = entry
    args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
