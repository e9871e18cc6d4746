"""Self-test of the benchmark.  Run from the repository root with::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json

import pytest

import run
from workloads import WORKLOADS, make_config

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
FEDSIM = run.import_fedsim()


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_config_is_a_function_of_the_seed():
    for name in WORKLOADS:
        assert make_config(name, 3) == make_config(name, 3)
        assert make_config(name, 3) != make_config(name, 4)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_named_metric_is_emitted(workload, trace):
    result, record = run.run_benchmark(
        FEDSIM, SPEC, workload, seed=5, seconds=0, trace=trace, rounds=2
    )
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == record["simulations"] >= 2
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        # two top-level client calls per client-round on either topology;
        # complete_peer_round's own receive_weights is not counted again
        client_rounds = WORKLOADS[workload].clients * 2
        assert result["metrics"]["engine.client_call.calls"]["value"] == 2 * client_rounds
    if workload == "secure_dp":
        # the reference twin really ran without security, and still matched
        assert record["messages"]["offline_client_client"] == 90
        assert record["reference_messages"]["offline_client_client"] == 0
        assert record["digest"] == record["reference_digest"]


def test_tampered_report_digest_is_flagged(tmp_path):
    raw = make_config("plain_train", 5, rounds=2)
    classes = raw["data"]["classes"]
    sim = run.simulate(FEDSIM, raw, tmp_path, None, traced=False)
    assert sim.problems == []
    assert run.check_outputs(tmp_path, sim.digest, classes) == []

    accuracy = tmp_path / "accuracy.csv"
    data = accuracy.read_bytes()
    accuracy.write_bytes(data[:-2] + bytes([data[-2] ^ 1]) + data[-1:])
    problems = run.check_outputs(tmp_path, sim.digest, classes)
    assert len(problems) == 1 and "digest" in problems[0]



@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
def test_failing_program_still_prints_a_result(monkeypatch, trace):
    def broken(*args, **kwargs):
        raise RuntimeError("broken")

    monkeypatch.setattr(FEDSIM, "run_simulation", broken)
    result, record = run.run_benchmark(
        FEDSIM, SPEC, "plain_train", seed=5, seconds=0, trace=trace, rounds=2
    )
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == record["simulations"] >= 2
    assert result["metrics"] == {}
