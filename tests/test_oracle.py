"""End-to-end invariants over random small configurations.

The simulator promises identities that hold for every valid configuration,
not only for the shipped ones: pairwise masks cancel bit for bit, the two
topologies agree bit for bit, and reruns are byte-identical.  These
properties run whole simulations over a derandomized hypothesis strategy,
so they stay deterministic in the suite.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import base_config_dict
from fedsim.config import build_inputs, config_from_dict, emit_reports
from fedsim.engine import run_simulation

REPORTS = ("accuracy.csv", "timing.csv", "summary.json")

# (mechanism, placement) pairs the config accepts; None turns DP off.
DP_PAIRS = [
    ("distributed_laplace", "distributed"),
    ("laplace", "local"),
    ("laplace", "global_server"),
    ("gaussian", "local"),
    ("gaussian", "global_server"),
    None,
]
# Hypothesis leans toward the first value of a sampled list, so the
# interesting values come first.
BOOLS = st.sampled_from([True, False])


@st.composite
def small_configs(draw) -> dict:
    """A valid config dict: 1-4 clients, 1-3 rounds, either topology,
    injected compute and no latencies.  ``using_cumulative`` follows the
    algorithm, as the config expects, so no pairing warning is raised."""
    n = draw(st.integers(1, 4))
    iters = draw(st.integers(1, 3))
    algorithm = draw(st.sampled_from(["incremental", "retrain"]))
    pair = draw(st.sampled_from(DP_PAIRS))
    mechanism, placement = pair if pair is not None else ("laplace", "local")
    server_noise = pair is not None and placement == "global_server"
    topologies = ["centralized"] if server_noise else ["serverless", "centralized"]
    flags = {
        "topology": draw(st.sampled_from(topologies)),
        "use_security": draw(BOOLS),
        "client_dropout": draw(BOOLS),
        "subtract_dp_noise": pair is not None and not server_noise and draw(BOOLS),
        "tolerance": draw(st.sampled_from([2.0, 0.5, 0.05])),
    }
    per_client = st.lists(st.integers(4, 16), min_size=iters, max_size=iters)
    sizes = draw(st.lists(per_client, min_size=n, max_size=n))
    test_size = 30
    return base_config_dict(
        **flags,
        num_clients=n,
        num_iterations=iters,
        algorithm=algorithm,
        using_cumulative=algorithm == "retrain",
        use_dp_privacy=pair is not None,
        mechanism=mechanism,
        dp_placement=placement,
        epsilons=draw(st.lists(st.sampled_from([None, 0.5, 2.0, 8.0]), min_size=n, max_size=n)),
        deltas=[0.05] * n if mechanism == "gaussian" else None,
        seeds=draw(st.lists(st.integers(0, 2**32 - 1), min_size=n, max_size=n)),
        data_seed=draw(st.integers(0, 1000)),
        server_seed=draw(st.integers(0, 1000)),
        dataset_sizes=sizes,
        test_size=test_size,
        data={
            "kind": "synth",
            "classes": draw(st.integers(2, 4)),
            "features": draw(st.integers(2, 5)),
            "rows": test_size + sum(map(sum, sizes)),
            "separation": 2.0,
        },
        train={
            "local_steps": draw(st.integers(1, 12)),
            "learning_rate": 0.5,
            "l2_alpha": 0.01,
            "batch_size": draw(st.integers(1, 8)),
        },
        compute={
            "client_s": draw(st.sampled_from([0.0, 0.005, 0.25])),
            "server_s": draw(st.sampled_from([0.0, 0.005, 0.25])),
        },
    )


def simulate(raw: dict) -> dict[str, bytes]:
    """The three reports of one simulation of ``raw``, by file name."""
    config = config_from_dict(raw)
    client_datasets, test_set = build_inputs(config)
    reports = run_simulation(config, client_datasets, test_set)
    with tempfile.TemporaryDirectory() as out:
        emit_reports(reports, out, config)
        return {name: (Path(out) / name).read_bytes() for name in REPORTS}


@settings(max_examples=40, derandomize=True, deadline=None)
@given(small_configs())
def test_reports_are_invariant(raw):
    base = simulate(raw)

    # (iii) a rerun is byte-identical
    assert simulate(raw) == base

    # (i) masks cancel exactly, so security never shows in the reports
    flipped = simulate({**raw, "use_security": not raw["use_security"]})
    for name in ("accuracy.csv", "timing.csv"):
        assert flipped[name] == base[name], name

    # (ii) without a server adding noise, the topologies agree per client
    if raw["dp_placement"] != "global_server" or not raw["use_dp_privacy"]:
        other = "serverless" if raw["topology"] == "centralized" else "centralized"
        assert simulate({**raw, "topology": other})["accuracy.csv"] == base["accuracy.csv"]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(small_configs())
def test_config_round_trips(raw):
    # (iv)
    config = config_from_dict(raw)
    assert config_from_dict(config.to_dict()) == config
