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
from fedsim.cli import main
from fedsim.config import FIELDS, build_inputs, config_from_dict, emit_reports
from fedsim.engine import SERVER_NAME, run_simulation

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
    injected compute, a synthetic or a CSV data source, and latencies over
    every link of both topologies or none.  ``using_cumulative`` follows the
    algorithm, as the config expects, so no pairing warning is raised;
    weighting comes only with security and noise subtraction off."""
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
    weighted = not (flags["use_security"] or flags["subtract_dp_noise"]) and draw(BOOLS)
    names = [f"client_agent{i}" for i in range(n)]
    latency = st.sampled_from([0.01, 0.0, 0.3])
    latencies = None
    if draw(BOOLS):
        # both topologies' links, since invariant (ii) flips the topology
        latencies = {SERVER_NAME: {c: draw(latency) for c in names}}
        for c in names:
            latencies[c] = {SERVER_NAME: draw(latency)}
            latencies[c].update({peer: draw(latency) for peer in names if peer != c})
    delta = st.sampled_from([0.05, 1e-5] if mechanism == "gaussian" else [0.0, 0.05])
    deltas = st.lists(delta, min_size=n, max_size=n)
    if mechanism != "gaussian":
        deltas = st.none() | deltas
    per_client = st.lists(st.integers(4, 16), min_size=iters, max_size=iters)
    sizes = draw(st.lists(per_client, min_size=n, max_size=n))
    test_size = 30
    data = {"kind": "csv", "path": "data.csv", "label_column": "label"}  # see simulate
    if draw(BOOLS):
        data = {
            "kind": "synth",
            "classes": draw(st.integers(2, 4)),
            "features": draw(st.integers(2, 5)),
            "rows": test_size + sum(map(sum, sizes)),
            "separation": 2.0,
        }
    return base_config_dict(
        **flags,
        weighted_averaging=weighted,
        num_clients=n,
        num_iterations=iters,
        algorithm=algorithm,
        using_cumulative=algorithm == "retrain",
        use_dp_privacy=pair is not None,
        mechanism=mechanism,
        dp_placement=placement,
        epsilons=draw(st.lists(st.sampled_from([None, 0.5, 2.0, 8.0]), min_size=n, max_size=n)),
        deltas=draw(deltas),
        simulate_latencies=latencies is not None,
        latencies=latencies,
        seeds=draw(st.lists(st.integers(0, 2**32 - 1), min_size=n, max_size=n)),
        data_seed=draw(st.integers(0, 1000)),
        server_seed=draw(st.integers(0, 1000)),
        dataset_sizes=sizes,
        test_size=test_size,
        data=data,
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
    with tempfile.TemporaryDirectory() as out:
        if config.data["kind"] == "csv":
            rows = config.test_size + sum(map(sum, config.dataset_sizes))
            main(["synth", "--classes", "3", "--features", "3", "--rows", str(rows),
                  "--seed", str(config.data_seed), "--out", str(Path(out) / config.data["path"])])
        client_datasets, test_set = build_inputs(config, base_dir=out)
        reports = run_simulation(config, client_datasets, test_set)
        emit_reports(reports, out, config)
        return {name: (Path(out) / name).read_bytes() for name in REPORTS}


@settings(max_examples=40, derandomize=True, deadline=None)
@given(small_configs())
def test_reports_are_invariant(raw):
    base = simulate(raw)

    # (iii) a rerun is byte-identical
    assert simulate(raw) == base

    # (i) masks cancel exactly, so security never shows in the reports;
    # weighting cannot be combined with security
    if not raw["weighted_averaging"]:
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


def test_small_configs_draw_every_key():
    """Every key of the config table shows up in some drawn config, so a
    new key cannot escape the invariants above."""
    drawn = set()

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(small_configs())
    def collect(raw):
        for key, value in raw.items():
            if key in ("data", "train", "compute"):
                drawn.update(f"{key}.{name}" for name in value)
            else:
                drawn.add(key)

    collect()
    assert drawn == {f.key for f in FIELDS}
