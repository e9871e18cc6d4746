"""Golden outputs: the reports of every shipped config are pinned by hash.

Every shipped config injects its compute durations, so accuracy.csv,
timing.csv and summary.json are byte-deterministic.  A change that keeps
behaviour must keep these hashes; a change that means to alter behaviour
updates them on purpose.
"""

import hashlib
from pathlib import Path

import pytest

from fedsim.config import build_inputs, emit_reports, load_config
from fedsim.engine import run_simulation

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# SHA-256 of accuracy.csv followed by timing.csv.
GOLDEN = {
    "example.json": "0b38203df6c0c1b100f61839ad501ec88b23705b748242e0634d09a308536327",
    "scenario1.json": "8c987bb5487edcc0e1421af055554da4808c861eb52aaedc30c9f9ef8a206082",
    "scenario2.json": "7ecab51a2548af9692dcc37eb856bc0cb77d2f48aa7a0ec97d88516ae15ee850",
    "scenario3.json": "5abfe26b493c0b83914d3c98a12b0527929f17becfeb74c7d1ac4e1d3c049b05",
    "scenario4.json": "348820f4451aa36082c0a945ca86af38450a6061690be12edcf601f746c578c4",
    "serverless_latency.json": "dde0d7035cd3a184b5c63a7fad5e43dd4fe86dbe0c824a9cf7f8aae4e22bf299",
    "three_city_latency.json": "7b52bf4c34eb5cc2dca4a374100f09e4a0ab26ae49fa7904837cf4440100ddeb",
}

# SHA-256 of summary.json.
SUMMARY_GOLDEN = {
    "example.json": "2da4c249cf6508267f4e7cc74f943c0d31e0a0449cb297dffe45877ff8eb59f1",
    "scenario1.json": "b038211885ff10ccbe4e4ffcb4f569a5e590af9d104197c02f4e66310e54cd0e",
    "scenario2.json": "a2f69af0174db057dcdff63e25097819342f366c46157ebb5e9644482711be27",
    "scenario3.json": "01e6dac257d1b5407a38e0c41207b977e8834bf91a2a76a607389b8b1633c985",
    "scenario4.json": "103a9c6c75e1749e42dfec1bd2eea7dbd4f6a78f1cc9b1059093acb389542f38",
    "serverless_latency.json": "5c63500e6e157c0b28e5da2790496031eb8650da9dcb0501b84058ae50128c1f",
    "three_city_latency.json": "2526c50949130614d732e8c09e3546a9fdba7d127f2d9276e0a3dc6212e3a078",
}


def test_every_shipped_config_is_pinned():
    assert sorted(p.name for p in CONFIG_DIR.glob("*.json")) == sorted(GOLDEN)


def test_every_shipped_summary_is_pinned():
    assert sorted(SUMMARY_GOLDEN) == sorted(GOLDEN)


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def reports(request, tmp_path_factory):
    """Run one shipped config once; both hash tests read its reports."""
    name = request.param
    path = CONFIG_DIR / name
    out = tmp_path_factory.mktemp(path.stem)
    config = load_config(path)
    client_datasets, test_set = build_inputs(config, base_dir=path.parent)
    emit_reports(run_simulation(config, client_datasets, test_set), out, config)
    return name, out


def test_report_hash(reports):
    name, out = reports
    digest = hashlib.sha256()
    for report in ("accuracy.csv", "timing.csv"):
        digest.update((out / report).read_bytes())
    assert digest.hexdigest() == GOLDEN[name]


def test_summary_hash(reports):
    name, out = reports
    summary = hashlib.sha256((out / "summary.json").read_bytes())
    assert summary.hexdigest() == SUMMARY_GOLDEN[name]
