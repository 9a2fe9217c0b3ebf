"""BENCHMARK.json and claims.json name exactly what the benchmark reports."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

MANIFEST = json.loads((HERE.parent / "BENCHMARK.json").read_text())
CLAIMS = json.loads((HERE / "claims.json").read_text())


def test_manifest_matches_reported_metrics():
    assert {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in MANIFEST["per_layer"]} == layers.UNITS
    for w in MANIFEST["workloads"]:
        assert workloads.WORKLOADS[w["name"]].why == w["why"]


def test_claims_name_known_metrics_and_workloads():
    end_to_end = set(run.END_TO_END_UNITS) | set(CLAIMS["reported_outside_the_gated_metrics"])
    for layer in CLAIMS["layers"]:
        assert set(layer["metrics"]) <= set(layers.UNITS)
        for pair in layer["moves"] + layer["no_change"]:
            assert pair["workload"] in workloads.WORKLOADS
            assert set(pair["end_to_end"]) <= end_to_end
