"""The benchmark's own tests.

    python3 -m pytest perfbench -q

The seeded inputs must be a pure function of (workload, seed), the metric
tables of ``run.py`` must match ``BENCHMARK.json``, and self times must
subtract exactly the direct child spans.
"""

from __future__ import annotations

import hashlib
import json

import pytest

import inputs
import run
from program import ROOT
from tracing import Tracer, layer_metrics

# sha256 of each seeded workload's corpus file at seed 1; a change here changes
# every baseline measured before it
SEED_1_SHA256 = {
    "censored-domains": "125f7bcb9114b3b72e50d78d6b0d7a0addaaabc880c622e0e44b51bb4050a258",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("workload", sorted(inputs.SHAPES))
def test_same_seed_gives_byte_identical_file(tmp_path, workload):
    first, again, other = tmp_path / "first", tmp_path / "again", tmp_path / "other"
    inputs.write_corpus(workload, 1, first)
    inputs.write_corpus(workload, 1, again)
    inputs.write_corpus(workload, 2, other)
    assert first.read_bytes() == again.read_bytes()
    assert _sha256(first) == SEED_1_SHA256[workload]
    assert _sha256(first) != _sha256(other)


def test_metric_tables_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer(enabled=True)
    tracer.spans[:] = [
        ["planner.plan", 0.0, 10.0, -1, "x"],
        ["engine.count", 1.0, 4.0, 0, "x"],
        ["query.parse", 2.0, 3.0, 1, "x"],
        ["engine.count", 5.0, 6.0, 0, "x"],
    ]
    layers = layer_metrics(tracer)
    assert layers["self"]["planner.plan"] == pytest.approx(6.0)
    assert layers["self"]["engine.count"] == pytest.approx(3.0)
    assert layers["total"]["engine.count"] == pytest.approx(4.0)
    assert layers["calls"]["engine.count"] == 2
    assert layers["probes"] == 2
