"""Output checks and the benchmark definition."""

import json
import math
from pathlib import Path

import hostspeed
import layers
import workloads

ROOT = Path(__file__).resolve().parents[2]


def test_golden_check_catches_one_ulp_in_one_row():
    rows = [{"scenario": "a", "p99_ms": 1.5, "completed": 10}, {"scenario": "b", "p99_ms": 2.0}]
    changed = json.loads(json.dumps(rows))
    changed[1]["p99_ms"] = math.nextafter(2.0, 3.0)
    assert workloads.compare_rows(rows, rows) == []
    errors = workloads.compare_rows(changed, rows)
    assert len(errors) == 1 and errors[0].startswith("row 1") and "p99_ms" in errors[0]
    assert workloads.rows_digest(changed) != workloads.rows_digest(rows)


def test_golden_check_applies_the_digest_at_a_recorded_seed():
    workload = workloads.WORKLOADS["cluster_faults"]
    rows = [{
        "completed": 4000, "degraded": 900, "shed": 0, "failed": 100, "hedges": 3,
        "hedges_won": 1, "hedges_wasted": 1, "goodput": 0.8,
    }]
    goldens = {"rows": {}, "sha256": {7: workloads.rows_digest(rows)}}
    assert workloads.check(workload, rows, 7, goldens) == []
    changed = [dict(rows[0], goodput=math.nextafter(0.8, 1.0))]
    assert workloads.check(workload, changed, 7, goldens)
    assert workloads.check(workload, changed, 8, goldens) == []  # invariants only


def test_invariants_catch_lost_requests():
    workload = workloads.WORKLOADS["cluster_faults"]
    row = {
        "completed": 4000, "degraded": 900, "shed": 0, "failed": 99, "hedges": 0,
        "hedges_won": 0, "hedges_wasted": 0, "goodput": 0.8,
    }
    assert workload.invariants([row], workload.overrides)


def test_paper_reference_is_the_committed_fig13_rows():
    rows = workloads.WORKLOADS["paper_schemes"].reference()
    assert [(r["dataset"], r["cores"]) for r in rows] == [
        ("high", 1), ("high", 24), ("low", 1), ("low", 24)
    ]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in layers.METRICS
    ]
    for workload in workloads.WORKLOADS.values():
        goldens = workloads.load_goldens(workload)
        assert workloads.DEFAULT_SEED in goldens["rows"]


def test_reference_seconds_scale_with_host_speed():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.reference_seconds(2.0, ref, 0.7) == 2.0
    slow = hostspeed.reference_seconds(2.0, 2 * ref, 0.7)
    assert 1.0 < slow < 2.0  # a slower host is only partly discounted
    assert hostspeed.probe() > 0


def test_call_seconds_scale_each_part_by_its_own_probes():
    ref = hostspeed.REFERENCE_S
    walls = [1.0, 2.0, 3.0, 4.0]
    probes = [ref, ref, 4 * ref, 4 * ref, 4 * ref]
    assert hostspeed.call_seconds(walls, probes, 2, 0.5) == [1.0 + 2.0 * (0.4 ** 0.5), 3.5]
