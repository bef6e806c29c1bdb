"""The observatory CLIs: bench_all, bench_gate, obs_dashboard, trace_report."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.obs import sink
from repro.obs.regress import Benchmark, append_record, make_record

REPO_ROOT = Path(__file__).resolve().parent.parent


def _obs_dir(path, **streams):
    """An observation directory holding ``streams`` (name -> JSONL records)."""
    path.mkdir(exist_ok=True)
    for name, lines in streams.items():
        sink.stream_path(path, name).write_text(
            "".join(json.dumps(line) + "\n" for line in lines)
        )
    return path


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_gate():
    return _load_tool("bench_gate")


@pytest.fixture(scope="module")
def obs_dashboard():
    return _load_tool("obs_dashboard")


def _record(p95, tput=100.0, timestamp="2026-01-01T00:00:00"):
    return make_record(
        "smoke",
        1,
        [
            Benchmark("serving.p95_ms", p95, "ms", direction="lower"),
            Benchmark(
                "engine.tput", tput, "l/s", direction="higher",
                noise_floor=0.15 * tput, kind="wall",
            ),
        ],
        timestamp=timestamp,
    )


# -- bench_gate --------------------------------------------------------------


def test_gate_passes_with_short_history(bench_gate, tmp_path, capsys):
    path = tmp_path / "hist.jsonl"
    assert bench_gate.main(["--history", str(path)]) == 0
    append_record(path, _record(30.0))
    assert bench_gate.main(["--history", str(path)]) == 0
    assert "nothing to compare" in capsys.readouterr().out


def test_gate_passes_on_identical_rerun(bench_gate, tmp_path, capsys):
    path = tmp_path / "hist.jsonl"
    append_record(path, _record(30.0))
    append_record(path, _record(30.0))
    assert bench_gate.main(["--history", str(path)]) == 0
    assert "bench gate OK" in capsys.readouterr().out


def test_gate_fails_naming_benchmark_and_delta(bench_gate, tmp_path, capsys):
    """ISSUE acceptance: >=20% synthetic regression => nonzero exit + name."""
    path = tmp_path / "hist.jsonl"
    append_record(path, _record(30.0))
    append_record(path, _record(39.0))  # +30% on lower-is-better
    assert bench_gate.main(["--history", str(path)]) == 1
    err = capsys.readouterr().err
    assert "REGRESSION serving.p95_ms" in err
    assert "+30.0% worse" in err


def test_gate_skips_wall_by_default_includes_on_flag(
    bench_gate, tmp_path, capsys
):
    path = tmp_path / "hist.jsonl"
    append_record(path, _record(30.0, tput=100.0))
    append_record(path, _record(30.0, tput=40.0))  # -60% wall throughput
    assert bench_gate.main(["--history", str(path)]) == 0
    assert bench_gate.main(["--history", str(path), "--include-wall"]) == 1
    assert "REGRESSION engine.tput" in capsys.readouterr().err


# -- obs_dashboard -----------------------------------------------------------


def test_dashboard_renders_all_sections(obs_dashboard, tmp_path, capsys):
    hist = tmp_path / "hist.jsonl"
    append_record(hist, _record(30.0, timestamp="2026-01-01T00:00:00"))
    append_record(hist, _record(33.0, timestamp="2026-01-02T00:00:00"))
    obs_dir = _obs_dir(
        tmp_path / "obs",
        metrics=[
            {
                "name": "core.cycles", "type": "counter", "value": 1000.0,
                "labels": {"stage": "embedding"},
            },
            {
                "name": "core.cpi.dram_bound", "type": "counter",
                "value": 600.0, "labels": {"stage": "embedding"},
            },
        ],
        requests=[
            {
                "kind": "request_log_meta", "schema_version": 1,
                "runs": 1, "requests": 1, "dropped": 0,
            },
            {
                "kind": "request", "req": 0, "id": "0:0",
                "outcome": "shed", "cause": "queue_full",
                "arrival_ms": 0.0, "end_ms": 0.0,
                "deadline_met": None, "fault_windows": [], "retries": 0,
            },
        ],
    )
    out = tmp_path / "dash.html"
    assert obs_dashboard.main(
        [str(obs_dir), "--history", str(hist), "--out", str(out)]
    ) == 0
    page = out.read_text()
    assert "benchmark trajectories (2 record(s))" in page
    assert "serving.p95_ms" in page
    assert "<svg" in page  # sparkline rendered
    assert "CPI stacks" in page
    assert "dram_bound" in page
    assert "SLA-miss attribution" in page
    assert "shed_queue_full" in page
    # +10% move on a lower-is-better benchmark renders as worse.
    assert 'class="worse"' in page


def test_dashboard_handles_missing_inputs(obs_dashboard, tmp_path):
    out = tmp_path / "dash.html"
    assert obs_dashboard.main(
        [str(_obs_dir(tmp_path / "obs")),
         "--history", str(tmp_path / "absent.jsonl"), "--out", str(out)]
    ) == 0
    assert "no artifacts" in out.read_text()


# -- bench_all (tiny run) ----------------------------------------------------


@pytest.mark.slow
def test_bench_all_smoke_appends_schema_valid_record(tmp_path):
    from repro.obs.schema import validate_def

    bench_all = _load_tool("bench_all")
    hist = tmp_path / "hist.jsonl"
    assert bench_all.main(
        ["--mode", "smoke", "--repeats", "1", "--history", str(hist)]
    ) == 0
    lines = [json.loads(l) for l in hist.read_text().splitlines()]
    assert len(lines) == 1
    record = lines[0]
    schema = json.loads((REPO_ROOT / "tools" / "trace_schema.json").read_text())
    assert validate_def(record, schema, "bench_record") == []
    kinds = {b["kind"] for b in record["benchmarks"].values()}
    assert kinds == {"sim", "wall"}
    assert "serving.resilient.p95_ms" in record["benchmarks"]
    assert "scheme.mp_ht.speedup" in record["benchmarks"]


# -- trace_report: request log -----------------------------------------------


def test_trace_report_requests_mode(tmp_path, capsys):
    import numpy as np

    from repro.obs import RequestLog
    from repro.obs.hooks import Observation, session
    from repro.serving.faults import BandwidthDegradation, FaultPlan
    from repro.serving.server import ServingPolicy, simulate_server
    from repro.serving.workload import poisson_arrivals

    trace_report = _load_tool("trace_report")
    arrivals = poisson_arrivals(1.2, 120, np.random.default_rng(4))
    log = RequestLog()
    with session(Observation(requests=log)):
        simulate_server(
            arrivals, 4.0, 2, np.random.default_rng(2),
            fault_plan=FaultPlan(
                [BandwidthDegradation(20.0, 90.0, 3.0)], seed=1
            ),
            policy=ServingPolicy(
                deadline_ms=8.0, timeout_ms=6.0, max_queue_depth=6
            ),
            label="report-test",
        )
    obs_dir = _obs_dir(tmp_path / "obs")
    log.to_jsonl(sink.stream_path(obs_dir, "requests"))
    assert trace_report.main([str(obs_dir), "--validate", "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "schema OK" in out
    assert "SLA-miss attribution" in out
    assert "slowest 3 requests" in out
    assert "report-test" in out


def test_trace_report_requires_some_input(tmp_path, capsys):
    trace_report = _load_tool("trace_report")
    with pytest.raises(SystemExit):
        trace_report.main([])
    with pytest.raises(SystemExit):
        trace_report.main([str(_obs_dir(tmp_path / "empty"))])
    assert "no observation streams" in capsys.readouterr().err


# -- fleet view + SLO log (PR 8) ---------------------------------------------


def _cluster_artifacts(tmp_path):
    """One small traced+logged cluster run -> its observation directory."""
    from repro.config import SimConfig
    from repro.obs import RequestLog
    from repro.obs.hooks import Observation, session
    from repro.serving.cluster import ClusterConfig, ClusterSim
    from repro.serving.faults import ClusterFaultPlan, NodeCrash
    from repro.serving.router import HedgePolicy
    from repro.serving.workload import poisson_arrivals

    config = SimConfig(seed=3)
    arrivals = poisson_arrivals(0.5, 400, config.rng("t:arr"))
    obs = Observation(requests=RequestLog())
    with session(obs):
        ClusterSim(
            ClusterConfig(
                num_nodes=3, cores_per_node=2, mean_service_ms=1.0,
                num_shards=6, replication=2, gather_width=2, hop_ms=0.05,
                call_timeout_ms=12.0, deadline_ms=50.0,
                routing="least_loaded",
                hedge=HedgePolicy(quantile=95.0, min_ms=2.0, window=64),
                faults=ClusterFaultPlan([NodeCrash(1, 50.0, 120.0)], seed=3),
                seed=3, label="tools-fleet",
            )
        ).run(arrivals)
    obs_dir = tmp_path / "obs"
    sink.write(obs_dir, obs)
    return obs_dir


def test_trace_report_fleet_view_and_node_column(tmp_path, capsys):
    trace_report = _load_tool("trace_report")
    obs_dir = _cluster_artifacts(tmp_path)
    assert trace_report.main([str(obs_dir), "--validate", "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "schema OK" in out
    assert "per-node attempts" in out
    assert "router decisions" in out
    assert "request outcomes" in out
    # Satellite fix: the slowest-N head line names the serving node(s).
    assert "node=" in out


def test_trace_report_slo_mode(tmp_path, capsys):
    trace_report = _load_tool("trace_report")
    lines = [
        {"kind": "slo_log_meta", "schema_version": 1, "window_ms": 10.0,
         "scenarios": ["none"], "lines": 2},
        {"kind": "slo_state", "schema_version": 1, "slo": "avail",
         "slo_kind": "availability", "objective": 0.99, "t_ms": 10.0,
         "window_ms": 10.0, "good": 5, "total": 5, "compliance": 1.0,
         "burn_rate": 0.0, "budget_remaining": 1.0, "scenario": "none"},
        {"kind": "alert", "schema_version": 1, "source": "detector",
         "name": "node0.error_rate", "state": "firing", "t_ms": 20.0,
         "node": 0, "score": 9.0, "scenario": "none"},
    ]
    obs_dir = _obs_dir(tmp_path / "obs", slo=lines)
    assert trace_report.main([str(obs_dir), "--validate"]) == 0
    out = capsys.readouterr().out
    assert "schema OK" in out
    assert "SLO error budgets" in out
    assert "alerts fired (1)" in out


# -- critical path + what-if (PR 10) -----------------------------------------


def test_trace_report_critpath_from_requests(tmp_path, capsys):
    trace_report = _load_tool("trace_report")
    obs_dir = _cluster_artifacts(tmp_path)
    assert trace_report.main([str(obs_dir), "--validate", "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "schema OK" in out
    assert "conservation: 400 request(s), 0 violation(s)" in out
    assert "critical-path profiles" in out
    assert "bottleneck" in out


def test_trace_report_critpath_needs_requests(tmp_path, capsys):
    """Critical paths are computed from a request log; without one the
    view is absent rather than empty."""
    trace_report = _load_tool("trace_report")
    obs_dir = _obs_dir(tmp_path / "obs", metrics=[])
    assert trace_report.main([str(obs_dir)]) == 0
    out = capsys.readouterr().out
    assert "metrics: 0 counters" in out
    assert "conservation" not in out
    assert "critical-path profiles" not in out


def test_trace_report_critpath_log_mode(tmp_path, capsys):
    trace_report = _load_tool("trace_report")
    lines = [
        {"kind": "critpath_log_meta", "schema_version": 1,
         "scenarios": ["noisy"], "lines": 2},
        {"kind": "critpath_profile", "schema_version": 1,
         "scenario": "noisy", "scope": "overall", "requests": 10,
         "total_ms": 40.0, "segments": {"queue": 25.0, "service": 15.0},
         "bottleneck": "queue"},
        {"kind": "whatif", "schema_version": 1, "scenario": "noisy",
         "knob": "hedge_min_ms", "value": 6.0, "metric": "p99_ms",
         "baseline": 15.0, "predicted": 12.0, "actual": 12.5,
         "within_bounds": True, "requests": 10, "estimated": False},
    ]
    obs_dir = _obs_dir(tmp_path / "obs", critpath=lines)
    assert trace_report.main([str(obs_dir), "--validate"]) == 0
    out = capsys.readouterr().out
    assert "schema OK" in out
    assert "critical-path profiles" in out
    assert "what-if predictions" in out
    assert "noisy/hedge_min_ms" in out


def test_trace_report_critpath_log_rejects_bad_record(tmp_path, capsys):
    trace_report = _load_tool("trace_report")
    bad = {"kind": "whatif", "schema_version": 1, "scenario": "x",
           "knob": "warp_drive", "value": 1.0, "metric": "p99_ms",
           "baseline": 1.0, "predicted": 1.0, "actual": None,
           "within_bounds": None, "requests": 1, "estimated": False}
    obs_dir = _obs_dir(tmp_path / "obs", critpath=[bad])
    assert trace_report.main([str(obs_dir), "--validate"]) == 1
    err = capsys.readouterr().err
    assert "schema violation" in err
    # A record kind the layout does not name is a violation too.
    _obs_dir(obs_dir, critpath=[{"kind": "mystery", "schema_version": 1}])
    assert trace_report.main([str(obs_dir), "--validate"]) == 1
    assert "line 1: unknown record kind 'mystery'" in capsys.readouterr().err


def test_trace_report_json_format(tmp_path, capsys):
    trace_report = _load_tool("trace_report")
    obs_dir = _cluster_artifacts(tmp_path)
    assert trace_report.main(
        [str(obs_dir), "--validate", "--format", "json"]
    ) == 0
    captured = capsys.readouterr()
    document = json.loads(captured.out)  # stdout is one JSON document
    assert "schema OK" not in captured.out  # diagnostics go to stderr
    assert "schema OK" in captured.err
    assert document["requests"]["slowest"]  # top-N rows present as data
    critpath = document["critpath"]
    assert critpath["conservation"][0]["requests"] == 400
    assert critpath["conservation"][0]["violations"] == 0
    scopes = {r["scope"] for r in critpath["profiles"]}
    assert "overall" in scopes


def test_miss_attribution_sorted_by_count_then_cause(tmp_path, capsys):
    """Satellite fix: attribution rows render most-frequent first."""
    from repro.obs import RequestLog

    trace_report = _load_tool("trace_report")
    log = RequestLog()
    run = log.start_run(label="sorted", num_requests=6, deadline_ms=1.0)
    for i in range(6):
        run.add_record(
            req=i, arrival_ms=float(i), outcome="failed" if i < 4 else "shed",
            end_ms=float(i) + 5.0,
            cause=None if i < 4 else "queue_full",
        )
    run.finish_custom()
    obs_dir = _obs_dir(tmp_path / "obs")
    log.to_jsonl(sink.stream_path(obs_dir, "requests"))
    assert trace_report.main([str(obs_dir), "--top", "1"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l and l.split()[0] in
             ("node_fault", "shed_queue_full")]
    assert len(lines) == 2
    assert lines[0].startswith("node_fault")  # 4 > 2: biggest cause first


def test_dashboard_fleet_and_slo_sections(obs_dashboard, tmp_path):
    obs_dir = _obs_dir(
        _cluster_artifacts(tmp_path),
        slo=[
            {"kind": "slo_state", "schema_version": 1, "slo": "avail",
             "slo_kind": "availability", "objective": 0.99, "t_ms": 10.0,
             "window_ms": 10.0, "good": 5, "total": 5, "compliance": 1.0,
             "burn_rate": 0.0, "budget_remaining": 1.0, "scenario": "none"}
        ],
    )
    out = tmp_path / "dash.html"
    assert obs_dashboard.main(
        [str(obs_dir), "--history", str(tmp_path / "absent.jsonl"),
         "--out", str(out)]
    ) == 0
    page = out.read_text()
    assert "fleet view" in page
    assert "node health" in page
    assert "shard calls (node x shard)" in page
    assert "error budget" in page
    assert "completed latency" in page


def test_dashboard_zero_completed_requests_blank_not_nan(
    obs_dashboard, tmp_path
):
    """Satellite fix: a cluster log where nothing completed renders blank
    percentile cells, never NaN, and never crashes."""
    meta = {"kind": "request_log_meta", "schema_version": 1, "runs": 1,
            "requests": 2, "dropped": 0}
    shed = {
        "kind": "request", "req": 0, "id": "0:0",
        "outcome": "shed", "cause": "queue_full",
        "arrival_ms": 0.0, "latency_ms": None, "deadline_met": None, "fault_windows": [],
        "retries": 0, "end_ms": 1.0,
        "events": [{"kind": "shard_call", "t_ms": 0.5, "node": 0, "shard": 0},
                   {"kind": "call_failed", "t_ms": 1.0, "node": 0,
                    "shard": 0, "cause": "crash"}],
    }
    obs_dir = _obs_dir(tmp_path / "obs", requests=[meta, shed, shed])
    out = tmp_path / "dash.html"
    assert obs_dashboard.main(
        [str(obs_dir), "--history", str(tmp_path / "absent.jsonl"),
         "--out", str(out)]
    ) == 0
    page = out.read_text()
    assert "no completed requests" in page
    assert "nan" not in page.lower()


# -- one view document behind every renderer ----------------------------------


def test_text_json_and_html_render_one_document(obs_dashboard, tmp_path, capsys):
    """A cluster run observed with --obs: the JSON document, the text
    tables and the dashboard page agree on the SLA-miss attribution and
    on every node's attempt count."""
    import re

    from repro.experiments.runner import main as runner_main

    obs_dir = tmp_path / "obs"
    assert runner_main(
        ["cluster_resilience", "--scale", "0.01", "--batch-size", "8",
         "--num-batches", "1", "--num-nodes", "3", "--replication", "2",
         "--num-requests", "400", "--obs", str(obs_dir)]
    ) == 0
    capsys.readouterr()
    trace_report = _load_tool("trace_report")
    assert trace_report.main([str(obs_dir), "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert trace_report.main([str(obs_dir)]) == 0
    text = capsys.readouterr().out
    out = tmp_path / "dash.html"
    assert obs_dashboard.main(
        [str(obs_dir), "--history", str(tmp_path / "absent.jsonl"),
         "--out", str(out)]
    ) == 0
    page = out.read_text()

    attribution = document["requests"]["miss_attribution"]
    assert attribution  # the node kill makes requests miss
    for cause, count in attribution.items():
        assert re.search(rf"^{cause} +{count} ", text, re.M)
        assert f"<tr><td>{cause}</td><td>{count}</td>" in page

    per_node = document["fleet"]["per_node"]
    assert len(per_node) == 3
    heat = page.split("<h3>shard calls (node x shard)</h3>")[1].split("</table>")[0]
    for node, stats in per_node.items():
        assert re.search(rf"^node{node} +{stats['attempts']} ", text, re.M)
        # The heat map counts the request log's shard calls; a node's row
        # sums to the attempts its fleet.attempt spans record.
        row = re.search(rf"<tr><td>node{node}</td>(.*?)</tr>", heat).group(1)
        calls = [int(c) for c in re.findall(r">(\d+)</td>", row)]
        assert sum(calls) == stats["attempts"]
