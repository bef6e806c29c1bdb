"""SLO engine tests: specs, windowed evaluation, burn alerts, scoring."""

import json

import pytest

from repro.errors import ConfigError
from repro.obs.detect import DetectionEvent
from repro.obs.schema import validate_def
from repro.obs.slo import (
    DEFAULT_BURN_RULES,
    BurnRule,
    FleetMonitor,
    SLOSpec,
    alert_record,
    burn_alerts,
    burn_summary,
    evaluate_slo,
    node_window_stats,
    score_detections,
    slo_state_records,
)

SCHEMA = json.loads(open("tools/trace_schema.json").read())


def _rec(end_ms, outcome="completed", latency_ms=None, events=None):
    return {
        "arrival_ms": max(0.0, end_ms - (latency_ms or 1.0)),
        "end_ms": end_ms,
        "outcome": outcome,
        "latency_ms": latency_ms,
        "events": events or [],
    }


class TestSLOSpec:
    def test_budget_fraction(self):
        assert SLOSpec("a", "availability", 0.99).budget_fraction == pytest.approx(0.01)

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            SLOSpec("a", "nonsense", 0.99)
        with pytest.raises(ConfigError):
            SLOSpec("a", "availability", 1.5)
        with pytest.raises(ConfigError):
            SLOSpec("a", "latency", 0.99)  # latency needs threshold_ms

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_threshold_ms(self, value):
        with pytest.raises(ConfigError, match="finite"):
            SLOSpec("lat", "latency", 0.99, threshold_ms=value)

    def test_is_good_latency(self):
        spec = SLOSpec("lat", "latency", 0.99, threshold_ms=10.0)
        assert spec.is_good(_rec(5.0, latency_ms=5.0))
        assert not spec.is_good(_rec(20.0, latency_ms=20.0))
        assert not spec.is_good(_rec(5.0, outcome="shed"))

    def test_is_good_availability(self):
        spec = SLOSpec("avail", "availability", 0.999)
        assert spec.is_good(_rec(1.0))
        assert spec.is_good(_rec(1.0, outcome="degraded"))
        assert not spec.is_good(_rec(1.0, outcome="failed"))

    def test_is_good_quality(self):
        spec = SLOSpec("q", "quality", 0.95, threshold_ms=10.0)
        assert spec.is_good(_rec(5.0, latency_ms=5.0))
        assert not spec.is_good(_rec(5.0, outcome="degraded", latency_ms=5.0))
        assert not spec.is_good(_rec(20.0, latency_ms=20.0))


class TestEvaluateSlo:
    def test_window_bucketing_and_budget(self):
        spec = SLOSpec("avail", "availability", 0.9)
        records = [_rec(t + 0.5) for t in range(10)]
        records += [_rec(t + 10.5, outcome="failed") for t in range(10)]
        timeline = evaluate_slo(spec, records, window_ms=10.0, horizon_ms=20.0)
        assert len(timeline.points) == 2
        assert timeline.points[0].compliance == 1.0
        assert timeline.points[0].burn_rate == 0.0
        assert timeline.points[1].compliance == 0.0
        # Second window burns 1.0/0.1 = 10x budget per unit served.
        assert timeline.points[1].burn_rate == pytest.approx(10.0)
        assert timeline.final_budget_remaining < 0

    def test_empty_window_is_fully_compliant(self):
        spec = SLOSpec("avail", "availability", 0.99)
        timeline = evaluate_slo(spec, [_rec(1.0)], window_ms=10.0, horizon_ms=50.0)
        assert len(timeline.points) == 5
        assert all(p.compliance == 1.0 for p in timeline.points[1:])

    def test_late_record_lands_in_last_window(self):
        spec = SLOSpec("avail", "availability", 0.99)
        timeline = evaluate_slo(spec, [_rec(99.0)], window_ms=10.0, horizon_ms=20.0)
        assert len(timeline.points) == 2
        assert timeline.points[-1].total == 1


class TestBurnAlerts:
    def _timeline(self, bad_windows):
        spec = SLOSpec("avail", "availability", 0.9)
        records = []
        for j in range(40):
            outcome = "failed" if j in bad_windows else "completed"
            records.extend(_rec(j * 10.0 + k + 0.5, outcome=outcome) for k in range(5))
        return evaluate_slo(spec, records, window_ms=10.0, horizon_ms=400.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_burn_rule_rejects_non_finite_threshold(self, value):
        with pytest.raises(ConfigError, match="finite"):
            BurnRule("bad", 1, 4, value)

    def test_quiet_timeline_no_alerts(self):
        assert burn_alerts(self._timeline(set())) == []

    def test_sustained_burn_fires_then_resolves(self):
        alerts = burn_alerts(self._timeline(set(range(10, 20))))
        names = [(a.name, a.state) for a in alerts]
        assert ("avail:fast_burn", "firing") in names
        assert ("avail:fast_burn", "resolved") in names
        fired = [a.t_ms for a in alerts if a.state == "firing"]
        resolved = [a.t_ms for a in alerts if a.state == "resolved"]
        assert min(fired) < min(resolved)

    def test_custom_rules(self):
        rules = (BurnRule("instant", 1, 1, 0.5),)
        alerts = burn_alerts(self._timeline({15}), rules)
        assert any(a.rule == "instant" and a.state == "firing" for a in alerts)

    def test_default_rules_are_multi_window(self):
        assert {r.name for r in DEFAULT_BURN_RULES} == {"fast_burn", "slow_burn"}
        for rule in DEFAULT_BURN_RULES:
            assert rule.long >= rule.short

    def test_burn_summary_attribution(self):
        timeline = self._timeline(set(range(10, 20)))
        summary = burn_summary(timeline, [("f", 100.0, 200.0, {})], grace_ms=0.0)
        assert summary["burn_in"] > 0
        assert summary["burn_out"] == pytest.approx(0.0)
        assert summary["budget_final"] < 1.0


def _call_events(t, node, ok=True, latency=2.0):
    events = [{"kind": "shard_call", "t_ms": t, "node": node, "shard": 0}]
    if ok:
        events.append(
            {"kind": "call_ok", "t_ms": t + latency, "node": node,
             "shard": 0, "latency_ms": latency}
        )
    else:
        events.append(
            {"kind": "call_failed", "t_ms": t + latency, "node": node,
             "shard": 0, "cause": "crash"}
        )
    return events


class TestNodeWindowStats:
    def test_aggregates_per_node_per_window(self):
        records = [
            _rec(3.0, events=_call_events(1.0, 0)),
            _rec(3.5, events=_call_events(1.5, 0)),
            _rec(14.0, events=_call_events(12.0, 1, ok=False)),
        ]
        windows = node_window_stats(records, window_ms=10.0, horizon_ms=20.0)
        assert len(windows) == 2
        assert windows[0][0]["ok"] == 2
        assert windows[0][0]["failed"] == 0
        assert windows[1][1]["failed"] == 1


class TestFleetMonitorScoring:
    def _windows(self, num_windows, bad_node=None, bad_from=None):
        # Synthetic windowed telemetry: every node serves 20 calls at
        # 2 ms; the bad node flips to all-failed from window bad_from.
        out = []
        for j in range(num_windows):
            cells = {}
            for n in range(3):
                failing = bad_node == n and bad_from is not None and j >= bad_from
                cells[n] = {
                    "calls": 20.0,
                    "ok": 0.0 if failing else 20.0,
                    "failed": 20.0 if failing else 0.0,
                    "lat_sum": 0.0 if failing else 40.0,
                }
            out.append(cells)
        return out

    def test_healthy_fleet_stays_quiet(self):
        monitor = FleetMonitor(3)
        events = monitor.run(self._windows(40), window_ms=10.0)
        assert events == []
        assert all(set(states) == {"ok"} for states in monitor.node_states)

    def test_node_failure_detected_and_scored(self):
        monitor = FleetMonitor(3)
        events = monitor.run(self._windows(40, bad_node=1, bad_from=20), 10.0)
        assert any(e.node == 1 and e.firing for e in events)
        faults = [("node_crash:1", 200.0, 400.0, {"node": 1})]
        score = score_detections(events, faults, grace_ms=20.0)
        assert score["recall"] == 1.0
        assert score["precision"] == 1.0
        assert score["mttd_ms"] is not None and score["mttd_ms"] >= 0
        assert score["classes"]["node_crash"]["detected"] == 1

    def test_missed_fault_scores_zero_recall(self):
        score = score_detections([], [("node_crash:1", 0.0, 10.0, {"node": 1})])
        assert score["recall"] == 0.0
        assert score["mttd_ms"] is None
        assert score["precision"] == 1.0  # no alerts -> no false positives

    def test_wrong_node_alert_is_false_positive_outside_faults(self):
        alert = DetectionEvent(
            t_ms=900.0, signal="node2.error_rate", state="firing",
            value=1.0, score=10.0, node=2,
        )
        score = score_detections(
            [alert], [("node_crash:1", 0.0, 100.0, {"node": 1})], grace_ms=0.0
        )
        # Fired long after every fault window closed: a false positive.
        assert score["precision"] == 0.0
        assert score["recall"] == 0.0


class TestLogRecords:
    def test_slo_state_records_schema_valid(self):
        spec = SLOSpec("avail", "availability", 0.99)
        timeline = evaluate_slo(
            spec, [_rec(t + 0.5) for t in range(20)], 10.0, 20.0
        )
        for rec in slo_state_records(timeline, scenario="none"):
            assert validate_def(rec, SCHEMA, "slo_state") == []

    def test_alert_records_schema_valid(self):
        spec = SLOSpec("avail", "availability", 0.9)
        records = [
            _rec(j + 0.5, outcome="failed" if j >= 100 else "completed")
            for j in range(200)
        ]
        timeline = evaluate_slo(spec, records, 10.0, 200.0)
        alerts = burn_alerts(timeline)
        assert alerts
        for alert in alerts:
            rec = alert_record(alert, scenario="s")
            assert rec["source"] == "slo_burn"
            assert validate_def(rec, SCHEMA, "alert_event") == []
        det = DetectionEvent(
            t_ms=5.0, signal="node0.error_rate", state="firing",
            value=1.0, score=9.0, node=0,
        )
        rec = alert_record(det)
        assert rec["source"] == "detector"
        assert validate_def(rec, SCHEMA, "alert_event") == []
