"""The observation view model: one document built from an observation directory.

:func:`build` turns the streams of one ``--obs DIR`` directory (as
:func:`repro.obs.sink.read` returns them) into one plain-data document.
``tools/trace_report.py --format json`` prints it; the text tables of
``trace_report`` and the HTML page of ``tools/obs_dashboard.py`` only
format it; every count, ranking and percentile is computed here, once.
Top-level keys, each present only when its stream is:

``trace``         span counts, the top-N simulated spans, cycles per span
                  name, the top-N wall spans
``fleet``         (trace) ``fleet.*`` span accounting: request outcomes,
                  per-node attempts, router decisions, slowest envelopes
``metrics``       (metrics) every exported metric record
``cpi``           (metrics) per-stage CPI stacks, largest first
``requests``      (requests) log meta, SLA-miss attribution, fleet
                  totals, completed-latency percentiles, the slowest-N
                  request timelines and, for cluster logs, the per-node
                  health timeline and the node x shard call counts
``critpath``      (requests) conservation check + critical-path profiles
                  computed from the request log
``slo``           (slo) per-SLO error budgets and the fired alerts
``critpath_log``  (critpath) the exported profiles and what-if records
``history``       (a benchmark history given) per-benchmark trajectories

Mappings that a view ranks (miss causes, request outcomes) are built in
rank order, so renderers iterate them as they are.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from .cpi import CPI_BUCKETS, CpiStack
from .critpath import aggregate_profiles, check_conservation, extract_paths
from .regress import load_history
from .requests import attribute_miss, miss_attribution
from .slo import FleetMonitor, node_window_stats

__all__ = ["HEALTH_WINDOWS", "build"]

#: Timeline resolution of the per-node health view (windows per run).
HEALTH_WINDOWS = 60

#: Request-log event kinds that carry a serving node.
_NODE_EVENTS = ("shard_call", "call_ok", "call_failed")


def build(
    streams: Mapping[str, object],
    top: int = 10,
    history: Optional[Union[str, Path]] = None,
) -> Dict[str, object]:
    """The view document of one observation directory's ``streams``.

    ``top`` bounds every top-N list; ``history`` is a benchmark-history
    JSONL whose trajectories join the document when the file exists.
    """
    document: Dict[str, object] = {}
    if "trace" in streams:
        document["trace"] = _trace(streams["trace"], top)  # type: ignore[arg-type]
        document["fleet"] = _fleet(streams["trace"], top)  # type: ignore[arg-type]
    if "metrics" in streams:
        document["metrics"] = streams["metrics"]
        document["cpi"] = _cpi(streams["metrics"])  # type: ignore[arg-type]
    if "requests" in streams:
        meta, records = _split_meta(streams["requests"], "request_log_meta")  # type: ignore[arg-type]
        document["requests"] = _requests(meta, records, top)
        paths = extract_paths(records)
        conservation = {
            "kind": "critpath_conservation",
            "requests": len(paths),
            "violations": sum(1 for p in paths if check_conservation(p) != 0.0),
        }
        document["critpath"] = _critpath([conservation] + aggregate_profiles(paths))
    if "slo" in streams:
        document["slo"] = _slo(streams["slo"])  # type: ignore[arg-type]
    if "critpath" in streams:
        document["critpath_log"] = _critpath(streams["critpath"])  # type: ignore[arg-type]
    if history is not None and Path(history).exists():
        document["history"] = _history(load_history(history))
    return document


def _split_meta(
    lines: List[dict], meta_kind: str
) -> Tuple[dict, List[dict]]:
    """A JSONL stream's header (the last one wins) and its other records."""
    meta: dict = {}
    records = []
    for rec in lines:
        if rec.get("kind") == meta_kind:
            meta = rec
        else:
            records.append(rec)
    return meta, records


def _ranked(counts: Mapping[str, int]) -> Dict[str, int]:
    """``counts`` with the biggest first and the name breaking ties."""
    return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))


# -- trace --------------------------------------------------------------------


def _trace(trace: dict, top: int) -> dict:
    events = trace.get("traceEvents", [])
    # Simulated spans are pid 2 (minus track metadata); wall spans pid 1.
    sim = [
        e for e in events
        if e.get("ph") == "X" and e.get("pid") == 2 and e.get("cat") != "sim.meta"
    ]
    wall = [e for e in events if e.get("ph") == "X" and e.get("pid") == 1]
    agg: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for e in sim:
        entry = agg[str(e.get("name", "?"))]
        entry[0] += float(e.get("dur", 0.0))
        entry[1] += 1
    return {
        "sim_spans": len(sim),
        "wall_spans": len(wall),
        "dropped": trace.get("otherData", {}).get("dropped_events", 0),
        "top_sim_spans": [
            {
                "name": e.get("name"),
                "category": e.get("cat"),
                "tid": e.get("tid"),
                "start": e.get("ts", 0.0),
                "cycles": e.get("dur", 0.0),
            }
            for e in sorted(sim, key=lambda e: e.get("dur", 0.0), reverse=True)[:top]
        ],
        "by_name": [
            {"name": name, "total_cycles": total, "spans": int(count)}
            for name, (total, count) in sorted(
                agg.items(), key=lambda kv: kv[1][0], reverse=True
            )[:top]
        ],
        "wall": [
            {
                "name": e.get("name"),
                "ms": float(e.get("dur", 0.0)) / 1000.0,
                "depth": e.get("args", {}).get("depth"),
            }
            for e in sorted(wall, key=lambda e: e.get("dur", 0.0), reverse=True)[:top]
        ],
    }


def _fleet(trace: dict, top: int) -> dict:
    """Per-node attempts and router behaviour from the ``fleet.*`` spans."""
    spans = [
        e
        for e in trace.get("traceEvents", [])
        if e.get("ph") == "X" and str(e.get("cat", "")).startswith("fleet.")
    ]
    requests = [e for e in spans if e.get("cat") == "fleet.request"]
    attempts = [e for e in spans if e.get("cat") == "fleet.attempt"]
    routes = [e for e in spans if e.get("cat") == "fleet.route"]
    outcomes: Dict[str, int] = defaultdict(int)
    for e in requests:
        outcomes[str(e.get("args", {}).get("outcome", "?"))] += 1
    per_node: Dict[int, Dict[str, float]] = defaultdict(
        lambda: {"attempts": 0, "ok": 0, "failed": 0, "hedges": 0,
                 "wasted": 0, "ms": 0.0, "max_ms": 0.0}
    )
    for e in attempts:
        args = e.get("args", {})
        stats = per_node[int(args.get("node", -1))]
        stats["attempts"] += 1
        if args.get("outcome") == "ok":
            stats["ok"] += 1
            if args.get("winner") is False:
                stats["wasted"] += 1
        else:
            stats["failed"] += 1
        if args.get("hedge"):
            stats["hedges"] += 1
        dur = float(e.get("dur", 0.0))
        stats["ms"] += dur
        stats["max_ms"] = max(stats["max_ms"], dur)
    reasons: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    for e in routes:
        args = e.get("args", {})
        entry = reasons[str(args.get("reason", "?"))]
        entry[0] += 1
        if args.get("chosen") is None:
            entry[1] += 1
    return {
        "spans": len(spans),
        "requests": len(requests),
        "attempts": len(attempts),
        "routes": len(routes),
        "outcomes": _ranked(outcomes),
        "per_node": {str(node): stats for node, stats in sorted(per_node.items())},
        "router": {
            reason: {"decisions": total, "no_replica": missed}
            for reason, (total, missed) in sorted(reasons.items())
        },
        "slowest": [
            {
                "span_id": e.get("args", {}).get("span_id"),
                "outcome": e.get("args", {}).get("outcome"),
                "start_ms": float(e.get("ts", 0.0)),
                "ms": float(e.get("dur", 0.0)),
            }
            for e in sorted(
                requests, key=lambda e: float(e.get("dur", 0.0)), reverse=True
            )[:top]
        ],
    }


# -- metrics ------------------------------------------------------------------


def _cpi(records: List[dict]) -> List[dict]:
    """Per-stage CPI stacks reassembled from ``core.*`` metric records."""
    cycles: Dict[str, float] = {}
    buckets: Dict[str, Dict[str, float]] = defaultdict(dict)
    for rec in records:
        name, stage = rec.get("name", ""), rec.get("labels", {}).get("stage")
        if stage is None:
            continue
        if name == "core.cycles":
            cycles[stage] = float(rec.get("value", 0.0))
        elif name.startswith("core.cpi."):
            buckets[stage][name[len("core.cpi."):]] = float(rec.get("value", 0.0))
    stacks = [
        CpiStack(stage, total, {b: buckets[stage].get(b, 0.0) for b in CPI_BUCKETS})
        for stage, total in cycles.items()
    ]
    stacks.sort(key=lambda s: s.total_cycles, reverse=True)
    return [
        {
            "stage": s.stage,
            "cycles": s.total_cycles,
            "buckets": s.buckets,
            "fractions": s.fractions(),
        }
        for s in stacks
    ]


# -- request log --------------------------------------------------------------


def _in_system_ms(rec: dict) -> float:
    """Latency of a completed request, else its time in the system."""
    if rec.get("latency_ms") is not None:
        return float(rec["latency_ms"])
    return float(rec.get("end_ms", 0.0)) - float(rec.get("arrival_ms", 0.0))


def _percentile(sorted_values: List[float], q: float) -> float:
    """Linear-interpolation percentile of a pre-sorted list."""
    rank = (len(sorted_values) - 1) * (q / 100.0)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (rank - lo)


def _requests(meta: dict, records: List[dict], top: int) -> dict:
    completed = sorted(
        float(rec["latency_ms"]) for rec in records if rec.get("latency_ms") is not None
    )
    latency: Dict[str, object] = {"completed": len(completed)}
    for q in (50, 95, 99):
        # Blank (None), never NaN, when nothing completed.
        latency[f"p{q}"] = _percentile(completed, float(q)) if completed else None
    return {
        "meta": meta,
        "records": len(records),
        "miss_attribution": _ranked(miss_attribution(records)),
        "totals": {
            "failovers": sum(int(r.get("failovers", 0) or 0) for r in records),
            "hedges": sum(int(r.get("hedges", 0) or 0) for r in records),
            "hedges_wasted": sum(int(r.get("hedges_wasted", 0) or 0) for r in records),
            "degraded": sum(1 for r in records if r.get("outcome") == "degraded"),
        },
        "latency": latency,
        "slowest": [
            {
                "id": rec.get("id"),
                "label": rec.get("label"),
                "outcome": rec.get("outcome"),
                "in_system_ms": _in_system_ms(rec),
                "wait_ms": rec.get("wait_ms"),
                "service_ms": rec.get("service_ms"),
                "core": rec.get("core"),
                # Cluster records carry every node their shard calls
                # touched; single-box records have no node identity.
                "nodes": rec.get("nodes")
                or ([rec["node"]] if rec.get("node") is not None else []),
                "retries": rec.get("retries", 0),
                "failovers": rec.get("failovers") or 0,
                "hedges": rec.get("hedges") or 0,
                "hedges_wasted": rec.get("hedges_wasted", 0),
                "miss_cause": attribute_miss(rec),
                "fault_windows": rec.get("fault_windows") or [],
                "events": rec.get("events", []),
            }
            for rec in sorted(records, key=_in_system_ms, reverse=True)[:top]
        ],
        "cluster": _node_view(records),
    }


def _node_view(records: List[dict]) -> Optional[dict]:
    """Per-node health timeline + node x shard call counts of a cluster log.

    None for logs whose events name no serving node (single box).  The
    timeline runs the windowed drift detectors over every record, so
    shed and failed requests feed it too.
    """
    nodes = sorted(
        {
            int(ev["node"])
            for rec in records
            for ev in rec.get("events", [])
            if ev.get("node") is not None and ev.get("kind") in _NODE_EVENTS
        }
    )
    if not nodes:
        return None
    num_nodes = max(nodes) + 1
    horizon = max((float(rec.get("end_ms", 0.0) or 0.0) for rec in records), default=0.0)
    health = None
    if horizon > 0:
        window_ms = horizon / HEALTH_WINDOWS
        monitor = FleetMonitor(num_nodes)
        monitor.run(node_window_stats(records, window_ms, horizon), window_ms)
        health = {
            "window_ms": window_ms,
            "states": [
                [states[n] for states in monitor.node_states] for n in range(num_nodes)
            ],
        }
    calls: Dict[Tuple[int, int], int] = defaultdict(int)
    for rec in records:
        for ev in rec.get("events", []):
            if ev.get("kind") == "shard_call" and ev.get("node") is not None:
                calls[(int(ev["node"]), int(ev.get("shard", -1)))] += 1
    shards = sorted({shard for _, shard in calls})
    return {
        "nodes": nodes,
        "health": health,
        "shards": shards,
        # calls[i][j]: shard calls of nodes[i] to shards[j].
        "shard_calls": [[calls.get((n, s), 0) for s in shards] for n in nodes],
    }


# -- SLO and critical-path logs -----------------------------------------------


def _slo(lines: List[dict]) -> dict:
    states: Dict[Tuple[str, str], List[dict]] = defaultdict(list)
    alerts: List[dict] = []
    for rec in lines:
        if rec.get("kind") == "slo_state":
            states[(str(rec.get("scenario", "")), str(rec.get("slo", "")))].append(rec)
        elif rec.get("kind") == "alert":
            alerts.append(rec)
    firing = [a for a in alerts if a.get("state") == "firing"]
    return {
        "budgets": [
            {
                "scenario": scenario,
                "slo": slo,
                "windows": len(series),
                "min_compliance": min(float(s.get("compliance", 1.0)) for s in series),
                "peak_burn": max(float(s.get("burn_rate", 0.0)) for s in series),
                "budget_final": float(series[-1].get("budget_remaining", 1.0)),
                "budget_series": [float(s.get("budget_remaining", 1.0)) for s in series],
                "alerts": sum(
                    1
                    for a in firing
                    if str(a.get("scenario", "")) == scenario
                    and str(a.get("name", "")).startswith(f"{slo}:")
                ),
            }
            for (scenario, slo), series in sorted(states.items())
        ],
        "alerts": firing,
    }


def _critpath(lines: List[dict]) -> dict:
    """Conservation lines, profiles (segments ranked), and what-if records."""
    return {
        "conservation": [r for r in lines if r.get("kind") == "critpath_conservation"],
        "profiles": [
            {
                **r,
                "ranked_segments": sorted(
                    r.get("segments", {}).items(), key=lambda kv: -kv[1]
                ),
            }
            for r in lines
            if r.get("kind") == "critpath_profile"
        ],
        "whatif": [r for r in lines if r.get("kind") == "whatif"],
    }


# -- benchmark history --------------------------------------------------------


def _history(records: List[dict]) -> dict:
    """Every benchmark's value series over the history, latest metadata."""
    series: Dict[str, List[float]] = {}
    latest: Dict[str, dict] = {}
    for record in records:
        for name, bench in record.get("benchmarks", {}).items():
            series.setdefault(name, []).append(float(bench["value"]))
            latest[name] = bench
    return {
        "records": len(records),
        "benchmarks": [
            {
                "name": name,
                "values": series[name],
                "unit": latest[name].get("unit", ""),
                "direction": latest[name].get("direction"),
                "kind": latest[name].get("kind", ""),
            }
            for name in sorted(series)
        ],
    }
