"""Summarize an observation directory: trace, metrics, request/SLO/critpath logs.

The offline half of the telemetry layer — point it at the directory
written by ``repro-experiment ... --obs DIR`` and it prints the
VTune-style summary views of every stream present::

    PYTHONPATH=src python tools/trace_report.py DIR
    PYTHONPATH=src python tools/trace_report.py DIR --top 20 --validate
    PYTHONPATH=src python tools/trace_report.py DIR --format json

Views (see :mod:`repro.obs.sink` for the file names):

* **top spans** — the N longest simulated spans (cycles), the first thing
  to look at when asking "where did the time go";
* **by name** — aggregate cycles/count per span name across all tracks;
* **wall spans** — real elapsed time of orchestration code;
* **fleet** — request outcomes, per-node attempt/hedge accounting, router
  decision counts, and the slowest request span envelopes, from the
  ``fleet.*`` spans a traced cluster run emits;
* **metrics**: the per-stage CPI stack table and every latency
  histogram's count/mean/p50/p95/p99;
* **request log**: the slowest-N request timelines (every lifecycle event,
  simulated ms) and the SLA-miss attribution table — queueing vs slow
  service vs faults vs retries vs admission control — then critical-path
  attribution computed from it: per-scope "where does the time go"
  profiles (overall, p99 tail, per node/shard) and the conservation check;
* **SLO log**: per-SLO error budgets and the fired alerts;
* **critpath log**: the profiles and what-if predictions an experiment
  exported (``critpath_observatory``).

``--format json`` prints the view document of :mod:`repro.obs.view` — the
one the text tables render — instead of text.  ``--validate`` checks every
stream against ``tools/trace_schema.json`` (exit 1 on violations) — CI
runs this on fresh smoke artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs import sink, view  # noqa: E402
from repro.obs.cpi import CpiStack, format_cpi_table  # noqa: E402

__all__ = ["main", "render_text"]

SCHEMA_PATH = REPO_ROOT / "tools" / "trace_schema.json"


def _table(header: List[str], rows: List[List[str]]) -> str:
    """Right-aligned text table (first column left-aligned)."""
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    out = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for r in rows:
        cells = [r[0].ljust(widths[0])] + [
            c.rjust(w) for c, w in zip(r[1:], widths[1:])
        ]
        out.append("  ".join(cells))
    return "\n".join(out)


def _or(value: object, default: str) -> str:
    """``value`` as text, ``default`` when absent."""
    return default if value is None else str(value)


def _fmt_ms(value: object) -> str:
    """Milliseconds for the timeline tables; '-' for absent values."""
    if value is None:
        return "-"
    return f"{float(value):,.2f}"


def _trace_text(trace: dict) -> str:
    sections = [
        f"trace: {trace['sim_spans']} sim spans, {trace['wall_spans']} wall spans, "
        f"{trace['dropped']} dropped"
    ]
    if trace["sim_spans"]:
        rows = [
            [
                _or(e["name"], "?"),
                _or(e["category"], ""),
                _or(e["tid"], "0"),
                f"{e['start']:,.0f}",
                f"{e['cycles']:,.0f}",
            ]
            for e in trace["top_sim_spans"]
        ]
        sections.append(
            f"== top {len(rows)} sim spans by cycles ==\n"
            + _table(["name", "category", "tid", "start_cycles", "cycles"], rows)
        )
        agg_rows = [
            [e["name"], f"{e['total_cycles']:,.0f}", str(e["spans"])]
            for e in trace["by_name"]
        ]
        sections.append(
            "== sim cycles by span name ==\n"
            + _table(["name", "total_cycles", "spans"], agg_rows)
        )
    if trace["wall_spans"]:
        wall_rows = [
            [_or(e["name"], "?"), f"{e['ms']:,.1f}", _or(e["depth"], "")]
            for e in trace["wall"]
        ]
        sections.append(
            "== wall spans (ms) ==\n" + _table(["name", "ms", "depth"], wall_rows)
        )
    return "\n\n".join(sections)


def _fleet_text(fleet: dict) -> str:
    if not fleet["spans"]:
        # Worded as it always was, so reports stay diffable across versions.
        return (
            "fleet: no fleet spans in this trace "
            "(run a cluster experiment with --trace)"
        )
    sections = [
        f"fleet: {fleet['requests']} request(s), {fleet['attempts']} attempt(s), "
        f"{fleet['routes']} route decision(s)",
        "== request outcomes ==\n"
        + _table(
            ["outcome", "requests"],
            [[name, str(count)] for name, count in fleet["outcomes"].items()],
        ),
    ]
    node_rows = [
        [
            f"node{node}",
            str(int(s["attempts"])),
            str(int(s["ok"])),
            str(int(s["failed"])),
            str(int(s["hedges"])),
            str(int(s["wasted"])),
            f"{s['ms'] / s['attempts']:,.2f}" if s["attempts"] else "-",
            f"{s['max_ms']:,.2f}",
        ]
        for node, s in fleet["per_node"].items()
    ]
    sections.append(
        "== per-node attempts ==\n"
        + _table(
            ["node", "attempts", "ok", "failed", "hedged", "wasted",
             "mean_ms", "max_ms"],
            node_rows,
        )
    )
    sections.append(
        "== router decisions ==\n"
        + _table(
            ["reason", "decisions", "no_replica"],
            [
                [reason, str(r["decisions"]), str(r["no_replica"])]
                for reason, r in fleet["router"].items()
            ],
        )
    )
    slow_rows = [
        [
            _or(e["span_id"], "?"),
            _or(e["outcome"], "?"),
            f"{e['start_ms']:,.2f}",
            f"{e['ms']:,.2f}",
        ]
        for e in fleet["slowest"]
    ]
    sections.append(
        f"== slowest {len(slow_rows)} requests (span envelope, ms) ==\n"
        + _table(["span_id", "outcome", "start_ms", "ms"], slow_rows)
    )
    return "\n\n".join(sections)


def _metrics_text(records: List[dict], cpi: List[dict]) -> str:
    sections: List[str] = []
    if cpi:
        stacks = [CpiStack(s["stage"], s["cycles"], s["buckets"]) for s in cpi]
        sections.append("== CPI stacks ==\n" + format_cpi_table(stacks))
    hist_rows = []
    for rec in records:
        if rec.get("type") != "histogram" or not rec.get("count"):
            continue
        label_str = ",".join(f"{k}={v}" for k, v in sorted(rec.get("labels", {}).items()))
        display = rec["name"] + (f"{{{label_str}}}" if label_str else "")
        hist_rows.append(
            [
                display,
                f"{rec['count']:,}",
                f"{rec['sum'] / rec['count']:,.1f}",
                f"{rec.get('p50', 0.0):,.1f}",
                f"{rec.get('p95', 0.0):,.1f}",
                f"{rec.get('p99', 0.0):,.1f}",
            ]
        )
    if hist_rows:
        sections.append(
            "== latency histograms ==\n"
            + _table(["histogram", "count", "mean", "p50", "p95", "p99"], hist_rows)
        )
    types = [r.get("type") for r in records]
    sections.append(
        f"metrics: {types.count('counter')} counters, {types.count('gauge')} gauges, "
        f"{types.count('histogram')} histograms"
    )
    return "\n\n".join(sections)


def _requests_text(requests: dict) -> str:
    meta = requests["meta"]
    sections = [
        f"request log: {meta.get('runs', '?')} run(s), "
        f"{meta.get('requests', requests['records'])} request(s), "
        f"{meta.get('dropped', 0)} dropped"
    ]
    if not requests["records"]:
        return sections[0]
    attribution = requests["miss_attribution"]
    total_missed = sum(attribution.values())
    if attribution:
        rows = [
            [cause, str(count), f"{100.0 * count / total_missed:.1f}%"]
            for cause, count in attribution.items()
        ]
        rows.append(["total", str(total_missed), "100.0%"])
        sections.append(
            "== SLA-miss attribution ==\n"
            + _table(["cause", "requests", "share"], rows)
        )
    else:
        sections.append("SLA-miss attribution: every request met its deadline")

    slowest = requests["slowest"]
    lines: List[str] = [f"== slowest {len(slowest)} requests =="]
    for rank, rec in enumerate(slowest, 1):
        head = (
            f"#{rank} id={rec['id']} label={rec['label']} "
            f"outcome={rec['outcome']} "
            f"in_system={rec['in_system_ms']:,.2f}ms "
            f"wait={_fmt_ms(rec['wait_ms'])}ms "
            f"service={_fmt_ms(rec['service_ms'])}ms "
            f"core={_or(rec['core'], '-')} "
            f"node={','.join(str(n) for n in rec['nodes']) or '-'} "
            f"retries={rec['retries']}"
        )
        if rec["failovers"]:
            head += f" failovers={rec['failovers']}"
        if rec["hedges"]:
            head += f" hedges={rec['hedges']} hedges_wasted={rec['hedges_wasted']}"
        if rec["miss_cause"] is not None:
            head += f" miss_cause={rec['miss_cause']}"
        if rec["fault_windows"]:
            head += f" faults={','.join(rec['fault_windows'])}"
        lines.append(head)
        for event in rec["events"]:
            attrs = ", ".join(
                f"{k}={v}"
                for k, v in event.items()
                if k not in ("kind", "t_ms") and v is not None
            )
            lines.append(
                f"    {float(event.get('t_ms', 0.0)):>12,.3f}ms  "
                f"{event.get('kind')}"
                + (f"  ({attrs})" if attrs else "")
            )
    sections.append("\n".join(lines))
    return "\n\n".join(sections)


def _slo_text(slo: dict) -> str:
    sections: List[str] = []
    if slo["budgets"]:
        rows = [
            [
                f"{b['scenario']}/{b['slo']}",
                str(b["windows"]),
                f"{b['min_compliance']:.3f}",
                f"{b['peak_burn']:,.1f}",
                f"{b['budget_final']:+.3f}",
                str(b["alerts"]),
            ]
            for b in slo["budgets"]
        ]
        sections.append(
            "== SLO error budgets ==\n"
            + _table(
                ["scenario/SLO", "windows", "min_compliance", "peak_burn",
                 "budget_final", "alerts"],
                rows,
            )
        )
    firing = slo["alerts"]
    if firing:
        rows = [
            [
                str(a.get("scenario", "")),
                str(a.get("name", "")),
                str(a.get("source", "")),
                f"{float(a.get('t_ms', 0.0)):,.1f}",
                _or(a.get("node"), "-"),
            ]
            for a in firing
        ]
        sections.append(
            f"== alerts fired ({len(firing)}) ==\n"
            + _table(["scenario", "alert", "source", "t_ms", "node"], rows)
        )
    else:
        sections.append("alerts: none fired")
    return "\n\n".join(sections)


def _critpath_text(critpath: dict) -> str:
    sections = [
        f"conservation: {rec.get('requests', 0)} request(s), "
        f"{rec.get('violations', 0)} violation(s)"
        for rec in critpath["conservation"]
    ]
    if critpath["profiles"]:
        rows = []
        for prof in critpath["profiles"]:
            total = float(prof.get("total_ms", 0.0)) or 1.0
            breakdown = " ".join(
                f"{kind}={dur:,.1f}({100.0 * dur / total:.0f}%)"
                for kind, dur in prof["ranked_segments"][:3]
            )
            rows.append(
                [
                    f"{prof.get('scenario', '')}/{prof.get('scope', '?')}",
                    str(prof.get("requests", 0)),
                    f"{float(prof.get('total_ms', 0.0)):,.1f}",
                    str(prof.get("bottleneck") or "-"),
                    breakdown,
                ]
            )
        sections.append(
            "== critical-path profiles (where does the time go) ==\n"
            + _table(
                ["scenario/scope", "requests", "total_ms", "bottleneck",
                 "top segments (ms, share)"],
                rows,
            )
        )
    if critpath["whatif"]:
        rows = []
        for rec in critpath["whatif"]:
            actual = rec.get("actual")
            predicted = float(rec.get("predicted", 0.0))
            delta = (
                f"{100.0 * (predicted - float(actual)) / float(actual):+.1f}%"
                if actual
                else "-"
            )
            bounds = rec.get("within_bounds")
            rows.append(
                [
                    f"{rec.get('scenario', '')}/{rec.get('knob', '?')}",
                    f"{float(rec.get('value', 0.0)):g}",
                    f"{float(rec.get('baseline', 0.0)):,.2f}",
                    f"{predicted:,.2f}",
                    "-" if actual is None else f"{float(actual):,.2f}",
                    delta,
                    "-" if bounds is None else str(bool(bounds)),
                    "yes" if rec.get("estimated") else "no",
                ]
            )
        sections.append(
            "== what-if predictions (p99, ms) ==\n"
            + _table(
                ["scenario/knob", "value", "baseline", "predicted",
                 "actual", "delta", "in_bounds", "estimated"],
                rows,
            )
        )
    if not sections:
        sections.append("critpath: no critpath_profile or whatif records")
    return "\n\n".join(sections)


def render_text(document: Dict[str, object]) -> str:
    """Every view of a :func:`repro.obs.view.build` document as text tables."""
    outputs: List[str] = []
    if "trace" in document:
        outputs.append(_trace_text(document["trace"]))  # type: ignore[arg-type]
        outputs.append(_fleet_text(document["fleet"]))  # type: ignore[arg-type]
    if "metrics" in document:
        outputs.append(_metrics_text(document["metrics"], document["cpi"]))  # type: ignore[arg-type]
    if "requests" in document:
        outputs.append(_requests_text(document["requests"]))  # type: ignore[arg-type]
        outputs.append(_critpath_text(document["critpath"]))  # type: ignore[arg-type]
    if "slo" in document:
        outputs.append(_slo_text(document["slo"]))  # type: ignore[arg-type]
    if "critpath_log" in document:
        outputs.append(_critpath_text(document["critpath_log"]))  # type: ignore[arg-type]
    return "\n\n".join(outputs)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI main; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="trace_report",
        description="Summarize an observation directory (repro-experiment --obs DIR).",
    )
    parser.add_argument(
        "obs_dir", type=Path, metavar="DIR",
        help="observation directory written by repro-experiment --obs",
    )
    parser.add_argument(
        "--top", type=int, default=10, metavar="N", help="rows per table (default 10)"
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format: human tables (text, default) or the view "
        "document as one machine-readable JSON document",
    )
    parser.add_argument(
        "--validate", action="store_true",
        help=f"validate every stream against {SCHEMA_PATH.name}; exit 1 on violations",
    )
    args = parser.parse_args(argv)
    streams = sink.read(args.obs_dir)
    if not streams:
        parser.error(
            f"{args.obs_dir}: no observation streams (expected any of "
            + ", ".join(s.filename for s in sink.LAYOUT)
            + ")"
        )
    as_json = args.format == "json"

    if args.validate:
        schema = json.loads(SCHEMA_PATH.read_text())
        for stream in sink.LAYOUT:
            if stream.name not in streams:
                continue
            errors = sink.violations(stream, streams[stream.name], schema)
            if errors is None:
                continue
            path = sink.stream_path(args.obs_dir, stream.name)
            if errors:
                print(f"{path}: {len(errors)} schema violation(s):", file=sys.stderr)
                for err in errors[:20]:
                    print(f"  {err}", file=sys.stderr)
                return 1
            # In json mode diagnostics go to stderr so stdout stays one
            # parseable document.
            print(f"{path}: schema OK", file=sys.stderr if as_json else sys.stdout)

    document = view.build(streams, top=args.top)
    if as_json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(render_text(document))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
