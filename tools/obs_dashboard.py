"""Render an observation directory into one self-contained HTML page.

Stdlib only, no external assets — CI uploads the page as the build's
performance dashboard::

    PYTHONPATH=src python tools/obs_dashboard.py DIR \\
        --history BENCH_history.jsonl --out dashboard.html

``DIR`` is what ``repro-experiment ... --obs DIR`` wrote; the page renders
the view document of :mod:`repro.obs.view` (the one ``trace_report
--format json`` prints).  Sections (each present only when its stream is):

* **benchmark trajectories** (``--history``) — one row per benchmark in
  the history: inline-SVG sparkline over all records, latest value, and
  delta vs the previous record (colored by whether it moved in the worse
  direction);
* **CPI stacks** (metrics) — the per-stage cycle breakdown;
* **SLA-miss attribution** (request log) — the miss causes as a bar table;
* **fleet view** (cluster request logs) — per-node health timelines from
  the windowed drift detectors, the shard x node call heat map, and
  latency percentiles (blank, not NaN, when no request completed);
* **error budget** (SLO log) — per-SLO budget-remaining sparkline,
  burn-rate peak, and the fired burn/detector alerts;
* **critical path** (critpath log) — per-scope latency attribution bars
  ("where does p99 go") and the counterfactual what-if prediction table
  with its validation verdicts.
"""

from __future__ import annotations

import argparse
import html
import sys
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs import sink, view  # noqa: E402
from repro.obs.cpi import CPI_BUCKETS  # noqa: E402

__all__ = ["main", "render"]

DEFAULT_HISTORY = REPO_ROOT / "BENCH_history.jsonl"

_STYLE = """
body { font-family: ui-monospace, Menlo, Consolas, monospace;
       background: #111418; color: #d8dee4; margin: 2em; }
h1 { font-size: 1.3em; } h2 { font-size: 1.1em; margin-top: 2em;
     border-bottom: 1px solid #2a3038; padding-bottom: .3em; }
table { border-collapse: collapse; }
td, th { padding: .25em .9em; text-align: right; }
th { color: #8b949e; font-weight: normal; border-bottom: 1px solid #2a3038; }
td:first-child, th:first-child { text-align: left; }
.better { color: #3fb950; } .worse { color: #f85149; }
.flat { color: #8b949e; } .bar { background: #1f6feb; display: inline-block;
height: .7em; } .note { color: #8b949e; font-size: .85em; }
svg { vertical-align: middle; }
"""


def _sparkline(values: List[float], width: int = 120, height: int = 24) -> str:
    """Inline SVG polyline over the value series (min..max scaled)."""
    if len(values) < 2:
        return '<span class="note">n/a</span>'
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    step = width / (len(values) - 1)
    points = " ".join(
        f"{i * step:.1f},{height - 2 - (height - 4) * (v - lo) / span:.1f}"
        for i, v in enumerate(values)
    )
    last_x = (len(values) - 1) * step
    last_y = height - 2 - (height - 4) * (values[-1] - lo) / span
    return (
        f'<svg width="{width}" height="{height}">'
        f'<polyline points="{points}" fill="none" stroke="#58a6ff" '
        f'stroke-width="1.5"/>'
        f'<circle cx="{last_x:.1f}" cy="{last_y:.1f}" r="2.5" fill="#58a6ff"/>'
        "</svg>"
    )



def _bench_section(history: Dict[str, object]) -> str:
    """Per-benchmark trajectory rows from the full history."""
    if not history["records"]:
        return "<h2>benchmark trajectories</h2><p class='note'>no records</p>"
    rows = []
    for bench in history["benchmarks"]:  # type: ignore[union-attr]
        values = bench["values"]
        latest = values[-1]
        if len(values) >= 2 and values[-2] != 0:
            delta = (latest - values[-2]) / abs(values[-2])
            worse = delta > 0 if bench["direction"] == "lower" else delta < 0
            cls = "flat" if abs(delta) < 1e-9 else ("worse" if worse else "better")
            delta_cell = f'<td class="{cls}">{delta:+.1%}</td>'
        else:
            delta_cell = '<td class="flat">—</td>'
        rows.append(
            "<tr>"
            f"<td>{html.escape(bench['name'])}</td>"
            f"<td>{_sparkline(values)}</td>"
            f"<td>{latest:,.4g}&nbsp;{html.escape(str(bench['unit']))}</td>"
            f"{delta_cell}"
            f"<td class='note'>{html.escape(str(bench['kind']))}</td>"
            "</tr>"
        )
    return (
        f"<h2>benchmark trajectories ({history['records']} record(s))</h2>"
        "<table><tr><th>benchmark</th><th>trend</th><th>latest</th>"
        "<th>delta</th><th>kind</th></tr>" + "".join(rows) + "</table>"
    )


def _cpi_section(cpi: List[dict]) -> str:
    """Per-stage CPI stacks as bucket-share bars."""
    if not cpi:
        return "<h2>CPI stacks</h2><p class='note'>no core cycles recorded</p>"
    header = "".join(f"<th>{html.escape(b)}</th>" for b in CPI_BUCKETS)
    rows = []
    for stack in cpi:
        cells = "".join(
            f"<td><span class='bar' style='width:{60 * frac:.0f}px'></span>"
            f" {frac:.0%}</td>"
            for frac in (stack["fractions"][b] for b in CPI_BUCKETS)
        )
        rows.append(
            f"<tr><td>{html.escape(stack['stage'])}</td>"
            f"<td>{stack['cycles']:,.0f}</td>{cells}</tr>"
        )
    return (
        "<h2>CPI stacks</h2>"
        "<table><tr><th>stage</th><th>cycles</th>" + header + "</tr>"
        + "".join(rows)
        + "</table>"
    )


def _requests_section(requests: Dict[str, object]) -> str:
    """SLA-miss attribution table of a request log."""
    meta: dict = requests["meta"]  # type: ignore[assignment]
    totals: dict = requests["totals"]  # type: ignore[assignment]
    head = (
        f"<h2>SLA-miss attribution</h2>"
        f"<p class='note'>{meta.get('runs', '?')} run(s), "
        f"{meta.get('requests', requests['records'])} request(s), "
        f"{meta.get('dropped', 0)} dropped</p>"
    )
    if totals["failovers"] or totals["hedges"] or totals["degraded"]:
        head += (
            f"<p class='note'>fleet: {totals['failovers']} failover(s), "
            f"{totals['hedges']} hedge(s) ({totals['hedges_wasted']} wasted), "
            f"{totals['degraded']} degraded (partial) result(s)</p>"
        )
    attribution: Dict[str, int] = requests["miss_attribution"]  # type: ignore[assignment]
    if not attribution:
        return head + "<p class='note'>every request met its deadline</p>"
    total = sum(attribution.values())
    rows = []
    for cause, count in attribution.items():
        frac = count / total
        rows.append(
            f"<tr><td>{html.escape(cause)}</td><td>{count}</td>"
            f"<td><span class='bar' style='width:{160 * frac:.0f}px'></span>"
            f" {frac:.0%}</td></tr>"
        )
    return (
        head
        + "<table><tr><th>cause</th><th>requests</th><th>share</th></tr>"
        + "".join(rows)
        + f"<tr><td>total missed</td><td>{total}</td><td></td></tr></table>"
    )


#: Health-timeline cell colors (state -> fill).
_HEALTH_COLORS = {
    "idle": "#2a3038",
    "ok": "#1f6f3f",
    "warn": "#b08800",
    "bad": "#b62324",
}


def _fleet_section(cluster: Dict[str, object], latency: Dict[str, object]) -> str:
    """Per-node health timelines + shard heat map of a cluster log."""
    out = ["<h2>fleet view</h2>"]
    health: Optional[dict] = cluster["health"]  # type: ignore[assignment]
    if health is not None:
        rows = []
        for n, states in enumerate(health["states"]):
            cells = "".join(
                f"<td style='background:{_HEALTH_COLORS[state]};"
                "padding:.1em .25em'></td>"
                for state in states
            )
            rows.append(f"<tr><td>node{n}</td>{cells}</tr>")
        legend = " ".join(
            f"<span style='color:{color}'>&#9632;</span>&nbsp;{state}"
            for state, color in _HEALTH_COLORS.items()
        )
        out.append(
            f"<h3>node health ({view.HEALTH_WINDOWS} windows of "
            f"{health['window_ms']:,.1f} ms)</h3>"
            f"<p class='note'>{legend} &mdash; drift detectors on windowed "
            "error rate (bad) and ok-call latency (warn)</p>"
            "<table>" + "".join(rows) + "</table>"
        )

    shards: List[int] = cluster["shards"]  # type: ignore[assignment]
    if shards:
        matrix: List[List[int]] = cluster["shard_calls"]  # type: ignore[assignment]
        peak = max(max(row) for row in matrix)
        header = "".join(f"<th>s{s}</th>" for s in shards)
        rows = []
        for n, counts in zip(cluster["nodes"], matrix):  # type: ignore[call-overload]
            cells = "".join(
                f"<td style='background:rgba(31,111,235,{count / peak:.2f})'>"
                f"{count or ''}</td>"
                for count in counts
            )
            rows.append(f"<tr><td>node{n}</td>{cells}</tr>")
        out.append(
            "<h3>shard calls (node x shard)</h3>"
            "<table><tr><th></th>" + header + "</tr>" + "".join(rows)
            + "</table>"
        )

    if latency["completed"]:
        out.append(
            f"<p class='note'>completed latency over {latency['completed']:,} "
            f"request(s): p50 {latency['p50']:,.2f} ms, "
            f"p95 {latency['p95']:,.2f} ms, "
            f"p99 {latency['p99']:,.2f} ms</p>"
        )
    else:
        out.append(
            "<p class='note'>completed latency: no completed requests "
            "(percentiles blank)</p>"
        )
    return "".join(out)


def _slo_section(slo: Dict[str, object]) -> str:
    """Error-budget trajectories and fired alerts of an SLO log."""
    budgets: List[dict] = slo["budgets"]  # type: ignore[assignment]
    firing: List[dict] = slo["alerts"]  # type: ignore[assignment]
    if not budgets and not firing:
        return "<h2>error budget</h2><p class='note'>empty SLO log</p>"
    out = ["<h2>error budget</h2>"]
    rows = []
    for b in budgets:
        final = b["budget_final"]
        cls = "worse" if final < 0 else ("better" if final >= 0.99 else "flat")
        rows.append(
            "<tr>"
            f"<td>{html.escape(b['scenario'])}</td><td>{html.escape(b['slo'])}</td>"
            f"<td>{_sparkline(b['budget_series'])}</td>"
            f"<td class='{cls}'>{final:+.3f}</td>"
            f"<td>{b['peak_burn']:,.1f}</td><td>{b['alerts']}</td>"
            "</tr>"
        )
    if rows:
        out.append(
            "<table><tr><th>scenario</th><th>SLO</th>"
            "<th>budget remaining</th><th>final</th><th>peak burn</th>"
            "<th>alerts</th></tr>" + "".join(rows) + "</table>"
        )
    if firing:
        alert_rows = "".join(
            "<tr>"
            f"<td>{html.escape(str(a.get('scenario', '')))}</td>"
            f"<td>{html.escape(str(a.get('name', '')))}</td>"
            f"<td>{html.escape(str(a.get('source', '')))}</td>"
            f"<td>{float(a.get('t_ms', 0.0)):,.1f}</td>"
            f"<td>{'' if a.get('node') is None else a['node']}</td>"
            "</tr>"
            for a in firing
        )
        out.append(
            f"<h3>alerts fired ({len(firing)})</h3>"
            "<table><tr><th>scenario</th><th>alert</th><th>source</th>"
            "<th>t_ms</th><th>node</th></tr>" + alert_rows + "</table>"
        )
    else:
        out.append("<p class='note'>no alerts fired</p>")
    return "".join(out)


#: Segment-kind colors for the critical-path attribution bars.
_SEGMENT_COLORS = {
    "queue": "#1f6feb",
    "service": "#1f6f3f",
    "penalty": "#b62324",
    "network": "#8b949e",
    "hedge_wait": "#b08800",
    "recovery": "#a371f7",
    "backoff": "#db6d28",
    "other": "#2a3038",
}


def _critpath_section(critpath: Dict[str, object]) -> str:
    """Attribution bars + what-if table of a critpath log."""
    profiles: List[dict] = critpath["profiles"]  # type: ignore[assignment]
    whatifs: List[dict] = critpath["whatif"]  # type: ignore[assignment]
    if not profiles and not whatifs:
        return "<h2>critical path</h2><p class='note'>empty critpath log</p>"
    out = ["<h2>critical path</h2>"]
    if profiles:
        legend = " ".join(
            f"<span style='color:{color}'>&#9632;</span>&nbsp;{kind}"
            for kind, color in _SEGMENT_COLORS.items()
        )
        rows = []
        for prof in profiles:
            scope = str(prof.get("scope", "?"))
            # Node/shard scopes stay in the log; the page shows the
            # fleet-wide and tail breakdowns.
            if not (scope == "overall" or scope.startswith("tail_")):
                continue
            total = float(prof.get("total_ms", 0.0))
            cells = "".join(
                f"<span class='bar' style='background:"
                f"{_SEGMENT_COLORS.get(kind, '#2a3038')};"
                f"width:{240.0 * dur / total:.0f}px' title='{html.escape(kind)}"
                f" {dur:,.1f} ms'></span>"
                for kind, dur in prof["ranked_segments"]
                if total > 0 and dur > 0
            )
            rows.append(
                "<tr>"
                f"<td>{html.escape(str(prof.get('scenario', '')))}/"
                f"{html.escape(scope)}</td>"
                f"<td>{int(prof.get('requests', 0))}</td>"
                f"<td>{total:,.1f}</td>"
                f"<td>{html.escape(str(prof.get('bottleneck') or '-'))}</td>"
                f"<td style='text-align:left'>{cells}</td>"
                "</tr>"
            )
        out.append(
            f"<p class='note'>{legend}</p>"
            "<table><tr><th>scenario/scope</th><th>requests</th>"
            "<th>total_ms</th><th>bottleneck</th><th>attribution</th></tr>"
            + "".join(rows)
            + "</table>"
        )
    if whatifs:
        rows = []
        for rec in whatifs:
            actual = rec.get("actual")
            predicted = float(rec.get("predicted", 0.0))
            bounds = rec.get("within_bounds")
            cls = "flat" if bounds is None else ("better" if bounds else "worse")
            verdict = "—" if bounds is None else ("ok" if bounds else "MISS")
            rows.append(
                "<tr>"
                f"<td>{html.escape(str(rec.get('scenario', '')))}/"
                f"{html.escape(str(rec.get('knob', '?')))}</td>"
                f"<td>{float(rec.get('value', 0.0)):g}</td>"
                f"<td>{float(rec.get('baseline', 0.0)):,.2f}</td>"
                f"<td>{predicted:,.2f}</td>"
                f"<td>{'—' if actual is None else f'{float(actual):,.2f}'}</td>"
                f"<td class='{cls}'>{verdict}</td>"
                f"<td class='note'>{'est' if rec.get('estimated') else 'exact'}</td>"
                "</tr>"
            )
        out.append(
            "<h3>what-if predictions (p99, ms)</h3>"
            "<table><tr><th>scenario/knob</th><th>value</th>"
            "<th>baseline</th><th>predicted</th><th>actual</th>"
            "<th>verdict</th><th>mode</th></tr>" + "".join(rows) + "</table>"
        )
    return "".join(out)


def render(document: Dict[str, object]) -> str:
    """The dashboard HTML page of a :func:`repro.obs.view.build` document."""
    sections: List[str] = []
    if "history" in document:
        sections.append(_bench_section(document["history"]))  # type: ignore[arg-type]
    if "cpi" in document:
        sections.append(_cpi_section(document["cpi"]))  # type: ignore[arg-type]
    if "requests" in document:
        requests: dict = document["requests"]  # type: ignore[assignment]
        sections.append(_requests_section(requests))
        if requests["cluster"] is not None:
            sections.append(_fleet_section(requests["cluster"], requests["latency"]))
    if "slo" in document:
        sections.append(_slo_section(document["slo"]))  # type: ignore[arg-type]
    if "critpath_log" in document:
        sections.append(_critpath_section(document["critpath_log"]))  # type: ignore[arg-type]
    if not sections:
        sections.append("<p class='note'>no artifacts given</p>")
    return (
        "<!doctype html><html><head><meta charset='utf-8'>"
        "<title>repro observatory</title>"
        f"<style>{_STYLE}</style></head><body>"
        "<h1>repro observatory</h1>"
        + "".join(sections)
        + "</body></html>\n"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "obs_dir", type=Path, metavar="DIR",
        help="observation directory written by repro-experiment --obs",
    )
    parser.add_argument(
        "--history", type=Path, default=DEFAULT_HISTORY,
        help=f"benchmark history JSONL (default {DEFAULT_HISTORY.name})",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("dashboard.html"),
        help="output HTML file (default dashboard.html)",
    )
    args = parser.parse_args(argv)
    page = render(view.build(sink.read(args.obs_dir), history=args.history))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(page)
    print(f"wrote {args.out} ({len(page):,} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
