"""Request-scoped tracing: the lifecycle of every serving request.

The serving metrics (``serving.latency_ms`` and friends) answer *how bad*
the tail is; this module answers *why*.  When a :class:`RequestLog` is
attached to the active observation, :func:`repro.serving.server.
simulate_server` records, per logical request, the full lifecycle —
arrival, queue wait, retries with their backoff, the core it ran on, the
degradation scheme in effect at dispatch, every fault window overlapping
its lifetime, and its terminal outcome with a cause — and links each
request to a Chrome-trace span through a stable *exemplar id* so a
histogram bucket can be traced back to the concrete offending requests.

Everything recorded is **simulated time only** — no wall clocks — so the
export is byte-identical for a given seed and fault plan regardless of
host, run count, or ``--jobs`` parallelism (request-logged CLI runs
serialize in-process like all observed runs).  With no log attached the
serving loop takes a single ``is None`` branch per event: results and
throughput are untouched, matching the zero-cost contract of
:mod:`repro.obs.hooks`.

Offline consumers: ``tools/trace_report.py DIR`` prints slowest-N
request timelines and the SLA-miss attribution table of the
``requests.jsonl`` that ``repro-experiment --obs DIR`` writes;
``tools/obs_dashboard.py DIR`` renders the attribution into the HTML
report.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from .ids import request_id

__all__ = [
    "MISS_CAUSES",
    "RequestLog",
    "RunLog",
    "attribute_miss",
    "load_request_log",
    "miss_attribution",
]

#: Version stamp written into every exported line; bump when the record
#: shape changes (validated against ``$defs.request_event`` in
#: ``tools/trace_schema.json``).
SCHEMA_VERSION = 1

#: Attribution buckets for requests that missed their SLA, most specific
#: first (see :func:`attribute_miss`).  The cluster layer adds four
#: fleet-level causes: ``partition``/``node_fault`` cover requests that
#: failed or went late because a node was unreachable or crashed, and
#: ``failover``/``hedge_wasted`` cover requests whose lateness traces to
#: the recovery machinery itself (a failed-over shard call, a hedge that
#: lost the race).
MISS_CAUSES = (
    "shed_queue_full",     # admission control dropped it at arrival
    "expired_on_arrival",  # deadline already passed when it (re-)arrived
    "queue_timeout",       # waited out its queue timeout budget
    "partition",           # a shard call sat out a network partition
    "node_fault",          # a node crash/kill hit one of its shard calls
    "failover",            # completed late after failing over replicas
    "hedge_wasted",        # completed late; a hedge raced and lost
    "contention",          # completed late inside a co-tenant window
    "fault",               # completed late with a fault window overlapping
    "retry_backoff",       # completed late after queue-timeout retries
    "queueing",            # completed late, wait dominated service
    "slow_service",        # completed late, service dominated wait
)


class RunLog:
    """Per-request lifecycle records of **one** serving simulation.

    Created by :meth:`RequestLog.start_run`; the serving loop feeds it
    incremental :meth:`event` calls and one :meth:`finish` /
    :meth:`finish_fast` call with the final per-request arrays.  All
    timestamps are simulated milliseconds.
    """

    def __init__(
        self,
        log: "RequestLog",
        index: int,
        label: str,
        num_cores: int,
        num_requests: int,
        deadline_ms: Optional[float],
    ) -> None:
        self.log = log
        self.index = index
        self.label = label
        self.num_cores = num_cores
        self.num_requests = num_requests
        self.deadline_ms = deadline_ms
        self.records: List[Dict[str, object]] = []
        self._events: List[List[Dict[str, object]]] = [
            [] for _ in range(num_requests)
        ]

    def exemplar_id(self, req: int) -> str:
        """The stable id linking request ``req`` across log, spans, and
        histogram exemplars (see :mod:`repro.obs.ids`)."""
        return request_id(self.index, req)

    def event(self, req: int, kind: str, t_ms: float, **attrs: object) -> None:
        """Record one lifecycle event of request ``req``."""
        entry: Dict[str, object] = {"kind": kind, "t_ms": float(t_ms)}
        if attrs:
            entry.update(attrs)
        self._events[req].append(entry)

    # -- finalization --------------------------------------------------------

    def finish_fast(self, arrivals, starts, services, core_ids, tracer=None) -> None:
        """Build records for a fast-path run (every request completes)."""
        n = int(arrivals.size)
        for i in range(n):
            arrival = float(arrivals[i])
            start = float(starts[i])
            service = float(services[i])
            self._events[i] = [
                {"kind": "arrive", "t_ms": arrival},
                {"kind": "dispatch", "t_ms": start, "core": int(core_ids[i])},
                {"kind": "complete", "t_ms": start + service},
            ]
            self.records.append(
                self._record(
                    req=i,
                    injected=False,
                    arrival_ms=arrival,
                    outcome="completed",
                    cause=None,
                    retries=0,
                    backoff_ms=0.0,
                    wait_ms=start - arrival,
                    service_ms=service,
                    end_ms=start + service,
                    core=int(core_ids[i]),
                    level=None,
                    scheme=None,
                    fault_windows=[],
                )
            )
        self._seal(tracer)

    def finish(
        self,
        *,
        arrivals,
        injected,
        outcomes,
        retry_counts,
        starts,
        services,
        core_of,
        plan=None,
        tracer=None,
    ) -> None:
        """Build records for a resilient-path run from the loop's arrays.

        ``outcomes`` uses the codes of :mod:`repro.serving.server`
        (0 completed / 1 shed / 2 timed out); causes and retry timelines
        come from the incremental :meth:`event` stream.
        """
        from ..serving.server import OUTCOME_NAMES

        windows = plan.windows() if plan is not None and not plan.is_empty else []
        n = int(arrivals.size)
        for i in range(n):
            events = self._events[i]
            arrival = float(arrivals[i])
            outcome = OUTCOME_NAMES[int(outcomes[i])]
            retries = int(retry_counts[i])
            backoff = sum(
                float(e.get("backoff_ms", 0.0))
                for e in events
                if e["kind"] == "timeout_retry"
            )
            cause = None
            for e in events:
                if e["kind"] == "shed":
                    cause = "queue_full"
                elif e["kind"] == "expired":
                    cause = "deadline_expired"
                elif e["kind"] == "timeout":
                    cause = "queue_timeout"
            dispatch = next(
                (e for e in events if e["kind"] == "dispatch"), None
            )
            if outcome == "completed":
                start = float(starts[i])
                service = float(services[i])
                wait: Optional[float] = start - arrival
                end = start + service
                core: Optional[int] = int(core_of[i])
                cause = None
            else:
                wait, service, core = None, None, None
                end = float(events[-1]["t_ms"]) if events else arrival
            self.records.append(
                self._record(
                    req=i,
                    injected=bool(injected[i]) if injected is not None else False,
                    arrival_ms=arrival,
                    outcome=outcome,
                    cause=cause,
                    retries=retries,
                    backoff_ms=backoff,
                    wait_ms=wait,
                    service_ms=service,
                    end_ms=end,
                    core=core,
                    level=dispatch.get("level") if dispatch else None,
                    scheme=dispatch.get("scheme") if dispatch else None,
                    fault_windows=self._overlapping(windows, arrival, end, core),
                )
            )
        self._seal(tracer)

    @staticmethod
    def _overlapping(
        windows: List[Tuple[str, float, float, Dict[str, object]]],
        start_ms: float,
        end_ms: float,
        core: Optional[int],
    ) -> List[str]:
        """Names of fault windows overlapping ``[start_ms, end_ms]``.

        Core-scoped faults (slowdowns, failures) only count when they hit
        the request's assigned core; fleet-wide windows always count.
        """
        out = []
        for name, w_start, w_end, attrs in windows:
            fault_core = attrs.get("core")
            if fault_core is not None and core is not None and fault_core != core:
                continue
            if w_start <= end_ms and start_ms <= w_end:
                out.append(name)
        return out

    def _record(
        self,
        *,
        req: int,
        injected: bool,
        arrival_ms: float,
        outcome: str,
        cause: Optional[str],
        retries: int,
        backoff_ms: float,
        wait_ms: Optional[float],
        service_ms: Optional[float],
        end_ms: float,
        core: Optional[int],
        level: Optional[int],
        scheme: Optional[str],
        fault_windows: List[str],
    ) -> Dict[str, object]:
        deadline_met: Optional[bool] = None
        if self.deadline_ms is not None:
            deadline_met = (
                outcome == "completed"
                and end_ms <= arrival_ms + self.deadline_ms
            )
        return {
            "kind": "request",
            "schema_version": SCHEMA_VERSION,
            "run": self.index,
            "label": self.label,
            "req": req,
            "id": self.exemplar_id(req),
            "injected": injected,
            "arrival_ms": arrival_ms,
            "deadline_ms": self.deadline_ms,
            "outcome": outcome,
            "cause": cause,
            "retries": retries,
            "backoff_ms": backoff_ms,
            "wait_ms": wait_ms,
            "service_ms": service_ms,
            "latency_ms": (end_ms - arrival_ms) if outcome == "completed" else None,
            "end_ms": end_ms,
            "core": core,
            "degradation_level": level,
            "scheme": scheme,
            "fault_windows": fault_windows,
            "deadline_met": deadline_met,
            "events": self._events[req],
        }

    def add_record(
        self,
        *,
        req: int,
        arrival_ms: float,
        outcome: str,
        end_ms: float,
        cause: Optional[str] = None,
        retries: int = 0,
        backoff_ms: float = 0.0,
        wait_ms: Optional[float] = None,
        service_ms: Optional[float] = None,
        core: Optional[int] = None,
        level: Optional[int] = None,
        scheme: Optional[str] = None,
        fault_windows: Optional[List[str]] = None,
        injected: bool = False,
        **extra: object,
    ) -> Dict[str, object]:
        """Append one request record built by an external simulator.

        The cluster loop (:mod:`repro.serving.cluster`) uses this instead
        of :meth:`finish`/:meth:`finish_fast` because its per-request
        shape (shard calls, failovers, hedges) does not map onto the
        single-box arrays.  ``extra`` keys are merged into the record
        verbatim (e.g. ``node``, ``shards``, ``failovers``, ``hedges``,
        ``hedges_wasted``); the schema allows additional fields.  Records
        must be added in request order; call :meth:`finish_custom` once
        at the end.
        """
        record = self._record(
            req=req,
            injected=injected,
            arrival_ms=arrival_ms,
            outcome=outcome,
            cause=cause,
            retries=retries,
            backoff_ms=backoff_ms,
            wait_ms=wait_ms,
            service_ms=service_ms,
            end_ms=end_ms,
            core=core,
            level=level,
            scheme=scheme,
            fault_windows=list(fault_windows) if fault_windows else [],
        )
        if outcome == "degraded":
            # A partial result still has an end-to-end latency.
            record["latency_ms"] = end_ms - arrival_ms
        record.update(extra)
        self.records.append(record)
        return record

    def finish_custom(self, tracer=None) -> None:
        """Seal a run whose records came through :meth:`add_record`."""
        self._seal(tracer)

    def completed_ids(self) -> List[str]:
        """Exemplar ids of completed requests, in arrival order (aligned
        with ``ServerResult.latencies_ms``)."""
        return [
            str(r["id"]) for r in self.records if r["outcome"] == "completed"
        ]

    def _seal(self, tracer) -> None:
        """Apply the log-wide bound and emit one linked span per request."""
        kept = self.log._admit(len(self.records))
        if kept < len(self.records):
            del self.records[kept:]
            del self._events[kept:]
        if tracer is None or not self.records:
            return
        tid = tracer.new_sim_track(f"serving.requests:{self.label} (ms)")
        for record in self.records:
            tracer.add_sim_span(
                f"req[{record['req']}]",
                "serving.request",
                float(record["arrival_ms"]),
                float(record["end_ms"]) - float(record["arrival_ms"]),
                tid=tid,
                args={
                    "id": record["id"],
                    "outcome": record["outcome"],
                    "cause": record["cause"],
                    "core": record["core"],
                    "retries": record["retries"],
                },
            )


class RequestLog:
    """All request records of one observed session, bounded like the tracer.

    Attach one to an :class:`repro.obs.hooks.Observation` (the runner's
    ``--obs DIR`` does this) and every serving simulation in the
    session appends one :class:`RunLog`.  Once ``max_requests`` records
    are held, further requests are counted in :attr:`dropped` but not
    kept, so a truncated log is never mistaken for a complete one.
    """

    def __init__(self, max_requests: int = 1_000_000) -> None:
        self.runs: List[RunLog] = []
        self.max_requests = max_requests
        self.dropped = 0
        self._kept = 0

    def start_run(
        self,
        label: Optional[str] = None,
        num_cores: int = 0,
        num_requests: int = 0,
        deadline_ms: Optional[float] = None,
    ) -> RunLog:
        """Open the log of one serving simulation."""
        run = RunLog(
            log=self,
            index=len(self.runs),
            label=label if label else f"run{len(self.runs)}",
            num_cores=num_cores,
            num_requests=num_requests,
            deadline_ms=deadline_ms,
        )
        self.runs.append(run)
        return run

    def _admit(self, count: int) -> int:
        """Budget ``count`` new records; returns how many may be kept."""
        kept = max(0, min(count, self.max_requests - self._kept))
        self._kept += kept
        self.dropped += count - kept
        return kept

    @property
    def num_requests(self) -> int:
        """Total request records held (drops excluded)."""
        return self._kept

    def records(self) -> List[Dict[str, object]]:
        """Every request record across runs, in run/arrival order."""
        out: List[Dict[str, object]] = []
        for run in self.runs:
            out.extend(run.records)
        return out

    def meta(self) -> Dict[str, object]:
        """The header record summarizing the whole log."""
        return {
            "kind": "request_log_meta",
            "schema_version": SCHEMA_VERSION,
            "runs": len(self.runs),
            "requests": self.num_requests,
            "dropped": self.dropped,
        }

    def to_jsonl(self, path) -> int:
        """Write the meta header plus one line per request; returns the
        request count.  Deterministic: simulated time only, fixed key
        order."""
        with open(path, "w") as fh:
            fh.write(json.dumps(self.meta()) + "\n")
            for record in self.records():
                fh.write(json.dumps(record) + "\n")
        return self.num_requests


def load_request_log(path) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
    """Read a request-log JSONL export: ``(meta, request_records)``."""
    meta: Dict[str, object] = {}
    records: List[Dict[str, object]] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("kind") == "request_log_meta":
                meta = rec
            else:
                records.append(rec)
    return meta, records


def attribute_miss(record: Dict[str, object]) -> Optional[str]:
    """Primary cause of one request's SLA miss, or None if it didn't miss.

    A request "missed" when it did not complete (cluster runs count
    ``degraded`` partial results and ``failed`` requests here), or
    completed past its deadline.  Causes are checked most-specific first
    (see :data:`MISS_CAUSES`): terminal causes from the admission
    machinery win outright; fleet-level causes (partition, node fault,
    failover, wasted hedge) explain a late completion before the
    single-box ones; an overlapping fault window explains the miss before
    retries, and queueing before slow service.
    """
    outcome = record.get("outcome")
    if outcome == "shed":
        return "shed_queue_full"
    if outcome == "timed_out":
        if record.get("cause") == "deadline_expired":
            return "expired_on_arrival"
        return "queue_timeout"
    if outcome in ("failed", "degraded"):
        # Cluster outcomes: the request lost shard calls it never
        # recovered.  The recorded cause says what took them out.
        if record.get("cause") == "partition":
            return "partition"
        return "node_fault"
    if record.get("deadline_met") is False:
        if record.get("cause") == "partition":
            return "partition"
        if record.get("cause") == "node_fault":
            return "node_fault"
        if record.get("failovers"):
            return "failover"
        if record.get("hedges_wasted"):
            return "hedge_wasted"
        windows = record.get("fault_windows") or []
        # Tenant windows (named ``tenant_<kind>:<name>`` by the tenancy
        # layer) are contention, not faults: nothing broke, a neighbor
        # squeezed the shared LLC/DRAM.  More specific than plain "fault".
        if any(str(w).startswith("tenant") for w in windows):
            return "contention"
        if windows:
            return "fault"
        if record.get("retries"):
            return "retry_backoff"
        wait = record.get("wait_ms") or 0.0
        service = record.get("service_ms") or 0.0
        return "queueing" if wait > service else "slow_service"
    return None


def miss_attribution(
    records: List[Dict[str, object]],
) -> Dict[str, int]:
    """SLA-miss cause -> request count over a record list.

    Only causes that occurred appear; an empty dict means every request
    met its deadline (or no deadline was configured).
    """
    out: Dict[str, int] = {}
    for record in records:
        cause = attribute_miss(record)
        if cause is not None:
            out[cause] = out.get(cause, 0) + 1
    return {cause: out[cause] for cause in MISS_CAUSES if cause in out}
