"""Critical-path extraction: where each request's latency actually went.

The request log says a request took 38 ms and missed its deadline; this
module says *which segment of its timeline was on the blocking chain* —
the on-node queue wait, the service time itself, the contention penalty a
noisy neighbor added, the network hops, the hedge delay the request sat
out, the failover recovery after a crash, or the retry backoff.  That is
the attribution the paper's Table 1 / fig17 argument needs at request
granularity, and the bottleneck signal the autoscaling and autotuning
layers consume.

Two extractors share one segment taxonomy (:data:`SEGMENT_KINDS`):

* **single box** (:func:`_extract_single`) — walks the lifecycle event
  stream of :mod:`repro.serving.server` / ``fastserve`` chronologically:
  ``arrive→dispatch`` is queueing, ``dispatch→complete`` is service with
  the fault/straggler/degradation multiplier carved out as ``penalty``,
  ``timeout_retry→retry_arrive`` is backoff.
* **cluster** (:func:`_extract_cluster`) — reconstructs the blocking
  chain backward from the slowest gather slot: the winning attempt's
  interval decomposes into ``network`` (two hops), on-node ``queue``,
  base ``service`` and slowdown ``penalty`` (from the ``call_ok``
  attrs the cluster records); a winner submitted by a failover charges
  the failed attempt's interval to ``recovery``; a winner submitted by
  a hedge charges the armed delay to ``hedge_wait``; the walk repeats
  until it reaches the request's arrival.

**Conservation invariant**: for every request the chronological segment
durations sum *exactly* (in float sim-ms) to ``end_ms - arrival_ms``.
The last chronological segment's duration is defined as the left-to-right
remainder ``total - sum(previous)``, so :func:`check_conservation`'s
sequential subtraction reaches exactly ``0.0`` — any residual float dust
is folded into the final segment (which may, in pathological cases, go
marginally negative; the profile aggregates are unaffected).

Aggregation (:func:`aggregate_profiles`) answers "where does p99 go":
fleet-wide per-kind breakdowns overall, over the p99 tail, and per
node/shard, exported as schema-validated ``critpath_profile`` records
(``$defs.critpath_record`` in ``tools/trace_schema.json``) and rendered
by ``tools/trace_report.py DIR`` (from any request log) and the
dashboard panel.

Everything here is a pure function of the logged records — deterministic
across hosts and ``--jobs``, no simulation, no randomness, no wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "CRITPATH_SCHEMA_VERSION",
    "SEGMENT_KINDS",
    "CriticalPath",
    "Segment",
    "aggregate_profiles",
    "bottleneck",
    "check_conservation",
    "extract_critical_path",
    "extract_paths",
    "profile_records",
]

#: Version stamp of the exported ``critpath_profile`` record shape.
CRITPATH_SCHEMA_VERSION = 1

#: The segment taxonomy, in canonical display order.
SEGMENT_KINDS = (
    "queue",       # waiting for a core (single box) or on-node (cluster)
    "service",     # base service time, multipliers removed
    "penalty",     # service inflation: faults, stragglers, degradation
    "network",     # cluster hops of the winning attempt
    "hedge_wait",  # armed hedge delay the request sat out
    "recovery",    # a failed attempt's lifetime before failover
    "backoff",     # retry backoff between queue timeouts
    "other",       # unexplained remainder (kept, never hidden)
)


@dataclass
class Segment:
    """One chronological piece of a request's blocking chain."""

    kind: str
    dur_ms: float
    node: Optional[int] = None
    shard: Optional[int] = None
    cause: Optional[str] = None


@dataclass
class CriticalPath:
    """The reconstructed blocking chain of one request."""

    req: int
    id: str
    outcome: str
    arrival_ms: float
    end_ms: float
    segments: List[Segment] = field(default_factory=list)

    @property
    def total_ms(self) -> float:
        return self.end_ms - self.arrival_ms

    def by_kind(self) -> Dict[str, float]:
        """Segment durations summed per kind (only kinds present)."""
        out: Dict[str, float] = {}
        for seg in self.segments:
            out[seg.kind] = out.get(seg.kind, 0.0) + seg.dur_ms
        return out


def check_conservation(path: CriticalPath) -> float:
    """Sequential left-to-right residual; exactly ``0.0`` when conserved.

    This is the invariant the pinned suites lock: subtracting each
    segment duration from the total in order must land on exact float
    zero, because the last segment's duration is defined as that prefix
    remainder by :func:`_seal`.
    """
    residual = path.total_ms
    for seg in path.segments:
        residual -= seg.dur_ms
    return residual


def _seal(path: CriticalPath) -> CriticalPath:
    """Enforce exact conservation by folding float dust into the tail.

    The final chronological segment's duration is *defined* as
    ``total - sum(previous)`` evaluated by the same left-to-right
    subtraction :func:`check_conservation` performs, which makes the
    invariant exact by construction rather than approximately true.
    """
    if not path.segments:
        if path.total_ms != 0.0:
            path.segments.append(Segment("other", 0.0))
        else:
            return path
    remainder = path.total_ms
    for seg in path.segments[:-1]:
        remainder -= seg.dur_ms
    path.segments[-1].dur_ms = remainder
    return path


# -- single box ---------------------------------------------------------------


def _multiplier(event: Dict[str, object]) -> float:
    """Service inflation recorded at dispatch (absent attrs count as 1)."""
    mult = 1.0
    for key in ("fault_mult", "straggler_mult", "scale"):
        value = event.get(key)
        if value is not None:
            mult *= float(value)
    return mult


def _extract_single(record: Dict[str, object]) -> CriticalPath:
    """Chronological event walk of a single-box request lifecycle."""
    arrival = float(record["arrival_ms"])
    path = CriticalPath(
        req=int(record["req"]),
        id=str(record["id"]),
        outcome=str(record["outcome"]),
        arrival_ms=arrival,
        end_ms=float(record["end_ms"]),
    )
    core = record.get("core")
    node = int(core) if core is not None else None
    cursor = arrival
    mult = 1.0

    def close(kind: str, t: float, cause: Optional[str] = None) -> None:
        nonlocal cursor
        if t > cursor:
            path.segments.append(Segment(kind, t - cursor, node=node, cause=cause))
        cursor = t

    for event in record.get("events", []):
        kind = str(event.get("kind"))
        t = float(event.get("t_ms", cursor))
        if kind in ("arrive",):
            cursor = max(cursor, t)
        elif kind == "retry_arrive":
            close("backoff", t)
        elif kind == "dispatch":
            close("queue", t)
            mult = _multiplier(event)
        elif kind == "complete":
            span = t - cursor
            base = span / mult if mult > 0 else span
            if base > 0.0:
                path.segments.append(Segment("service", base, node=node))
            if span - base != 0.0:
                path.segments.append(
                    Segment("penalty", span - base, node=node, cause="slowdown")
                )
            cursor = t
        elif kind in ("timeout_retry", "shed", "expired", "timeout"):
            # Time since the last phase change was spent waiting in (or
            # for) the queue; terminal kinds end the walk naturally.
            close("queue", t, cause=kind if kind != "timeout_retry" else None)
        # other kinds (degradation transitions etc.) are instantaneous
    if path.end_ms > cursor:
        path.segments.append(Segment("other", path.end_ms - cursor, node=node))
    return _seal(path)


# -- cluster ------------------------------------------------------------------


class _SlotLog:
    """Per-gather-slot event index of one cluster request (keyed by shard;
    the gather samples shards without replacement, so the shard IS the
    slot identity)."""

    __slots__ = ("shard", "calls", "oks", "fails", "hedges", "failovers")

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.calls: List[Tuple[float, int, bool]] = []  # (t, node, hedge)
        self.oks: List[Tuple[float, int, Dict[str, object]]] = []
        self.fails: List[Tuple[float, int, Optional[str]]] = []
        self.hedges: List[Tuple[float, int, Optional[float]]] = []  # (t, node, q_ms)
        self.failovers: List[float] = []

    def resolve(self, arrival: float) -> float:
        """When this slot stopped blocking the gather: first delivery
        (later deliveries are wasted hedges), else the final failure that
        exhausted the replicas, else the arrival (no routable replica)."""
        if self.oks:
            return self.oks[0][0]
        if self.fails:
            return self.fails[-1][0]
        return arrival

    def submit_of(self, node: int) -> Optional[float]:
        """Submit time of this slot's attempt on ``node`` (the router
        never reuses a tried node within a slot, so it is unique)."""
        for t, n, _ in self.calls:
            if n == node:
                return t
        return None


def _index_slots(record: Dict[str, object]) -> Dict[int, _SlotLog]:
    slots: Dict[int, _SlotLog] = {}
    for shard in record.get("shards", []):
        slots.setdefault(int(shard), _SlotLog(int(shard)))
    for event in record.get("events", []):
        shard = event.get("shard")
        if shard is None:
            continue
        slot = slots.setdefault(int(shard), _SlotLog(int(shard)))
        kind = event.get("kind")
        t = float(event.get("t_ms", 0.0))
        if kind == "shard_call":
            slot.calls.append((t, int(event["node"]), bool(event.get("hedge"))))
        elif kind == "call_ok":
            slot.oks.append((t, int(event["node"]), event))
        elif kind == "call_failed":
            cause = event.get("cause")
            slot.fails.append(
                (t, int(event["node"]), str(cause) if cause else None)
            )
        elif kind == "hedge":
            q = event.get("q_ms")
            slot.hedges.append(
                (t, int(event["node"]), float(q) if q is not None else None)
            )
        elif kind == "failover":
            slot.failovers.append(t)
    return slots


def _attempt_segments(
    slot: _SlotLog,
    node: int,
    submit: float,
    resolve: float,
    attrs: Optional[Dict[str, object]],
    cause: Optional[str],
) -> List[Segment]:
    """Decompose one attempt interval ``[submit, resolve]``.

    With the recorded ``call_ok`` decomposition the interval splits into
    network + queue + base service + slowdown penalty (emitted in that
    canonical order; the two network hops actually bracket the on-node
    time).  A failed attempt, or an ok without attrs (older logs), is one
    opaque segment.
    """
    span = resolve - submit
    if attrs is not None and attrs.get("queue_ms") is not None:
        queue = float(attrs["queue_ms"])
        service = float(attrs.get("service_ms", 0.0))
        slow = float(attrs.get("slow") or 1.0)
        network = span - queue - service
        base = service / slow if slow > 0 else service
        out: List[Segment] = []
        if network != 0.0:
            out.append(Segment("network", network, node=node, shard=slot.shard))
        if queue != 0.0:
            out.append(Segment("queue", queue, node=node, shard=slot.shard))
        if base != 0.0:
            out.append(Segment("service", base, node=node, shard=slot.shard))
        if service - base != 0.0:
            out.append(
                Segment(
                    "penalty", service - base, node=node, shard=slot.shard,
                    cause="node_slow",
                )
            )
        return out
    if attrs is not None:
        return [Segment("service", span, node=node, shard=slot.shard)]
    return [
        Segment("recovery", span, node=node, shard=slot.shard, cause=cause)
    ]


def _explain_submission(
    slot: _SlotLog, t_submit: float, arrival: float
) -> List[Segment]:
    """Why was an attempt submitted at ``t_submit``?  Chronological
    segments covering ``[arrival, t_submit]``."""
    if t_submit <= arrival:
        return []
    if t_submit in slot.failovers:
        # The failover fired the instant its predecessor died; charge the
        # dead attempt's whole lifetime to recovery and keep walking.
        for t_fail, node_f, cause in slot.fails:
            if t_fail == t_submit:
                sub = slot.submit_of(node_f)
                if sub is None:
                    break
                return _explain_submission(slot, sub, arrival) + [
                    Segment(
                        "recovery", t_submit - sub, node=node_f,
                        shard=slot.shard, cause=cause,
                    )
                ]
    if any(t == t_submit for t, _, _ in slot.hedges):
        # The hedge timer armed when the previous attempt went out; the
        # wait between arming and firing is the hedge delay sat out.
        arming = max(
            (t for t, _, _ in slot.calls if t < t_submit), default=None
        )
        if arming is not None:
            return _explain_submission(slot, arming, arrival) + [
                Segment("hedge_wait", t_submit - arming, shard=slot.shard)
            ]
    return [Segment("other", t_submit - arrival, shard=slot.shard)]


def _extract_cluster(record: Dict[str, object]) -> CriticalPath:
    """Backward blocking-chain walk from the slowest gather slot."""
    arrival = float(record["arrival_ms"])
    path = CriticalPath(
        req=int(record["req"]),
        id=str(record["id"]),
        outcome=str(record["outcome"]),
        arrival_ms=arrival,
        end_ms=float(record["end_ms"]),
    )
    if record["outcome"] == "shed":
        return _seal(path)  # dropped at arrival: zero-length path
    slots = _index_slots(record)
    if not slots:
        return _seal(path)
    # The request finished when its last slot resolved: the critical slot
    # is the max resolver (smallest shard breaks exact-float ties).
    critical = min(
        slots.values(), key=lambda s: (-s.resolve(arrival), s.shard)
    )
    resolve = critical.resolve(arrival)
    if critical.oks:
        t_ok, node, attrs = critical.oks[0]
        cause: Optional[str] = None
    elif critical.fails:
        t_ok, node, cause = critical.fails[-1]
        attrs = None
    else:  # no routable replica existed at arrival
        return _seal(path)
    submit = critical.submit_of(node)
    if submit is None:  # defensive: a log missing its shard_call line
        path.segments.append(
            Segment("other", resolve - arrival, shard=critical.shard)
        )
        return _seal(path)
    path.segments.extend(_explain_submission(critical, submit, arrival))
    path.segments.extend(
        _attempt_segments(critical, node, submit, resolve, attrs, cause)
    )
    return _seal(path)


def extract_critical_path(record: Dict[str, object]) -> CriticalPath:
    """The blocking chain of one request-log record (either layer).

    Cluster records are recognized by their ``shards`` field; everything
    else walks the single-box lifecycle.  The returned path satisfies the
    conservation invariant exactly (see :func:`check_conservation`).
    """
    if record.get("shards") is not None:
        return _extract_cluster(record)
    return _extract_single(record)


def extract_paths(records: Sequence[Dict[str, object]]) -> List[CriticalPath]:
    """Extract every record's critical path, in record order."""
    return [extract_critical_path(rec) for rec in records]


# -- aggregation --------------------------------------------------------------


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * len(ordered))) - 1))
    return ordered[rank]


def _accumulate(
    paths: Sequence[CriticalPath],
) -> Tuple[Dict[str, float], float]:
    segments: Dict[str, float] = {}
    total = 0.0
    for path in paths:
        total += path.total_ms
        for seg in path.segments:
            segments[seg.kind] = segments.get(seg.kind, 0.0) + seg.dur_ms
    return segments, total


def bottleneck(segments: Dict[str, float]) -> Optional[str]:
    """The dominant segment kind of a profile — the scalar signal the
    autoscaler ("queue" = add capacity) and autotuner ("hedge_wait" =
    lower the floor; "penalty" = partition the cache) key off."""
    candidates = [(dur, kind) for kind, dur in segments.items() if dur > 0]
    if not candidates:
        return None
    # Max duration; canonical order breaks ties deterministically.
    return max(
        candidates, key=lambda dk: (dk[0], -SEGMENT_KINDS.index(dk[1]))
    )[1]


def aggregate_profiles(
    paths: Sequence[CriticalPath],
    scenario: str = "",
    tail_quantile: float = 99.0,
) -> List[Dict[str, object]]:
    """Fleet-wide "where does the time go" profiles over extracted paths.

    Returns schema-valid ``critpath_profile`` records (one per scope):
    ``overall``, the latency tail at ``tail_quantile`` (requests at or
    above that percentile of end-to-end time), and one per node and per
    shard that appears on any critical path.  Each record carries the
    summed per-kind segment milliseconds and the resulting bottleneck.
    """
    profiles: List[Dict[str, object]] = []

    def profile(scope: str, subset: Sequence[CriticalPath]) -> None:
        segments, total = _accumulate(subset)
        profiles.append(
            {
                "kind": "critpath_profile",
                "schema_version": CRITPATH_SCHEMA_VERSION,
                "scenario": scenario,
                "scope": scope,
                "requests": len(subset),
                "total_ms": total,
                "segments": {k: segments[k] for k in sorted(segments)},
                "bottleneck": bottleneck(segments),
            }
        )

    profile("overall", paths)
    totals = [p.total_ms for p in paths]
    cut = _percentile(totals, tail_quantile)
    profile(
        f"tail_p{tail_quantile:g}",
        [p for p in paths if p.total_ms >= cut and p.total_ms > 0],
    )
    by_node: Dict[int, Dict[str, float]] = {}
    by_shard: Dict[int, Dict[str, float]] = {}
    node_reqs: Dict[int, int] = {}
    shard_reqs: Dict[int, int] = {}
    for path in paths:
        nodes_seen = set()
        shards_seen = set()
        for seg in path.segments:
            if seg.node is not None:
                agg = by_node.setdefault(seg.node, {})
                agg[seg.kind] = agg.get(seg.kind, 0.0) + seg.dur_ms
                nodes_seen.add(seg.node)
            if seg.shard is not None:
                agg = by_shard.setdefault(seg.shard, {})
                agg[seg.kind] = agg.get(seg.kind, 0.0) + seg.dur_ms
                shards_seen.add(seg.shard)
        for n in nodes_seen:
            node_reqs[n] = node_reqs.get(n, 0) + 1
        for s in shards_seen:
            shard_reqs[s] = shard_reqs.get(s, 0) + 1
    for node in sorted(by_node):
        segments = by_node[node]
        profiles.append(
            {
                "kind": "critpath_profile",
                "schema_version": CRITPATH_SCHEMA_VERSION,
                "scenario": scenario,
                "scope": f"node:{node}",
                "requests": node_reqs[node],
                "total_ms": sum(segments.values()),
                "segments": {k: segments[k] for k in sorted(segments)},
                "bottleneck": bottleneck(segments),
            }
        )
    for shard in sorted(by_shard):
        segments = by_shard[shard]
        profiles.append(
            {
                "kind": "critpath_profile",
                "schema_version": CRITPATH_SCHEMA_VERSION,
                "scenario": scenario,
                "scope": f"shard:{shard}",
                "requests": shard_reqs[shard],
                "total_ms": sum(segments.values()),
                "segments": {k: segments[k] for k in sorted(segments)},
                "bottleneck": bottleneck(segments),
            }
        )
    return profiles


def profile_records(
    records: Sequence[Dict[str, object]],
    scenario: str = "",
    tail_quantile: float = 99.0,
) -> List[Dict[str, object]]:
    """Extract + aggregate in one call (the emitters' entry point)."""
    return aggregate_profiles(
        extract_paths(records), scenario=scenario, tail_quantile=tail_quantile
    )
