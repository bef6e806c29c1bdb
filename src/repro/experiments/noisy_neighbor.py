"""Noisy neighbors — adversarial co-location, detection, and QoS defenses.

The paper's at-scale serving analysis (Table 1 SLAs, Fig 17) shares the
socket only between two threads of *our own* model.  Real fleets
co-schedule foreign tenants, and because embedding lookups are
bandwidth-bound, a bus-hogging neighbor destroys p99 while every fault
monitor stays green.  This extension experiment injects foreign
co-runners — a streaming pipeline, a compute-bound batch job, an
adversarial memory-bus locker in seeded on/off windows — through the
shared cache/DRAM models (:mod:`repro.tenants`), and sweeps four serving
modes per mix:

* ``static``    — undefended sharing (the paper's implicit baseline);
* ``partition`` — CAT way-partition + MBA throttle held statically for
  the whole run (defense without detection);
* ``qos``       — the closed loop: obs-signal detection (CPI memory-stall
  share mean shift, miss-level-mix drift) stepping the defenses, with
  hysteresis and probed release;
* ``qos_degraded`` — the QoS loop composed with the overload
  :class:`~repro.serving.degradation.DegradationController` and
  SLA-deadline admission control.

The headline: under the locker the static config violates the Table 1
SLA; the QoS loop detects every injected window from observable signals
alone (zero false positives when no tenant exists) and restores goodput
to >= 0.95x the no-tenant run.  A final cluster scenario scopes tenants
to a subset of nodes (:class:`~repro.serving.faults.NodeTenant`) and
shows load-aware routing shifting work off the contended hosts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.cache_model import analyze_trace_reuse
from ..config import SimConfig
from ..cpu.platform import get_platform
from ..errors import ConfigError
from ..obs.detect import DetectionEvent
from ..serving.cluster import ClusterConfig, ClusterSim
from ..serving.degradation import DegradationController, scheme_ladder
from ..serving.faults import ClusterFaultPlan
from ..serving.server import ServingPolicy, simulate_server
from ..serving.sla import sla_for_model
from ..serving.workload import poisson_arrivals
from ..tenants import (
    DEFAULT_DEFENSE_LADDER,
    ContentionModel,
    QoSController,
    TenantFaultPlan,
    TenantMix,
    TenantWorld,
    compute_tenant,
    locker_tenant,
    node_tenant_slowdowns,
    streaming_tenant,
)
from .base import ExperimentReport
from .resilience import ladder_service_ms
from .workloads import build_workload

EXPERIMENT_ID = "noisy_neighbor"
TITLE = "Noisy-neighbor contention, detection, and QoS defenses"
PAPER_REFERENCE = (
    "Table 1 SLAs; Section 6.5 serving methodology; extension — "
    "multi-tenant co-location the paper never measured"
)

#: Tenant mixes swept (subset-selectable via the ``tenants`` parameter).
TENANT_MIXES = ("none", "streaming", "compute", "locker", "mix")

#: Serving/defense modes swept (subset-selectable via ``defense``).
DEFENSE_MODES = ("static", "partition", "qos", "qos_degraded")

#: QoS probe windows per run horizon (warmup fits before the first
#: locker window at phase 0.25).
_WINDOWS_PER_HORIZON = 96


def _mix(name: str, seed: int) -> TenantMix:
    """The named tenant mix, windows seeded from the run seed."""
    if name == "none":
        return TenantMix((), seed=seed)
    if name == "streaming":
        return TenantMix((streaming_tenant(),), seed=seed)
    if name == "compute":
        return TenantMix((compute_tenant(),), seed=seed)
    if name == "locker":
        return TenantMix((locker_tenant(),), seed=seed)
    if name == "mix":
        return TenantMix(
            (streaming_tenant(), compute_tenant(), locker_tenant()), seed=seed
        )
    raise ConfigError(f"unknown tenant mix {name!r}; expected one of {TENANT_MIXES}")


def _subset(param: Optional[str], universe: Sequence[str], what: str) -> Tuple[str, ...]:
    """Parse a comma-separated subset parameter (None = the full sweep)."""
    if param is None:
        return tuple(universe)
    chosen = tuple(p.strip() for p in str(param).split(",") if p.strip())
    for name in chosen:
        if name not in universe:
            raise ConfigError(
                f"unknown {what} {name!r}; expected a subset of {tuple(universe)}"
            )
    if not chosen:
        raise ConfigError(f"{what} selection must name at least one entry")
    return chosen


def _firing_intervals(
    events: Sequence[DetectionEvent], horizon_ms: float
) -> List[Tuple[float, float]]:
    """[start, end) spans one detector spent firing."""
    out: List[Tuple[float, float]] = []
    start: Optional[float] = None
    for event in sorted(events, key=lambda e: e.t_ms):
        if event.firing and start is None:
            start = event.t_ms
        elif not event.firing and start is not None:
            out.append((start, event.t_ms))
            start = None
    if start is not None:
        out.append((start, horizon_ms))
    return out


def _score_detection(
    controller: QoSController,
    tenant_windows: Sequence[Tuple[str, str, float, float]],
    horizon_ms: float,
    grace_ms: float,
    warmup_end_ms: float,
) -> Dict[str, object]:
    """Recall / false positives / MTTD of the QoS detectors for one run.

    Windows are ``(name, kind, start, end)``.  Only *injectable* windows
    are scored for recall: those starting after detector warmup (an
    always-on tenant is the baseline the detectors calibrate against, not
    an event) and those whose tenant touches the memory system at all
    (a pure-SMT ``compute`` tenant is invisible to memory counters by
    design — and harmless to them).  A scoreable window counts as
    detected when any detector was firing at some point inside it (plus
    ``grace_ms`` of post-window slack for the last probe window).  MTTD
    is first-fire minus window start, 0.0 when the detector was still
    firing from a previous window.  Firing spans that overlap no
    (grace-extended) tenant window — of any kind — are false positives.
    """
    intervals = _firing_intervals(
        controller.mem_detector.events, horizon_ms
    ) + _firing_intervals(controller.mix_detector.events, horizon_ms)
    scoreable = [
        w for w in tenant_windows if w[2] >= warmup_end_ms and w[1] != "compute"
    ]
    detected = 0
    mttd: List[float] = []
    for _, _, start, end in scoreable:
        hits = [
            (fs, fe) for fs, fe in intervals if fs < end + grace_ms and fe > start
        ]
        if hits:
            detected += 1
            first = min(fs for fs, _ in hits)
            mttd.append(max(0.0, first - start))
    false_pos = sum(
        1
        for fs, fe in intervals
        if not any(
            fs < end + grace_ms and fe > start
            for _, _, start, end in tenant_windows
        )
    )
    return {
        "tenant_windows": len(scoreable),
        "windows_detected": detected,
        "false_positives": false_pos,
        "mttd_ms": (sum(mttd) / len(mttd)) if mttd else None,
    }


def run(
    config: Optional[SimConfig] = None,
    model: str = "rm2_1",
    dataset: str = "medium",
    platform: str = "csl",
    num_cores: int = 8,
    scale: float = 0.02,
    batch_size: int = 16,
    num_batches: int = 2,
    num_requests: int = 6000,
    detailed_cores: int = 2,
    offered_load: float = 0.70,
    tenants: Optional[str] = None,
    defense: Optional[str] = None,
    cluster_nodes: int = 4,
) -> ExperimentReport:
    """Tenant-mix x defense-mode sweep plus one node-scoped cluster scenario.

    ``tenants`` / ``defense`` select comma-separated subsets of
    :data:`TENANT_MIXES` / :data:`DEFENSE_MODES` (``None`` sweeps
    everything); the runner forwards them as ``--tenants``/``--defense``.
    """
    config = config or SimConfig()
    spec = get_platform(platform)
    mixes = _subset(tenants, TENANT_MIXES, "tenant mix")
    modes = _subset(defense, DEFENSE_MODES, "defense mode")
    report = ExperimentReport(
        experiment_id=EXPERIMENT_ID, title=TITLE, paper_reference=PAPER_REFERENCE
    )
    wl = build_workload(
        model, dataset, scale=scale, batch_size=batch_size,
        num_batches=num_batches, config=config,
    )
    sla = sla_for_model(wl.model)
    service_ms = ladder_service_ms(wl, spec, num_cores, detailed_cores)

    base_ms = service_ms["baseline"]
    interarrival_ms = base_ms / (num_cores * offered_load)
    horizon_ms = num_requests * interarrival_ms
    window_ms = horizon_ms / _WINDOWS_PER_HORIZON
    arrivals = poisson_arrivals(
        interarrival_ms, num_requests, config.rng("noisy:arrivals")
    )
    accounting = ServingPolicy(deadline_ms=sla.sla_ms, shed_expired=False)
    shedding = ServingPolicy.for_sla(
        sla,
        max_retries=1,
        retry_backoff_ms=max(base_ms, 1e-6),
        max_queue_depth=20 * num_cores,
    )
    reuse = analyze_trace_reuse(
        wl.trace, spec.hierarchy, wl.model.embedding_dim, dataset=dataset
    )
    contention = ContentionModel(wl.model, reuse.reuse, spec, batch_size)

    no_tenant_goodput: Optional[float] = None
    for mix_name in mixes:
        mix = _mix(mix_name, config.seed)
        for mode in modes:
            world = TenantWorld(
                mix,
                contention,
                horizon_ms,
                ladder=DEFAULT_DEFENSE_LADDER,
                initial_step=(len(DEFAULT_DEFENSE_LADDER) - 1)
                if mode == "partition"
                else 0,
            )
            plan = TenantFaultPlan(world, seed=config.seed)
            qos: Optional[QoSController] = None
            policy = accounting
            if mode in ("qos", "qos_degraded"):
                inner = None
                if mode == "qos_degraded":
                    inner = DegradationController(
                        scheme_ladder(service_ms, batch_scale=0.6),
                        sla_ms=sla.sla_ms,
                        window=48,
                        min_samples=12,
                        escalate_margin=0.75,
                        recover_margin=0.4,
                        cooldown=256,
                    )
                    policy = shedding
                qos = QoSController(
                    world, window_ms, inner=inner, seed=config.seed
                )
            server = simulate_server(
                arrivals,
                base_ms,
                num_cores,
                config.rng(f"noisy:{mix_name}:{mode}"),
                fault_plan=plan,
                policy=policy,
                controller=qos,
                label=f"noisy:{mix_name}:{mode}",
            )
            if mix_name == "none" and mode == "static":
                no_tenant_goodput = server.goodput
            row: Dict[str, object] = {
                "scenario": mix_name,
                "mode": mode,
                "p95_ms": server.p95_ms,
                "sla_ms": sla.sla_ms,
                "meets_sla": (
                    server.outcome_count("completed") > 0
                    and server.p95_ms <= sla.sla_ms
                ),
                "goodput": server.goodput,
                "goodput_vs_no_tenant": (
                    server.goodput / no_tenant_goodput
                    if no_tenant_goodput
                    else None
                ),
                "completed": server.outcome_count("completed"),
                "shed": server.outcome_count("shed"),
                "timed_out": server.outcome_count("timed_out"),
                "defense_changes": len(world.changes),
                "final_defense": DEFAULT_DEFENSE_LADDER[world.defense_step].name,
                "final_level": server.final_degradation_level,
            }
            if qos is not None:
                row.update(
                    _score_detection(
                        qos,
                        [
                            (n, a["kind"], s, e)
                            for n, s, e, a in world.tenant_windows()
                        ],
                        horizon_ms,
                        grace_ms=2.0 * window_ms,
                        warmup_end_ms=qos.warmup * window_ms,
                    )
                )
            report.rows.append(row)

    # The cluster scenario runs gentler: past ~0.6 offered load the
    # shard-blind round-robin baseline collapses on call timeouts with no
    # tenant at all, and with longer horizons the (horizon-fraction)
    # locker windows outlast the headroom of the contended shard's one
    # surviving replica — routing only helps while it can absorb the
    # diverted traffic.
    _cluster_scenario(
        report, config, spec, contention, base_ms, sla.sla_ms,
        num_cores, min(num_requests, 2000), min(offered_load, 0.55),
        cluster_nodes,
    )

    report.notes.append(
        f"baseline service {base_ms:.3f} ms/batch on {num_cores} cores; "
        f"offered load {offered_load:.2f}; QoS window {window_ms:.2f} ms; "
        "defense ladder "
        + " -> ".join(d.name for d in DEFAULT_DEFENSE_LADDER)
    )
    report.notes.append(
        "contention is mechanistic: tenant LLC footprints shrink our "
        "effective L3 ways, tenant channel load inflates DRAM latency "
        "through the shared queueing curve, SMT siblings inflate core "
        "time; the QoS loop sees only obs-layer signals (memory-stall "
        "share shift, miss-level-mix drift)"
    )
    return report


def _cluster_scenario(
    report: ExperimentReport,
    config: SimConfig,
    spec,
    contention: ContentionModel,
    base_ms: float,
    sla_ms: float,
    num_cores: int,
    num_requests: int,
    offered_load: float,
    cluster_nodes: int,
) -> None:
    """Tenants on a subset of nodes; routing shifts work off them.

    The locker lands on node 0 only (a realistic bin-packing accident);
    round-robin keeps sending it an equal share while least-loaded reads
    queue depth — an implicit noisy-neighbor detector — and routes
    around the contended host.
    """
    if cluster_nodes < 2:
        return
    cores_per_node = max(1, num_cores // 2)
    total_cores = cluster_nodes * cores_per_node
    interarrival_ms = base_ms / (total_cores * offered_load)
    horizon_ms = num_requests * interarrival_ms
    tenant_faults = node_tenant_slowdowns(
        TenantMix((locker_tenant(),), seed=config.seed),
        contention,
        horizon_ms,
        nodes=(0,),
    )
    scenarios = (
        ("cluster_none", None),
        ("cluster_locker_node0", ClusterFaultPlan(tenant_faults, seed=config.seed)),
    )
    goodput_none: Dict[str, float] = {}
    for scenario, faults in scenarios:
        for routing in ("round_robin", "least_loaded"):
            cluster = ClusterSim(
                ClusterConfig(
                    num_nodes=cluster_nodes,
                    cores_per_node=cores_per_node,
                    mean_service_ms=base_ms,
                    num_shards=cluster_nodes,
                    replication=2,
                    gather_width=1,
                    deadline_ms=sla_ms,
                    max_outstanding=50 * total_cores,
                    routing=routing,
                    faults=faults,
                    seed=config.seed,
                    label=f"noisy:{scenario}:{routing}",
                )
            )
            res = cluster.run(
                poisson_arrivals(
                    interarrival_ms, num_requests, config.rng("noisy:cluster")
                )
            )
            if faults is None:
                goodput_none[routing] = res.goodput
            nofault = goodput_none.get(routing, 0.0)
            report.rows.append(
                {
                    "scenario": scenario,
                    "mode": routing,
                    "p95_ms": res.quality_percentile(95.0),
                    "sla_ms": sla_ms,
                    "meets_sla": (
                        res.outcome_count("completed") > 0
                        and res.quality_percentile(95.0) <= sla_ms
                    ),
                    "goodput": res.goodput,
                    "goodput_vs_no_tenant": (
                        res.goodput / nofault if nofault > 0 else None
                    ),
                    "completed": res.outcome_count("completed"),
                }
            )
