"""Cluster resilience — fleet-level SLA and goodput under node faults.

The single-box ``resilience`` experiment asks what one server does when
its cores misbehave; this one asks what a *fleet* does when whole nodes
do.  A sharded, replicated cluster (:mod:`repro.serving.cluster`) serves
a seeded workload while the sweep crosses three axes:

* **replication factor** — 1 (each shard lives on one node) vs the
  configured factor (default 2);
* **fault intensity** — no faults, a node kill-and-repair covering a
  third of the run, and a chaos mix (network partition + persistently
  slow node);
* **routing policy** — round-robin, least-outstanding-requests, and
  least-outstanding + hedged stragglers.

The headline: with node kills active, a replication>=2 + hedging
configuration holds the Table 1 SLA (quality p95, where any request not
completed in full ranks as +inf) and keeps goodput within 5% of its
no-fault baseline, while the unreplicated cluster *fatally* violates the
SLA — its quality p95 is unbounded because every request that gathered
from the dead node's shards lost recall or failed outright.

Everything is seeded and deterministic across ``--jobs`` (arrivals from
the config stream, gather patterns and node service times from
``SeedSequence([seed, stream, ...])``), so cluster rows are byte-stable
and gate-able in the regression observatory.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..config import SimConfig
from ..cpu.platform import get_platform
from ..serving.cluster import ClusterConfig, ClusterSim
from ..serving.degradation import DegradationController, scheme_ladder
from ..serving.faults import (
    ClusterFaultPlan,
    NodeCrash,
    NodePartition,
    NodeSlow,
)
from ..serving.router import HedgePolicy
from ..serving.sla import sla_for_model
from ..serving.workload import poisson_arrivals
from .base import ExperimentReport
from .resilience import ladder_service_ms
from .workloads import build_workload

EXPERIMENT_ID = "cluster_resilience"
TITLE = "Cluster SLA and goodput under node-scoped faults"
PAPER_REFERENCE = "Table 1 SLAs; at-scale serving under fleet faults"


def _scenarios(
    horizon_ms: float, num_nodes: int, seed: int
) -> List[Tuple[str, Optional[ClusterFaultPlan]]]:
    """The node-fault sweep, windows scaled to the run horizon."""
    kill = (0.25 * horizon_ms, 0.60 * horizon_ms)
    part = (0.20 * horizon_ms, 0.45 * horizon_ms)
    slow = (0.50 * horizon_ms, 0.80 * horizon_ms)
    scenarios: List[Tuple[str, Optional[ClusterFaultPlan]]] = [("none", None)]
    scenarios.append(
        (
            "node_kill",
            ClusterFaultPlan(
                [NodeCrash(1 % num_nodes, *kill)], seed=seed
            ),
        )
    )
    chaos = [NodeSlow(0, *slow, factor=4.0)]
    if num_nodes > 2:
        chaos.append(NodePartition(2, *part))
    scenarios.append(("chaos", ClusterFaultPlan(chaos, seed=seed)))
    return scenarios


def run(
    config: Optional[SimConfig] = None,
    model: str = "rm1",
    dataset: str = "low",
    platform: str = "csl",
    num_nodes: int = 4,
    cores_per_node: int = 4,
    replication: int = 2,
    num_shards: int = 8,
    gather_width: int = 2,
    scale: float = 0.02,
    batch_size: int = 16,
    num_batches: int = 2,
    num_requests: int = 20000,
    detailed_cores: int = 2,
    offered_load: float = 0.55,
    hop_ms: float = 0.1,
) -> ExperimentReport:
    """Replication x fault x routing sweep over a simulated cluster.

    ``num_requests`` scales the workload (the acceptance run uses a
    million); every cell replays the same seeded arrival process through
    an independently seeded cluster world, so cells are comparable and
    rows deterministic across ``--jobs``.
    """
    config = config or SimConfig()
    spec = get_platform(platform)
    report = ExperimentReport(
        experiment_id=EXPERIMENT_ID, title=TITLE, paper_reference=PAPER_REFERENCE
    )
    wl = build_workload(
        model, dataset, scale=scale, batch_size=batch_size,
        num_batches=num_batches, config=config,
    )
    sla = sla_for_model(wl.model)
    service_ms = ladder_service_ms(wl, spec, cores_per_node, detailed_cores)

    base_ms = service_ms["baseline"]
    call_ms = base_ms / gather_width  # one shard's slice of a batch
    total_cores = num_nodes * cores_per_node
    interarrival_ms = base_ms / (total_cores * offered_load)
    horizon_ms = num_requests * interarrival_ms
    arrivals = poisson_arrivals(
        interarrival_ms, num_requests, config.rng("cluster:arrivals")
    )
    call_timeout_ms = max(4.0 * call_ms, sla.sla_ms / 4.0)
    # The floor keeps hedges aimed at genuine stragglers (a hedge storm
    # under healthy load would cost more capacity than it saves).
    hedge = HedgePolicy(
        quantile=95.0, min_ms=max(1.0, 3.0 * call_ms), window=128, max_hedges=1
    )
    ladder = scheme_ladder(service_ms, batch_scale=0.6)

    def controller_factory(node: int) -> DegradationController:
        # Per-node closed loop: the node's local latency budget is its
        # share of the SLA (the call timeout); windows are short because
        # shard calls are much more frequent than whole batches.
        return DegradationController(
            ladder,
            sla_ms=call_timeout_ms,
            window=48,
            min_samples=12,
            escalate_margin=0.75,
            recover_margin=0.4,
            cooldown=256,
        )

    policies: List[Tuple[str, str, Optional[HedgePolicy]]] = [
        ("round_robin", "round_robin", None),
        ("least_loaded", "least_loaded", None),
        ("least_loaded_hedge", "least_loaded", hedge),
    ]
    replications = sorted({1, max(1, min(replication, num_nodes))})
    baselines: Dict[Tuple[int, str], float] = {}

    for scenario, plan in _scenarios(horizon_ms, num_nodes, config.seed):
        for repl in replications:
            for policy_name, routing, hedge_policy in policies:
                cluster = ClusterSim(
                    ClusterConfig(
                        num_nodes=num_nodes,
                        cores_per_node=cores_per_node,
                        mean_service_ms=call_ms,
                        num_shards=num_shards,
                        replication=repl,
                        gather_width=gather_width,
                        hop_ms=hop_ms,
                        call_timeout_ms=call_timeout_ms,
                        deadline_ms=sla.sla_ms,
                        max_outstanding=50 * total_cores,
                        placement="hotness",
                        routing=routing,
                        hedge=hedge_policy,
                        faults=plan,
                        seed=config.seed,
                        controller_factory=controller_factory,
                        label=f"cluster:{scenario}:r{repl}:{policy_name}",
                    )
                )
                res = cluster.run(arrivals)
                quality_p95 = res.quality_percentile(95.0)
                if scenario == "none":
                    baselines[(repl, policy_name)] = res.goodput
                nofault = baselines.get((repl, policy_name), 0.0)
                report.rows.append(
                    {
                        "scenario": scenario,
                        "replication": repl,
                        "policy": policy_name,
                        "p50_ms": res.p50_ms,
                        "p99_ms": res.p99_ms,
                        "quality_p95_ms": quality_p95,
                        "sla_ms": sla.sla_ms,
                        "meets_sla": (
                            res.outcome_count("completed") > 0
                            and quality_p95 <= sla.sla_ms
                        ),
                        "goodput": res.goodput,
                        "goodput_vs_nofault": (
                            res.goodput / nofault if nofault > 0 else 0.0
                        ),
                        "completed": res.outcome_count("completed"),
                        "degraded": res.outcome_count("degraded"),
                        "shed": res.outcome_count("shed"),
                        "failed": res.outcome_count("failed"),
                        "failovers": res.failovers,
                        "hedges": res.hedges_issued,
                        "hedges_won": res.hedges_won,
                        "hedges_wasted": res.hedges_wasted,
                        "ejections": res.ejections,
                        "probes": res.probes,
                        "mean_util": res.mean_utilization,
                    }
                )
    report.notes.append(
        f"{num_nodes} nodes x {cores_per_node} cores, {num_shards} shards, "
        f"gather width {gather_width}, hotness placement; shard-call mean "
        f"{call_ms:.3f} ms, hop {hop_ms:g} ms, call timeout "
        f"{call_timeout_ms:.1f} ms; offered load {offered_load:.2f}"
    )
    report.notes.append(
        "quality_p95_ms ranks every request not completed in full as +inf "
        "(degraded partial results keep the service answering but do not "
        "count); goodput = full-quality completions within the Table 1 "
        "deadline / offered requests"
    )
    kill_rows = [r for r in report.rows if r["scenario"] == "node_kill"]
    weak = [r for r in kill_rows if r["replication"] == 1 and not r["meets_sla"]]
    strong = [
        r
        for r in kill_rows
        if r["replication"] >= 2
        and r["policy"] == "least_loaded_hedge"
        and r["meets_sla"]
        and r["goodput_vs_nofault"] >= 0.95
    ]
    if weak and strong:
        report.notes.append(
            "headline: replication>=2 + hedging holds the SLA through the "
            f"node kill at {strong[0]['goodput_vs_nofault']:.3f}x no-fault "
            "goodput; the unreplicated cluster fatally violates it "
            "(unbounded quality p95)"
        )
    return report
