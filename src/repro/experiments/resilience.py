"""Resilience — SLA violations and goodput under injected faults.

The paper's at-scale story culminates in meeting Table 1 SLAs under load
(Fig 17); this extension experiment asks what happens when the fleet
misbehaves.  For one model class it measures, per fault scenario, three
serving modes:

* ``static``   — the happy-path baseline server (no overload response);
* ``degraded`` — a :class:`~repro.serving.degradation.DegradationController`
  closed loop that escalates along the paper's scheme ladder
  (baseline -> sw_pf -> integrated -> reduced batch) when the windowed p95
  violates the SLA;
* ``degraded_shed`` — the controller plus SLA-deadline admission control:
  queue timeout with retry/backoff and queue-depth load shedding.

Fault scenarios sweep DRAM-bandwidth degradation severity (the knob the
paper's embedding analysis predicts the fleet is most sensitive to) and
add core failure-and-repair, an arrival burst, and heavy-tail stragglers.
The headline result: under faults where the static baseline blows the
Table 1 SLA, the degradation ladder recovers the p95 and holds goodput.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..config import SimConfig
from ..core.schemes import evaluate_all_schemes
from ..cpu.platform import CPUSpec, get_platform
from ..serving.degradation import DegradationController, scheme_ladder
from ..serving.faults import (
    ArrivalBurst,
    BandwidthDegradation,
    CoreFailure,
    FaultPlan,
    Stragglers,
)
from ..serving.server import ServingPolicy, simulate_server
from ..serving.sla import sla_for_model
from ..serving.workload import poisson_arrivals
from .base import ExperimentReport
from .workloads import Workload, build_workload

EXPERIMENT_ID = "resilience"
TITLE = "SLA violations and goodput under injected faults"
PAPER_REFERENCE = "Table 1 SLAs; Section 6.5 serving methodology, under faults"

#: Schemes measured to parameterize the degradation ladder.
LADDER_SCHEMES = ("baseline", "sw_pf", "integrated")


def ladder_service_ms(
    wl: Workload, platform: CPUSpec, num_cores: int, detailed_cores: int
) -> Dict[str, float]:
    """Batch latency (ms) of each :data:`LADDER_SCHEMES` rung on ``wl``."""
    results = evaluate_all_schemes(
        wl.model, wl.trace, wl.amap, platform, num_cores=num_cores,
        schemes=LADDER_SCHEMES, detailed_cores=detailed_cores,
    )
    return {scheme: result.batch_ms for scheme, result in results.items()}


def _controller(service_ms: Dict[str, float], sla_ms: float) -> DegradationController:
    """The closed loop used by the degraded modes."""
    return DegradationController(
        scheme_ladder(service_ms, batch_scale=0.6),
        sla_ms=sla_ms,
        window=48,
        min_samples=12,
        escalate_margin=0.75,
        recover_margin=0.4,
        cooldown=256,
    )


def _scenarios(
    horizon_ms: float,
    interarrival_ms: float,
    num_cores: int,
    num_requests: int,
    bw_factors: Sequence[float],
    seed: int,
) -> "list[Tuple[str, FaultPlan]]":
    """The fault sweep: bandwidth severities plus three other fault kinds."""
    window = (0.25 * horizon_ms, 0.60 * horizon_ms)
    scenarios: "list[Tuple[str, FaultPlan]]" = [("none", FaultPlan(seed=seed))]
    for factor in bw_factors:
        scenarios.append(
            (
                f"bw_x{factor:g}",
                FaultPlan([BandwidthDegradation(*window, factor)], seed=seed),
            )
        )
    scenarios.append(
        (
            "core_fail",
            FaultPlan(
                [CoreFailure(core, *window) for core in range(num_cores // 2)],
                seed=seed,
            ),
        )
    )
    scenarios.append(
        (
            "burst",
            FaultPlan(
                [
                    ArrivalBurst(
                        0.4 * horizon_ms,
                        max(1, num_requests // 3),
                        interarrival_ms / 5.0,
                    )
                ],
                seed=seed,
            ),
        )
    )
    scenarios.append(
        (
            "straggler",
            FaultPlan([Stragglers(0.08, 6.0, tail_alpha=1.5)], seed=seed),
        )
    )
    return scenarios


def run(
    config: Optional[SimConfig] = None,
    model: str = "rm1",
    dataset: str = "low",
    platform: str = "csl",
    num_cores: int = 8,
    scale: float = 0.02,
    batch_size: int = 16,
    num_batches: int = 2,
    num_requests: int = 1500,
    detailed_cores: int = 2,
    offered_load: float = 0.55,
    bw_factors: Sequence[float] = (2.0, 4.0),
) -> ExperimentReport:
    """Fault sweep across serving modes for one model class.

    ``offered_load`` sets the no-fault utilization (arrival rate relative
    to baseline capacity); the bandwidth sweep multiplies the effective
    utilization by each factor, carrying the static server past
    saturation while the degraded modes stay inside it.
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
    service_ms = ladder_service_ms(wl, spec, num_cores, detailed_cores)

    base_ms = service_ms["baseline"]
    interarrival_ms = base_ms / (num_cores * offered_load)
    horizon_ms = num_requests * interarrival_ms
    arrivals = poisson_arrivals(
        interarrival_ms, num_requests, config.rng("resilience:arrivals")
    )
    accounting = ServingPolicy(deadline_ms=sla.sla_ms, shed_expired=False)
    shedding = ServingPolicy.for_sla(
        sla,
        max_retries=1,
        retry_backoff_ms=max(base_ms, 1e-6),
        max_queue_depth=20 * num_cores,
    )

    for scenario, plan in _scenarios(
        horizon_ms, interarrival_ms, num_cores, num_requests,
        bw_factors, config.seed,
    ):
        modes = (
            ("static", accounting, None),
            ("degraded", accounting, _controller(service_ms, sla.sla_ms)),
            ("degraded_shed", shedding, _controller(service_ms, sla.sla_ms)),
        )
        for mode, policy, controller in modes:
            server = simulate_server(
                arrivals,
                base_ms,
                num_cores,
                config.rng(f"resilience:{scenario}:{mode}"),
                fault_plan=plan,
                policy=policy,
                controller=controller,
                label=f"{scenario}:{mode}",
            )
            report.rows.append(
                {
                    "scenario": scenario,
                    "mode": mode,
                    "p95_ms": server.p95_ms,
                    "sla_ms": sla.sla_ms,
                    # A server that completed nothing has p95 == 0.0 by the
                    # degenerate-input convention; that must not read as
                    # meeting the SLA.
                    "meets_sla": (
                        server.outcome_count("completed") > 0
                        and server.p95_ms <= sla.sla_ms
                    ),
                    "goodput": server.goodput,
                    "completed": server.outcome_count("completed"),
                    "shed": server.outcome_count("shed"),
                    "timed_out": server.outcome_count("timed_out"),
                    "retries": server.retries_total,
                    "final_level": server.final_degradation_level,
                    "level_changes": len(server.degradation_events),
                }
            )
    report.notes.append(
        f"baseline service {base_ms:.3f} ms/batch on {num_cores} cores; "
        f"offered load {offered_load:.2f}; ladder scales "
        + ", ".join(f"{s}={service_ms[s] / base_ms:.2f}" for s in LADDER_SCHEMES)
    )
    report.notes.append(
        "p95 is over completed requests; goodput = completions within the "
        "SLA deadline / offered requests (injected burst requests included)"
    )
    return report
