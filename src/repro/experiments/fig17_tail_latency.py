"""Fig 17 — p95 tail latency vs mean arrival time, per design.

The serving methodology of Section 6.5: Poisson arrivals into a multi-core
inference server; sweep the mean arrival time through the SLA-compliant
region into saturation; plot p95 latency per scheme against the model
class's SLA target (400 ms for RMC2, 100 ms for RMC1).  Faster schemes
both lower the tail inside the compliant region and tolerate faster
arrivals before saturating.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import SimConfig
from ..core.schemes import evaluate_all_schemes
from ..cpu.platform import get_platform
from ..serving.latency import sla_compliant_region, sweep_arrival_times
from ..serving.sla import sla_for_model
from .base import ExperimentReport
from .workloads import build_workload

EXPERIMENT_ID = "fig17"
TITLE = "p95 tail latency vs arrival time per design"
PAPER_REFERENCE = "Figure 17(a,b); SLA 400ms (RM2_1) / 100ms (RM1)"

SCHEMES = ("baseline", "dp_ht", "sw_pf", "mp_ht", "integrated")


def _arrival_grid(mean_service_ms: float, num_cores: int) -> Sequence[float]:
    """Arrival times spanning saturation (<s/c) through comfort (>2 s/c)."""
    per_core = mean_service_ms / num_cores
    return [per_core * f for f in (0.7, 0.9, 1.0, 1.2, 1.5, 2.0, 3.0)]


def run(
    config: Optional[SimConfig] = None,
    models: Sequence[str] = ("rm2_1", "rm1"),
    dataset: str = "low",
    platform: str = "csl",
    num_cores: int = 24,
    scale: float = 0.02,
    batch_size: int = 16,
    num_batches: int = 2,
    num_requests: int = 1500,
    detailed_cores: int = 2,
) -> ExperimentReport:
    """Serving sweep for each model and scheme."""
    config = config or SimConfig()
    spec = get_platform(platform)
    report = ExperimentReport(
        experiment_id=EXPERIMENT_ID, title=TITLE, paper_reference=PAPER_REFERENCE
    )
    for model_name in models:
        wl = build_workload(
            model_name, dataset, scale=scale, batch_size=batch_size,
            num_batches=num_batches, config=config,
        )
        sla = sla_for_model(wl.model)
        results = evaluate_all_schemes(
            wl.model, wl.trace, wl.amap, spec, num_cores=num_cores,
            schemes=SCHEMES, detailed_cores=detailed_cores,
        )
        service_ms = {scheme: result.batch_ms for scheme, result in results.items()}
        arrival_grid = _arrival_grid(service_ms["baseline"], num_cores)
        for scheme in SCHEMES:
            sweep = sweep_arrival_times(
                service_ms[scheme], arrival_grid, num_cores,
                num_requests=num_requests, config=config,
            )
            fastest_ok, _ = sla_compliant_region(sweep, sla.sla_ms)
            for arrival, server in sorted(sweep.items()):
                report.rows.append(
                    {
                        "model": model_name,
                        "scheme": scheme,
                        "arrival_ms": arrival,
                        "p95_ms": server.p95_ms,
                        "sla_ms": sla.sla_ms,
                        "meets_sla": server.p95_ms <= sla.sla_ms,
                        "fastest_compliant_arrival_ms": fastest_ok,
                    }
                )
    report.notes.append(
        "arrival grid is expressed relative to the baseline's per-core "
        "service time so every scheme is swept through its knee"
    )
    return report
