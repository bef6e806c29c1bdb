"""Fig 12 — embedding-only speedups of the prefetching design points.

Per model (rm2_1..rm2_3) and dataset (High/Medium/Low): w/o HW-PF and
SW-PF speedups over the baseline, for (a) single-core and (b) multi-core.
The paper's ranges: SW-PF 1.25-1.47x single-core and 1.16-1.43x
multi-core, best on Low hot.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import SimConfig
from ..core.schemes import evaluate_all_schemes
from ..cpu.platform import get_platform
from .base import ExperimentReport
from .workloads import build_workload

EXPERIMENT_ID = "fig12"
TITLE = "Embedding-only speedups (w/o HW-PF, SW-PF vs baseline)"
PAPER_REFERENCE = "Figure 12(a,b); SW-PF 1.25-1.47x single, 1.16-1.43x multi"

SCHEMES = ("hw_pf_off", "baseline", "sw_pf")


def run(
    config: Optional[SimConfig] = None,
    models: Sequence[str] = ("rm2_1", "rm2_2", "rm2_3"),
    datasets: Sequence[str] = ("high", "medium", "low"),
    platform: str = "csl",
    core_counts: Sequence[int] = (1, 24),
    scale: float = 0.02,
    batch_size: int = 16,
    num_batches: int = 2,
    detailed_cores: int = 2,
) -> ExperimentReport:
    """Evaluate the prefetching design points on the full model grid."""
    config = config or SimConfig()
    spec = get_platform(platform)
    report = ExperimentReport(
        experiment_id=EXPERIMENT_ID, title=TITLE, paper_reference=PAPER_REFERENCE
    )
    for model_name in models:
        for dataset in datasets:
            wl = build_workload(
                model_name, dataset, scale=scale, batch_size=batch_size,
                num_batches=num_batches, config=config,
            )
            for cores in core_counts:
                results = evaluate_all_schemes(
                    wl.model, wl.trace, wl.amap, spec, num_cores=cores,
                    schemes=SCHEMES, detailed_cores=detailed_cores,
                )
                base = results["baseline"]
                report.rows.append(
                    {
                        "model": model_name,
                        "dataset": dataset,
                        "cores": cores,
                        "hw_pf_off_speedup": results[
                            "hw_pf_off"
                        ].embedding_speedup_over(base),
                        "sw_pf_speedup": results["sw_pf"].embedding_speedup_over(base),
                        "baseline_ms": base.embedding_ms,
                    }
                )
    report.notes.append(
        "speedups are embedding-stage-only, matching Fig 12's scope"
    )
    return report
