"""Fig 15 — L1D hit rate and average load latency under each design.

VTune-style characterization on the Low-hot dataset: the paper's baseline
sits at 72-84% L1D hit and 23-90 cycles average load latency; SW-PF lifts
hit rates to 96.7-99.4% and cuts latency to 5.6-7.1 cycles; Integrated
nudges further to 99.3-99.5% and 5.5-5.7 cycles.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import SimConfig
from ..core.schemes import evaluate_all_schemes
from ..cpu.platform import get_platform
from .base import ExperimentReport
from .workloads import build_workload

EXPERIMENT_ID = "fig15"
TITLE = "L1D hit rate and average load latency per design"
PAPER_REFERENCE = "Figure 15; SW-PF reaches 96.7-99.4%% L1D, 5.6-7.1 cycles"

SCHEMES = ("baseline", "sw_pf", "integrated")


def run(
    config: Optional[SimConfig] = None,
    models: Sequence[str] = ("rm2_1", "rm2_2", "rm2_3"),
    dataset: str = "low",
    platform: str = "csl",
    scale: float = 0.02,
    batch_size: int = 16,
    num_batches: int = 2,
) -> ExperimentReport:
    """Collect the hit-rate / latency panel on the Low-hot dataset."""
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
        results = evaluate_all_schemes(
            wl.model, wl.trace, wl.amap, spec, num_cores=1, schemes=SCHEMES
        )
        for scheme, result in results.items():
            report.rows.append(
                {
                    "model": model_name,
                    "scheme": scheme,
                    "l1_hit_rate": result.l1_hit_rate,
                    "avg_load_latency_cycles": result.avg_load_latency,
                }
            )
    report.notes.append(f"dataset={dataset} (the panel the paper shows)")
    return report
