"""Synergy decomposition — Section 4.4's "better than the sum of parts".

The paper argues SW-PF and MP-HT compose super-multiplicatively: prefetching
frees pipeline resources (fewer full-window stalls) that the colocated
bottom-MLP thread absorbs.  This experiment measures all four design points
on one workload and reports the decomposition:

    synergy = integrated_speedup / (swpf_speedup * mpht_speedup)

A value >= 1 confirms the claim for that workload.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import SimConfig
from ..core.integrated import synergy_report
from ..core.swpf import PAPER_SWPF
from ..cpu.platform import get_platform
from ..engine.inference import time_inference_sequential
from ..mem.hierarchy import build_hierarchy
from ..engine.embedding_exec import run_embedding_trace
from .base import ExperimentReport
from .workloads import build_workload

EXPERIMENT_ID = "synergy"
TITLE = "SW-PF x MP-HT synergy decomposition (Section 4.4)"
PAPER_REFERENCE = "Section 4.4; 'benefits better than the sum of the parts'"


def run(
    config: Optional[SimConfig] = None,
    models: Sequence[str] = ("rm2_3", "rm1"),
    datasets: Sequence[str] = ("high", "low"),
    platform: str = "csl",
    scale: float = 0.02,
    batch_size: int = 16,
    num_batches: int = 2,
) -> ExperimentReport:
    """Measure the four-way decomposition per model and dataset."""
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
            ratio = wl.model.paper_scale_ratio()
            base_emb = run_embedding_trace(
                wl.trace, wl.amap, spec.core, build_hierarchy(spec.hierarchy)
            )
            pf_emb = run_embedding_trace(
                wl.trace, wl.amap, spec.core, build_hierarchy(spec.hierarchy),
                plan=PAPER_SWPF.plan(),
            )
            base_emb.batch_cycles = [c * ratio for c in base_emb.batch_cycles]
            pf_emb.batch_cycles = [c * ratio for c in pf_emb.batch_cycles]
            timing_base = time_inference_sequential(
                wl.model, base_emb, spec.core, wl.batch_size
            )
            timing_pf = time_inference_sequential(
                wl.model, pf_emb, spec.core, wl.batch_size
            )
            decomposition = synergy_report(timing_base, timing_pf)
            report.rows.append(
                {
                    "model": model_name,
                    "dataset": dataset,
                    "swpf_speedup": decomposition.swpf_speedup,
                    "mpht_speedup": decomposition.mpht_speedup,
                    "integrated_speedup": decomposition.integrated_speedup,
                    "multiplicative_expectation": (
                        decomposition.multiplicative_expectation
                    ),
                    "synergy": decomposition.synergy,
                }
            )
    report.notes.append(
        "synergy >= 1 means the combination beats independent composition"
    )
    return report
