"""Table 4 — embedding-only batch times (ms), multi-core.

HW-PF OFF / baseline / SW-PF for every model and dataset on the full
24-core socket, in milliseconds, projected to paper-scale lookup counts.
The paper's shape to check: times grow rm2_1 < rm2_2 < rm2_3 >> rm1,
shrink from Low to High hotness, and SW-PF cuts every cell by ~1.2-1.4x.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import SimConfig
from ..core.schemes import evaluate_all_schemes
from ..cpu.platform import get_platform
from .base import ExperimentReport
from .workloads import build_workload

EXPERIMENT_ID = "table4"
TITLE = "Embedding-only batch time (ms), multi-core"
PAPER_REFERENCE = "Table 4"

SCHEMES = ("hw_pf_off", "baseline", "sw_pf")


def run(
    config: Optional[SimConfig] = None,
    models: Sequence[str] = ("rm2_1", "rm2_2", "rm2_3", "rm1"),
    datasets: Sequence[str] = ("low", "medium", "high"),
    platform: str = "csl",
    num_cores: int = 24,
    scale: float = 0.02,
    batch_size: int = 16,
    num_batches: int = 2,
    detailed_cores: int = 2,
) -> ExperimentReport:
    """Fill the 3-scheme x 4-model x 3-dataset table."""
    config = config or SimConfig()
    spec = get_platform(platform)
    report = ExperimentReport(
        experiment_id=EXPERIMENT_ID, title=TITLE, paper_reference=PAPER_REFERENCE
    )
    for dataset in datasets:
        for model_name in models:
            wl = build_workload(
                model_name, dataset, scale=scale, batch_size=batch_size,
                num_batches=num_batches, config=config,
            )
            row = {"dataset": dataset, "model": model_name}
            # Embedding cost is linear in batch size; project the simulated
            # batch to the paper's batch of 64.
            batch_projection = 64.0 / batch_size
            results = evaluate_all_schemes(
                wl.model, wl.trace, wl.amap, spec, num_cores=num_cores,
                schemes=SCHEMES, detailed_cores=detailed_cores,
            )
            for scheme, result in results.items():
                row[f"{scheme}_ms"] = result.embedding_ms * batch_projection
            report.rows.append(row)
    report.notes.append(
        "ms are paper-scale-projected simulator cycles at the platform "
        "frequency (batch projected to 64); compare shapes and ratios, "
        "not absolute silicon time"
    )
    return report
