"""Parametric sweeps over workload dimensions.

The paper fixes batch size (64) and the Table 2 shapes; these sweeps expose
how its conclusions move with the knobs a deployment owner actually turns:
batch size (throughput vs SLA), pooling factor (lookups per sample), and
table count.  Each sweep returns an :class:`ExperimentReport` and keeps the
evaluation paired (same trace RNG stream across points where possible).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import SimConfig
from ..core.schemes import evaluate_all_schemes
from ..cpu.platform import get_platform
from ..errors import ConfigError
from ..model.configs import get_model
from ..trace.production import make_trace
from ..trace.stream import AddressMap
from .base import ExperimentReport

__all__ = ["sweep_batch_size", "sweep_lookups", "sweep_tables"]

_SCHEMES = ("baseline", "sw_pf")


def _evaluate(model, dataset, batch_size, num_batches, config, platform, schemes):
    spec = get_platform(platform)
    trace = make_trace(
        dataset,
        num_tables=model.num_tables,
        rows_per_table=model.rows,
        batch_size=batch_size,
        num_batches=num_batches,
        lookups_per_sample=model.lookups_per_sample,
        config=config,
    )
    amap = AddressMap([model.rows] * model.num_tables, model.embedding_dim)
    return evaluate_all_schemes(model, trace, amap, spec, schemes=schemes)


def sweep_batch_size(
    batch_sizes: Sequence[int] = (4, 16, 64),
    model_name: str = "rm2_1",
    dataset: str = "low",
    platform: str = "csl",
    scale: float = 0.015,
    num_batches: int = 2,
    config: Optional[SimConfig] = None,
    schemes: Sequence[str] = _SCHEMES,
) -> ExperimentReport:
    """Batch-latency and SW-PF gain vs batch size.

    Embedding work is linear in batch size, so per-batch latency grows
    linearly while the SW-PF *ratio* should be scale-free — the property
    that lets the paper pick batch 64 once and for all.
    """
    if not batch_sizes:
        raise ConfigError("need at least one batch size")
    config = config or SimConfig()
    model = get_model(model_name).scaled(scale)
    report = ExperimentReport(
        experiment_id="sweep_batch",
        title="Batch-size sweep",
        paper_reference="Section 5 (batch 64 meets the Table 1 SLAs)",
    )
    for batch_size in batch_sizes:
        results = _evaluate(
            model, dataset, batch_size, num_batches, config, platform, schemes
        )
        base = results["baseline"]
        row = {
            "batch_size": batch_size,
            "baseline_emb_ms": base.embedding_ms,
            "per_sample_ms": base.embedding_ms / batch_size,
        }
        for scheme in schemes:
            if scheme != "baseline":
                row[f"{scheme}_speedup"] = results[scheme].embedding_speedup_over(base)
        report.rows.append(row)
    return report


def sweep_lookups(
    lookup_counts: Sequence[int] = (8, 16, 32),
    model_name: str = "rm2_1",
    dataset: str = "low",
    platform: str = "csl",
    scale: float = 0.015,
    batch_size: int = 8,
    num_batches: int = 2,
    config: Optional[SimConfig] = None,
    schemes: Sequence[str] = _SCHEMES,
) -> ExperimentReport:
    """Pooling-factor sweep: more lookups per sample = more intra-sample
    reuse opportunity and more prefetch runway."""
    if not lookup_counts:
        raise ConfigError("need at least one lookup count")
    config = config or SimConfig()
    base_model = get_model(model_name).scaled(scale)
    report = ExperimentReport(
        experiment_id="sweep_lookups",
        title="Lookups-per-sample sweep",
        paper_reference="Table 2's lookups column (80-180 at paper scale)",
    )
    import dataclasses

    for lookups in lookup_counts:
        # A clean (non-zoo, no-"@") name keeps paper_scale_ratio at 1.0 so
        # the sweep reports raw simulated cost, not projected cost.
        model = dataclasses.replace(
            base_model,
            name=f"sweep-lookups-{lookups}",
            lookups_per_sample=lookups,
        )
        results = _evaluate(
            model, dataset, batch_size, num_batches, config, platform, schemes
        )
        base = results["baseline"]
        row = {
            "lookups_per_sample": lookups,
            "baseline_emb_ms": base.embedding_ms,
            "per_lookup_us": base.embedding_ms * 1000
            / model.lookups_for_batch(batch_size),
        }
        for scheme in schemes:
            if scheme != "baseline":
                row[f"{scheme}_speedup"] = results[scheme].embedding_speedup_over(base)
        report.rows.append(row)
    return report


def sweep_tables(
    table_counts: Sequence[int] = (2, 4, 8),
    model_name: str = "rm2_1",
    dataset: str = "low",
    platform: str = "csl",
    batch_size: int = 8,
    num_batches: int = 2,
    lookups_per_sample: int = 12,
    config: Optional[SimConfig] = None,
    schemes: Sequence[str] = _SCHEMES,
) -> ExperimentReport:
    """Table-count sweep: each extra table adds an inter-table thrash
    transition per batch (Section 3.1's inter-table reuse class)."""
    if not table_counts:
        raise ConfigError("need at least one table count")
    config = config or SimConfig()
    base_model = get_model(model_name)
    report = ExperimentReport(
        experiment_id="sweep_tables",
        title="Table-count sweep",
        paper_reference="Section 3.1 inter-table class; Table 2's 32-170 tables",
    )
    import dataclasses

    for tables in table_counts:
        # Clean name: report raw simulated cost (see sweep_lookups).
        model = dataclasses.replace(
            base_model,
            name=f"sweep-tables-{tables}",
            num_tables=tables,
            lookups_per_sample=lookups_per_sample,
        )
        results = _evaluate(
            model, dataset, batch_size, num_batches, config, platform, schemes
        )
        base = results["baseline"]
        row = {
            "tables": tables,
            "baseline_emb_ms": base.embedding_ms,
            "per_table_us": base.embedding_ms * 1000 / tables,
        }
        for scheme in schemes:
            if scheme != "baseline":
                row[f"{scheme}_speedup"] = results[scheme].embedding_speedup_over(base)
        report.rows.append(row)
    return report
