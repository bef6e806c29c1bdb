"""CPI stacks: decompose core cycles into retire / cache-bound buckets.

This is the repro's analog of the paper's Top-down analysis (their Fig 2
"CPU execution-stall breakdown" and Fig 10's stall-shift story): every
stage's core cycles are split into

``retire``      useful issue time (instructions / issue width),
``frontend``    fetch/decode stalls — structurally zero in this simulator
                (the core model has no front-end; kept for schema parity
                with real Top-down output),
``l1_bound`` / ``l2_bound``
                stalls on L1/L2 hits — structurally zero for the embedding
                engine because the OoO model pipelines any load under
                ``CoreModel.HIT_PIPELINE_THRESHOLD`` (L1 and L2 hits);
                dense stages *do* charge their streaming stalls here,
``l3_bound`` / ``dram_bound``
                memory stalls attributed to accesses served at L3 / DRAM,
                proportional to each level's aggregate nominal latency.

Buckets are constructed to sum to the stage's total cycles *exactly*
(the residual of the float arithmetic is folded into the dominant stall
bucket), so downstream consumers can treat the stack as a partition.

Stacks are published into a :class:`~repro.obs.metrics.MetricsRegistry`
as ``core.cycles{stage=...}`` plus ``core.cpi.<bucket>{stage=...}``
counters and reassembled by :func:`collect_cpi_stacks`; the
"== CPI stacks ==" view of ``tools/trace_report.py DIR`` prints them from
an observation directory's ``metrics.jsonl``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..errors import ConfigError
from .metrics import MetricsRegistry

__all__ = [
    "CPI_BUCKETS",
    "CpiStack",
    "embedding_cpi_stack",
    "dense_cpi_stack",
    "publish_cpi_stack",
    "collect_cpi_stacks",
    "format_cpi_table",
]

#: Bucket names in presentation order (top of the stack first).
CPI_BUCKETS = (
    "retire",
    "frontend",
    "l1_bound",
    "l2_bound",
    "l3_bound",
    "dram_bound",
)


@dataclass
class CpiStack:
    """One stage's cycle decomposition.  ``buckets`` partitions ``total_cycles``."""

    stage: str
    total_cycles: float
    buckets: Dict[str, float]

    def fractions(self) -> Dict[str, float]:
        """Bucket shares of the total (all zero for a zero-cycle stage)."""
        if self.total_cycles <= 0:
            return {name: 0.0 for name in CPI_BUCKETS}
        return {
            name: self.buckets.get(name, 0.0) / self.total_cycles
            for name in CPI_BUCKETS
        }

    def check(self, rel_tol: float = 1e-6) -> None:
        """Raise unless the buckets sum to the total within ``rel_tol``."""
        total = sum(self.buckets.values())
        scale = max(abs(self.total_cycles), 1.0)
        if abs(total - self.total_cycles) > rel_tol * scale:
            raise ConfigError(
                f"CPI stack for {self.stage!r} does not partition its cycles: "
                f"buckets sum to {total}, total is {self.total_cycles}"
            )

    def merge(self, other: "CpiStack") -> "CpiStack":
        """Combine two stacks for the same stage (cycle-weighted sum)."""
        merged = {
            name: self.buckets.get(name, 0.0) + other.buckets.get(name, 0.0)
            for name in CPI_BUCKETS
        }
        return CpiStack(self.stage, self.total_cycles + other.total_cycles, merged)


def _exact_partition(total: float, buckets: Dict[str, float]) -> Dict[str, float]:
    """Fold the float residual into the largest non-retire bucket."""
    residual = total - sum(buckets.values())
    if residual:
        target = max(
            (name for name in buckets if name != "retire"),
            key=lambda name: buckets[name],
            default="retire",
        )
        buckets[target] = max(0.0, buckets[target] + residual)
    return buckets


def embedding_cpi_stack(
    stage: str,
    total_cycles: float,
    issue_cycles: float,
    level_hits: Dict[str, int],
    l3_latency: float,
    dram_latency: float,
) -> CpiStack:
    """Decompose a trace-driven (embedding) run's cycles.

    ``retire`` is the ideal issue time; everything else is stall, split
    between ``l3_bound`` and ``dram_bound`` in proportion to the aggregate
    nominal latency each level contributed (hit count x nominal latency).
    L1/L2 buckets stay zero — the simulated core pipelines those hits, so
    they never stall the window (a documented divergence from real
    Top-down, where L1-bound also carries DTLB and store-forward costs).
    """
    buckets = {name: 0.0 for name in CPI_BUCKETS}
    if total_cycles <= 0:
        return CpiStack(stage, 0.0, buckets)
    retire = min(max(issue_cycles, 0.0), total_cycles)
    stall = total_cycles - retire
    w_l3 = level_hits.get("l3", 0) * l3_latency
    w_dram = level_hits.get("dram", 0) * dram_latency
    weight = w_l3 + w_dram
    buckets["retire"] = retire
    if weight > 0:
        buckets["l3_bound"] = stall * (w_l3 / weight)
        buckets["dram_bound"] = stall * (w_dram / weight)
    else:
        # No off-chip accesses recorded: any residual stall (drain of
        # in-flight fills at batch end) is charged to DRAM.
        buckets["dram_bound"] = stall
    return CpiStack(stage, total_cycles, _exact_partition(total_cycles, buckets))


def dense_cpi_stack(stage: str, total_cycles: float, stall_fraction: float) -> CpiStack:
    """Decompose an analytically-timed dense stage (MLP / interaction).

    Dense stages stream their weights out of L2/L3 (their footprints are a
    few MB), so the analytic stall fraction is split evenly between
    ``l2_bound`` and ``l3_bound``; the rest retires.
    """
    if not 0.0 <= stall_fraction <= 1.0:
        raise ConfigError(f"stall fraction must be in [0, 1], got {stall_fraction}")
    buckets = {name: 0.0 for name in CPI_BUCKETS}
    if total_cycles <= 0:
        return CpiStack(stage, 0.0, buckets)
    stall = total_cycles * stall_fraction
    buckets["retire"] = total_cycles - stall
    buckets["l2_bound"] = stall / 2.0
    buckets["l3_bound"] = stall / 2.0
    return CpiStack(stage, total_cycles, _exact_partition(total_cycles, buckets))


def publish_cpi_stack(registry: MetricsRegistry, stack: CpiStack) -> None:
    """Accumulate one stack into the registry's per-stage CPI counters."""
    registry.counter("core.cycles", stage=stack.stage).inc(stack.total_cycles)
    for name in CPI_BUCKETS:
        registry.counter(f"core.cpi.{name}", stage=stack.stage).inc(
            stack.buckets.get(name, 0.0)
        )


def collect_cpi_stacks(registry: MetricsRegistry) -> List[CpiStack]:
    """Rebuild per-stage stacks from published counters, largest first."""
    stacks: List[CpiStack] = []
    for counter in registry.find("core.cycles"):
        labels = dict(counter.labels)  # type: ignore[union-attr]
        stage = labels.get("stage", "?")
        buckets = {
            name: registry.value(f"core.cpi.{name}", stage=stage) or 0.0
            for name in CPI_BUCKETS
        }
        stacks.append(CpiStack(stage, counter.value, buckets))  # type: ignore[union-attr]
    stacks.sort(key=lambda s: s.total_cycles, reverse=True)
    return stacks


def format_cpi_table(stacks: List[CpiStack]) -> str:
    """Aligned text table: one row per stage, one column per bucket."""
    if not stacks:
        return "(no CPI data recorded)"
    header = ["stage", "cycles"] + [name for name in CPI_BUCKETS]
    rows = []
    for stack in stacks:
        fractions = stack.fractions()
        rows.append(
            [stack.stage, f"{stack.total_cycles:,.0f}"]
            + [f"{fractions[name] * 100:5.1f}%" for name in CPI_BUCKETS]
        )
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines.extend("  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in rows)
    return "\n".join(lines)
