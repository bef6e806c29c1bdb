"""The six evaluated design points (Section 6's legend).

===========  ==============================================================
name         meaning
===========  ==============================================================
hw_pf_off    hardware prefetching disabled (msr-tools in the artifact)
baseline     stock execution, hardware prefetching on
sw_pf        + application-initiated software prefetching (Section 4.2)
dp_ht        naive hyperthreading: two inferences per physical core
mp_ht        model-parallel hyperthreading: embedding ∥ bottom MLP
integrated   sw_pf + mp_ht with their synergy (Section 4.4)
===========  ==============================================================

:func:`evaluate_scheme` runs one design point for one (model, trace,
platform, core-count) combination and returns a :class:`SchemeResult`;
:func:`evaluate_all_schemes` produces the full Fig 12/13/14 panel.  MP-HT
and Integrated leave the embedding stage's memory behaviour as it is under
baseline and SW-PF respectively, so a panel simulates each distinct stage
once and composes every scheme from that shared measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, Optional, Tuple

from ..cpu.platform import CPUSpec
from ..cpu.smt import SMTModel
from ..engine.embedding_exec import PrefetchPlan, run_embedding_trace
from ..engine.inference import StageTimes, time_inference_sequential
from ..engine.multicore import run_embedding_multicore
from ..errors import ConfigError, UnknownSchemeError
from ..mem.hierarchy import build_hierarchy
from ..model.configs import ModelConfig
from ..trace.dataset import EmbeddingTrace
from ..trace.stream import AddressMap
from ..units import cycles_to_ms
from .hyperthread import (
    dp_ht_batch_cycles,
    halved_smt_hierarchy_config,
    mp_ht_batch_cycles,
)
from .integrated import integrated_batch_cycles
from .swpf import PAPER_SWPF, SWPrefetchConfig

__all__ = ["SCHEME_NAMES", "SchemeResult", "evaluate_scheme", "evaluate_all_schemes"]

#: Design points in the paper's presentation order.
SCHEME_NAMES: Tuple[str, ...] = (
    "hw_pf_off",
    "baseline",
    "sw_pf",
    "dp_ht",
    "mp_ht",
    "integrated",
)

#: MLP/interaction slowdown when hardware prefetching is disabled — the
#: dense stages stream weights and lose their prefetcher coverage entirely
#: ("hardware prefetching is useful in the compute-intensive stages as they
#: bring regular access patterns", Section 6.2.1).
HW_PF_OFF_DENSE_SLOWDOWN = 1.4

#: Batch-cycle composers of the schemes that use the sibling SMT thread.
_SMT_BATCH_CYCLES = {
    "dp_ht": dp_ht_batch_cycles,
    "mp_ht": mp_ht_batch_cycles,
    "integrated": integrated_batch_cycles,
}


@dataclass(frozen=True)
class SchemeResult:
    """Measured outcome of one design point."""

    scheme: str
    model: str
    num_cores: int
    embedding_cycles: float
    batch_cycles: float
    frequency_hz: float
    l1_hit_rate: float
    avg_load_latency: float
    emb_utilization: float
    emb_stall_fraction: float
    stages: Optional[StageTimes] = None

    @property
    def batch_ms(self) -> float:
        """End-to-end batch latency in milliseconds."""
        return cycles_to_ms(self.batch_cycles, self.frequency_hz)

    @property
    def embedding_ms(self) -> float:
        """Embedding-only batch latency in milliseconds (Table 4's unit)."""
        return cycles_to_ms(self.embedding_cycles, self.frequency_hz)

    def speedup_over(self, baseline: "SchemeResult") -> float:
        """End-to-end speedup relative to another result."""
        return baseline.batch_cycles / self.batch_cycles

    def embedding_speedup_over(self, baseline: "SchemeResult") -> float:
        """Embedding-only speedup relative to another result."""
        return baseline.embedding_cycles / self.embedding_cycles


@dataclass(frozen=True)
class _EmbStage:
    """Embedding-stage metrics in the shape the inference composer wants."""

    mean_batch_cycles: float
    utilization: float
    stall_fraction: float


#: What sets a scheme's embedding stage apart on a shared workload:
#: hardware prefetch on/off, the software prefetch plan, halved caches.
_StageKey = Tuple[bool, Optional[PrefetchPlan], bool]
#: One measured stage: (stage metrics, L1 hit rate, average load latency).
_Stage = Tuple[_EmbStage, float, float]


def _run_embedding(
    trace: EmbeddingTrace,
    amap: AddressMap,
    platform: CPUSpec,
    num_cores: int,
    hw_prefetch: bool,
    plan: Optional[PrefetchPlan],
    halved_caches: bool,
    detailed_cores: int,
) -> _Stage:
    """Run the embedding stage; return (stage metrics, l1 hit, latency)."""
    hier_config = platform.hierarchy
    if halved_caches:
        hier_config = halved_smt_hierarchy_config(hier_config)
    if num_cores <= 1:
        hierarchy = build_hierarchy(hier_config, hw_prefetch=hw_prefetch)
        result = run_embedding_trace(trace, amap, platform.core, hierarchy, plan=plan)
        utilization, stall = result.utilization, result.stall_fraction
    else:
        result = run_embedding_multicore(
            trace, amap, platform, num_cores, plan=plan,
            detailed_cores=detailed_cores, hw_prefetch=hw_prefetch,
            hier_override=hier_config if halved_caches else None,
        )
        utilization, stall = result.emb_utilization, result.emb_stall_fraction
    stage = _EmbStage(result.mean_batch_cycles, utilization, min(1.0, stall))
    return stage, result.l1_hit_rate, result.avg_load_latency


def _check_panel(schemes: Tuple[str, ...], num_cores: int, detailed_cores: int) -> None:
    """Reject bad panel inputs before anything is simulated."""
    for scheme in schemes:
        if scheme not in SCHEME_NAMES:
            raise UnknownSchemeError(
                f"unknown scheme {scheme!r}; expected one of {SCHEME_NAMES}"
            )
    if num_cores < 1:
        raise ConfigError(f"num_cores must be at least 1, got {num_cores}")
    if detailed_cores < 1:
        raise ConfigError(f"detailed_cores must be at least 1, got {detailed_cores}")


def evaluate_scheme(
    scheme: str,
    model: ModelConfig,
    trace: EmbeddingTrace,
    amap: AddressMap,
    platform: CPUSpec,
    num_cores: int = 1,
    swpf: SWPrefetchConfig = PAPER_SWPF,
    smt: Optional[SMTModel] = None,
    detailed_cores: int = 2,
    *,
    _stages: Optional[Dict[_StageKey, _Stage]] = None,
) -> SchemeResult:
    """Evaluate one design point.

    ``trace`` and ``amap`` must describe the same (scaled) ``model`` —
    sharing them across schemes keeps the comparison paired.
    ``_stages`` is :func:`evaluate_all_schemes`'s per-panel memo of
    measured embedding stages.
    """
    _check_panel((scheme,), num_cores, detailed_cores)
    smt = smt or SMTModel()
    batch_size = trace.batch_size
    key: _StageKey = (
        scheme != "hw_pf_off",
        swpf.plan() if scheme in ("sw_pf", "integrated") else None,
        scheme == "dp_ht",
    )
    _stages = {} if _stages is None else _stages
    if key not in _stages:
        _stages[key] = _run_embedding(
            trace, amap, platform, num_cores, *key, detailed_cores
        )
    measured, l1_hit, load_latency = _stages[key]
    # Project embedding cycles from the simulated (scaled) lookup count to
    # paper scale so stage ratios — and every scheme that depends on them
    # (MP-HT overlap, Fig 1 shares, Table 4 ms) — match the paper's shape.
    ratio = model.paper_scale_ratio()
    stage = replace(measured, mean_batch_cycles=measured.mean_batch_cycles * ratio)
    timing = time_inference_sequential(model, stage, platform.core, batch_size)

    stages = timing.stages
    if scheme == "hw_pf_off":
        stages = replace(
            stages,
            bottom_mlp=stages.bottom_mlp * HW_PF_OFF_DENSE_SLOWDOWN,
            interaction=stages.interaction * HW_PF_OFF_DENSE_SLOWDOWN,
            top_mlp=stages.top_mlp * HW_PF_OFF_DENSE_SLOWDOWN,
        )
    smt_batch_cycles = _SMT_BATCH_CYCLES.get(scheme)
    if smt_batch_cycles is None:
        batch_cycles = stages.total
    else:
        batch_cycles = smt_batch_cycles(timing, smt=smt)

    return SchemeResult(
        scheme=scheme,
        model=model.name,
        num_cores=num_cores,
        embedding_cycles=stage.mean_batch_cycles,
        batch_cycles=batch_cycles,
        frequency_hz=platform.frequency_hz,
        l1_hit_rate=l1_hit,
        avg_load_latency=load_latency,
        emb_utilization=stage.utilization,
        emb_stall_fraction=stage.stall_fraction,
        stages=stages,
    )


def evaluate_all_schemes(
    model: ModelConfig,
    trace: EmbeddingTrace,
    amap: AddressMap,
    platform: CPUSpec,
    num_cores: int = 1,
    schemes: Iterable[str] = SCHEME_NAMES,
    swpf: SWPrefetchConfig = PAPER_SWPF,
    smt: Optional[SMTModel] = None,
    detailed_cores: int = 2,
) -> Dict[str, SchemeResult]:
    """Evaluate several design points on one shared workload.

    Schemes that run the same embedding stage share one simulation of it.
    """
    schemes = tuple(schemes)
    _check_panel(schemes, num_cores, detailed_cores)
    stages: Dict[_StageKey, _Stage] = {}
    return {
        scheme: evaluate_scheme(
            scheme, model, trace, amap, platform, num_cores=num_cores,
            swpf=swpf, smt=smt, detailed_cores=detailed_cores, _stages=stages,
        )
        for scheme in schemes
    }
