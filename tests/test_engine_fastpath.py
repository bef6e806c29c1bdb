"""Cross-engine equivalence: the fast engine must be bit-exact.

Three levels of checking, from unit to end-to-end:

1. wave partitioning invariants (the algorithm the vectorized walk rests on),
2. ``MemoryHierarchy.access_lines`` vs a sequential ``load()`` loop,
3. embedding runs and full experiment reports on fast caches vs on the
   ``Cache`` oracle (whole runs reach it by patching
   ``repro.mem.hierarchy.FastCache``, the one seam for that).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.mem
from repro import quick_eval
from repro.config import SimConfig
from repro.cpu.platform import get_platform
from repro.engine import multicore
from repro.engine.embedding_exec import run_embedding_trace
from repro.engine.multicore import run_embedding_multicore
from repro.errors import ConfigError
from repro.experiments.base import report_to_dict
from repro.experiments.registry import run_experiment
from repro.experiments.workloads import build_workload
from repro.mem import hierarchy
from repro.mem.cache import Cache
from repro.mem.fastcache import FastCache
from repro.mem.hierarchy import _wave_partition, build_hierarchy, make_cache


def _streams():
    rng = np.random.default_rng(42)
    zipf = (rng.zipf(1.3, 4000) % 50_000).astype(np.int64)
    uniform = rng.integers(0, 200_000, size=4000).astype(np.int64)
    # Pathologically hot: one row repeated (exercises the scalar fallback).
    hot = np.tile(np.arange(8, dtype=np.int64), 500)
    return {"zipf": zipf, "uniform": uniform, "hot": hot}


# -- 1. wave partition ------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 7, 19])
def test_wave_partition_invariants(seed):
    rng = np.random.default_rng(seed)
    sets = rng.integers(0, 37, size=rng.integers(1, 500)).astype(np.int64)
    order, bounds = _wave_partition(sets)
    assert sorted(order.tolist()) == list(range(sets.size))
    assert bounds[-1] == sets.size
    start = 0
    for end in bounds.tolist():
        wave = sets[order[start:end]]
        assert np.unique(wave).size == wave.size  # conflict-free
        start = end
    # Per set value, indices appear in original (ascending) order across
    # waves — the property that makes wave replay order-equivalent.
    per_set = {}
    for idx in order.tolist():
        per_set.setdefault(int(sets[idx]), []).append(idx)
    for idxs in per_set.values():
        assert idxs == sorted(idxs)


# -- 2. hierarchy walk ------------------------------------------------------


@pytest.mark.parametrize("name", ["zipf", "uniform", "hot"])
def test_access_lines_matches_sequential_loads(name):
    lines = _streams()[name]
    spec = get_platform("csl")
    batched = build_hierarchy(spec.hierarchy, hw_prefetch=False, engine="fast")
    serial = build_hierarchy(spec.hierarchy, hw_prefetch=False, engine="fast")
    got = batched.access_lines(lines)
    want = np.array([serial.load(int(l)).latency for l in lines])
    assert np.array_equal(got, want)
    for fast_level, ref_level in (
        (batched.l1, serial.l1), (batched.l2, serial.l2), (batched.l3, serial.l3)
    ):
        assert dataclasses.asdict(fast_level.stats) == dataclasses.asdict(
            ref_level.stats
        )
    assert batched.stats.level_hits == serial.stats.level_hits
    assert batched.stats.total_latency_cycles == serial.stats.total_latency_cycles
    assert batched.dram.row_hits == serial.dram.row_hits


@pytest.mark.parametrize("name", ["zipf", "uniform"])
def test_fast_engine_matches_reference_walk(name):
    lines = _streams()[name]
    spec = get_platform("csl")
    fast = build_hierarchy(spec.hierarchy, hw_prefetch=False, engine="fast")
    ref = build_hierarchy(spec.hierarchy, hw_prefetch=False, engine="reference")
    got = fast.access_lines(lines)
    want = np.array([ref.load(int(l)).latency for l in lines])
    assert np.array_equal(got, want)
    assert fast.stats.level_hits == ref.stats.level_hits


# -- 3. end to end ----------------------------------------------------------


def _embedding_result(engine: str):
    config = SimConfig(seed=99)
    wl = build_workload(
        "rm2_1", "low", scale=0.01, batch_size=8, num_batches=2, config=config
    )
    spec = get_platform("csl")
    hierarchy = build_hierarchy(spec.hierarchy, hw_prefetch=False, engine=engine)
    return run_embedding_trace(wl.trace, wl.amap, spec.core, hierarchy)


def test_embedding_trace_identical_across_engines():
    fast = _embedding_result("fast")
    ref = _embedding_result("reference")
    assert dataclasses.asdict(fast) == dataclasses.asdict(ref)


def _multicore_result():
    wl = build_workload(
        "rm2_1", "low", scale=0.01, batch_size=8, num_batches=4,
        config=SimConfig(seed=77),
    )
    return run_embedding_multicore(
        wl.trace, wl.amap, get_platform("csl"), num_cores=4, detailed_cores=2
    )


def test_multicore_identical_across_engines(monkeypatch):
    # Two detailed cores share one L3 and one DRAM model.
    fast = _multicore_result()
    monkeypatch.setattr(hierarchy, "FastCache", Cache)
    ref = _multicore_result()
    assert dataclasses.asdict(fast) == dataclasses.asdict(ref)


def test_library_callers_get_fast_caches(monkeypatch):
    built = []

    def recording(wrapped):
        def make(*args, **kwargs):
            cache = wrapped(*args, **kwargs)
            built.append(cache)
            return cache
        return make

    monkeypatch.setattr(hierarchy, "make_cache", recording(hierarchy.make_cache))
    monkeypatch.setattr(multicore, "make_cache", recording(multicore.make_cache))
    quick_eval(
        num_cores=2, scale=0.01, batch_size=8, num_batches=2,
        schemes=("baseline", "dp_ht"),
    )
    # Both the private levels and the multicore engine's shared L3.
    assert {cache.name for cache in built} == {"l1", "l2", "l3"}
    assert all(type(cache) is FastCache for cache in built)
    # No engine default or setter is exported, only the names make_cache takes.
    assert [n for n in dir(repro.mem) if "engine" in n.lower()] == ["ENGINE_NAMES"]


@pytest.mark.parametrize(
    "exp_id, overrides",
    [
        ("fig4", {"scale": 0.01, "num_batches": 1}),
        (
            "fig12",
            {"scale": 0.01, "num_batches": 1, "models": ("rm2_1",),
             "core_counts": (1,)},
        ),
    ],
)
def test_reports_identical_across_engines(exp_id, overrides, monkeypatch):
    fast = run_experiment(exp_id, **overrides)
    monkeypatch.setattr(hierarchy, "FastCache", Cache)
    assert type(make_cache("probe", 32 * 1024, 8)) is Cache
    ref = run_experiment(exp_id, **overrides)
    assert report_to_dict(fast) == report_to_dict(ref)


def test_make_cache_rejects_unknown_engine():
    with pytest.raises(
        ConfigError, match=r"unknown engine 'warp'; expected one of"
    ):
        make_cache("l1", 32 * 1024, 8, engine="warp")
