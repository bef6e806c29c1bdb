"""Trace-driven memory-hierarchy simulator.

This subpackage models the parts of a server CPU's memory system that the
paper's characterization and optimizations depend on:

* set-associative caches with pluggable replacement (:mod:`repro.mem.cache`),
* hardware prefetchers — next-line, IP-stride, streamer
  (:mod:`repro.mem.prefetcher`),
* a DRAM latency / bandwidth-queueing model (:mod:`repro.mem.dram`),
* miss-status holding registers limiting memory-level parallelism
  (:mod:`repro.mem.mshr`),
* a three-level L1D / L2 / shared-L3 walk (:mod:`repro.mem.hierarchy`).

Latency and hit-rate numbers are *measured* from simulated accesses, playing
the role VTune plays in the paper's methodology.
"""

from .cache import Cache
from .cacheline import Address, line_of, lines_of_range
from .dram import DRAMModel
from .fastcache import FastCache
from .hierarchy import (
    ENGINE_NAMES,
    AccessResult,
    MemoryHierarchy,
    build_hierarchy,
    make_cache,
)
from .mshr import MSHRFile
from .policies import FIFOPolicy, LRUPolicy, PLRUTreePolicy, RandomPolicy, make_policy
from .prefetcher import (
    CompositePrefetcher,
    NextLinePrefetcher,
    NullPrefetcher,
    StreamerPrefetcher,
    StridePrefetcher,
)
from .stats import CacheStats, HierarchyStats
from .tlb import TLBConfig, TLBModel

__all__ = [
    "Address",
    "AccessResult",
    "Cache",
    "CacheStats",
    "CompositePrefetcher",
    "DRAMModel",
    "ENGINE_NAMES",
    "FIFOPolicy",
    "FastCache",
    "HierarchyStats",
    "LRUPolicy",
    "MSHRFile",
    "MemoryHierarchy",
    "NextLinePrefetcher",
    "NullPrefetcher",
    "PLRUTreePolicy",
    "RandomPolicy",
    "StreamerPrefetcher",
    "StridePrefetcher",
    "TLBConfig",
    "TLBModel",
    "build_hierarchy",
    "line_of",
    "lines_of_range",
    "make_cache",
    "make_policy",
]
