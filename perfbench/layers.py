"""Traced run: per-layer wall time and counts, measured from outside the program.

The traced run installs wrappers around public functions and methods of
each layer, times every call, and restores the original objects when the
run ends.  No program code changes: module-level functions are replaced in
every ``repro.*`` module that holds a reference to them (so names imported
into other modules, such as ``build_hierarchy`` in ``repro.core.schemes``,
are caught too) and methods are replaced on their class.

Two kinds of target:

* ``SPAN`` -- coarse calls (a scheme evaluation, a cluster run).  Each call
  is kept as a span ``(name, start, end, parent)`` in memory and written out
  when the run ends.
* ``COUNT`` -- per-line or per-request methods.  These only feed aggregate
  counters and timers; a span per call would cost more than the call.

Every target belongs to a *group* (``engine.embedding``, ``obs.emit``...)
and every group to a *layer* (``engine``, ``obs``...).  The self time of a
group is the time of its calls minus the time of the wrapped calls nested
in them, so the self times of all groups plus the time spent outside any
wrapped call add up to the traced wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
import types
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

SPAN = "span"
COUNT = "count"

#: Layer names, matching the repository's modules.  A group belongs to the
#: first layer it equals or extends with a ``.`` suffix.
LAYERS = (
    "trace",
    "mem",
    "cpu",
    "engine",
    "core",
    "serving.box",
    "serving.cluster",
    "serving.router",
    "serving.degradation",
    "serving.faults",
    "obs",
)


def layer_of(group: str) -> str:
    """The layer a group's self time is charged to."""
    for layer in LAYERS:
        if group == layer or group.startswith(layer + "."):
            return layer
    raise ValueError(f"group {group!r} is in no layer")


# -- counts taken from returned objects ------------------------------------


def _count_lookups(rec: "Recorder", result, args, kwargs, outermost: bool) -> None:
    rec.counts["trace.lookups"] += result.total_lookups()


def _count_eval(rec, result, args, kwargs, outermost):
    rec.counts["core.evals"] += 1


def _embedding_stage(rec, result, args, kwargs, outermost):
    # One embedding stage is an outermost engine call; its inputs are the
    # trace, the core count, hardware prefetch on/off, the software
    # prefetch plan and the cache geometry (halved for DP-HT).
    if not outermost:
        return
    trace = args[0]
    hierarchy = _arg(args, kwargs, 3, "hierarchy")
    key = (
        id(trace),
        1,
        hierarchy.hw_prefetch_enabled,
        repr(_arg(args, kwargs, 4, "plan")),
        repr(hierarchy.config),
    )
    rec.stage(trace, key)


def _multicore_stage(rec, result, args, kwargs, outermost):
    if not outermost:
        return
    trace = args[0]
    key = (
        id(trace),
        _arg(args, kwargs, 3, "num_cores"),
        _arg(args, kwargs, 7, "hw_prefetch", True),
        repr(_arg(args, kwargs, 4, "plan")),
        repr(_arg(args, kwargs, 9, "hier_override")),
    )
    rec.stage(trace, key)


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_hierarchy(rec, result, args, kwargs, outermost):
    # HierarchyStats keeps accumulating after the call returns; holding the
    # small stats object (not the hierarchy and its cache arrays) is enough.
    rec.hierarchy_stats.append(result.stats)


def _count_cache(rec, result, args, kwargs, outermost):
    rec.counts["mem.caches"] += 1
    if type(result).__name__ == "FastCache":
        rec.counts["mem.fast_caches"] += 1


def _count_chunk(rec, result, args, kwargs, outermost):
    # issue_demand_chunk replays a whole batch of loads in one call.
    rec.counts["cpu.chunk_ops"] += len(args[1])


def _count_box(rec, result, args, kwargs, outermost):
    if outermost:
        rec.counts["serving.box.calls"] += 1
        rec.counts["serving.box.requests"] += result.offered_requests
        rec.counts["serving.box.retries"] += result.retries_total


def _count_cluster(rec, result, args, kwargs, outermost):
    if outermost:
        rec.counts["serving.cluster.runs"] += 1
        rec.counts["serving.cluster.requests"] += result.offered_requests
        rec.counts["serving.cluster.hedges"] += result.hedges_issued
        rec.counts["serving.cluster.hedges_wasted"] += result.hedges_wasted


def _count_paths(rec, result, args, kwargs, outermost):
    rec.counts["obs.paths"] += len(result)


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``module:qualname`` in a group."""

    group: str
    path: str
    kind: str = COUNT
    on_return: Optional[Callable] = None


def _methods(group: str, owner: str, names: str) -> List[Target]:
    return [Target(group, f"{owner}.{name}") for name in names.split()]


TARGETS: Tuple[Target, ...] = (
    Target("trace", "repro.experiments.workloads:build_workload", SPAN),
    Target("trace", "repro.trace.production:make_trace", SPAN, _count_lookups),
    Target("core", "repro.core.schemes:evaluate_scheme", SPAN, _count_eval),
    Target(
        "engine.embedding", "repro.engine.embedding_exec:run_embedding_trace",
        SPAN, _embedding_stage,
    ),
    Target(
        "engine.multicore", "repro.engine.multicore:run_embedding_multicore",
        SPAN, _multicore_stage,
    ),
    Target("mem", "repro.mem.hierarchy:build_hierarchy", COUNT, _count_hierarchy),
    Target("mem", "repro.mem.hierarchy:make_cache", COUNT, _count_cache),
    *_methods(
        "mem", "repro.mem.hierarchy:MemoryHierarchy",
        "load_timing prefetch_timing hw_prefetch_candidates access_lines",
    ),
    *_methods(
        "cpu", "repro.cpu.core:CoreModel",
        "issue_compute issue_load issue_merged_load issue_prefetch",
    ),
    Target("cpu", "repro.cpu.core:CoreModel.issue_demand_chunk", COUNT, _count_chunk),
    Target("serving.box", "repro.serving.server:simulate_server", SPAN, _count_box),
    Target("serving.box", "repro.serving.server:ServerSim.run", SPAN, _count_box),
    Target("serving.cluster", "repro.serving.cluster:ClusterSim.run", SPAN, _count_cluster),
    Target("serving.router", "repro.serving.router:Router.choose"),
    Target("serving.router.quantile", "repro.serving.router:LatencyWindow.quantile"),
    Target("serving.degradation", "repro.serving.degradation:DegradationController.observe"),
    *_methods(
        "serving.faults", "repro.serving.faults:FaultPlan",
        "service_multiplier straggler_multipliers core_down next_available "
        "inject_arrivals windows",
    ),
    *_methods(
        "serving.faults", "repro.serving.faults:ClusterFaultPlan",
        "node_down next_up partitioned unreachable slow_factor crashes_for "
        "fault_windows_for windows",
    ),
    *_methods("obs.emit", "repro.obs.tracer:Tracer", "new_sim_track add_sim_span"),
    *_methods("obs.emit", "repro.obs.requests:RequestLog", "start_run"),
    *_methods(
        "obs.emit", "repro.obs.requests:RunLog",
        "event finish_fast finish add_record finish_custom",
    ),
    *_methods(
        "obs.emit", "repro.obs.fleet:FleetTrace",
        "begin_request end_request begin_slot end_slot route begin_attempt "
        "end_attempt finalize emit",
    ),
    Target("obs.extract", "repro.obs.critpath:extract_paths", SPAN, _count_paths),
    Target("obs.profile", "repro.obs.critpath:aggregate_profiles", SPAN),
    Target("obs.whatif", "repro.obs.whatif:predict", SPAN),
)


class _Group:
    """Timers of one group: self seconds, outermost-call seconds, depth."""

    __slots__ = ("self_s", "incl_s", "depth")

    def __init__(self) -> None:
        self.self_s = 0.0
        self.incl_s = 0.0
        self.depth = 0


class Recorder:
    """Call stack, timers, counters and spans of one traced run.

    ``clock`` is injectable so tests can drive a recorder with a fake one.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stack: List[list] = []  # open frames: [child_s, span_index]
        self.groups: Dict[str, _Group] = {}
        self.layer_depth: Dict[str, List[int]] = {}
        self.calls: Dict[str, int] = {}
        self.spans: List[list] = []  # [name, start, end, parent]
        self.span_stack: List[int] = []
        self.top_s = 0.0  # time inside outermost wrapped calls
        self.hierarchy_stats: List[object] = []
        self.stage_keys: set = set()
        self.stage_traces: List[object] = []
        self.unique_stages = 0
        self.broken: List[Target] = []  # targets whose count hook raised
        self.counts: Dict[str, float] = dict.fromkeys(
            (
                "trace.lookups", "core.evals", "engine.stages", "mem.caches",
                "mem.fast_caches", "cpu.chunk_ops", "serving.box.calls",
                "serving.box.requests", "serving.box.retries",
                "serving.cluster.runs", "serving.cluster.requests",
                "serving.cluster.hedges", "serving.cluster.hedges_wasted",
                "obs.paths",
            ),
            0,
        )

    def end_call(self) -> None:
        """Close one workload call: stage identity is per call."""
        self.stage_keys.clear()
        self.stage_traces.clear()

    def stage(self, trace, key) -> None:
        """Count one embedding stage and whether its inputs are new in this call."""
        self.counts["engine.stages"] += 1
        self.stage_traces.append(trace)  # keeps id(trace) unique within the call
        self.unique_stages += key not in self.stage_keys
        self.stage_keys.add(key)

    def group(self, name: str) -> _Group:
        return self.groups.setdefault(name, _Group())

    def wrap(self, target: Target, fn: Callable) -> Callable:
        """A timed stand-in for ``fn`` that charges ``target.group``."""
        clock = self.clock
        stack = self.stack
        group = self.group(target.group)
        layer_depth = self.layer_depth.setdefault(layer_of(target.group), [0])
        calls = self.calls
        calls.setdefault(target.path, 0)
        name = target.path
        on_return = target.on_return
        spans = self.spans if target.kind == SPAN else None
        span_stack = self.span_stack
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            group.depth += 1
            layer_depth[0] += 1
            frame = [0.0, -1]
            if spans is not None:
                frame[1] = len(spans)
                spans.append([name, 0.0, 0.0, span_stack[-1] if span_stack else -1])
                span_stack.append(frame[1])
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    try:
                        on_return(rec, result, args, kwargs, layer_depth[0] == 1)
                    except Exception:  # a renamed result field must not stop the run
                        if target not in rec.broken:
                            rec.broken.append(target)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                group.self_s += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    rec.top_s += dt
                group.depth -= 1
                if group.depth == 0:
                    group.incl_s += dt
                layer_depth[0] -= 1
                calls[name] += 1
                if spans is not None:
                    span = spans[frame[1]]
                    span[1] = t0
                    span[2] = t1
                    span_stack.pop()
            return result

        wrapper._bench_target = name
        return wrapper

    def layer_self_s(self, layer: str) -> float:
        return sum(g.self_s for name, g in self.groups.items() if layer_of(name) == layer)

    def span_durations(self, path: str) -> List[float]:
        return [end - start for name, start, end, _ in self.spans if name == path]


# -- installing and removing wrappers ---------------------------------------


@dataclass
class Installed:
    """What :func:`install` changed, so :func:`uninstall` can put it back."""

    replaced: List[Tuple[object, str, object]]
    missing: List[Target]


def _resolve(path: str):
    """``(owner, attribute name, original)`` for ``module:qualname``."""
    module_name, qualname = path.split(":")
    owner = importlib.import_module(module_name)
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, original


def install(rec: Recorder, targets=TARGETS) -> Installed:
    """Wrap every target; a target that no longer exists is reported, not fatal."""
    done = Installed([], [])
    for target in targets:
        try:
            owner, attr, original = _resolve(target.path)
        except (ImportError, AttributeError, KeyError):
            done.missing.append(target)
            continue
        if not callable(original):
            done.missing.append(target)
            continue
        wrapper = rec.wrap(target, original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            done.replaced.append((owner, attr, original))
            continue
        for module in _repro_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    done.replaced.append((module, key, original))
    return done


def uninstall(done: Installed) -> None:
    """Put back every original object :func:`install` replaced."""
    for owner, attr, original in reversed(done.replaced):
        setattr(owner, attr, original)
    done.replaced.clear()


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]


def _is_wrapper(value) -> bool:
    return isinstance(value, types.FunctionType) and "_bench_target" in value.__dict__


def leftover_wrappers() -> List[str]:
    """Names under ``repro`` that still hold a wrapper; empty after :func:`uninstall`."""
    found = []
    for module in _repro_modules():
        for key, value in list(vars(module).items()):
            if _is_wrapper(value):
                found.append(f"{module.__name__}.{key}")
            elif isinstance(value, type) and value.__module__ == module.__name__:
                found += [
                    f"{module.__name__}.{key}.{attr}"
                    for attr, member in vars(value).items()
                    if _is_wrapper(member)
                ]
    return found


# -- per-layer metrics ------------------------------------------------------


@dataclass(frozen=True)
class LayerMetric:
    """A per-layer metric, the groups it is read from, and what it should move."""

    name: str
    unit: str
    better: str
    groups: Tuple[str, ...]
    moves: str
    on: Tuple[str, ...]


def _m(name, unit, better, groups, moves, on):
    return LayerMetric(name, unit, better, tuple(groups.split()), moves, tuple(on.split()))


PS, BOX, CF, CO = "paper_schemes", "box_faults", "cluster_faults", "cluster_observed"

#: Every per-layer metric, the end-to-end metric it should move and the
#: workloads on which it should move it.  ``BENCHMARK.json`` lists the same
#: names, units and directions.
METRICS: Tuple[LayerMetric, ...] = (
    _m("trace.synth_s", "s", "lower", "trace", "wall_s", PS),
    _m("trace.lookups", "count", "higher", "trace", "wall_s", PS),
    _m("trace.lookups_per_s", "1/s", "higher", "trace", "wall_s", PS),
    _m("core.evals", "count", "higher", "core", "wall_s", PS),
    _m("core.self_s", "s", "lower", "core", "wall_s", PS),
    _m("engine.embedding.calls", "count", "lower", "engine.embedding", "wall_s", f"{PS} {BOX}"),
    _m("engine.embedding.self_s", "s", "lower", "engine.embedding", "wall_s", f"{PS} {BOX}"),
    _m("engine.embedding.call_ms.p50", "ms", "lower", "engine.embedding", "wall_s", f"{PS} {BOX}"),
    _m("engine.multicore.calls", "count", "lower", "engine.multicore", "wall_s", f"{PS} {BOX}"),
    _m("engine.embedding.unique_frac", "frac", "higher",
       "engine.embedding engine.multicore", "wall_s", PS),
    _m("mem.self_s", "s", "lower", "mem", "wall_s", PS),
    _m("mem.lines", "count", "lower", "mem", "wall_s", PS),
    _m("mem.ns_per_line", "ns", "lower", "mem", "wall_s", PS),
    _m("mem.hierarchies_built", "count", "lower", "mem", "wall_s", PS),
    _m("mem.l1_hit_frac", "frac", "higher", "mem", "none", PS),
    _m("mem.l2_hit_frac", "frac", "higher", "mem", "none", PS),
    _m("mem.l3_hit_frac", "frac", "higher", "mem", "none", PS),
    _m("mem.dram_lines", "count", "lower", "mem", "none", PS),
    _m("mem.fast_cache_frac", "frac", "higher", "mem", "wall_s", PS),
    _m("cpu.self_s", "s", "lower", "cpu", "wall_s", PS),
    _m("cpu.ops", "count", "lower", "cpu", "wall_s", PS),
    _m("cpu.ns_per_op", "ns", "lower", "cpu", "wall_s", PS),
    _m("serving.box.calls", "count", "higher", "serving.box", "wall_s", BOX),
    _m("serving.box.s", "s", "lower", "serving.box", "wall_s", BOX),
    _m("serving.box.requests", "count", "higher", "serving.box", "wall_s", BOX),
    _m("serving.box.requests_per_s", "1/s", "higher", "serving.box", "wall_s", BOX),
    _m("serving.box.retries", "count", "lower", "serving.box", "wall_s", BOX),
    _m("serving.degradation.observe_calls", "count", "lower", "serving.degradation",
       "wall_s", f"{BOX} {CF}"),
    _m("serving.degradation.self_s", "s", "lower", "serving.degradation", "wall_s", f"{BOX} {CF}"),
    _m("serving.faults.self_s", "s", "lower", "serving.faults", "wall_s", f"{BOX} {CF}"),
    _m("serving.cluster.runs", "count", "higher", "serving.cluster", "wall_s", f"{CF} {CO}"),
    _m("serving.cluster.s", "s", "lower", "serving.cluster", "wall_s", f"{CF} {CO}"),
    _m("serving.cluster.self_s", "s", "lower", "serving.cluster", "wall_s", f"{CF} {CO}"),
    _m("serving.cluster.requests", "count", "higher", "serving.cluster", "wall_s", f"{CF} {CO}"),
    _m("serving.cluster.requests_per_s", "1/s", "higher", "serving.cluster", "wall_s",
       f"{CF} {CO}"),
    _m("serving.cluster.hedges", "count", "lower", "serving.cluster", "wall_s", f"{CF} {CO}"),
    _m("serving.cluster.hedge_waste_frac", "frac", "lower", "serving.cluster", "wall_s",
       f"{CF} {CO}"),
    _m("serving.router.choose_calls", "count", "lower", "serving.router", "wall_s", f"{CF} {CO}"),
    _m("serving.router.self_s", "s", "lower", "serving.router serving.router.quantile",
       "wall_s", f"{CF} {CO}"),
    _m("serving.router.quantile_calls", "count", "lower", "serving.router.quantile", "wall_s",
       f"{CF} {CO}"),
    _m("serving.router.quantile_s", "s", "lower", "serving.router.quantile", "wall_s",
       f"{CF} {CO}"),
    _m("obs.emit_s", "s", "lower", "obs.emit", "wall_s peak_rss_mb", CO),
    _m("obs.emit_frac", "frac", "lower", "obs.emit serving.cluster", "wall_s peak_rss_mb", CO),
    _m("obs.spans", "count", "lower", "obs.emit", "wall_s peak_rss_mb", CO),
    _m("obs.request_events", "count", "lower", "obs.emit", "wall_s peak_rss_mb", CO),
    _m("obs.extract_s", "s", "lower", "obs.extract", "wall_s", CO),
    _m("obs.profile_s", "s", "lower", "obs.profile", "wall_s", CO),
    _m("obs.whatif_s", "s", "lower", "obs.whatif", "wall_s", CO),
    _m("obs.paths_per_s", "1/s", "higher", "obs.extract", "wall_s", CO),
    _m("bench.trace_overhead_x", "x", "lower", "", "none", f"{PS} {BOX} {CF} {CO}"),
    _m("bench.unattributed_frac", "frac", "lower", "", "none", f"{PS} {BOX} {CF} {CO}"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _calls(rec: Recorder, prefix: str) -> int:
    return sum(n for path, n in rec.calls.items() if path.startswith(prefix))


def unattributed_s(rec: Recorder, traced_wall_s: float) -> float:
    """Traced wall time spent outside every wrapped call."""
    return traced_wall_s - rec.top_s


def conservation_error(rec: Recorder, traced_wall_s: float) -> float:
    """``|sum of group self times + unattributed - traced wall|``; ~0 when sound."""
    total = sum(g.self_s for g in rec.groups.values()) + unattributed_s(rec, traced_wall_s)
    return abs(total - traced_wall_s)


#: Units of the metrics that are totals over a run; they are reported per
#: traced workload call.  Rates, shares and medians are left as they are.
PER_CALL_UNITS = ("s", "count")


def layer_metrics(
    rec: Recorder,
    traced_wall_s: float,
    untraced_wall_s: float,
    missing: List[Target],
    calls: int = 1,
) -> Dict[str, Optional[float]]:
    """Every per-layer metric over ``calls`` traced workload calls, with
    times and counts per call; ``None`` where a wrap target was missing or
    broken."""
    g = rec.group
    c = rec.counts
    hstats = rec.hierarchy_stats
    demand = sum(s.demand_accesses for s in hstats)
    lines = demand + sum(s.prefetch_requests for s in hstats)

    def level(name: str) -> int:
        return sum(s.level_hits.get(name, 0) for s in hstats)

    mem_self = rec.layer_self_s("mem")
    cpu_self = rec.layer_self_s("cpu")
    chunk = "repro.cpu.core:CoreModel.issue_demand_chunk"
    cpu_ops = (
        _calls(rec, "repro.cpu.core:CoreModel.issue_") - rec.calls.get(chunk, 0)
        + c["cpu.chunk_ops"]
    )
    embedding_ms = rec.span_durations("repro.engine.embedding_exec:run_embedding_trace")
    box_s = g("serving.box").incl_s
    cluster_s = g("serving.cluster").incl_s
    extract_s = g("obs.extract").incl_s
    values = {
        "trace.synth_s": g("trace").incl_s,
        "trace.lookups": c["trace.lookups"],
        "trace.lookups_per_s": _ratio(c["trace.lookups"], g("trace").incl_s),
        "core.evals": c["core.evals"],
        "core.self_s": rec.layer_self_s("core"),
        "engine.embedding.calls": rec.calls.get(
            "repro.engine.embedding_exec:run_embedding_trace", 0
        ),
        "engine.embedding.self_s": g("engine.embedding").self_s,
        "engine.embedding.call_ms.p50": (
            statistics.median(embedding_ms) * 1e3 if embedding_ms else 0.0
        ),
        "engine.multicore.calls": rec.calls.get(
            "repro.engine.multicore:run_embedding_multicore", 0
        ),
        "engine.embedding.unique_frac": _ratio(rec.unique_stages, c["engine.stages"]),
        "mem.self_s": mem_self,
        "mem.lines": lines,
        "mem.ns_per_line": _ratio(mem_self * 1e9, lines),
        "mem.hierarchies_built": len(hstats),
        "mem.l1_hit_frac": _ratio(level("l1"), demand),
        "mem.l2_hit_frac": _ratio(level("l2"), demand),
        "mem.l3_hit_frac": _ratio(level("l3"), demand),
        "mem.dram_lines": level("dram"),
        "mem.fast_cache_frac": _ratio(c["mem.fast_caches"], c["mem.caches"]),
        "cpu.self_s": cpu_self,
        "cpu.ops": cpu_ops,
        "cpu.ns_per_op": _ratio(cpu_self * 1e9, cpu_ops),
        "serving.box.calls": c["serving.box.calls"],
        "serving.box.s": box_s,
        "serving.box.requests": c["serving.box.requests"],
        "serving.box.requests_per_s": _ratio(c["serving.box.requests"], box_s),
        "serving.box.retries": c["serving.box.retries"],
        "serving.degradation.observe_calls": _calls(rec, "repro.serving.degradation:"),
        "serving.degradation.self_s": rec.layer_self_s("serving.degradation"),
        "serving.faults.self_s": rec.layer_self_s("serving.faults"),
        "serving.cluster.runs": c["serving.cluster.runs"],
        "serving.cluster.s": cluster_s,
        "serving.cluster.self_s": rec.layer_self_s("serving.cluster"),
        "serving.cluster.requests": c["serving.cluster.requests"],
        "serving.cluster.requests_per_s": _ratio(c["serving.cluster.requests"], cluster_s),
        "serving.cluster.hedges": c["serving.cluster.hedges"],
        "serving.cluster.hedge_waste_frac": _ratio(
            c["serving.cluster.hedges_wasted"], c["serving.cluster.hedges"]
        ),
        "serving.router.choose_calls": rec.calls.get("repro.serving.router:Router.choose", 0),
        "serving.router.self_s": rec.layer_self_s("serving.router"),
        "serving.router.quantile_calls": rec.calls.get(
            "repro.serving.router:LatencyWindow.quantile", 0
        ),
        "serving.router.quantile_s": g("serving.router.quantile").incl_s,
        "obs.emit_s": g("obs.emit").self_s,
        "obs.emit_frac": _ratio(g("obs.emit").self_s, cluster_s),
        "obs.spans": rec.calls.get("repro.obs.tracer:Tracer.add_sim_span", 0),
        "obs.request_events": rec.calls.get("repro.obs.requests:RunLog.event", 0),
        "obs.extract_s": extract_s,
        "obs.profile_s": g("obs.profile").incl_s,
        "obs.whatif_s": g("obs.whatif").incl_s,
        "obs.paths_per_s": _ratio(c["obs.paths"], extract_s),
        "bench.trace_overhead_x": _ratio(traced_wall_s, untraced_wall_s),
        "bench.unattributed_frac": _ratio(unattributed_s(rec, traced_wall_s), traced_wall_s),
    }
    broken = {t.group for t in [*missing, *rec.broken]}
    for metric in METRICS:
        if broken.intersection(metric.groups):
            values[metric.name] = None
        elif metric.unit in PER_CALL_UNITS:
            values[metric.name] /= calls
    return values
