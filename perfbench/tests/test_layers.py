"""Traced-run bookkeeping: self times, spans, wrapping and unwrapping."""

import pytest

import layers
from layers import SPAN, Recorder, Target


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_of_a_nested_call_tree():
    clock = FakeClock()
    rec = Recorder(clock)

    def leaf():
        clock.t += 2.0

    def mid():
        clock.t += 1.0
        w_leaf()
        clock.t += 3.0

    def top():
        clock.t += 0.5
        w_mid()
        w_leaf()
        w_inner()
        clock.t += 0.25

    def inner():  # same group as top: its time is top's group time, counted once
        clock.t += 0.125

    w_leaf = rec.wrap(Target("mem", "t:leaf"), leaf)
    w_mid = rec.wrap(Target("cpu", "t:mid", SPAN), mid)
    w_top = rec.wrap(Target("core", "t:top", SPAN), top)
    w_inner = rec.wrap(Target("core", "t:inner"), inner)

    clock.t = 10.0
    w_top()
    clock.t += 1.0  # outside every wrapped call
    wall = clock.t - 10.0

    assert rec.group("mem").self_s == 4.0
    assert rec.group("cpu").self_s == 4.0
    assert rec.group("core").self_s == 0.875
    assert rec.group("core").incl_s == 8.875
    assert rec.calls == {"t:leaf": 2, "t:mid": 1, "t:top": 1, "t:inner": 1}
    assert layers.unattributed_s(rec, wall) == 1.0
    assert layers.conservation_error(rec, wall) == 0.0
    # Spans: top has no parent, mid's parent is top; counters get no span.
    assert [(name, parent) for name, _, _, parent in rec.spans] == [("t:top", -1), ("t:mid", 0)]
    assert rec.span_durations("t:mid") == [6.0]


def test_a_raising_call_still_closes_its_frame():
    clock = FakeClock()
    rec = Recorder(clock)

    def boom():
        clock.t += 1.0
        raise RuntimeError("x")

    w = rec.wrap(Target("mem", "t:boom", SPAN), boom)
    with pytest.raises(RuntimeError):
        w()
    assert rec.stack == [] and rec.span_stack == []
    assert rec.group("mem").self_s == 1.0 and rec.top_s == 1.0


def test_every_group_is_in_a_layer():
    for target in layers.TARGETS:
        assert layers.layer_of(target.group) in layers.LAYERS
    assert layers.layer_of("serving.router.quantile") == "serving.router"


def test_wrap_then_unwrap_restores_every_original():
    import repro.core.schemes
    import repro.experiments.registry  # noqa: F401  (imports every layer)

    originals = {t.path: layers._resolve(t.path)[2] for t in layers.TARGETS}
    rec = Recorder()
    done = layers.install(rec)
    assert done.missing == []
    # Imported names are wrapped in the importing module too.
    assert repro.core.schemes.build_hierarchy is not originals[
        "repro.mem.hierarchy:build_hierarchy"
    ]
    assert layers.leftover_wrappers()
    layers.uninstall(done)
    for path, original in originals.items():
        assert layers._resolve(path)[2] is original, path
    assert repro.core.schemes.build_hierarchy is originals["repro.mem.hierarchy:build_hierarchy"]
    assert layers.leftover_wrappers() == []


def test_missing_targets_are_named_and_their_metrics_left_empty():
    import repro.experiments.registry  # noqa: F401

    targets = (
        Target("mem", "repro.mem.hierarchy:no_such_function"),
        Target("mem", "repro.no_such_module:f"),
        Target("cpu", "repro.cpu.core:CoreModel.no_such_method"),
        Target("core", "repro.core.schemes:evaluate_scheme", SPAN),
    )
    rec = Recorder()
    done = layers.install(rec, targets)
    layers.uninstall(done)
    assert done.missing == list(targets[:3])
    values = layers.layer_metrics(rec, 1.0, 1.0, done.missing)
    assert values["mem.self_s"] is None and values["cpu.ops"] is None
    assert values["core.self_s"] == 0.0
    assert values["serving.box.calls"] == 0


def test_traced_paper_pipeline_counts():
    """A small fig13 call: 6 schemes x 1 core, 4 distinct embedding stages."""
    from repro.config import SimConfig
    from repro.experiments.registry import run_experiment

    rec = Recorder()
    done = layers.install(rec)
    t0 = rec.clock()
    try:
        run_experiment(
            "fig13", SimConfig(seed=3), models=("rm2_1",), datasets=("high",),
            core_counts=(1,), scale=0.005, batch_size=4, num_batches=1,
        )
    finally:
        layers.uninstall(done)
        rec.end_call()
    wall = rec.clock() - t0
    values = layers.layer_metrics(rec, wall, wall, done.missing)
    assert values["core.evals"] == 6
    assert values["engine.embedding.unique_frac"] == pytest.approx(4 / 6)
    assert values["mem.fast_cache_frac"] == 1.0
    assert values["mem.hierarchies_built"] == 6
    assert values["mem.lines"] > 0 and values["cpu.ops"] > 0 and values["trace.lookups"] > 0
    assert layers.conservation_error(rec, wall) < 1e-9
    assert values["bench.unattributed_frac"] >= 0.0
