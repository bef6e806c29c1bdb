"""The traced run's work is fixed per workload and its figures are per call."""

import json

import pytest

import layers
import worker
import workloads

#: A fig13 call small enough for a test: 6 schemes at 1 core on one dataset.
TINY = workloads.Workload(
    "tiny",
    "fig13",
    {
        "models": ("rm2_1",), "datasets": ("high",), "core_counts": (1,),
        "scale": 0.005, "batch_size": 4, "num_batches": 1,
    },
    lambda rows, overrides: [],
    traced_calls=2,
)
NO_GOLDENS = {"rows": {}, "sha256": {}}
#: Per-call counts fixed by the experiment's shape, whatever the seed.
SHAPE_COUNTS = (
    "core.evals", "mem.hierarchies_built", "engine.embedding.calls", "engine.multicore.calls",
)


def _traced(calls, tmp_path):
    run = worker.Run(TINY, NO_GOLDENS)
    values, missing = worker.traced(run, 3, calls, tmp_path / "spans.jsonl")
    assert run.failed == 0 and missing == []
    assert run.attempted == 2 * calls
    return values


def test_traced_counts_are_per_call(tmp_path):
    one, two = _traced(1, tmp_path), _traced(2, tmp_path)
    for name in SHAPE_COUNTS:
        assert one[name] == two[name], name
    assert one["core.evals"] == 6
    assert two["engine.embedding.unique_frac"] == pytest.approx(4 / 6)


def test_traced_run_length_does_not_change_its_figures(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(workloads, "load_goldens", lambda workload: NO_GOLDENS)
    monkeypatch.setattr(worker, "HERE", tmp_path)

    def run(until):
        assert worker.main(["--workload", "tiny", "--seed", "3", "--until", until,
                            "--trace", "1"]) == 0
        return json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    short, long = run("0"), run("1e12")
    assert short["attempted"] == long["attempted"] == 2 * TINY.traced_calls
    counts = [m.name for m in layers.METRICS if m.unit == "count"]
    assert {k: short["layers"][k] for k in counts} == {k: long["layers"][k] for k in counts}
    assert short["layers"]["core.evals"] == 6
