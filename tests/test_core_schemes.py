"""Design-point evaluation tests — the paper's Section 6 panel in miniature."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.config import SimConfig
from repro.core import schemes as schemes_mod
from repro.core.schemes import SCHEME_NAMES, evaluate_all_schemes, evaluate_scheme
from repro.cpu.platform import get_platform
from repro.errors import ConfigError, UnknownSchemeError
from repro.experiments.resilience import LADDER_SCHEMES, ladder_service_ms
from repro.experiments.workloads import build_workload


@pytest.fixture(scope="module")
def panel(request):
    """All six schemes on one small Low-hot rm2_1 workload, single core."""
    from repro.config import SimConfig
    from repro.cpu.platform import get_platform
    from repro.model.configs import get_model
    from repro.trace.production import make_trace
    from repro.trace.stream import AddressMap

    config = SimConfig(seed=77)
    model = get_model("rm2_1").scaled(0.01)
    trace = make_trace(
        "low", model.num_tables, model.rows, 8, 2,
        model.lookups_per_sample, config=config,
    )
    amap = AddressMap([model.rows] * model.num_tables, model.embedding_dim)
    csl = get_platform("csl")
    return evaluate_all_schemes(model, trace, amap, csl, num_cores=1)


def test_all_schemes_evaluated(panel):
    assert set(panel) == set(SCHEME_NAMES)
    for result in panel.values():
        assert result.batch_cycles > 0
        assert result.embedding_cycles > 0
        assert result.batch_ms > 0


def test_sw_pf_beats_baseline(panel):
    assert panel["sw_pf"].speedup_over(panel["baseline"]) > 1.1
    assert panel["sw_pf"].embedding_speedup_over(panel["baseline"]) > 1.1


def test_sw_pf_improves_l1_and_latency(panel):
    assert panel["sw_pf"].l1_hit_rate > panel["baseline"].l1_hit_rate
    assert panel["sw_pf"].avg_load_latency < panel["baseline"].avg_load_latency


def test_dp_ht_hurts_latency(panel):
    # The paper's Fig 13: DP-HT down to 0.62x.
    assert panel["dp_ht"].speedup_over(panel["baseline"]) < 0.95


def test_mp_ht_never_catastrophic(panel):
    assert panel["mp_ht"].speedup_over(panel["baseline"]) > 0.9


def test_integrated_is_best_or_tied(panel):
    base = panel["baseline"]
    integrated = panel["integrated"].speedup_over(base)
    assert integrated >= panel["sw_pf"].speedup_over(base) * 0.98
    assert integrated >= panel["mp_ht"].speedup_over(base)
    assert integrated > 1.2


def test_hw_pf_off_hurts_end_to_end(panel):
    # Fig 13: "turning off hardware prefetching hurts performance in all
    # cases" end-to-end (dense stages lose their prefetchers).
    assert panel["hw_pf_off"].speedup_over(panel["baseline"]) < 1.0


def test_embedding_projection_applied(panel):
    # Scaled rm2_1 projects to paper-scale lookups: embedding dominates.
    assert panel["baseline"].stages is not None
    assert panel["baseline"].stages.embedding_fraction > 0.9


def test_unknown_scheme_rejected(panel):
    from repro.config import SimConfig
    from repro.cpu.platform import get_platform
    from repro.model.configs import get_model
    from repro.trace.production import make_trace
    from repro.trace.stream import AddressMap

    model = get_model("rm2_1").scaled(0.01)
    trace = make_trace(
        "low", model.num_tables, model.rows, 4, 1,
        model.lookups_per_sample, config=SimConfig(),
    )
    amap = AddressMap([model.rows] * model.num_tables, model.embedding_dim)
    with pytest.raises(UnknownSchemeError):
        evaluate_scheme("turbo", model, trace, amap, get_platform("csl"))


def test_scheme_result_metadata(panel):
    result = panel["baseline"]
    assert result.model.startswith("rm2_1")
    assert result.num_cores == 1
    assert result.scheme == "baseline"


# -- exactness lock ---------------------------------------------------------
#
# The digests pin every field of every result, stage times included, to the
# last bit.  They were recorded before panels started sharing embedding-stage
# simulations between schemes; a change that moves one changed the outputs.

#: sha256 of :func:`_panel_digest` of all six schemes, per core count.
PANEL_DIGESTS = {
    1: "f9f75bcfbd3cfa3491d09b0a2e97156f2b809beec902a5e95c2d5bb768adc034",
    4: "74d9ccef29c058078a896b25fc13ee95c74b6a786a8974120af794cde0ae6b01",
}

#: sha256 of the resilience ladder's service times at 4 cores.
LADDER_DIGEST = "8adab456922317261a405b63eed7aff4052da13a4c13d21069f19d72e07eb8d1"


@pytest.fixture(scope="module")
def low_hot():
    """A small rm2_1 Low-hot workload shared by the exactness tests."""
    return build_workload(
        "rm2_1", "low", scale=0.01, batch_size=8, num_batches=2,
        config=SimConfig(seed=77),
    )


def _flat(value):
    """Every field of ``value`` as exact text (floats as hex)."""
    if dataclasses.is_dataclass(value):
        return [_flat(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.integer):
        return repr(int(value))
    assert isinstance(value, (bool, int, str)) or value is None, type(value)
    return repr(value)


def _panel_digest(panel):
    h = hashlib.sha256()
    for scheme in SCHEME_NAMES:
        h.update(repr(_flat(panel[scheme])).encode())
    return h.hexdigest()


@pytest.mark.parametrize("num_cores", sorted(PANEL_DIGESTS))
def test_panel_outputs_pinned(low_hot, num_cores):
    # 1 core takes the scalar path, 4 cores the multicore path.
    wl = low_hot
    panel = evaluate_all_schemes(
        wl.model, wl.trace, wl.amap, get_platform("csl"),
        num_cores=num_cores, detailed_cores=2,
    )
    assert _panel_digest(panel) == PANEL_DIGESTS[num_cores]


def test_resilience_ladder_pinned(low_hot):
    service_ms = ladder_service_ms(low_hot, get_platform("csl"), 4, 2)
    assert tuple(service_ms) == LADDER_SCHEMES
    h = hashlib.sha256()
    for scheme, ms in service_ms.items():
        h.update(f"{scheme}={float(ms).hex()};".encode())
    assert h.hexdigest() == LADDER_DIGEST


# -- one simulation per distinct embedding stage ------------------------------


@pytest.fixture
def stage_calls(monkeypatch):
    """Count embedding-stage simulations started by the schemes module."""
    calls = {"trace": 0, "multicore": 0}

    def counting(kind, fn):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        schemes_mod, "run_embedding_trace",
        counting("trace", schemes_mod.run_embedding_trace),
    )
    monkeypatch.setattr(
        schemes_mod, "run_embedding_multicore",
        counting("multicore", schemes_mod.run_embedding_multicore),
    )
    return calls


@pytest.fixture(scope="module")
def tiny_wl():
    """A one-batch workload for tests that count or reject simulations."""
    return build_workload(
        "rm2_1", "low", scale=0.01, batch_size=4, num_batches=1,
        config=SimConfig(seed=5),
    )


@pytest.mark.parametrize(
    "num_cores,kind", [(1, "trace"), (4, "multicore")], ids=["scalar", "multicore"]
)
@pytest.mark.parametrize(
    "panel_schemes,stages", [(SCHEME_NAMES, 4), (LADDER_SCHEMES, 2)],
    ids=["six", "ladder"],
)
def test_each_distinct_stage_simulated_once(
    tiny_wl, stage_calls, num_cores, kind, panel_schemes, stages
):
    # baseline/mp_ht and sw_pf/integrated share their embedding stage.
    wl = tiny_wl
    evaluate_all_schemes(
        wl.model, wl.trace, wl.amap, get_platform("csl"),
        num_cores=num_cores, schemes=panel_schemes,
    )
    assert stage_calls[kind] == stages
    assert sum(stage_calls.values()) == stages


# -- bad panel inputs fail at the boundary -----------------------------------


BAD_CORE_COUNTS = {
    "num_cores=0": dict(num_cores=0),
    "num_cores=-3": dict(num_cores=-3),
    "detailed_cores=0": dict(num_cores=4, detailed_cores=0),
}


@pytest.mark.parametrize("case", sorted(BAD_CORE_COUNTS))
@pytest.mark.parametrize("entry", ["evaluate_scheme", "evaluate_all_schemes"])
def test_bad_core_counts_rejected(tiny_wl, stage_calls, case, entry):
    wl = tiny_wl
    args = (wl.model, wl.trace, wl.amap, get_platform("csl"))
    if entry == "evaluate_scheme":
        args = ("baseline",) + args
    with pytest.raises(ConfigError, match=case.split("=")[0]):
        getattr(schemes_mod, entry)(*args, **BAD_CORE_COUNTS[case])
    assert sum(stage_calls.values()) == 0


def test_unknown_scheme_rejected_before_any_simulation(tiny_wl, stage_calls):
    wl = tiny_wl
    with pytest.raises(UnknownSchemeError, match="turbo"):
        evaluate_all_schemes(
            wl.model, wl.trace, wl.amap, get_platform("csl"),
            schemes=("baseline", "sw_pf", "turbo"),
        )
    assert sum(stage_calls.values()) == 0
