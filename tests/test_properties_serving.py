"""Property-based tests on the serving stack (batcher, server, pipeline,
latency windows)."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serving.batcher import chunk_queries
from repro.serving.degradation import DegradationController, scheme_ladder
from repro.serving.router import LatencyWindow
from repro.serving.server import simulate_server
from repro.serving.workload import poisson_arrivals

SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

arrival_lists = st.lists(
    st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=150
).map(sorted)


@SETTINGS
@given(arrival_lists, st.integers(1, 10), st.floats(0.5, 100.0))
def test_batcher_partitions_queries(arrivals, batch_size, timeout):
    """Every query lands in exactly one batch, in order, within limits."""
    arrivals = np.asarray(arrivals)
    batches = chunk_queries(arrivals, batch_size, timeout)
    flattened = np.concatenate([b.query_arrivals_ms for b in batches])
    assert np.array_equal(flattened, arrivals)
    for batch in batches:
        assert 1 <= batch.size <= batch_size
        assert batch.dispatch_ms >= batch.query_arrivals_ms.max() - 1e-9
        assert batch.max_queueing_delay_ms <= timeout + 1e-9


@SETTINGS
@given(arrival_lists, st.integers(1, 10), st.floats(0.5, 100.0))
def test_batcher_dispatches_monotone(arrivals, batch_size, timeout):
    batches = chunk_queries(np.asarray(arrivals), batch_size, timeout)
    dispatches = [b.dispatch_ms for b in batches]
    assert dispatches == sorted(dispatches)


@SETTINGS
@given(
    st.integers(0, 2**31 - 1),
    st.floats(1.0, 50.0),
    st.integers(1, 16),
)
def test_server_conservation_laws(seed, service_ms, cores):
    """No request served before arrival; cores never exceed capacity."""
    rng = np.random.default_rng(seed)
    arrivals = poisson_arrivals(5.0, 200, rng)
    result = simulate_server(arrivals, service_ms, cores, rng)
    assert np.all(result.waits_ms >= -1e-9)
    assert np.all(result.latencies_ms >= result.services_ms - 1e-9)
    # Work conservation: total busy time fits in cores x makespan.
    makespan = float((arrivals + result.latencies_ms).max())
    assert result.services_ms.sum() <= cores * makespan + 1e-6


@SETTINGS
@given(st.integers(0, 2**31 - 1), st.integers(1, 8))
def test_server_fifo_order_of_starts(seed, cores):
    """FIFO dispatch: start times are non-decreasing in arrival order."""
    rng = np.random.default_rng(seed)
    arrivals = poisson_arrivals(3.0, 100, rng)
    result = simulate_server(arrivals, 10.0, cores, rng)
    starts = arrivals + result.waits_ms
    assert np.all(np.diff(starts) >= -1e-9)


@SETTINGS
@given(st.integers(0, 2**31 - 1))
def test_more_cores_never_hurt(seed):
    rng_arr = np.random.default_rng(seed)
    arrivals = poisson_arrivals(4.0, 150, rng_arr)
    few = simulate_server(arrivals, 12.0, 2, np.random.default_rng(seed + 1))
    many = simulate_server(arrivals, 12.0, 8, np.random.default_rng(seed + 1))
    # With identical service draws, adding cores cannot raise the mean wait.
    assert many.waits_ms.mean() <= few.waits_ms.mean() + 1e-9


# -- incremental latency windows -------------------------------------------

#: Few distinct values so windows hold many duplicates.
latency_values = st.one_of(
    st.sampled_from([0.5, 1.0, 1.0, 2.25, 7.0]),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
)


def _reference_quantile(values, q):
    """The LatencyWindow percentile, computed with a full sort."""
    data = sorted(values)
    rank = (len(data) - 1) * (q / 100.0)
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


def _reference_p95(values):
    """DegradationController.window_p95, computed with a full sort."""
    if not values:
        return 0.0
    xs = sorted(values)
    n = len(xs)
    virtual = 0.95 * (n - 1)
    prev = int(virtual)
    gamma = virtual - prev
    a = xs[prev]
    b = xs[prev + 1] if prev + 1 < n else a
    if gamma >= 0.5:
        return b - (b - a) * (1.0 - gamma)
    return a + (b - a) * gamma


@SETTINGS
@given(
    st.integers(1, 12),
    st.lists(latency_values, min_size=1, max_size=80),
    st.sampled_from([0.0, 50.0, 90.0, 95.0, 99.0, 100.0]),
)
def test_latency_window_quantile_matches_sorted(size, values, q):
    """The incrementally sorted ring is bit-equal to sorting the last
    ``size`` values, through every wrap-around."""
    window = LatencyWindow(size)
    for k, value in enumerate(values):
        window.observe(value)
        recent = values[max(0, k + 1 - size): k + 1]
        assert window.quantile(q) == _reference_quantile(recent, q)


@SETTINGS
@given(
    st.integers(2, 10),
    st.integers(1, 10),
    st.lists(latency_values, min_size=1, max_size=120),
)
def test_window_p95_matches_sorted(window, min_samples, values):
    """The controller's sorted window is bit-equal to sorting the deque,
    across evictions and the window clears of level changes."""
    ladder = scheme_ladder({"baseline": 1.0, "sw_pf": 0.8, "integrated": 0.6})
    controller = DegradationController(
        ladder, sla_ms=4.0, window=window,
        min_samples=min(min_samples, window), cooldown=3,
    )
    shadow = []
    for t, value in enumerate(values):
        shadow = (shadow + [value])[-window:]
        event = controller.observe(float(t), value)
        if event is not None:  # decided on the full window, then cleared
            assert event.window_p95_ms == _reference_p95(shadow)
            shadow = []
        assert controller.window_p95() == _reference_p95(shadow)
