"""Exactness lock for the multi-node cluster event loop.

The digests below pin the loop's full output — per-request outcomes and
latencies, counters, and per-node stats — on small runs covering every
event kind (crash, partition, slowdown, hedge, timeout, probe) under each
routing mode with per-node degradation controllers on.  They were
recorded before the loop's fast paths went in; any change to event
order, service-draw order, or float arithmetic changes a digest.  The
tie-order cases pin how events at exactly equal times are ordered.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.config import SimConfig
from repro.obs import hooks as obs_hooks
from repro.obs.hooks import Observation
from repro.obs.requests import RequestLog
from repro.serving.cluster import ClusterConfig, ClusterSim
from repro.serving.degradation import DegradationController, scheme_ladder
from repro.serving.faults import (
    ClusterFaultPlan,
    NodeCrash,
    NodePartition,
    NodeSlow,
)
from repro.serving.router import HealthPolicy, HedgePolicy
from repro.serving.workload import poisson_arrivals

N_REQUESTS = 600
INTERARRIVAL_MS = 0.4
HORIZON_MS = N_REQUESTS * INTERARRIVAL_MS

LADDER = scheme_ladder(
    {"baseline": 1.0, "sw_pf": 0.8, "integrated": 0.65}, batch_scale=0.6
)


def _controller(node):
    return DegradationController(
        LADDER, sla_ms=2.5, window=48, min_samples=12,
        escalate_margin=1.0, recover_margin=0.6, cooldown=32,
    )


FAULTS = {
    "none": None,
    "kill": ClusterFaultPlan(
        [NodeCrash(1, 0.25 * HORIZON_MS, 0.6 * HORIZON_MS)], seed=11
    ),
    "partition_slow": ClusterFaultPlan(
        [
            NodePartition(2, 0.2 * HORIZON_MS, 0.45 * HORIZON_MS),
            NodeSlow(0, 0.1 * HORIZON_MS, 0.8 * HORIZON_MS, factor=5.0),
        ],
        seed=11,
    ),
}

ROUTING = {
    "round_robin": dict(routing="round_robin"),
    "least_loaded": dict(routing="least_loaded"),
    "hedged": dict(
        routing="least_loaded",
        hedge=HedgePolicy(quantile=90.0, min_ms=1.5, window=64),
    ),
}

#: sha256 of :func:`_digest` per (fault, routing) scenario.
DIGESTS = {
    ("none", "round_robin"): (
        "310289ba694493bfdc0541f314678420"
        "8be7d7abfb0bbc566c828d80c49b2995"
    ),
    ("none", "least_loaded"): (
        "0dc5836c28766d1896beef24ec3d6008"
        "e08624edfee8b7375d763387b8dcba00"
    ),
    ("none", "hedged"): (
        "187256ed91eee0ec05cb59cced73e089"
        "c7d8fabce71f6267fc5b5207c3478dda"
    ),
    ("kill", "round_robin"): (
        "be37be7f63fa5089a20279d58b34688e"
        "2e1ae53f6322c3f6b84064d122c7b42f"
    ),
    ("kill", "least_loaded"): (
        "d51a6b05e60fde2a4f299d201eaea88a"
        "c8df83d20685ee73db5f81550b5fc480"
    ),
    ("kill", "hedged"): (
        "19f1d94c78e21053afc09f2075cf2411"
        "b9aa3aea0f3a252b1adf8d20d393ff50"
    ),
    ("partition_slow", "round_robin"): (
        "a8adcbadd350530e4b5c715b9b1b7ac7"
        "2fc81cf5b3176a97f5b4bc8aa7c1b446"
    ),
    ("partition_slow", "least_loaded"): (
        "a1f1cc008f1ed72ce41b6982c729cd84"
        "62574d38c6a75ed5287628e1f7adb08d"
    ),
    ("partition_slow", "hedged"): (
        "0d32affe024e247330733888fe9d179f"
        "c58bbeb0a438d1003ba3cbcf44f6101e"
    ),
}

#: sha256 of the hooks-on request log of the (kill, hedged) scenario.
REQUEST_LOG_DIGEST = (
    "7ffc1052e0a12a6b84afb9f79b6731da"
    "b91a35716ea28c340e6524e0045be418"
)


def _arrivals():
    return poisson_arrivals(
        INTERARRIVAL_MS, N_REQUESTS, SimConfig(seed=7).rng("t:arr")
    )


def _config(fault, routing):
    return ClusterConfig(
        num_nodes=4, cores_per_node=2, mean_service_ms=1.0, num_shards=8,
        replication=2, gather_width=2, hop_ms=0.05, call_timeout_ms=12.0,
        deadline_ms=50.0, faults=FAULTS[fault], seed=11,
        controller_factory=_controller, label="t:exact",
        **ROUTING[routing],
    )


def _digest(res):
    h = hashlib.sha256()
    for arr in (
        res.outcomes,
        res.request_latency_ms,
        res.latencies_ms,
        res.degraded_latencies_ms,
    ):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(float(res.duration_ms).hex().encode())
    counters = (
        res.failovers, res.hedges_issued, res.hedges_won, res.hedges_wasted,
        res.hedges_failed, res.ejections, res.probes, res.calls_failed,
        res.partition_failures,
    )
    h.update(repr(counters).encode())
    for s in res.node_stats:
        h.update(
            repr(
                (
                    s.node, s.calls, s.lost_calls, float(s.busy_ms).hex(),
                    float(s.utilization).hex(), s.final_degradation_level,
                )
            ).encode()
        )
    return h.hexdigest()


class TestDigests:
    @pytest.mark.parametrize("fault,routing", sorted(DIGESTS))
    def test_outputs_pinned(self, fault, routing):
        res = ClusterSim(_config(fault, routing)).run(_arrivals())
        assert _digest(res) == DIGESTS[(fault, routing)]

    def test_request_log_pinned(self):
        obs = Observation(requests=RequestLog())
        with obs_hooks.session(obs):
            ClusterSim(_config("kill", "hedged")).run(_arrivals())
        text = "\n".join(json.dumps(r) for r in obs.requests.records())
        assert hashlib.sha256(text.encode()).hexdigest() == REQUEST_LOG_DIGEST


def _tiny(arrivals, faults, **kwargs):
    """Two nodes, one shard on both: every routing choice is observable."""
    defaults = dict(
        num_nodes=2, cores_per_node=1, mean_service_ms=0.5, num_shards=1,
        replication=2, gather_width=1, hop_ms=0.1, call_timeout_ms=1000.0,
        routing="least_loaded", faults=ClusterFaultPlan(faults, seed=3),
        seed=3,
    )
    defaults.update(kwargs)
    return ClusterSim(ClusterConfig(**defaults)).run(
        np.asarray(arrivals, dtype=float)
    )


class TestTieOrder:
    def test_crash_beats_arrival(self):
        # Request 1 is still on a slowed node 0 when node 0 crashes at
        # exactly 5.0, the arrival time of request 2.  Crash first: request
        # 1 fails over to node 1, so request 2 picks the now-idle node 0,
        # bounces off it and fails over too.  Arrival first would have
        # sent request 2 straight to node 1 (one failover in all).
        res = _tiny(
            [0.0, 5.0],
            [NodeSlow(0, 0.0, 5.0, factor=200.0), NodeCrash(0, 5.0, 50.0)],
        )
        assert res.failovers == 2
        assert res.node_stats[0].calls == 1
        assert res.node_stats[0].lost_calls == 1
        assert res.node_stats[1].calls == 2

    def test_arrival_beats_hedge(self):
        # Request 1 arrives at 10.0 on a slowed node 0; its hedge timer
        # fires at exactly 10.0 + min_ms == 13.0, when request 2 arrives.
        # Arrival first: request 2 sees node 0 busy and picks node 1, then
        # the hedge also goes to node 1.  Hedge first would have left both
        # nodes one call in flight and sent request 2 to node 0.
        res = _tiny(
            [0.0, 10.0, 13.0],
            [NodeSlow(0, 10.0, 20.0, factor=200.0)],
            hedge=HedgePolicy(quantile=50.0, min_ms=3.0, window=8),
        )
        assert res.hedges_issued == 1
        assert res.node_stats[0].calls == 2
        assert res.node_stats[1].calls == 2

    def test_arrival_beats_timeout(self):
        # Request 1's call is swallowed by the partition on node 0 and
        # times out at exactly 10.0 + 5.0 == 15.0, when request 2 arrives.
        # Arrival first: node 0 still counts one call in flight, so
        # request 2 goes to node 1; only request 1 fails over.  Timeout
        # first would have sent request 2 into the partition as well.
        res = _tiny(
            [10.0, 15.0],
            [NodePartition(0, 5.0, 100.0)],
            call_timeout_ms=5.0,
            health=HealthPolicy(eject_after=3),
        )
        assert res.partition_failures == 1
        assert res.failovers == 1
        assert res.node_stats[0].calls == 0
        assert res.node_stats[1].calls == 2
