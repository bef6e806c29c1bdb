"""Host-speed probe: a fixed pure-Python loop timed next to every measurement.

The benchmark host is a 2-vCPU VM whose neighbours slow it down in phases
that last from one to tens of seconds, by up to 2x, without any steal time
showing: a whole 30 s run of ``cluster_faults`` can be 60% slower than the
next.  The simulator is mostly interpreted Python (event heaps, dicts,
float arithmetic over working sets larger than the core's caches), and so
is this probe, so the probe slows down with it.

A measured time is reported in *reference seconds*: the measured seconds
times ``(REFERENCE_S / probe) ** sensitivity``, with the probe timed next to
the measurement.  A program that gets faster reads faster; a host that gets
slower mostly does not.  The probe runs after the program's report is
dropped and with the garbage collector off, so what the program leaves
alive has little hold on it; it still shares the process's allocator.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

#: What :func:`probe` takes on the reference host when it is quiet, so that
#: reference seconds read as that host's seconds.
REFERENCE_S = 0.065

#: How much of the probe's slowdown a measured time is taken to feel.
#: Chosen from the raw times and probes of the runs in
#: ``hostspeed_fit.jsonl`` (2-vCPU host, the probe swinging 55-155 ms):
#: ``python3 perfbench/spread.py --from perfbench/hostspeed_fit.jsonl``
#: prints each workload's spread of run medians at sensitivities 0 to 1.
#: Which value is best for a workload moves between sets of runs, from 0.5
#: while the host is quiet to 1.0 through its slow phases; 0.8 keeps every
#: workload's spread low in both.
SENSITIVITY = 0.8

#: Passes one probe averages over: now and then a single ~70 ms pass lands
#: in a short stall and reads 30-50% slow; the mean of three damps that.
PASSES = 3


#: Python floats the probe scatters its reads over (~4 MB with the list).
_SPAN = 1 << 17


def probe() -> float:
    """Seconds a fixed pass of heap, dict and float work takes right now
    (the mean of :data:`PASSES` passes).

    The garbage collector is off during the pass, so how many objects the
    program left alive does not change how often it runs inside the probe.
    """
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        return sum(_timed_pass() for _ in range(PASSES)) / PASSES
    finally:
        if gc_was_on:
            gc.enable()


def _timed_pass() -> float:
    start = time.perf_counter()
    rnd = random.Random(1)
    values = [rnd.random() for _ in range(_SPAN)]
    acc = 0.0
    for i in range(_SPAN):  # an odd stride visits every slot in scattered order
        acc += values[(i * 40503) & (_SPAN - 1)]
    del values
    heap = []
    totals = {}
    for i in range(30000):
        heapq.heappush(heap, (rnd.random(), i))
        if len(heap) > 64:
            t, j = heapq.heappop(heap)
            totals[j & 63] = totals.get(j & 63, 0.0) + t
            acc += t * 1.5 - acc * 1e-9
    return time.perf_counter() - start


def reference_seconds(
    seconds: float, probe_s: float, sensitivity: float = SENSITIVITY
) -> float:
    """``seconds`` measured while the probe took ``probe_s``, at reference speed."""
    return seconds * (REFERENCE_S / probe_s) ** sensitivity


def call_seconds(walls, probes, parts: int, sensitivity: float = SENSITIVITY) -> list:
    """Reference seconds of each call of a run.

    ``walls`` holds every part of every call in order and ``probes`` a probe
    before the first part and after every part.  Each part is scaled by the
    mean of the probes just before and after it; a call is the sum of its
    ``parts`` parts.
    """
    scaled = [
        reference_seconds(wall, (probes[i] + probes[i + 1]) / 2, sensitivity)
        for i, wall in enumerate(walls)
    ]
    return [sum(scaled[i:i + parts]) for i in range(0, len(scaled) - parts + 1, parts)]
