"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py``, which sets the thread environment first.  Prints one
JSON line: the time it became ready (``time.monotonic()``, comparable with
the launcher's clock), the wall time of every part of every call with the
host-speed probes taken between them, the output checks and, for a traced
run, the per-layer metrics.

The load is a closed loop: one client, each call starting after the
previous one returns.  Call ``i`` of a run uses seed ``--seed + i``, so a
run's median spans several inputs and the same seed gives the same inputs.
An untraced run makes calls until the next one would end after ``--until``
(a ``time.monotonic()`` deadline set by the launcher); a traced run makes
the workload's fixed ``traced_calls`` pairs, however long they take.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402  (imports the simulator and its experiment registry)

#: Calls a run always makes, however long one call takes.
MIN_CALLS = 2
#: A traced run's sum of self times plus unattributed time must equal its
#: wall time to within this share (float rounding over millions of calls).
CONSERVATION_TOLERANCE = 1e-6


class Run:
    """Calls, walls and check outcomes of one run."""

    def __init__(self, workload, goldens) -> None:
        self.workload = workload
        self.goldens = goldens
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def call(self, seed: int, probes=None) -> list:
        """Time one call at ``seed`` part by part and check its rows; returns
        the parts' wall seconds.  With ``probes``, a host probe is appended
        after every part."""
        self.attempted += 1
        walls, rows = [], []
        for part in self.workload.parts:
            t0 = time.perf_counter()
            report = workloads.run_part(self.workload, seed, part)
            walls.append(time.perf_counter() - t0)
            rows += workloads.canonical_rows(report)
            del report  # so the probe does not run next to the program's objects
            if probes is not None:
                probes.append(hostspeed.probe())
        errors = workloads.check(self.workload, rows, seed, self.goldens)
        if errors:
            self.fail(f"seed {seed}: " + "; ".join(errors[:5]))
        return walls

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        print(message, file=sys.stderr)


def measure(run: Run, seed: int, until: float, walls: list, probes: list) -> None:
    """Untraced closed loop until ``until``: appends each part's wall time,
    and host probes taken before the first part and after every part."""
    hostspeed.probe()  # the first pass in a process also pays for growing the heap
    probes.append(hostspeed.probe())
    took = []  # each call with its probes and checks
    while True:
        t0 = time.monotonic()
        walls += run.call(seed + len(took), probes)
        took.append(time.monotonic() - t0)
        if len(took) >= MIN_CALLS and time.monotonic() + statistics.median(took) > until:
            return


def traced(run: Run, seed: int, calls: int, spans_path: Path):
    """``calls`` pairs of untraced and traced calls, pair ``i`` on seed
    ``seed + i``; per-layer metrics per traced call."""
    rec = layers.Recorder()
    untraced_s = traced_s = 0.0
    for i in range(calls):
        untraced_s += sum(run.call(seed + i))
        installed = layers.install(rec)
        try:
            traced_s += sum(run.call(seed + i))
        finally:
            layers.uninstall(installed)
            rec.end_call()
        left = layers.leftover_wrappers()
        if left:
            run.fail(f"wrappers left in place after the run: {left}")
    error = layers.conservation_error(rec, traced_s)
    if error > CONSERVATION_TOLERANCE * traced_s or layers.unattributed_s(rec, traced_s) < 0:
        run.fail(f"layer self times do not add up to the traced wall time (off by {error} s)")
    missing = [*installed.missing, *rec.broken]
    for target in missing:
        print(f"wrap target missing or its count broken: {target.path}", file=sys.stderr)
    spans_path.parent.mkdir(exist_ok=True)
    with open(spans_path, "w") as fh:
        for name, begin, end, parent in rec.spans:
            fh.write(json.dumps({"name": name, "start": begin, "end": end, "parent": parent}))
            fh.write("\n")
    values = layers.layer_metrics(rec, traced_s, untraced_s, installed.missing, calls)
    return values, [target.path for target in missing]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--until", type=float, help="time.monotonic() deadline (default: 10 s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    goldens = workloads.load_goldens(workload)
    out = {"ready": time.monotonic()}
    until = args.until if args.until is not None else out["ready"] + 10.0
    if args.setup_only:
        hostspeed.probe()  # as in measure(): the first pass grows the heap
        out["probe"] = hostspeed.probe()
    else:
        run = Run(workload, goldens)
        walls, probes, layer_values, missing = [], [], None, []
        try:
            if args.trace:
                spans = HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
                layer_values, missing = traced(run, args.seed, workload.traced_calls, spans)
            else:
                measure(run, args.seed, until, walls, probes)
        except Exception:  # a raising call counts as a failed check; stop the loop
            run.fail(traceback.format_exc())
        out.update(
            parts=len(workload.parts),
            walls=walls,
            probes=probes,
            attempted=run.attempted,
            failed=run.failed,
            errors=run.errors[:5],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            layers=layer_values,
            missing_targets=missing,
            host={
                "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
            },
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
