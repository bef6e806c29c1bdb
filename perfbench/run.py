"""Benchmark launcher: one workload, one fresh interpreter, one JSON result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_schemes --seed 1 --seconds 30 --trace 0

It pins BLAS/OpenMP to one thread, times set-up in several fresh
interpreters (``setup_s`` is their median: process start until the
workload's first call could begin), runs ``worker.py`` for the measurement
and prints, as its last line, ``{"correct", "attempted", "failed",
"metrics"}``.  An untraced run ends ``--seconds`` after it started, set-up
included, unless its two required calls take longer (``paper_schemes``
calls take 10-19 s each); a traced run makes its workload's fixed number
of calls.

``wall_s`` is the median over the run's calls of each call's time in
reference seconds: every part of a call is timed between two host-speed
probes and scaled by them (see ``hostspeed.py``), because neighbours on a
shared host slow whole 30 s runs by up to 2x.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import layers  # noqa: E402

WORKER = HERE / "worker.py"

#: Fresh interpreters timed for set-up besides the measured one.
SETUP_PROBES = 4
#: Every run must end within this many seconds.
DEADLINE_S = 175.0

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def _worker(args, env, timeout: float) -> dict:
    """Run the worker; return its JSON line with ``setup_s`` added."""
    launched = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        timeout=timeout,
        check=True,
    )
    lines = proc.stdout.decode().strip().splitlines()
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready"] - launched
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no src/repro under {ROOT}: nothing to benchmark", file=sys.stderr)
        return 2

    started = time.monotonic()
    env = dict(os.environ, **THREAD_ENV)
    common = ["--workload", args.workload]
    try:
        setups = []  # (seconds, probe) of each fresh interpreter
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe = _worker([*common, "--setup-only"], env, 60)
                setups.append((probe["setup_s"], probe["probe"]))
        out = _worker(
            [*common, "--seed", str(args.seed), "--until", repr(started + args.seconds),
             "--trace", str(args.trace)],
            env,
            DEADLINE_S - (time.monotonic() - started),
        )
    except (subprocess.SubprocessError, ValueError, IndexError, KeyError) as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 2
    walls, probes, parts = out["walls"], out["probes"], out["parts"]
    if probes:
        setups.append((out["setup_s"], probes[0]))
    calls = hostspeed.call_seconds(walls, probes, parts)
    setup_s = [hostspeed.reference_seconds(s, p) for s, p in setups]

    attempted, failed = out["attempted"], out["failed"]
    if args.trace:
        metrics = {
            m.name: {"value": out["layers"][m.name] if out["layers"] else None, "unit": m.unit}
            for m in layers.METRICS
        }
    else:
        metrics = {
            "wall_s": {"value": statistics.median(calls) if calls else None, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
            "pass_frac": {"value": (attempted - failed) / attempted, "unit": "frac"},
        }
    print(json.dumps({
        "host": out["host"],
        "elapsed_s": time.monotonic() - started,
        "parts": parts,
        "walls_s": walls,
        "probes_s": probes,
        "setups": setups,
        "missing_targets": out["missing_targets"],
        "errors": out["errors"],
    }))
    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
