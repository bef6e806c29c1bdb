"""Spread of the end-to-end metrics over seeds, and the host-speed fit.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --runs 10 --first-seed 100 --out perfbench/out/a.jsonl
    python3 perfbench/spread.py --from perfbench/hostspeed_fit.jsonl

The first form runs ``run.py`` untraced once per seed and workload (all
workloads unless some are named) and appends each run's metrics and raw
timings to ``--out``.  Both forms then print, per workload, how long the
runs took, each end-to-end metric's median and spread (interquartile range
over median, quartiles as ``statistics.quantiles(values, n=4)`` gives them)
against its bound, and the spreads of ``wall_s`` and ``setup_s`` recomputed
from the raw times and probes at host-speed sensitivities 0 to 1: the
figures ``hostspeed.SENSITIVITY`` is chosen from.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SENSITIVITIES = (0.0, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def spread(values) -> float:
    """Interquartile range over median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def collect(workload: str, seed: int) -> dict:
    """One untraced benchmark run, reduced to its metrics and raw timings."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        cwd=HERE.parent, stdout=subprocess.PIPE, check=True,
    )
    *_, info, result = proc.stdout.decode().strip().splitlines()
    info, result = json.loads(info), json.loads(result)
    return {
        "workload": workload,
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        **{k: info[k] for k in ("elapsed_s", "parts", "walls_s", "probes_s", "setups", "host")},
    }


def report(records: list) -> None:
    by_workload = {}
    for rec in records:
        by_workload.setdefault(rec["workload"], []).append(rec)
    for workload, recs in by_workload.items():
        elapsed = [r["elapsed_s"] for r in recs]
        print(f"{workload}: {len(recs)} runs, {sum(not r['correct'] for r in recs)} incorrect, "
              f"{min(r['attempted'] for r in recs)}-{max(r['attempted'] for r in recs)} calls, "
              f"elapsed {min(elapsed):.1f}/{statistics.median(elapsed):.1f}/{max(elapsed):.1f} s")
        if len(recs) < 2:
            continue
        for metric in SPEC["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in recs]
            s = spread(values)
            bound = metric["bound"]
            verdict = "ok" if s < bound / 3 else "WITHIN BOUND" if s < bound else "OVER"
            print(f"  {metric['name']:<12} median {statistics.median(values):10.4f}  "
                  f"spread {s:.3f}  bound {bound}  {verdict}")
        walls, setups = [], []
        for sensitivity in SENSITIVITIES:
            medians = [
                statistics.median(hostspeed.call_seconds(
                    r["walls_s"], r["probes_s"], r["parts"], sensitivity))
                for r in recs
            ]
            walls.append(f"{sensitivity}: {spread(medians):.3f}")
            medians = [
                statistics.median(
                    hostspeed.reference_seconds(s, p, sensitivity) for s, p in r["setups"])
                for r in recs
            ]
            setups.append(f"{sensitivity}: {spread(medians):.3f}")
        print("  wall_s spread by sensitivity   " + "  ".join(walls))
        print("  setup_s spread by sensitivity  " + "  ".join(setups))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--out", type=Path, help="JSON lines to append runs to")
    parser.add_argument("--from", dest="source", type=Path, help="report on recorded runs")
    args = parser.parse_args(argv)
    if args.source:
        report([json.loads(line) for line in args.source.read_text().splitlines()])
        return 0
    names = args.workloads or [w["name"] for w in SPEC["workloads"]]
    records = []
    for workload in names:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            rec = collect(workload, seed)
            records.append(rec)
            print(f"{workload} seed {seed}: {rec['metrics']} in {rec['elapsed_s']:.1f} s",
                  flush=True)
            if args.out:
                args.out.parent.mkdir(parents=True, exist_ok=True)
                with open(args.out, "a") as fh:
                    fh.write(json.dumps(rec) + "\n")
    report(records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
