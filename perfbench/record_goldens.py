"""Record the golden report rows the benchmark checks its outputs against.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 perfbench/record_goldens.py [workload ...]

For each workload this stores the full rows at ``SimConfig``'s default seed
and a digest of the rows at seeds ``0 .. N-1``, the seeds a benchmark run
with a small ``--seed`` reaches.  ``paper_schemes`` keeps no rows of its own:
at the default seed it is checked against the committed ``results/fig13.json``,
which this script confirms before writing.  Re-record only when a change is
meant to alter simulated results, and say so in that change.
"""

from __future__ import annotations

import json
import sys

import workloads

#: Seeds with a digest per workload; a call takes ~10 s for paper_schemes
#: and ~1-3 s for the others.
SEEDS = {"paper_schemes": 24, "box_faults": 64, "cluster_faults": 40, "cluster_observed": 40}


def record(name: str) -> None:
    workload = workloads.WORKLOADS[name]
    rows = workloads.run_once(workload, workloads.DEFAULT_SEED)
    data = {"rows": {}, "sha256": {}}
    if workload.reference is not None:
        errors = workloads.compare_rows(rows, workload.reference())
        if errors:
            raise SystemExit(f"{name} does not reproduce its reference: {errors}")
    else:
        data["rows"][str(workloads.DEFAULT_SEED)] = rows
    for seed in range(SEEDS[name]):
        rows = workloads.run_once(workload, seed)
        errors = workload.invariants(rows, workload.overrides)
        if errors:
            raise SystemExit(f"{name} seed {seed} breaks its invariants: {errors}")
        data["sha256"][str(seed)] = workloads.rows_digest(rows)
    with open(workloads.GOLDEN_DIR / f"{name}.json", "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {name}", flush=True)


if __name__ == "__main__":
    for name in sys.argv[1:] or workloads.WORKLOADS:
        record(name)
