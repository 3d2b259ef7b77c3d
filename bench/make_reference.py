"""Regenerates the stored reference answers from the current lcnlab.

The references are the answers of lcnlab 0.1.0; regenerate them only when a
change is meant to alter what lcnlab computes, and say so in CHANGES.md.

    PYTHONPATH=src python3 bench/make_reference.py pattern distinct strata classify
"""

from __future__ import annotations

import sys
import warnings

from tracer import Tracer
from worker import run_rounds
from workloads import WORKLOADS, save_reference


def build(name: str) -> dict:
    workload = WORKLOADS[name]()
    rounds, totals = [], {}
    for r in range(workload.pool):
        tracer = Tracer()
        with tracer:
            records = run_rounds(workload, [r], n_rounds=1, tracer=tracer)
        rounds.append([{"answer": rec.answer, "work": rec.work} for rec in records])
        for rec in records:
            totals[rec.kind] = totals.get(rec.kind, 0) + rec.work
        print(f"{name} round {r}: work {[rec.work for rec in records]}", flush=True)
    return {
        "workload": name,
        "pool": workload.pool,
        "rounds": rounds,
        "mean_work": {kind: total / workload.pool for kind, total in totals.items()},
    }


def main(names) -> int:
    warnings.simplefilter("ignore")
    for name in names:
        save_reference(name, build(name))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or sorted(WORKLOADS)))
