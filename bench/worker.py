"""Runs one workload in a fresh process; started by run.py, not by hand.

Protocol: after importing lcnlab and finishing one warm-up unit the worker
prints ``READY``, then ``SPEED <factor>``, the reference probe time divided by
the probe time now.  Unless ``--setup-only`` is given it then runs the timed
phase and prints one JSON result line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import warnings
from dataclasses import dataclass

import numpy as np

import lcnlab
import lcnlab.cli  # noqa: F401  (cli's import time belongs to setup)

from tracer import Tracer
from workloads import ERROR_PREFIX, WORKLOADS, Verdict, load_reference

TRACE_DIR = ".bench_out"
# The probe's median duration on the machine the references were made on
# (2 vCPU Intel Xeon, Python 3.11.7, numpy 2.4.6); wall_s and cpu_s are
# expressed at that speed.
PROBE_REFERENCE_S = 3.5e-3
_PROBE_X = np.array([0.3, -1.2, 0.7])
_PROBE_Y = np.array([1.0, 2.0])
_PROBE_Z = np.array([1 + 1j, -0.5 + 2j, 0.3 - 1j])


def speed_probe(reps: int = 4) -> float:
    """Seconds taken by a fixed mix of tiny numpy calls and Python arithmetic,
    the kind of work lcnlab does; the best of ``reps`` tries.

    Other tenants of a shared machine slow every process on it by up to 2x
    for seconds to minutes at a time.  Dividing a part's time by the probe
    time measured next to it removes most of that; the probe uses no lcnlab
    code, so a change to lcnlab cannot move it.
    """
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(150):
            u = np.convolve(_PROBE_X, _PROBE_Y)
            acc += float(u @ u)
            acc += float(np.abs(np.polyval(u, _PROBE_Z)).sum())
            acc += sum(j * 0.5 for j in range(10))
        best = min(best, time.perf_counter() - t0)
    return best


@dataclass
class Record:
    """One timed part of one round."""

    ordinal: int  # position of the round in the run
    round: int  # index of the round in the pool
    index: int  # position of the part in the round
    kind: str
    units: int
    wall: float
    cpu: float
    answer: object
    work: float = None  # measured only when traced
    uncovered: float = 0.0
    probe: float = None  # mean speed-probe time around the round


def round_order(seed: int, pool: int) -> list:
    """The order in which a run draws the pool's rounds."""
    return [int(r) for r in np.random.default_rng(seed).permutation(pool)]


class Checker:
    """Adds up the verdicts of parts against the reference answers."""

    def __init__(self, workload, reference):
        self.workload, self.reference = workload, reference
        self.total = Verdict()

    def __call__(self, part, rec):
        ref = self.reference["rounds"][rec.round][rec.index]["answer"]
        self.total.add(self.workload.check(part, rec.answer, ref))


def run_rounds(workload, order, seconds=None, n_rounds=None, tracer=None,
               probe=False, check=None, keep_answers=True) -> list:
    """Runs rounds in ``order`` until ``seconds`` have passed (at least one
    round) or, if given, exactly ``n_rounds`` rounds.  With ``probe``, the
    speed probe runs between rounds.  ``check(part, record)`` sees every
    answer; without ``keep_answers`` the answer is dropped after that, so
    memory does not grow with the number of rounds."""
    records = []
    start = time.perf_counter()
    k = 0
    before = speed_probe() if probe else None
    while True:
        r = order[k % len(order)]
        first = len(records)
        for i, part in enumerate(workload.parts(r)):
            if tracer is not None:
                covered, mark = tracer.root[1], tracer.mark()
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                raw, failed = part.call(), None
            except Exception as exc:  # a failed unit is recorded, the run goes on
                raw, failed = None, ERROR_PREFIX + type(exc).__name__
            t1 = time.perf_counter()
            c1 = time.process_time()
            rec = Record(k, r, i, part.kind, part.units, t1 - t0, c1 - c0,
                         failed or part.answer(raw))
            if tracer is not None:
                rec.work = workload.traced_work(tracer, mark, part)
                rec.uncovered = rec.wall - (tracer.root[1] - covered)
            if check is not None:
                check(part, rec)
            if not keep_answers:
                rec.answer = None
            records.append(rec)
        if probe:
            after = speed_probe()
            for rec in records[first:]:
                rec.probe = (before + after) / 2
            before = after
        k += 1
        if n_rounds is not None:
            if k >= n_rounds:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return records


def throughput_metrics(records, reference) -> dict:
    """wall_s and cpu_s: the time of the pool's average round.

    For each kind of part: the median over the run's parts of the time per
    unit of reference work, scaled by the speed probe to the reference
    speed, times the pool's mean work per round.  Summed over kinds.
    """
    wall, cpu = {}, {}
    for rec in records:
        scale = PROBE_REFERENCE_S / rec.probe / reference["rounds"][rec.round][rec.index]["work"]
        wall.setdefault(rec.kind, []).append(rec.wall * scale)
        cpu.setdefault(rec.kind, []).append(rec.cpu * scale)
    mean_work = reference["mean_work"]
    return {
        "wall_s": (sum(statistics.median(wall[k]) * mean_work[k] for k in wall), "s"),
        "cpu_s": (sum(statistics.median(cpu[k]) * mean_work[k] for k in cpu), "s"),
    }


def traced_run(workload, order, seconds, checker, seed) -> tuple:
    reference = checker.reference
    tracer = Tracer()
    with tracer:
        traced = run_rounds(workload, order, seconds, tracer=tracer, probe=True, check=checker)
    plain = run_rounds(workload, order, n_rounds=traced[-1].ordinal + 1, probe=True)

    problems = []
    if [rec.answer for rec in traced] != [rec.answer for rec in plain]:
        problems.append("traced answers differ from untraced answers")
    for name, want in workload.expected_calls(traced).items():
        got = tracer.calls(name)
        if got != want:
            problems.append(f"{name}: traced {got} calls, expected {want}")
    # a part that did a different amount of work computed something else
    work_mismatched = sum(rec.units for rec in traced
                          if rec.work != reference["rounds"][rec.round][rec.index]["work"])

    metrics = tracer.layer_metrics(sum(rec.uncovered for rec in traced))
    points = sum(len(rec.answer) for rec in traced if workload.name == "strata"
                 and not isinstance(rec.answer, str))
    metrics["critlab.points"] = (points, "count")
    metrics["trace.overhead"] = (sum(r.wall / r.probe for r in traced)
                                 / sum(r.wall / r.probe for r in plain), "ratio")

    os.makedirs(TRACE_DIR, exist_ok=True)
    with open(os.path.join(TRACE_DIR, f"trace-{workload.name}-{seed}.json"), "w") as fh:
        json.dump(tracer.dump(), fh)
    return traced, metrics, problems, work_mismatched


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    warnings.simplefilter("ignore")  # edge inputs make numpy warn; answers are checked instead

    workload = WORKLOADS[args.workload]()
    order = round_order(args.seed, workload.pool)
    workload.warmup()
    print("READY", flush=True)
    print(f"SPEED {PROBE_REFERENCE_S / speed_probe()!r}", flush=True)
    if args.setup_only:
        return 0

    reference = load_reference(workload.name)
    checker = Checker(workload, reference)
    problems = []
    if args.trace:
        records, metrics, problems, extra_mismatches = traced_run(
            workload, order, args.seconds, checker, args.seed)
    else:
        records = run_rounds(workload, order, args.seconds, probe=True, check=checker,
                             keep_answers=False)
        metrics = throughput_metrics(records, reference)
        extra_mismatches = 0
    v = checker.total
    v.mismatched += extra_mismatches
    if v.unexpected:
        problems.append(f"{v.unexpected} units failed where the reference answered")
    if v.mismatched:
        problems.append(f"{v.mismatched} units disagree with the reference")
    answered = v.units - v.failed
    if not args.trace:
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": records[-1].ordinal + 1,
        "units": v.units,
        "unit": workload.unit,
        "failed_frac": v.failed / v.units,
        "mismatch_frac": v.mismatched / answered if answered else 0.0,
        "known_wrong": v.known_wrong,
        "unexpected_failures": v.unexpected,
        "correct": not problems,
        "problems": problems,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "raw_wall_s": sum(rec.wall for rec in records),
        "probe_s": statistics.median(rec.probe for rec in records),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
