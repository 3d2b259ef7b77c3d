"""lcnlab benchmark: seeded workloads, end-to-end metrics and a traced run.

Run from the root of a checkout:

    python3 bench/run.py                      # all four workloads, report table
    python3 bench/run.py --workload pattern --seed 3 --seconds 15 --trace 0

Each workload runs in a fresh worker process with the BLAS thread variables
set to 1.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.  The
line before it is the full report, with the run's metadata.  See METRICS.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pattern", "distinct", "strata", "classify")
SETUP_SAMPLES = 5  # fresh processes timed for setup_s; the median is reported
CHILD_TIMEOUT_S = 170
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def worker_cmd(name, seed, seconds, trace, setup_only=False) -> list:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return cmd + ["--setup-only"] if setup_only else cmd


def start_worker(cmd, root):
    """Starts a worker and waits for it to finish set-up.

    Returns the worker, its set-up time (process start, lcnlab import, inputs
    and one warm-up unit) and that time scaled by the worker's speed probe to
    the reference speed (see worker.speed_probe)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE, text=True)
    ready = proc.stdout.readline()
    setup = time.perf_counter() - t0
    speed = proc.stdout.readline().split()
    if ready.strip() != "READY" or len(speed) != 2 or speed[0] != "SPEED":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker failed during set-up: {' '.join(cmd)}")
    return proc, setup, setup * float(speed[1])


def finish_worker(proc) -> str:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def run_workload(name, seed, seconds, trace, root) -> dict:
    raw, scaled = [], []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup, setup_scaled = start_worker(worker_cmd(name, seed, seconds, trace, True), root)
            finish_worker(proc)
            raw.append(setup)
            scaled.append(setup_scaled)
    proc, setup, setup_scaled = start_worker(worker_cmd(name, seed, seconds, trace), root)
    raw.append(setup)
    scaled.append(setup_scaled)
    lines = finish_worker(proc).strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    if not trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
        result["raw_setup_samples_s"] = raw
    return result


# --- metadata -----------------------------------------------------------------


def git_sha(root: str) -> str:
    """HEAD of the checkout's git repository, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def src_lines(root: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def metadata(root: str) -> dict:
    return {"git_sha": git_sha(root), "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "src_lines": src_lines(root)}


# --- output -------------------------------------------------------------------


def table(results) -> str:
    rows = []
    for res in results:
        extra = (f"failed_frac={res['failed_frac']:.4f} mismatch_frac={res['mismatch_frac']:.4f} "
                 f"known_wrong={res['known_wrong']} units={res['units']} rounds={res['rounds']} "
                 f"correct={res['correct']}")
        rows.append(f"[{res['workload']}] {extra}")
        for name, m in res["metrics"].items():
            rows.append(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")
        for problem in res["problems"]:
            rows.append(f"  PROBLEM: {problem}")
    return "\n".join(rows)


def summary(results, prefix: bool) -> dict:
    metrics = {}
    for res in results:
        for name, m in res["metrics"].items():
            metrics[f"{res['workload']}.{name}" if prefix else name] = m
    return {
        "correct": all(res["correct"] for res in results),
        "attempted": sum(res["units"] for res in results),
        "failed": sum(res["unexpected_failures"] for res in results),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lcnlab", "__init__.py")):
        print("bench: run from the root of an lcnlab checkout (src/lcnlab not found)",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(name, args.seed, args.seconds, args.trace, root)
                   for name in names]
    except (BenchError, ValueError) as exc:  # ValueError: unparseable worker output
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    meta = metadata(root)
    for res in results:
        res["meta"] = meta
    print(table(results))
    print(json.dumps({"results": results}))
    print(json.dumps(summary(results, prefix=len(results) > 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
