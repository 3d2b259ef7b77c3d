"""Self-tests of the benchmark.  Collected by the normal test suite, so each
uses at most one small round and never a full workload."""

import copy
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import lcnlab
import lcnlab.cli
import lcnlab.critlab
import lcnlab.optim
from lcnlab import Architecture, TrainConfig

from tracer import Tracer
from worker import Checker, run_rounds
from workloads import WORKLOADS, Classify, Pattern, Strata, load_reference

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


@pytest.fixture(autouse=True)
def quiet_numpy():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


def test_every_binding_is_rebound_and_restored():
    originals = {
        "optim.classify_rrmp_pooled": lcnlab.optim.classify_rrmp_pooled,
        "critlab.poly_mul": lcnlab.critlab.poly_mul,
        "cli.gd_train": lcnlab.cli.gd_train,
        "lcnlab.gd_train": lcnlab.gd_train,
    }
    with Tracer():
        assert lcnlab.optim.classify_rrmp_pooled is not originals["optim.classify_rrmp_pooled"]
        assert lcnlab.critlab.poly_mul is not originals["critlab.poly_mul"]
        assert lcnlab.cli.gd_train is not originals["cli.gd_train"]
        assert lcnlab.gd_train is lcnlab.optim.gd_train is lcnlab.cli.gd_train
    assert lcnlab.optim.classify_rrmp_pooled is originals["optim.classify_rrmp_pooled"]
    assert lcnlab.critlab.poly_mul is originals["critlab.poly_mul"]
    assert lcnlab.cli.gd_train is originals["cli.gd_train"]
    assert lcnlab.gd_train is originals["lcnlab.gd_train"]


def test_traced_descent_matches_untraced_and_counts_follow_from_outputs():
    config = TrainConfig(step=0.01, max_steps=3000, grad_sq_tol=1e-18)

    def table():
        t = lcnlab.run_pattern_experiment(Architecture((2, 2)), n_datasets=3, seed=10_000,
                                          config=config, workers=1)
        return t.rows(), t.n_discarded

    tracer = Tracer()
    with tracer:
        traced = table()
    assert traced == table()
    assert tracer.calls("optim.gd_train") == 3 == len(tracer.runs)
    assert tracer.calls("rootlab.classify_rrmp_pooled") == 2 * 3
    steps = sum(s for s, _, _ in tracer.runs)
    # one gradient evaluation per step plus the final check, in every run
    assert tracer.calls("optim.QuadraticObjective.grad") == steps + 3
    m = tracer.layer_metrics(0.0)
    assert m["optim.steps"][0] == steps
    assert m["optim.runs_converged"][0] + m["optim.runs_capped"][0] + m["optim.runs_diverged"][0] == 3


def test_traced_strata_and_classify_rounds_match_untraced():
    strata = Strata()
    strata.n_starts = 3
    classify = Classify()
    for workload, parts in ((strata, strata.parts(0)), (classify, classify.parts(0, scale=8))):
        workload.parts = lambda r, parts=parts: parts
        tracer = Tracer()
        with tracer:
            traced = run_rounds(workload, [0], n_rounds=1, tracer=tracer)
        plain = run_rounds(workload, [0], n_rounds=1)
        assert [r.answer for r in traced] == [r.answer for r in plain]
        for name, want in workload.expected_calls(traced).items():
            assert tracer.calls(name) == want, name
    metrics = tracer.layer_metrics(0.0)
    assert metrics["rootlab.errors"][0] >= 2  # at least the two edge inputs
    assert metrics["funcspace.factor_into_us"][0] > 0
    assert metrics["dynamics.jacobian_mu_calls"][0] > 0


def test_a_corrupted_reference_value_is_flagged():
    workload = Classify()
    reference = load_reference("classify")
    corrupt = copy.deepcopy(reference)
    answer = corrupt["rounds"][0][1]["answer"]  # degree-2 labels
    answer[0] = "0|1" if answer[0] != "0|1" else "11|0"
    clean, flagged = Checker(workload, reference), Checker(workload, corrupt)
    run_rounds(workload, [0], n_rounds=1, check=lambda part, rec: (clean(part, rec), flagged(part, rec)))

    assert clean.total.mismatched == 0 and clean.total.unexpected == 0
    assert clean.total.failed >= 2  # the edge inputs raise on lcnlab 0.1.0
    assert flagged.total.mismatched == 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_accept_the_reference_and_reject_a_changed_value(name):
    workload = WORKLOADS[name]()
    stored = load_reference(name)["rounds"][0]
    for part, entry in zip(workload.parts(0), stored):
        ref = entry["answer"]
        assert workload.check(part, ref, ref).mismatched == 0
    part, ref = next((p, e["answer"]) for p, e in zip(workload.parts(0), stored) if e["answer"])
    changed = copy.deepcopy(ref)
    if name == "pattern":
        changed["rows"][0][4] += 1e-3
    elif name == "distinct":
        changed["bombieri"][0][0] += 1
    elif name == "strata":
        changed[0][0][0] *= 1 + 1e-4
    else:
        changed[0] = "2|0"
    assert workload.check(part, changed, ref).mismatched >= 1


def test_pattern_pool_keeps_the_heavy_tail():
    reference = load_reference("pattern")
    work = [entry["work"] for rnd in reference["rounds"] for entry in rnd]
    # a capped run alone makes 200 001 gradient evaluations
    assert max(work) > Pattern.config.max_steps


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "pattern",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
