import json
import math
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

import lcnlab
from lcnlab.cli import _emit_json, _plain, landscape_grid, main, run_case_study
from lcnlab.critlab import _attainable_strata, crit_on_stratum, critical_points_for_target
from lcnlab.optim import PatternTable, QuadraticObjective, TrainConfig, gd_train
from lcnlab.poly_core import Architecture, end_to_end
from lcnlab.rootlab import RootFindingError


def run_json(argv, tmp_path):
    out = tmp_path / "out.json"
    code = main(argv + ["--out", str(out)])
    assert code == 0
    return json.loads(out.read_text())


def test_analyze_arch_report(tmp_path):
    info = run_json(["analyze-arch", "--ks", "3,2,2"], tmp_path)
    assert info["filter_size"] == 5
    assert info["stride"] == 1
    assert info["e"] == 2
    assert info["filling"] is False
    assert info["regions"]["22|0"] == "boundary"
    assert info["regions"]["0|11"] == "exterior"
    assert "112|0" in info["compatible"]
    assert "0|2" not in info["compatible"]
    assert info["ed_bound"]["generic"] == 36


def test_analyze_arch_strided(tmp_path):
    info = run_json(["analyze-arch", "--ks", "2,2", "--strides", "1,2"], tmp_path)
    assert info["filter_size"] == 3
    assert info["stride"] == 2
    # a final stride only subsamples the output: the unit-stride table holds
    assert info["regions"] == run_json(["analyze-arch", "--ks", "2,2"], tmp_path)["regions"]
    # interior strides are structural; the coefficient-space region table
    # does not apply
    info = run_json(["analyze-arch", "--ks", "3,2", "--strides", "2,1"], tmp_path)
    assert info["regions"] is None


def test_analyze_arch_ed_bound_is_null_only_without_a_closed_form(tmp_path, monkeypatch,
                                                                  capsys):
    # (6, 6) attains (2, 2, 2, 2, 2), whose ED degree has no closed form
    info = run_json(["analyze-arch", "--ks", "6,6"], tmp_path)
    assert (info["e"], info["ed_bound"]) == (2, None)
    # any other error from ed_bound is an error of the command
    def broken(arch, metric):
        raise ValueError("broken bound")

    monkeypatch.setattr("lcnlab.cli.ed_bound", broken)
    assert main(["analyze-arch", "--ks", "2,2"]) == 2
    assert "error: broken bound" in capsys.readouterr().err


def test_classify_agrees_with_analyze_arch_on_strides(tmp_path):
    for ks, strides, w in (("2,2", "1,2", "1,-3,2"), ("3,2", "2,1", "1,2,3,4,5")):
        info = run_json(["analyze-arch", "--ks", ks, "--strides", strides], tmp_path)
        out = run_json(["classify", "--ks", ks, "--strides", strides, "--w", w], tmp_path)
        assert (out["filling"], out["e"]) == (info["filling"], info["e"])
        assert out["region"] == (info["regions"] or {}).get(out["rrmp"])
    # the interior stride: not filling, and no root-count answers
    assert (info["filling"], info["e"], info["compatible"], info["ed_bound"]) == (
        False, None, None, None)


def test_classify_exterior_quadratic(tmp_path):
    out = run_json(["classify", "--ks", "2,2", "--w", "1,0,2"], tmp_path)
    assert out == {"rrmp": "0|1", "filling": False, "e": 2,
                   "region": "exterior"}


# the sign charts label 1,-3,2; the double root of 1,-2,1 sends it to the root finder
@pytest.mark.parametrize("w,label,region,rooted", [("1,-3,2", "11|0", "interior", 0),
                                                   ("1,-2,1", "2|0", "boundary", 1)],
                         ids=["charts", "double-root"])
def test_classify_labels_the_filter_once(w, label, region, rooted, monkeypatch, tmp_path):
    import lcnlab.rootlab

    calls = []
    for name in ("find_roots", "_chart_label"):
        fn = getattr(lcnlab.rootlab, name)
        monkeypatch.setattr(lcnlab.rootlab, name,
                            lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    out = run_json(["classify", "--ks", "2,2", "--w", w], tmp_path)
    assert out == {"rrmp": label, "filling": False, "e": 2, "region": region}
    assert len(calls) == 1 and calls.count("find_roots") == rooted


def test_classify_size_mismatch_exits_2(capsys):
    assert main(["classify", "--ks", "2,2", "--w", "1,0,2,5"]) == 2
    assert "size" in capsys.readouterr().err


@pytest.mark.parametrize("w", ["nan,1,1", "inf,1,1"])
def test_classify_non_finite_filter_exits_2(w, capsys):
    assert main(["classify", "--ks", "2,2", "--w", w]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-finite" in err


@pytest.mark.parametrize("argv", [
    ["train", "--ks", "2,2", "--target", "nan,1,1"],
    ["critpoints", "--target", "nan,0,5,0,2", "--lambda", "2,2"],
    ["landscape", "--ks", "2,2", "--target", "inf,1,1"],
    ["invariants", "--theta", "nan,1;1,1"],
], ids=lambda argv: argv[0])
def test_non_finite_vector_exits_2_before_any_solver(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "non-finite" in err


def test_non_finite_json_file_exits_2(tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text("[NaN, 1, 1]")
    theta = tmp_path / "theta.json"
    theta.write_text("[[1, 2], [Infinity, 1]]")
    assert main(["train", "--ks", "2,2", "--target", str(target)]) == 2
    assert main(["invariants", "--theta", str(theta)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("non-finite") == 2


def test_invariants_reject_an_overflowing_squared_norm(capsys):
    # the squares of finite entries can overflow; infinite gaps are not JSON
    assert main(["invariants", "--theta", "1e200,1;1,1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "squared norm inf" in err


@pytest.mark.parametrize("flags", [["--step", "nan"], ["--step", "0"], ["--max-steps", "-1"],
                                   ["--grad-tol", "nan"], ["--grad-tol", "-1"]])
def test_train_rejects_bad_descent_settings(flags, capsys):
    assert main(["train", "--ks", "2,2", "--target", "1,1,1"] + flags) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, message", [
    (["critpoints", "--target", "2,0,5,0,2", "--lambda", "2,2", "--starts", "0"], "start"),
    (["critpoints", "--target", "2,0,5,0,2", "--ks", "4,2", "--starts", "-3"], "start"),
    (["case-study", "--runs", "-1"], "run"),
    (["invariants", "--theta", ";"], "no layer filters"),
    (["recover-scales", "--filters", ";", "--gaps", "1"], "no layer filters"),
    (["critpoints", "--target", "1,2,3,4,5", "--ks", "3,2", "--strides", "2,1"],
     "interior stride"),
    (["critpoints", "--target", "2,0,5,0,2", "--ks", "2,2"], "target has size 5"),
    (["critpoints", "--target", "1,0,2", "--lambda", "3,2"], "does not sum"),
    (["train", "--ks", "2,2", "--target", "1,0,2,5"], "filter has size 4"),
    (["landscape", "--ks", "2,2", "--target", "1,0,2,5"], "filter has size 4"),
    (["critpoints", "--target", "2,0,5,0,2", "--lambda", "2,2", "--ks", "2,2", "--starts", "3"],
     "not both"),
    (["critpoints", "--target", "3", "--lambda", ","], "empty"),
    (["experiment", "rrmp-table", "--ks", "3,3", "--samples", "4", "--n", "2"],
     "4 samples give a singular Gram matrix for filter size 5"),
], ids=["critpoints-starts-0", "critpoints-starts-negative", "case-study-runs-negative",
        "invariants-no-layers", "recover-scales-no-layers", "critpoints-interior-stride",
        "critpoints-size-mismatch", "critpoints-oversized-lambda", "train-size-mismatch",
        "landscape-size-mismatch", "critpoints-lambda-and-ks", "critpoints-empty-lambda",
        "rrmp-table-too-few-samples"])
def test_bad_counts_exit_2(argv, message, capsys, monkeypatch):
    def no_search(*args, **kwargs):
        pytest.fail("the case study searched a stratum before rejecting its run count")

    if argv[0] == "case-study":
        monkeypatch.setattr(lcnlab.cli, "crit_on_stratum", no_search)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and message in err


def test_distinct_rejects_zero_inits(capsys):
    assert main(["experiment", "distinct", "--ks", "2,2", "--n", "1", "--inits", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "at least one" in err


def test_badly_scaled_filter_prints_only_the_error_line():
    # in a fresh interpreter, so numpy's warnings reach stderr as a user sees them
    src = os.path.dirname(os.path.dirname(lcnlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "lcnlab.cli", "classify", "--ks", "2,2",
                           "--w", "1e-300,1,1"], capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_distinct_reports_targets_without_a_converged_run(capsys):
    argv = ["experiment", "distinct", "--ks", "2,2", "--n", "3", "--inits", "2",
            "--max-steps", "0", "--threads", "1"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[1:] == ["bombieri,0,3,100", "euclidean,0,3,100"]
    assert err.splitlines() == ["no_converged_run: bombieri=3 euclidean=3"]


def test_root_finding_error_exits_2(monkeypatch, capsys):
    import lcnlab.cli

    def fail(*args, **kwargs):
        raise RootFindingError("no certified roots")

    monkeypatch.setattr(lcnlab.cli, "classify_rrmp", fail)
    assert main(["classify", "--ks", "2,2", "--w", "1,0,2"]) == 2
    assert "error: no certified roots" in capsys.readouterr().err


def test_train_reaches_boundary_and_is_deterministic(tmp_path):
    argv = ["train", "--ks", "2,2", "--target", "1,0.5,2", "--seed", "3",
            "--max-steps", "200000", "--grad-tol", "1e-18"]
    first = run_json(argv, tmp_path)
    assert first["converged"] is True
    assert first["target_rrmp"] == "0|1"
    assert first["solution_rrmp"] == "2|0"
    assert first["loss"] > 0.1  # the target is outside the function space
    out2 = tmp_path / "again.json"
    assert main(argv + ["--out", str(out2)]) == 0
    assert json.loads(out2.read_text()) == first


def test_critpoints_single_stratum(tmp_path):
    rep = run_json(["critpoints", "--target", "2,0,5,0,2", "--lambda", "2,2",
                    "--starts", "120", "--seed", "0"], tmp_path)
    (stratum,) = rep["strata"]
    assert stratum["lambda"] == [2, 2]
    assert stratum["n_real"] == 5
    best = stratum["points"][0]
    assert best["kind"] == "MIN"
    assert best["loss"] == pytest.approx(1 / 3, abs=1e-9)
    assert np.allclose(best["w"], [7 / 3, 0, 14 / 3, 0, 7 / 3], atol=1e-7)


def test_critpoints_architecture_mode_filters_strata(tmp_path):
    rep = run_json(["critpoints", "--target", "2,0,5,0,2", "--ks", "4,2",
                    "--starts", "40", "--seed", "0"], tmp_path)
    # of the nontrivial partitions of 4 only (2,1,1) has a real form this
    # architecture can realize
    assert [s["lambda"] for s in rep["strata"]] == [[2, 1, 1]]


def test_critpoints_architecture_mode_uses_attainable_strata(tmp_path):
    rep = run_json(["critpoints", "--target", "1,0.5,-2,0.3", "--ks", "2,2,2",
                    "--starts", "2"], tmp_path)
    assert [tuple(s["lambda"]) for s in rep["strata"]] == _attainable_strata(
        Architecture((2, 2, 2))) == [(3,), (2, 1)]


def test_critpoints_architecture_mode_matches_the_library(tmp_path):
    rep = run_json(["critpoints", "--target", "2,0,5,0,2", "--ks", "3,2,2",
                    "--starts", "10", "--seed", "1"], tmp_path)
    lib = critical_points_for_target(np.array([2.0, 0, 5, 0, 2]), Architecture((3, 2, 2)),
                                     n_starts=10, seed=1)
    assert [s["lambda"] for s in rep["strata"]] == [list(r.lam) for r in lib]
    assert [len(s["points"]) for s in rep["strata"]] == [len(r.points) for r in lib]


def _critpoints_strata(reports):
    """``critpoints``' stratum entries written out key by key: the reference for
    the serializer that it shares with the case study."""
    return [{"lambda": rep.lam, "n_real": rep.n_real,
             "points": [{"w": p.w, "pattern": p.pattern.label, "loss": p.loss, "kind": p.kind,
                         "grad_norm": p.grad_norm} for p in rep.points]} for rep in reports]


def _case_study_strata(reports):
    """The case study's stratum entries written out key by key."""
    return [{"lambda": list(rep.lam), "n_real": rep.n_real,
             "points": [{"w": p.w, "pattern": p.pattern.label, "loss": p.loss, "kind": p.kind,
                         "rational": p.is_rational()} for p in rep.points]} for rep in reports]


def test_critpoints_json_matches_the_stratum_entries_key_by_key(tmp_path):
    u = np.array([2.0, 0, 5, 0, 2])
    out = tmp_path / "cli.json"
    assert main(["critpoints", "--target", "2,0,5,0,2", "--ks", "2,2,2,2", "--starts", "20",
                 "--seed", "0", "--out", str(out)]) == 0
    reports = critical_points_for_target(u, Architecture((2, 2, 2, 2)), n_starts=20, seed=0)
    assert len(reports) > 1
    ref = tmp_path / "ref.json"
    _emit_json({"target": u, "norm": "euclidean", "strata": _critpoints_strata(reports)},
               str(ref))
    assert out.read_bytes() == ref.read_bytes()


def test_case_study_strata_match_the_stratum_entries_key_by_key():
    report = run_case_study(seed=3, runs=1, starts=20, workers=1)
    obj = QuadraticObjective.euclidean([2.0, 0, 5, 0, 2])
    reports = [crit_on_stratum(obj, lam, n_starts=20, seed=3)
               for lam in ((2, 1, 1), (2, 2), (3, 1), (4,))]
    assert (json.dumps(_plain(report["strata"]), indent=2)
            == json.dumps(_plain(_case_study_strata(reports)), indent=2))


def test_bombieri_norm_reaches_the_library_objective(tmp_path):
    u = np.array([2.0, 0.0, 5.0, 0.0, 2.0])
    bombieri = QuadraticObjective.bombieri(u)
    rep = run_json(["critpoints", "--target", "2,0,5,0,2", "--lambda", "2,2", "--norm",
                    "bombieri", "--starts", "20", "--seed", "0"], tmp_path)
    reports = [crit_on_stratum(bombieri, (2, 2), n_starts=20, seed=0)]
    ref = tmp_path / "ref.json"
    _emit_json({"target": u, "norm": "bombieri", "strata": _critpoints_strata(reports)},
               str(ref))
    assert rep == json.loads(ref.read_text())
    euclidean = crit_on_stratum(QuadraticObjective.euclidean(u), (2, 2), n_starts=20, seed=0)
    assert [p.loss for p in reports[0].points] != [p.loss for p in euclidean.points]

    arch = Architecture((2, 2))
    rep = run_json(["train", "--ks", "2,2", "--target", "1,0.5,2", "--seed", "3", "--norm",
                    "bombieri", "--max-steps", "3000"], tmp_path)
    config = TrainConfig(step=0.01, max_steps=3000, grad_sq_tol=1e-14)
    runs = [gd_train(objective([1.0, 0.5, 2.0]), arch,
                     arch.random_theta(np.random.default_rng(3)), config)
            for objective in (QuadraticObjective.bombieri, QuadraticObjective.euclidean)]
    assert rep["norm"] == "bombieri"
    assert (rep["steps"], rep["loss"], rep["w"], rep["theta"]) == (
        runs[0].steps, runs[0].loss, runs[0].w.tolist(), [w.tolist() for w in runs[0].theta])
    assert runs[0].loss != runs[1].loss


def test_rrmp_table_collects_non_generic_and_unclassified_runs_in_one_other_row(
        monkeypatch, capsys):
    # shares are of the kept runs: a generic run, one from a non-generic init and
    # one with an unclassified solution; the discarded run counts in no row
    def stub(arch, **kwargs):
        table = PatternTable(arch)
        table.add("11|0", "11|0", "11|0", 0.5)
        table.add("11|0", "2|0", "11|0", 1.0)
        table.add("0|1", "11|0", "?", 3.0)
        table.discard()
        return table

    monkeypatch.setattr(lcnlab.cli, "run_pattern_experiment", stub)
    assert main(["experiment", "rrmp-table", "--ks", "2,2", "--n", "4"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "target,target_share_pct,solution,solution_share_pct,mean_loss",
        f"11|0,{100 / 3:.17g},11|0,100,0.5",
        f"OTHER,{200 / 3:.17g},OTHER,100,2",
    ]
    assert err.splitlines() == ["runs=4 discarded=1 other=2"]


def test_critpoints_bad_partition_exits_2(capsys):
    assert main(["critpoints", "--target", "1,0,2", "--lambda", "3,2"]) == 2
    assert capsys.readouterr().err == (
        "error: partition (3, 2) does not sum to the polynomial degree 2\n")


def test_invariants_and_recover_scales(tmp_path):
    inv = run_json(["invariants", "--theta", "1,6,11,6;4,1"], tmp_path)
    assert inv["gaps"] == [-177.0]
    assert inv["balancedness"][0][1] == 177.0

    prof = run_json(["recover-scales", "--filters", "2,0,5,0;1,0",
                     "--gaps", "-177"], tmp_path)
    assert len(prof) == 1
    assert prof[0]["kappa_abs"][1] == pytest.approx(
        math.sqrt((math.sqrt(31445.0) - 177.0) / 2.0), abs=1e-9)
    assert prof[0]["residual"] < 1e-9


def test_rrmp_table_csv_and_thread_independence(tmp_path):
    base = ["experiment", "rrmp-table", "--ks", "2,2", "--n", "24",
            "--seed", "4", "--max-steps", "50000"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(base + ["--threads", "1", "--out", str(a)]) == 0
    assert main(base + ["--threads", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().splitlines()
    assert lines[0] == "target,target_share_pct,solution,solution_share_pct,mean_loss"
    shares = {}
    for line in lines[1:]:
        target, tshare, solution, sshare, _ = line.split(",")
        shares.setdefault((target, float(tshare)), 0.0)
        shares[(target, float(tshare))] += float(sshare)
    for (target, _), total in shares.items():
        assert total == pytest.approx(100.0), target
    assert sum(t for _, t in shares) == pytest.approx(100.0)


def test_distinct_csv_shape(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["experiment", "distinct", "--ks", "2,2", "--n", "4",
                 "--inits", "4", "--seed", "7", "--threads", "2",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "metric,n_distinct,count,share_pct"
    metrics = {line.split(",")[0] for line in lines[1:]}
    assert metrics == {"bombieri", "euclidean"}
    counts = sum(int(line.split(",")[2]) for line in lines[1:])
    assert counts == 8  # 4 targets x 2 metrics


def test_landscape_grid_constant_directions():
    arch = Architecture((2, 2))
    obj = QuadraticObjective.euclidean(np.array([1.0, 0.0, 2.0]))
    theta0 = [np.array([1.0, 0.5]), np.array([-0.3, 2.0])]
    zero = [np.zeros(2), np.zeros(2)]
    rows = landscape_grid(arch, obj, (theta0, zero, zero), n=3, span=1.0)
    w, _ = end_to_end(theta0, arch)
    expected = math.log10(obj.value(w))
    assert len(rows) == 9
    for _, _, logloss, absdisc in rows:
        assert logloss == pytest.approx(expected, abs=1e-12)
        assert absdisc == pytest.approx(rows[0][3], abs=1e-12)


def test_landscape_grid_minimum_matches_descent_limits():
    # descend from a few random starts, then verify a grid centered at one
    # limit bottoms out exactly there (and on a vanishing discriminant)
    arch = Architecture((2, 2))
    u = np.array([1.0, 0.0, 2.0])
    obj = QuadraticObjective.euclidean(u)
    rng = np.random.default_rng(11)
    cfg = TrainConfig(step=0.01, max_steps=100000, grad_sq_tol=1e-18)
    runs = [gd_train(obj, arch, arch.random_theta(rng), cfg) for _ in range(5)]
    runs = [r for r in runs if r.converged]
    assert runs, "no start converged"
    best = min(runs, key=lambda r: r.loss)
    dirs = ([np.array([1.0, 0.0]), np.zeros(2)],
            [np.zeros(2), np.array([0.0, 1.0])])
    rows = landscape_grid(arch, obj, (best.theta, *dirs), n=5, span=0.2)
    center = [r for r in rows if r[0] == 0.0 and r[1] == 0.0][0]
    assert center[2] == pytest.approx(math.log10(best.loss), abs=1e-9)
    assert min(r[2] for r in rows) >= center[2] - 1e-12
    # the limit sits on the boundary of the function space: double root
    assert center[3] < 1e-5 * max(r[3] for r in rows)


def test_landscape_cli_rejects_bad_grids(tmp_path, capsys):
    assert main(["landscape", "--ks", "2,2", "--target", "1,0,2",
                 "--n", "600"]) == 2
    assert main(["landscape", "--ks", "2,2", "--strides", "1,2",
                 "--target", "1,0,2"]) == 2
    for span in ("nan", "inf", "0", "-1"):
        assert main(["landscape", "--ks", "2,2", "--target", "1,0,2",
                     "--n", "3", "--range", span]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.count("span must be finite and positive") == 4
    out = tmp_path / "g.csv"
    assert main(["landscape", "--ks", "2,2", "--target", "1,0,2",
                 "--n", "4", "--seed", "2", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "s,t,logloss,absdisc"
    assert len(lines) == 17


def test_case_study_smoke(tmp_path):
    report = run_json(["case-study", "--runs", "2", "--starts", "120",
                       "--seed", "0", "--threads", "2"], tmp_path)
    assert report["discrepancies"] == []
    assert [s["n_real"] for s in report["strata"]] == [4, 5, 4, 4]
    assert report["kappa"]["recovered"] == pytest.approx(
        report["kappa"]["expected"], abs=1e-9)
    assert report["kappa"]["trained_scale"] > 0
    for g in report["gd"]:
        assert g["n_converged"] == 2
        assert g["worst_match_distance"] < 1e-4


def test_json_reports_write_numpy_values_as_python_ones(tmp_path):
    out = tmp_path / "r.json"
    _emit_json({"x": np.float64(0.1), "v": np.array([0.1, -0.0]), "yes": np.bool_(True),
                "no": np.bool_(False), "n": np.int64(3)}, str(out))
    assert json.loads(out.read_text()) == {"x": 0.1, "v": [0.1, -0.0], "yes": True,
                                           "no": False, "n": 3}
    text = out.read_text()
    assert "0.1," in text and "0.10000000000000001" not in text
    assert '"yes": true' in text and '"no": false' in text and "-0.0" in text


@pytest.mark.parametrize("command", [
    ["analyze-arch"], ["classify"], ["train"], ["critpoints"], ["invariants"],
    ["recover-scales"], ["experiment"], ["experiment", "rrmp-table"],
    ["experiment", "distinct"], ["landscape"], ["case-study"],
], ids=" ".join)
def test_help_exits_0_for_every_subcommand(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: lcnlab")


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_case_study_is_byte_identical_across_workers_and_leaves_no_worker(monkeypatch,
                                                                          tmp_path):
    calls = []

    def counting(*args):
        calls.append(1)
        return gd_train(*args)

    monkeypatch.setattr("lcnlab.optim.gd_train", counting)
    texts = []
    for workers in (1, 2):
        report = run_case_study(seed=3, runs=3, starts=20, workers=workers)
        assert multiprocessing.active_children() == []
        out = tmp_path / f"w{workers}.json"
        _emit_json(report, str(out))
        texts.append(out.read_bytes())
        if workers == 1:  # one call per descent run of the four architectures
            assert len(calls) == 4 * 3
    assert texts[0] == texts[1]


def _grid(first=((1.0, 0.0), (1.0, 0.0)), n=3):
    plane = (first, ((1.0, 0.0), (1.0, 0.0)), ((0.0, 1.0), (0.0, 1.0)))
    return landscape_grid(Architecture((2, 2)), QuadraticObjective.euclidean([1.0, 0, 2]),
                          plane, n=n)


@pytest.mark.parametrize("call, message", [
    (lambda: run_case_study(runs=2.5), "runs must be an integer"),
    (lambda: _grid(n=2.5), "grid size must be an integer"),
    (lambda: _grid(first=((1.0, 0.0), 1.0)), "nonempty 1-D"),
    (lambda: _grid(first=((1.0, 0.0),)), "expected 2 filters"),
    (lambda: _grid(first=((1.0, 0.0), (1.0, 0.0, 0.0))), "do not match"),
], ids=["case-study-runs", "landscape-n", "landscape-scalar-layer", "landscape-depth",
        "landscape-size"])
def test_counts_and_plane_layers_are_checked(call, message, monkeypatch):
    monkeypatch.setattr("lcnlab.optim.gd_train", lambda *job: pytest.fail("a run started"))
    with pytest.raises(ValueError, match=message):
        call()
