"""Command-line harness over the library.

Subcommands cover one-off queries (architecture analysis, filter
classification, a single training run, critical-point search, conserved
quantities, fiber scales), the two randomized experiment protocols
(``experiment rrmp-table``, ``experiment distinct``), loss-landscape grid
emission, and an end-to-end case study that re-derives the critical-point
catalogue of the running example target [2, 0, 5, 0, 2] and checks gradient
descent against it.

Conventions: tables and grids are CSV, reports are JSON; CSV floats carry 17
significant digits, JSON floats Python's shortest round-trip form; randomized
commands take ``--seed`` and are reproducible independently of ``--threads``
(each descent run's arguments are drawn in the parent from its own spawn key,
and the runs come back in job order).  Exit codes: 0 on
success, 2 on bad input (configuration errors, non-finite filters, roots the
solver cannot certify), 3 when the case study finds discrepancies.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from .critlab import (_NoClosedForm, crit_on_stratum, critical_points_for_target,
                      ed_bound, match_critical_point)
from .dynamics import balancedness_matrix, recover_scales, squared_norm_gaps
from .funcspace import is_filling, reduce_architecture, region_of_rrmp
from .optim import (
    QuadraticObjective,
    TrainConfig,
    _seeded,
    _train_all,
    gd_train,
    run_distinct_experiment,
    run_pattern_experiment,
)
from .poly_core import (Architecture, _checked_filters, _integer, _interior_stride, _nearest,
                        _real, _require_filter_size, _require_finite, _same_filter, end_to_end)
from .rootlab import (
    RootFindingError,
    Rrmp,
    all_rrmps,
    classify_rrmp,
    compatible_rrmps,
    discriminant,
    is_compatible,
)

__all__ = ["main", "landscape_grid", "run_case_study"]


# --- small input/output helpers ----------------------------------------------


def _parse_floats(text: str) -> np.ndarray:
    """A filter from an inline comma list or a JSON file holding a list."""
    if os.path.isfile(text):
        with open(text) as fh:
            vec = np.asarray(json.load(fh), dtype=float)
    else:
        try:
            vec = np.array([float(p) for p in text.split(",") if p.strip() != ""])
        except ValueError as exc:
            raise ValueError(f"cannot parse vector {text!r}: {exc}") from None
    _require_finite(vec, f"vector {text!r}")
    return vec


def _parse_theta(text: str) -> list:
    """Per-layer filters: 'a,b,c;d,e' inline or a JSON file of lists."""
    if os.path.isfile(text):
        with open(text) as fh:
            theta = [np.asarray(layer, dtype=float) for layer in json.load(fh)]
        for layer in theta:
            _require_finite(layer, f"vector {text!r}")
    else:
        theta = [_parse_floats(part) for part in text.split(";") if part.strip()]
    if not theta:
        raise ValueError(f"no layer filters in {text!r}")
    return theta


def _parse_ints(text: str) -> tuple:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip() != "")
    except ValueError as exc:
        raise ValueError(f"cannot parse integer list {text!r}: {exc}") from None


def _arch(args) -> Architecture:
    ks = _parse_ints(args.ks)
    strides = _parse_ints(args.strides) if args.strides else None
    return Architecture(ks, strides)


def _parse_filter(text: str, arch: Architecture) -> np.ndarray:
    """A filter (see ``_parse_floats``) of the architecture's end-to-end size."""
    w = _parse_floats(text)
    _require_filter_size("filter", len(w), arch)
    return w


def _objective(norm: str, u: np.ndarray) -> QuadraticObjective:
    if norm == "bombieri":
        return QuadraticObjective.bombieri(u)
    return QuadraticObjective.euclidean(u)


def _space(arch: Architecture, rrmp: Rrmp = None) -> tuple:
    """(filling, e, region of ``rrmp``) for the architecture.

    Root counts describe the function space unless an interior stride
    remains; then e and the region are None.  The region is None also
    without ``rrmp``.
    """
    if _interior_stride(arch):
        return is_filling(arch), None, None
    region = None if rrmp is None else region_of_rrmp(rrmp, arch).name.lower()
    return is_filling(arch), arch.n_even, region


def _plain(obj):
    """numpy arrays and scalars as Python lists and numbers, recursively, so
    that the JSON writer prints every float in shortest round-trip form."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    return obj


def _stratum_json(rep, key: str, value) -> dict:
    """A ``StratumReport``'s partition, real count and points, each point closed
    by ``key``: ``value(point)``."""
    return {"lambda": list(rep.lam), "n_real": rep.n_real,
            "points": [{"w": p.w, "pattern": p.pattern.label, "loss": p.loss, "kind": p.kind,
                        key: value(p)} for p in rep.points]}


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out: str | None):
    _emit(json.dumps(_plain(obj), indent=2) + "\n", out)


def _emit_csv(header, rows, out: str | None):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
    _emit(buf.getvalue(), out)


# --- one-off query commands ---------------------------------------------------


def _cmd_analyze_arch(args) -> int:
    arch = _arch(args)
    info = {
        "ks": list(arch.ks),
        "strides": list(arch.strides),
        "depth": arch.depth,
        "filter_size": arch.filter_size,
        "stride": arch.stride,
    }
    filling, e, _ = _space(arch)
    info["reduced_ks"] = list(reduce_architecture(arch).ks)
    info["e"] = e
    info["filling"] = filling
    degree = arch.filter_size - 1
    if e is not None and degree <= 8:
        info["regions"] = {
            r.label: region_of_rrmp(r, arch).name.lower() for r in all_rrmps(degree)
        }
        info["compatible"] = [r.label for r in compatible_rrmps(arch)]
    else:
        info["regions"] = None
        info["compatible"] = None
    info["ed_bound"] = None
    if e is not None:
        try:
            info["ed_bound"] = {
                "generic": ed_bound(arch, metric="generic"),
                "special": ed_bound(arch, metric="special"),
            }
        except _NoClosedForm:
            pass  # ed_degree knows hook partitions and (2, 2) only
    _emit_json(info, args.out)
    return 0


def _cmd_classify(args) -> int:
    arch = _arch(args)
    rrmp = classify_rrmp(_parse_filter(args.w, arch))
    filling, e, region = _space(arch, rrmp)
    _emit_json({"rrmp": rrmp.label, "filling": filling, "e": e, "region": region},
               args.out)
    return 0


def _cmd_train(args) -> int:
    arch = _arch(args)
    obj = _objective(args.norm, _parse_filter(args.target, arch))
    rng = np.random.default_rng(_integer("seed", args.seed, 0))
    theta0 = arch.random_theta(rng)
    config = TrainConfig(step=args.step, max_steps=args.max_steps,
                         grad_sq_tol=args.grad_tol)
    run = gd_train(obj, arch, theta0, config)
    _emit_json({
        "ks": list(arch.ks),
        "norm": args.norm,
        "converged": run.converged,
        "diverged": run.diverged,
        "steps": run.steps,
        "loss": run.loss,
        "grad_sq": run.grad_sq,
        "w": run.w,
        "theta": run.theta,
        "solution_rrmp": run.solution_rrmp.label if run.solution_rrmp else None,
        "target_rrmp": run.target_rrmp.label if run.target_rrmp else None,
        "init_rrmp": run.init_rrmp.label if run.init_rrmp else None,
    }, args.out)
    return 0


def _cmd_critpoints(args) -> int:
    if args.lam and (args.ks or args.strides):
        raise ValueError("pass either --lambda or --ks (with --strides), not both")
    u = _parse_floats(args.target)
    obj = _objective(args.norm, u)
    if args.lam:
        reports = [crit_on_stratum(obj, _parse_ints(args.lam), n_starts=args.starts,
                                   seed=args.seed)]
    elif args.ks:
        reports = critical_points_for_target(obj, _arch(args), n_starts=args.starts,
                                             seed=args.seed)
    else:
        raise ValueError("need either --lambda or --ks")
    strata = [_stratum_json(rep, "grad_norm", lambda p: p.grad_norm) for rep in reports]
    _emit_json({"target": u, "norm": args.norm, "strata": strata}, args.out)
    return 0


def _cmd_invariants(args) -> int:
    theta = _parse_theta(args.theta)
    _emit_json({
        "gaps": squared_norm_gaps(theta),
        "balancedness": balancedness_matrix(theta),
    }, args.out)
    return 0


def _cmd_recover_scales(args) -> int:
    filters = _parse_theta(args.filters)
    profiles = recover_scales(filters, _parse_floats(args.gaps))
    _emit_json([
        {"kappa_abs": p.kappa_abs, "beta": p.beta, "residual": p.residual}
        for p in profiles
    ], args.out)
    return 0


# --- experiment protocols -----------------------------------------------------


def _is_other(label: str) -> bool:
    """Positive-codimension and unclassifiable labels collapse to OTHER."""
    if label == "?":
        return True
    return not Rrmp.from_label(label).is_generic


def _cmd_rrmp_table(args) -> int:
    arch = _arch(args)
    if not arch.is_stride_one:
        # inputs sized to the filter then give a scalar output, as the
        # protocol requires
        raise ValueError("the table protocol needs unit strides")
    n = 10000 if args.full else args.n
    # tighter than the training default: multiple roots of under-converged
    # limits split under the 1e-4 classification rule otherwise
    config = TrainConfig(step=args.step, max_steps=args.max_steps,
                         grad_sq_tol=1e-18)
    table = run_pattern_experiment(arch, n_datasets=n, seed=args.seed,
                                   config=config, workers=args.threads,
                                   n_samples=args.samples)
    # Aggregate over init patterns.  Runs whose target or init landed on a
    # positive-codimension pattern are reported as one explicit OTHER row
    # rather than dropped; non-generic *solutions* are the table's content
    # and stay.
    agg = {}
    other_count, other_loss = 0, 0.0
    for target, init, solution, count, mean_loss in table.rows():
        if _is_other(target) or _is_other(init) or solution == "?":
            other_count += count
            other_loss += mean_loss * count
            continue
        cell = agg.setdefault((target, solution), [0, 0.0])
        cell[0] += count
        cell[1] += mean_loss * count
    kept = table.n_runs - table.n_discarded
    target_totals = {}
    for (target, _), (count, _) in agg.items():
        target_totals[target] = target_totals.get(target, 0) + count
    rows = []
    for (target, solution), (count, loss_sum) in agg.items():
        rows.append((
            target,
            100.0 * target_totals[target] / kept,
            solution,
            100.0 * count / target_totals[target],
            loss_sum / count,
        ))
    rows.sort(key=lambda r: (-r[1], r[0], -r[3], r[2]))
    if other_count:
        rows.append(("OTHER", 100.0 * other_count / kept, "OTHER", 100.0,
                     other_loss / other_count))
    _emit_csv(["target", "target_share_pct", "solution", "solution_share_pct",
               "mean_loss"], rows, args.out)
    print(f"runs={table.n_runs} discarded={table.n_discarded} "
          f"other={other_count}", file=sys.stderr)
    return 0


def _cmd_distinct(args) -> int:
    arch = _arch(args)
    if not arch.is_stride_one:
        raise ValueError("the distinct-solutions protocol needs unit strides")
    n = 500 if args.full else args.n
    config = TrainConfig(step=args.step, max_steps=args.max_steps)
    table = run_distinct_experiment(arch, n_targets=n, n_inits=args.inits,
                                    seed=args.seed, config=config,
                                    workers=args.threads)
    rows = []
    for metric in sorted(table.histogram):
        hist = table.histogram[metric]
        total = sum(hist.values())
        for n_distinct in sorted(hist):
            rows.append((metric, n_distinct, hist[n_distinct],
                         100.0 * hist[n_distinct] / total))
    _emit_csv(["metric", "n_distinct", "count", "share_pct"], rows, args.out)
    print("no_converged_run: " + " ".join(
        f"{metric}={table.histogram[metric].get(0, 0)}" for metric in sorted(table.histogram)),
        file=sys.stderr)
    return 0


# --- landscape grids ----------------------------------------------------------


def landscape_grid(arch: Architecture, objective: QuadraticObjective,
                   plane, n: int = 65, span: float = 2.0) -> list:
    """Loss and end-to-end discriminant over an affine 2-plane in parameters.

    ``plane`` is (theta0, dir1, dir2), each a list of per-layer filters.  The
    grid evaluates theta0 + s*dir1 + t*dir2 for s, t in n equispaced values
    over [-span, span] and returns rows (s, t, log10 of the loss, |disc| of
    the end-to-end filter), row-major in s then t.
    """
    if not arch.is_stride_one:
        raise ValueError("landscape grids are defined for unit strides")
    if _integer("grid size", n, 2) > 512:
        raise ValueError(f"grid size must be between 2 and 512, got {n}")
    _real("span", span, "positive")
    theta0, dir1, dir2 = plane
    for part in (theta0, dir1, dir2):
        _checked_filters(part, arch)
    coords = np.linspace(-span, span, n)
    rows = []
    for s in coords:
        for t in coords:
            theta = [np.asarray(w0, dtype=float) + s * np.asarray(a) + t * np.asarray(b)
                     for w0, a, b in zip(theta0, dir1, dir2)]
            w, _ = end_to_end(theta, arch)
            loss = objective.value(w)
            rows.append((float(s), float(t),
                         math.log10(max(loss, 1e-300)),
                         abs(discriminant(w))))
    return rows


def _unit_directions(arch: Architecture, rng) -> list:
    dirs = [rng.standard_normal(k) for k in arch.ks]
    scale = math.sqrt(sum(float(d @ d) for d in dirs))
    return [d / scale for d in dirs]


def _cmd_landscape(args) -> int:
    arch = _arch(args)
    obj = _objective(args.norm, _parse_filter(args.target, arch))
    rng = np.random.default_rng(_integer("seed", args.seed, 0))
    plane = (arch.random_theta(rng), _unit_directions(arch, rng),
             _unit_directions(arch, rng))
    rows = landscape_grid(arch, obj, plane, n=args.n, span=args.range)
    _emit_csv(["s", "t", "logloss", "absdisc"], rows, args.out)
    return 0


# --- the running-example case study -------------------------------------------

_STUDY_TARGET = np.array([2.0, 0.0, 5.0, 0.0, 2.0])
_STUDY_STRATA = ((2, 1, 1), (2, 2), (3, 1), (4,))
_STUDY_EXPECTED_REAL = {(2, 1, 1): 4, (2, 2): 5, (3, 1): 4, (4,): 4}
#: Critical points with rational coordinates, per root-multiplicity stratum.
_STUDY_RATIONAL = {
    (2, 1, 1): (
        (0.0, 0.0, 5.0, 0.0, 2.0),
        (2.0, 0.0, 5.0, 0.0, 0.0),
        (0.2, 1.8, 3.2, 1.8, 0.2),
        (0.2, -1.8, 3.2, -1.8, 0.2),
    ),
    (2, 2): (
        (7 / 3, 0.0, 14 / 3, 0.0, 7 / 3),
        (0.0, 0.0, 5.0, 0.0, 0.0),
        (-1.0, 0.0, 2.0, 0.0, -1.0),
    ),
    (3, 1): (),
    (4,): (
        (0.0, 0.0, 0.0, 0.0, 2.0),
        (2.0, 0.0, 0.0, 0.0, 0.0),
        (17 / 35, 68 / 35, 102 / 35, 68 / 35, 17 / 35),
        (17 / 35, -68 / 35, 102 / 35, -68 / 35, 17 / 35),
    ),
}
_STUDY_ARCHS = ((4, 2), (3, 3), (3, 2, 2), (2, 2, 2, 2))
_STUDY_GD = TrainConfig(step=0.01, max_steps=30000)
#: Initialization whose conserved norm gap singles out the fiber scale below.
_STUDY_THETA0 = ((1.0, 6.0, 11.0, 6.0), (4.0, 1.0))
_STUDY_KAPPA = math.sqrt((math.sqrt(31445.0) - 177.0) / 2.0)


def run_case_study(seed: int = 0, runs: int = 100, starts: int = 200,
                   workers: int = None) -> dict:
    """Re-derive the critical-point catalogue of u = [2, 0, 5, 0, 2] and
    check gradient descent for four depth-2..4 architectures against it.

    Returns a JSON-ready report; any entry in ``report["discrepancies"]``
    means a check failed (the CLI exits 3 in that case).  Raises ValueError,
    before any search, for fewer than one run, a count that is not an integer,
    a seed that is not a non-negative integer and a worker count that is not
    None or an integer of at least one.
    """
    _integer("runs", runs, 1)
    _integer("seed", seed, 0)
    if workers is not None:
        _integer("workers", workers, 1)
    u = _STUDY_TARGET.copy()
    obj = QuadraticObjective.euclidean(u)
    discrepancies = []
    report = {"target": u, "norm": "euclidean", "strata": [],
              "gd": [], "kappa": {}, "discrepancies": discrepancies}

    # references the descent limits must hit: the catalogue plus the target
    refs = [(u, classify_rrmp(u))]
    for lam in _STUDY_STRATA:
        rep = crit_on_stratum(obj, lam, n_starts=starts, seed=seed)
        report["strata"].append(_stratum_json(rep, "rational", lambda p: p.is_rational()))
        expected = _STUDY_EXPECTED_REAL[lam]
        if rep.n_real != expected:
            discrepancies.append(
                f"stratum {lam}: found {rep.n_real} real critical points, "
                f"expected {expected}")
        for rat in _STUDY_RATIONAL[lam]:
            if match_critical_point(np.array(rat), [rep], tol=1e-6) is None:
                discrepancies.append(
                    f"stratum {lam}: rational point {rat} not recovered")
        refs.extend((p.w, p.pattern) for p in rep.points)

    archs = [Architecture(ks) for ks in _STUDY_ARCHS]
    jobs = ((obj, arch, arch.random_theta(_seeded(seed, a, r)), _STUDY_GD)
            for a, arch in enumerate(archs) for r in range(runs))
    # zip(*[it] * n) groups n consecutive runs, one architecture's each, until none is left
    study_runs = _train_all(jobs, workers)
    for group, ks, arch in zip(zip(*[study_runs] * runs), _STUDY_ARCHS, archs):
        counts = {}
        n_converged = n_capped = 0
        worst = 0.0
        for run in group:
            if run.diverged:
                discrepancies.append(f"k={ks}: a run diverged")
                continue
            if not run.converged:
                n_capped += 1
                continue
            n_converged += 1
            idx, dist = _nearest(run.w, [ref for ref, _ in refs])
            if not _same_filter(run.w, refs[idx][0], 1e-4):
                discrepancies.append(
                    f"k={ks}: limit {np.round(run.w, 6).tolist()} matches no "
                    f"catalogued critical point (distance {dist:.3g})")
                continue
            worst = max(worst, dist)
            pattern = refs[idx][1]
            if not is_compatible(pattern, arch):
                discrepancies.append(
                    f"k={ks}: reached {np.round(run.w, 6).tolist()} with pattern "
                    f"{pattern.label} the architecture cannot realize")
            key = json.dumps(_plain(refs[idx][0]))
            counts[key] = counts.get(key, 0) + 1
        report["gd"].append({
            "ks": list(ks),
            "n_runs": runs,
            "n_converged": n_converged,
            "n_capped": n_capped,
            "worst_match_distance": worst,
            "limit_counts": {k: counts[k] for k in sorted(counts)},
        })

    # fiber scale selected by descent from the fixed large-norm initialization
    theta0 = [np.array(layer) for layer in _STUDY_THETA0]
    gaps = squared_norm_gaps(theta0)
    profiles = recover_scales([[2.0, 0.0, 5.0, 0.0], [1.0, 0.0]], gaps)
    kappa_rec = profiles[0].kappa_abs[1] if profiles else float("nan")
    run = gd_train(obj, Architecture((4, 2)), theta0,
                   TrainConfig(step=0.001, max_steps=200000))
    trained_scale = float(run.theta[1][0]) if run.converged else float("nan")
    report["kappa"] = {
        "gap": float(gaps[0]),
        "expected": _STUDY_KAPPA,
        "recovered": float(kappa_rec),
        "n_profiles": len(profiles),
        "trained_scale": trained_scale,
        "trained_limit": run.w,
    }
    if len(profiles) != 1 or abs(kappa_rec - _STUDY_KAPPA) > 1e-9:
        discrepancies.append(
            f"fiber scales from the conserved gap gave {kappa_rec!r}, "
            f"expected {_STUDY_KAPPA!r}")
    if not run.converged or trained_scale <= 0 or abs(
            trained_scale - _STUDY_KAPPA) > 0.05:
        discrepancies.append(
            "descent from the fixed initialization did not select the "
            f"positive fiber scale (second layer {run.theta[1]!r})")
    if run.converged and not _same_filter(run.w, np.array([2.0, 0, 5, 0, 0]), 1e-4):
        discrepancies.append(
            f"descent from the fixed initialization reached {run.w!r}")
    return report


def _cmd_case_study(args) -> int:
    report = run_case_study(seed=args.seed, runs=args.runs, starts=args.starts,
                            workers=args.threads)
    _emit_json(report, args.out)
    n_bad = len(report["discrepancies"])
    print(f"discrepancies={n_bad}", file=sys.stderr)
    return 3 if n_bad else 0


# --- argument parsing ----------------------------------------------------------


def _add_arch_flags(p, required=True):
    p.add_argument("--ks", required=required, help="filter sizes, e.g. 3,2,2")
    p.add_argument("--strides", default=None, help="strides (default all 1)")


def _add_target_flags(p):
    p.add_argument("--target", required=True)
    p.add_argument("--norm", choices=["euclidean", "bombieri"],
                   default="euclidean")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--threads", type=int, default=None,
                        help="worker processes for parallel commands")
    common.add_argument("--out", default=None, help="write output here "
                        "instead of stdout")

    parser = argparse.ArgumentParser(
        prog="lcnlab",
        description="Geometry and optimization of linear convolutional "
                    "networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze-arch", parents=[common],
                       help="structure, function-space regions, and bounds "
                            "of an architecture")
    _add_arch_flags(p)
    p.set_defaults(fn=_cmd_analyze_arch)

    p = sub.add_parser("classify", parents=[common],
                       help="root pattern and region of a filter")
    _add_arch_flags(p)
    p.add_argument("--w", required=True, help="filter coefficients or JSON file")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("train", parents=[common],
                       help="one gradient-descent run on a quadratic target")
    _add_arch_flags(p)
    _add_target_flags(p)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--max-steps", type=int, default=15000)
    p.add_argument("--grad-tol", type=float, default=1e-14,
                   help="stop once the squared gradient norm drops below this")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("critpoints", parents=[common],
                       help="critical points on root-multiplicity strata")
    _add_target_flags(p)
    p.add_argument("--lambda", dest="lam", default=None,
                   help="multiplicity partition, e.g. 2,1,1 (not with --ks)")
    _add_arch_flags(p, required=False)
    p.add_argument("--starts", type=int, default=200)
    p.set_defaults(fn=_cmd_critpoints)

    p = sub.add_parser("invariants", parents=[common],
                       help="conserved quantities of the gradient flow")
    p.add_argument("--theta", required=True,
                   help="per-layer filters 'a,b;c,d,e' or JSON file")
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("recover-scales", parents=[common],
                       help="layer scales consistent with conserved gaps")
    p.add_argument("--filters", required=True,
                   help="factor directions 'a,b;c,d' or JSON file")
    p.add_argument("--gaps", required=True, help="conserved norm gaps")
    p.set_defaults(fn=_cmd_recover_scales)

    p = sub.add_parser("experiment", parents=[],
                       help="randomized experiment protocols")
    esub = p.add_subparsers(dest="experiment", required=True)

    q = esub.add_parser("rrmp-table", parents=[common],
                        help="descent outcomes by target root pattern")
    _add_arch_flags(q)
    q.add_argument("--n", type=int, default=1000,
                   help="datasets (default 1000; paper-scale via --full)")
    q.add_argument("--full", action="store_true", help="use 10000 datasets")
    q.add_argument("--samples", type=int, default=10,
                   help="input/output pairs per dataset, at least the filter size")
    q.add_argument("--step", type=float, default=0.01)
    q.add_argument("--max-steps", type=int, default=200000)
    q.set_defaults(fn=_cmd_rrmp_table)

    q = esub.add_parser("distinct", parents=[common],
                        help="distinct minima per target, Euclidean vs "
                             "derivative-weighted metric (0: no run converged)")
    _add_arch_flags(q)
    q.add_argument("--n", type=int, default=100,
                   help="targets (default 100; 500 via --full)")
    q.add_argument("--full", action="store_true", help="use 500 targets")
    q.add_argument("--inits", type=int, default=50)
    # identity/weighted coefficient metrics have curvature <= 1, so a larger
    # step than the data-Gram protocol is stable and much faster
    q.add_argument("--step", type=float, default=0.05)
    q.add_argument("--max-steps", type=int, default=15000)
    q.set_defaults(fn=_cmd_distinct)

    p = sub.add_parser("landscape", parents=[common],
                       help="loss/discriminant grid over a random 2-plane")
    _add_arch_flags(p)
    _add_target_flags(p)
    p.add_argument("--n", type=int, default=65, help="grid points per axis")
    p.add_argument("--range", type=float, default=2.0,
                   help="half-width of the parameter square")
    p.set_defaults(fn=_cmd_landscape)

    p = sub.add_parser("case-study", parents=[common],
                       help="re-derive the [2,0,5,0,2] critical-point "
                            "catalogue and check descent against it")
    p.add_argument("--runs", type=int, default=100,
                   help="descent runs per architecture")
    p.add_argument("--starts", type=int, default=200,
                   help="search starts per stratum")
    p.set_defaults(fn=_cmd_case_study)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, RootFindingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
