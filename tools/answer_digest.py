"""SHA-256 digests of lcnlab's answers over fixed seeded corpora, one per family.

Run from the root of a checkout:

    python3 tools/answer_digest.py              # this tree's digests, one per line
    python3 tools/answer_digest.py --diff DIR   # and DIR's, with a verdict per family

``--diff`` runs this same file on ``DIR/src`` in a fresh process, next to this
tree's run (DIR can be a
checkout of an older commit that lacks ``tools/``), prints both digests of each
family and the first answers that differ, and exits with status 1 when any
family differs.  Every answer enters
its digest as text with floats in ``float.hex``, so two trees match only when
their answers are byte-identical.  A family's error is part of its answer.

Families: ``pooled`` labels of layer lists (linear layers at scales 1e-300 to
1e300, roots repeated and near ROOT_TOL apart, zero, subnormal, non-finite and
size-3 entries), ``same_filter`` verdicts on edge values, ``gd_train`` runs on
``diagonal`` (Euclidean, Bombieri) and ``dense`` objectives (theta, w, loss and
grad_sq, steps, flags and the three labels), small ``distinct`` and
``pattern`` tables, ``strata``: ``crit_on_stratum`` reports on the target
(2, 0, 5, 0, 2) under Euclidean, Bombieri and random-Gram metrics, each with its
count of ``QuadraticObjective.grad`` calls, ``rank_one``: ``_rank_one_points``
on 9,000 random targets of sizes 2-7 under the same three metrics at scales
1e-200 to 1e200 and on 90 targets near the caustic, then
``cone_critical_points`` on every size-3 target, and ``classify``: the roots of
``find_roots`` and the labels of ``classify_rrmp`` and ``rrmp_classify_by_signs``
on seeded degree-1-4 filters (standard-normal, with repeated roots, at scales
1e-300 to 1e300), the bench's two edge filters and quartics whose discriminant
underflows, then ``region`` names and ``factor_into`` layers on (2, 2), (3, 2),
(2, 2, 2) and (3, 3): seeded filters, composed ones at scales 1e-100 to 1e100,
half of them from layers that share roots, the zero filter and a NaN one, and
``mu_rank``: ranks of seeded layer lists on the same architectures, half of
them with roots shared between layers, some with roots at 0 and infinity, plus
a zero layer and a NaN one, then a nonzero, a zero and a NaN size-one layer on
(2, 1), (1, 3) and (2, 1, 2), and ``bad_input``: the error, or else the answer,
of each entry point given each bad value of ``bad_inputs``, then of objectives,
gaps and filters with a NaN or infinite entry and of a filter or objective
whose size does not fit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _text(x) -> str:
    """A canonical text of an answer: floats as hex, containers element by element."""
    if isinstance(x, float):
        return x.hex()
    if hasattr(x, "tolist"):
        return _text(x.tolist())
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(map(_text, x)) + "]"
    if isinstance(x, dict):
        return "{" + ",".join(f"{_text(k)}:{_text(v)}" for k, v in sorted(x.items())) + "}"
    return repr(x)


def _answer(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # the error is the answer
        return f"{type(exc).__name__}: {exc}"


def _label(rrmp):
    return None if rrmp is None else rrmp.label


def bad_inputs() -> list:
    """Each parameter that an entry point checks, with each bad value it is given:
    ``(entry, call, value, message)``, where ``call(value)`` passes ``value`` to
    the parameter and must raise ValueError with ``message``.  A count, seed or
    worker count gets 1.5, "2" and one below its least value, a tuple of integers
    the same values as 1-tuples (the last only if it has a least value, and its
    error names the entry), and a real-valued parameter "0.1", None, NaN and
    -1.0."""
    import numpy as np
    import lcnlab
    from lcnlab import Architecture, QuadraticObjective, TrainConfig
    from lcnlab.cli import landscape_grid, run_case_study

    def integer(name, least):
        bound = "non-negative" if least == 0 else f"at least {least}"
        return [(v, f"{name} must be an integer, got {v!r}") for v in (1.5, "2")] + [
            (least - 1, f"{name} must be {bound}, got {least - 1}")]

    def integers(name, least=None):
        bad = [((v,), f"{name} must be integers, got {(v,)!r}") for v in (1.5, "2")]
        if least is not None:
            bad.append(((least - 1,), f"{name} must be at least {least}, got {least - 1}"))
        return bad

    def real(name, bound):
        return [(v, f"{name} must be finite and {bound}, got {v!r}")
                for v in ("0.1", None, math.nan, -1.0)]

    arch, cubic = Architecture((2, 2)), QuadraticObjective.euclidean([1.0, 0.5, -2.0, 1.0])
    plane = tuple([np.ones(2), np.ones(2)] for _ in range(3))
    square = QuadraticObjective.euclidean([1.0, 0.0, 2.0])
    root = lcnlab.ProjRoot.finite(1.0)
    table = {
        "min_input_size": (lambda v: arch.min_input_size(v), integer("output length", 1)),
        "TrainConfig": (lambda v: TrainConfig(max_steps=v), integer("max_steps", 0)),
        "pattern-n_datasets": (lambda v: lcnlab.run_pattern_experiment(arch, n_datasets=v),
                               integer("n_datasets", 1)),
        "pattern-n_samples": (lambda v: lcnlab.run_pattern_experiment(arch, 1, n_samples=v),
                              integer("n_samples", 3)),
        "pattern-seed": (lambda v: lcnlab.run_pattern_experiment(arch, 1, seed=v),
                         integer("seed", 0)),
        "pattern-workers": (lambda v: lcnlab.run_pattern_experiment(arch, 1, workers=v),
                            integer("workers", 1)),
        "distinct-n_targets": (lambda v: lcnlab.run_distinct_experiment(arch, n_targets=v),
                               integer("n_targets", 1)),
        "distinct-n_inits": (lambda v: lcnlab.run_distinct_experiment(arch, 1, n_inits=v),
                             integer("n_inits", 1)),
        "distinct-seed": (lambda v: lcnlab.run_distinct_experiment(arch, 1, 2, seed=v),
                          integer("seed", 0)),
        "distinct-workers": (lambda v: lcnlab.run_distinct_experiment(arch, 1, 2, workers=v),
                             integer("workers", 1)),
        "crit_on_stratum-n_starts": (lambda v: lcnlab.crit_on_stratum(cubic, (2, 1), n_starts=v),
                                     integer("n_starts", 1)),
        "crit_on_stratum-seed": (lambda v: lcnlab.crit_on_stratum(cubic, (2, 1), seed=v),
                                 integer("seed", 0)),
        "spurious-n_starts": (lambda v: lcnlab.find_spurious_minimum(cubic.target, n_starts=v),
                              integer("n_starts", 1)),
        "spurious-seed": (lambda v: lcnlab.find_spurious_minimum(cubic.target, seed=v),
                          integer("seed", 0)),
        "case-study-runs": (lambda v: run_case_study(runs=v), integer("runs", 1)),
        "case-study-seed": (lambda v: run_case_study(seed=v), integer("seed", 0)),
        "case-study-workers": (lambda v: run_case_study(runs=1, starts=1, workers=v),
                               integer("workers", 1)),
        "integrate_flow": (lambda v: lcnlab.integrate_flow([np.ones(2)], lambda t: t, 0.1, v),
                           integer("n_steps", 0)),
        "all_rrmps": (lambda v: lcnlab.all_rrmps(v), integer("degree", 0)),
        "landscape_grid": (lambda v: landscape_grid(arch, square, plane, n=v),
                           integer("grid size", 2)),
        "bombieri_weights": (lcnlab.bombieri_weights, integer("k", 1)),
        "scale_sign_patterns": (lcnlab.scale_sign_patterns, integer("depth", 1)),
        "tau-k": (lambda v: lcnlab.tau(np.eye(4), v, 2), integer("k", 1)),
        "tau-n_out": (lambda v: lcnlab.tau(np.eye(4), 2, v), integer("placement count", 0)),
        "Architecture-ks": (Architecture, integers("ks", 1)),
        "Architecture-strides": (lambda v: Architecture((2,), v), integers("strides", 1)),
        "Rrmp-rho": (lcnlab.Rrmp, integers("multiplicities", 1)),
        "Rrmp-gamma": (lambda v: lcnlab.Rrmp((), v), integers("multiplicities", 1)),
        "real_type_splits": (lcnlab.real_type_splits, integers("partition parts", 1)),
        "materialize_conv_tensor": (lambda v: lcnlab.materialize_conv_tensor(np.ones(2), v),
                                    integers("input shape")),
        "is_real": (root.is_real, real("tol", "non-negative")),
        "cluster_roots": (lambda v: lcnlab.cluster_roots([root, root], v),
                          real("tol", "non-negative")),
        "count_distinct_filters": (lambda v: lcnlab.count_distinct_filters([np.ones(2)], v),
                                   real("tol", "non-negative")),
        "match_critical_point": (lambda v: lcnlab.match_critical_point(np.ones(3), [], v),
                                 real("tol", "non-negative")),
        "TrainConfig-step": (lambda v: TrainConfig(step=v), real("step", "positive")),
        "TrainConfig-grad_sq_tol": (lambda v: TrainConfig(grad_sq_tol=v),
                                    real("grad_sq_tol", "non-negative")),
        "TrainConfig-diverge_loss": (lambda v: TrainConfig(diverge_loss=v),
                                     real("diverge_loss", "positive")),
        "integrate_flow-step": (lambda v: lcnlab.integrate_flow([np.ones(2)], lambda t: t, v, 1),
                                real("step", "positive")),
        "landscape_grid-span": (lambda v: landscape_grid(arch, square, plane, span=v),
                                real("span", "positive")),
    }
    return [(entry, call, value, message) for entry, (call, bad) in table.items()
            for value, message in bad]


def families() -> dict:
    """Each family's answers as a list of canonical texts."""
    import numpy as np
    import lcnlab
    from lcnlab import Architecture, QuadraticObjective, TrainConfig
    from lcnlab.critlab import _rank_one_points
    from lcnlab.poly_core import _same_filter

    out = {}
    rng = np.random.default_rng(15)
    pooled = []
    odd = [0.0, -0.0, 5e-324, -1e-310, math.inf, -math.inf, math.nan]
    for i in range(1500):
        n = int(rng.integers(1, 6))
        a = rng.standard_normal(n) * 10.0 ** rng.choice([-300, -150, 0, 150, 300])
        x = rng.standard_normal(n) * 10.0 ** rng.choice([-300, -100, 0, 100, 300])
        for j in range(1, n):
            if rng.uniform() < 0.3:
                x[j] = x[int(rng.integers(j))]
            elif rng.uniform() < 0.5:
                x[j] = x[j - 1] * (1 + rng.choice([0.99e-4, 1.01e-4, -0.99e-4, -1.01e-4]))
        with np.errstate(all="ignore"):
            filters = [[ai, -ai * xi] for ai, xi in zip(a, x)]
        if i % 3 == 0:
            k = int(rng.integers(n))
            if rng.uniform() < 0.3:
                filters[k].append(rng.standard_normal())
            else:
                filters[k][int(rng.integers(2))] = odd[int(rng.integers(len(odd)))]
        pooled.append(filters)
    # clusters whose sums overflow, the empty list, a subnormal root and a huge one
    pooled += [[[1.0, -1e308]] * 2, [[1.0, -1e308], [1.0, -1.00001e308]], [[1e-300, 1e8]] * 3, [],
               [[1.0, 1e-310]], [[1e-300, 1e300]], [[1.0, 2.0], [2.0, 4.0], [1.0, 5.0, 6.0]]]
    out["pooled"] = [_answer(lambda: lcnlab.classify_rrmp_pooled(f).label) for f in pooled]

    edge = [0.0, -0.0, 1.0, 1.0 + 1e-4, -2.0, 5e-324, 1e308, -1e308, math.inf, -math.inf,
            math.nan]
    pairs = [(np.array(rng.choice(edge, 3)), np.array(rng.choice(edge, 3))) for _ in range(500)]
    pairs += [(np.ones(3), np.ones(2))]
    out["same_filter"] = [_answer(_same_filter, a, b, tol) for a, b in pairs
                          for tol in (0.0, 1e-4, 1.0)]

    def runs(objectives):
        answers = []
        for ks, strides in (((2, 2), None), ((2, 2, 2), None), ((3, 2), None), ((2, 3), (2, 1)),
                            ((3, 3), None)):
            arch = Architecture(ks, strides)
            for j in range(20):
                r = np.random.default_rng([*ks, j])
                for make in objectives:
                    obj = make(r, arch.filter_size)
                    for config in (TrainConfig(), TrainConfig(max_steps=40),
                                   TrainConfig(step=0.5, max_steps=200)):
                        run = _answer(lcnlab.gd_train, obj, arch, arch.random_theta(r), config)
                        answers.append(run if isinstance(run, str) else (
                            run.theta, run.w, run.loss, run.grad_sq, run.steps, run.converged,
                            run.diverged, _label(run.init_rrmp), _label(run.solution_rrmp),
                            _label(run.target_rrmp)))
        return answers

    def dense(r, k):
        X = r.standard_normal((k, 10))
        return QuadraticObjective(X @ X.T, r.standard_normal(k))

    out["gd_train_diagonal"] = runs((lambda r, k: QuadraticObjective.euclidean(r.standard_normal(k)),
                                     lambda r, k: QuadraticObjective.bombieri(r.standard_normal(k))))
    out["gd_train_dense"] = runs((dense,))
    out["distinct"] = [lcnlab.run_distinct_experiment(Architecture(ks), n_targets=4, n_inits=10,
                                                      seed=seed, workers=1).histogram
                       for ks in ((2, 2), (2, 2, 2)) for seed in (1, 2)]
    out["pattern"] = [lcnlab.run_pattern_experiment(Architecture(ks), n_datasets=8, seed=seed,
                                                    workers=1).rows()
                      for ks in ((2, 2), (3, 2)) for seed in (1, 2)]

    def points(report):
        return [(p.w, p.lam, p.pattern.label, p.loss, p.grad_norm, p.kind) for p in report]

    u = np.array([2.0, 0.0, 5.0, 0.0, 2.0])
    X = np.random.default_rng(17).standard_normal((5, 7))
    targets = (QuadraticObjective.euclidean(u), QuadraticObjective.bombieri(u),
               QuadraticObjective(X @ X.T, u))
    grad, calls = QuadraticObjective.grad, []

    def counted_grad(self, w):
        calls.append(w)
        return grad(self, w)

    QuadraticObjective.grad = counted_grad
    try:
        out["strata"] = []
        for target in targets:
            for lam in ((2, 1, 1), (2, 2), (3, 1), (4,)):
                for seed in (0, 1):
                    calls.clear()
                    report = _answer(lambda: points(lcnlab.crit_on_stratum(
                        target, lam, n_starts=10, seed=seed).points))
                    out["strata"].append((report, len(calls)))
    finally:
        QuadraticObjective.grad = grad

    rng, objectives = np.random.default_rng(16), []
    for k in range(2, 8):
        for metric in ("euclidean", "bombieri", "gram"):
            for scale in (1e-200, 1e-8, 1.0, 1e8, 1e200):
                for _ in range(100):
                    u = rng.standard_normal(k) * scale
                    X = rng.standard_normal((k, k + 2))
                    objectives.append(QuadraticObjective(X @ X.T, u) if metric == "gram"
                                      else getattr(QuadraticObjective, metric)(u))
    while len(objectives) < 9090:  # bisect to the caustic between targets on either side
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        if lcnlab.caustic_value(a) * lcnlab.caustic_value(b) < 0:
            for _ in range(60):
                m = (a + b) / 2.0
                a, b = (m, b) if lcnlab.caustic_value(m) * lcnlab.caustic_value(a) > 0 else (a, m)
            objectives.append(QuadraticObjective.euclidean(a))
    out["rank_one"] = [_answer(lambda: points(_rank_one_points(obj))) for obj in objectives]
    out["rank_one"] += [_answer(lambda: points(lcnlab.cone_critical_points(obj.target, obj.matrix)))
                        for obj in objectives if obj.k == 3]

    rng, filters = np.random.default_rng(18), []
    for degree in (1, 2, 3, 4):
        for _ in range(400):
            filters.append(rng.standard_normal(degree + 1))
            roots = rng.standard_normal(degree)
            roots[1:] = np.where(rng.uniform(size=degree - 1) < 0.5, roots[:-1], roots[1:])
            filters.append(np.poly(roots) * 10.0 ** rng.choice([-300, -100, 0, 100, 300]))
    filters += [np.array(w) for w in (
        (1e-300, 1.0, 1.0), (1.0, 0.0, 0.0, 0.0, 1e-200),  # the bench's edge filters
        (1.0, 0.0, 0.0, 0.0, 1e-300), (1e-300, 0.0, 0.0, 0.0, 1.0), (1e-200, 0.0, 0.0, 0.0, 1.0))]

    def root_parts(w):
        return [(r.value.real, r.value.imag, r.infinite) for r in lcnlab.find_roots(w)]

    out["classify"] = [(_answer(root_parts, w), _answer(lambda: lcnlab.classify_rrmp(w).label),
                        _answer(lambda: lcnlab.rrmp_classify_by_signs(w).label))
                       for w in filters]

    rng, cases = np.random.default_rng(19), []
    for ks in ((2, 2), (3, 2), (2, 2, 2), (3, 3)):
        arch = Architecture(ks)
        for _ in range(150):
            shared = rng.standard_normal(2)
            theta = []
            for k in ks:  # each root is, half the time, one of two shared by every layer
                roots = rng.standard_normal(k - 1)
                pick = rng.uniform(size=k - 1) < 0.5
                roots[pick] = shared[rng.integers(2, size=int(pick.sum()))]
                theta.append(rng.standard_normal() * np.poly(roots))
            scale = 10.0 ** rng.choice([-100, 0, 100])
            cases += [(rng.standard_normal(arch.filter_size), arch),
                      (lcnlab.end_to_end(arch.random_theta(rng), arch)[0] * scale, arch),
                      (lcnlab.end_to_end(theta, arch)[0] * scale, arch)]
        cases += [(np.zeros(arch.filter_size), arch), (np.full(arch.filter_size, math.nan), arch)]
    out["region"] = [_answer(lambda: lcnlab.region(w, arch).name) for w, arch in cases]
    out["factor_into"] = [_answer(lcnlab.factor_into, w, arch) for w, arch in cases]

    rng, cases = np.random.default_rng(20), []
    for ks in ((2, 2), (3, 2), (2, 2, 2), (3, 3)):
        arch = Architecture(ks)
        for j in range(300):
            shared = rng.standard_normal(2)
            theta = []
            for k in ks:  # in odd cases each root is, half the time, one shared by every layer
                roots = rng.standard_normal(k - 1)
                if j % 2:
                    pick = rng.uniform(size=k - 1) < 0.5
                    roots[pick] = shared[rng.integers(2, size=int(pick.sum()))]
                n_inf, n_zero, n = rng.multinomial(k - 1, [0.15, 0.15, 0.7])  # at inf, at 0, finite
                core = rng.standard_normal() * np.atleast_1d(np.poly(roots[:n]))
                theta.append(np.concatenate([np.zeros(n_inf), core, np.zeros(n_zero)]))
            cases.append((theta, arch))
        theta = arch.random_theta(rng)
        cases += [(theta[:-1] + [np.zeros(ks[-1])], arch),
                  (theta[:-1] + [np.full(ks[-1], math.nan)], arch)]
    for ks in ((2, 1), (1, 3), (2, 1, 2)):  # a size-one layer: nonzero, zero and NaN
        arch = Architecture(ks)
        theta, one = arch.random_theta(rng), ks.index(1)
        cases += [(theta[:one] + [np.array([x])] + theta[one + 1:], arch)
                  for x in (rng.standard_normal(), 0.0, math.nan)]
    out["mu_rank"] = [_answer(lcnlab.mu_rank, theta, arch) for theta, arch in cases]

    out["bad_input"] = [_answer(call, value) for _, call, value, _ in bad_inputs()]
    arch, cubic = Architecture((2, 2)), QuadraticObjective.euclidean([1.0, 0.5, -2.0, 1.0])
    nan = math.nan
    out["bad_input"] += [_answer(call) for call in (  # non-finite vectors and filter sizes
        lambda: QuadraticObjective(np.full((3, 3), nan), np.ones(3)),
        lambda: QuadraticObjective.euclidean([1.0, nan, 1.0]),
        lambda: QuadraticObjective(np.eye(3), np.ones(3), const=-math.inf),
        lambda: lcnlab.recover_scales([[1.0, 0.0], [1.0, 0.0]], [nan]),
        lambda: lcnlab.discriminant([1.0, math.inf, 1.0]),
        lambda: lcnlab.find_roots([1.0, nan]),
        lambda: lcnlab.gd_train(cubic, arch, arch.random_theta(np.random.default_rng(0))),
        lambda: lcnlab.factor_into(np.ones(4), arch),
        lambda: lcnlab.find_spurious_minimum(cubic.target, arch))]
    return {name: [_text(a) for a in answers] for name, answers in out.items()}


def _digest(answers) -> str:
    return hashlib.sha256("\n".join(answers).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the src/ directory whose lcnlab to digest")
    parser.add_argument("--diff", metavar="DIR", help="also digest DIR/src and compare")
    parser.add_argument("--answers", action="store_true",
                        help="print every answer as JSON instead of the digests")
    args = parser.parse_args(argv)
    other = None
    if args.diff:  # runs while this tree's answers are computed
        other = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--answers",
                                  "--src", os.path.join(os.path.abspath(args.diff), "src")],
                                 stdout=subprocess.PIPE, text=True)
    sys.path.insert(0, os.path.abspath(args.src))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mine = families()
    if args.answers:
        print(json.dumps(mine))
        return 0
    if not args.diff:
        for name, answers in mine.items():
            print(f"{name} {_digest(answers)}")
        return 0
    stdout, _ = other.communicate()
    if other.returncode:
        raise subprocess.CalledProcessError(other.returncode, other.args, stdout)
    theirs = json.loads(stdout)
    differ = False
    for name, answers in mine.items():
        other = theirs.get(name, [])
        same = answers == other
        differ |= not same
        print(f"{name} {_digest(answers)} {_digest(other)} {'same' if same else 'DIFFERS'}")
        changed = [i for i in range(max(len(answers), len(other)))
                   if answers[i:i + 1] != other[i:i + 1]]
        for i in changed[:5]:
            print(f"  #{i}: {answers[i:i + 1]} here, {other[i:i + 1]} in {args.diff}")
        if len(changed) > 5:
            print(f"  ... {len(changed)} answers differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
