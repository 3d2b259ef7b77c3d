"""SHA-256 digests of lcnlab's answers over fixed seeded corpora, one per family.

Run from the root of a checkout:

    python3 tools/answer_digest.py              # this tree's digests, one per line
    python3 tools/answer_digest.py --diff DIR   # and DIR's, with a verdict per family

``--diff`` runs this same file on ``DIR/src`` in a fresh process (DIR can be a
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
``pattern`` tables, and ``strata``: ``crit_on_stratum`` reports on the target
(2, 0, 5, 0, 2).
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


def families() -> dict:
    """Each family's answers as a list of canonical texts."""
    import numpy as np
    import lcnlab
    from lcnlab import Architecture, QuadraticObjective, TrainConfig
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
    target = QuadraticObjective.euclidean(np.array([2.0, 0.0, 5.0, 0.0, 2.0]))
    out["strata"] = [_answer(lambda: [(p.w, p.lam, p.pattern.label, p.loss, p.grad_norm, p.kind)
                                      for p in lcnlab.crit_on_stratum(target, lam, n_starts=10,
                                                                      seed=seed).points])
                     for lam in ((2, 1, 1), (2, 2), (3, 1), (4,)) for seed in (0, 1)]
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
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--answers", "--src",
                           os.path.join(os.path.abspath(args.diff), "src")],
                          capture_output=True, text=True, check=True)
    theirs = json.loads(done.stdout)
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
