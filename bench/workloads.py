"""The four benchmark workloads and their answer checks.

Each workload is a pool of rounds.  Round ``r`` is fully determined by ``r``;
the reference file stores, for every round of the pool, the answer lcnlab 0.1.0
gave and the amount of work it did.  A run draws rounds in an order
fixed by the benchmark seed, so every seed's answers can be checked.

A round is a list of parts.  A part is one timed call (or batch of calls)
into lcnlab's public API; its ``kind`` groups parts that cost the same per
unit of work, so the run can report throughput per kind.
"""

from __future__ import annotations

import gzip
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import lcnlab
from lcnlab import Architecture, QuadraticObjective, TrainConfig

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
ERROR_PREFIX = "error:"


@dataclass
class Part:
    kind: str
    units: int
    call: Callable[[], object]
    answer: Callable[[object], object]  # raw output -> JSON answer
    known: list = None  # labels known by construction, where there are any


@dataclass
class Verdict:
    """Outcome counts for the units of one part."""

    units: int = 0
    failed: int = 0  # raised or gave no answer
    unexpected: int = 0  # failed where the reference answered
    mismatched: int = 0  # answered, but not the reference answer
    known_wrong: int = 0  # differs from the label known by construction, as the reference does

    def add(self, other: "Verdict"):
        for name in ("units", "failed", "unexpected", "mismatched", "known_wrong"):
            setattr(self, name, getattr(self, name) + getattr(other, name))


def _is_error(answer) -> bool:
    return isinstance(answer, str) and answer.startswith(ERROR_PREFIX)


def _error_name(exc: Exception) -> str:
    return ERROR_PREFIX + type(exc).__name__


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


# --- pattern ------------------------------------------------------------------


class _Descent:
    """What pattern and distinct share: work is gradient evaluations."""

    runs_per_unit = 1

    def traced_work(self, tracer, mark, part) -> int:
        """Gradient evaluations (steps + 1) of the descent runs since ``mark``."""
        return sum(steps + 1 for steps, _, _ in tracer.runs[mark[0]:])

    def expected_calls(self, records) -> dict:
        """Call counts that follow exactly from what the run did."""
        runs = self.runs_per_unit * sum(rec.units for rec in records)
        return {"optim.gd_train": runs, "rootlab.classify_rrmp_pooled": 2 * runs}


class Pattern(_Descent):
    """``run_pattern_experiment`` on (2,2) and (2,2,2): long descent runs.

    The step counts are heavy-tailed and some runs hit the 200 000-step cap;
    those are part of the workload.
    """

    name = "pattern"
    unit = "descent run"
    pool = 96
    archs = ((2, 2), (2, 2, 2))
    n_datasets = 4
    config = TrainConfig(step=0.01, max_steps=200_000, grad_sq_tol=1e-18)
    loss_rtol, loss_atol = 1e-6, 1e-9

    def warmup(self):
        for ks in self.archs:
            lcnlab.run_pattern_experiment(Architecture(ks), n_datasets=1, seed=10_000,
                                          config=self.config, workers=1)

    def parts(self, r: int) -> list:
        out = []
        for ks in self.archs:
            arch = Architecture(ks)
            out.append(Part(
                kind="-".join(map(str, ks)), units=self.n_datasets,
                call=lambda arch=arch: lcnlab.run_pattern_experiment(
                    arch, n_datasets=self.n_datasets, seed=r, config=self.config, workers=1),
                answer=lambda table: {
                    "rows": [[t, i, s, n, loss] for t, i, s, n, loss in table.rows()],
                    "discarded": table.n_discarded,
                }))
        return out

    def check(self, part: Part, got, ref) -> Verdict:
        v = Verdict(units=part.units)
        if _is_error(got):
            v.failed = v.unexpected = part.units
            return v
        got_rows = {tuple(row[:3]): row for row in got["rows"]}
        ref_rows = {tuple(row[:3]): row for row in ref["rows"]}
        v.failed = sum(row[3] for key, row in got_rows.items() if "?" in key)
        ref_failed = sum(row[3] for key, row in ref_rows.items() if "?" in key)
        v.unexpected = max(0, v.failed - ref_failed)
        moved = abs(got["discarded"] - ref["discarded"])
        for key in got_rows.keys() | ref_rows.keys():
            g, f = got_rows.get(key), ref_rows.get(key)
            if g is None or f is None or g[3] != f[3]:
                moved += abs((g[3] if g else 0) - (f[3] if f else 0))
            elif not _close(g[4], f[4], self.loss_rtol, self.loss_atol):
                moved += 2 * g[3]
        v.mismatched = min(part.units, (moved + 1) // 2)
        return v


# --- distinct -----------------------------------------------------------------


class Distinct(_Descent):
    """``run_distinct_experiment`` on (2,2): many short descent runs per target.

    Every run pays fixed costs (three root classifications) on top of its
    steps, so per-run overheads show here and not in ``pattern``.
    """

    name = "distinct"
    unit = "target"
    pool = 96
    arch = Architecture((2, 2))
    # 10 inits per target, not the 50 of the desk-scale study: one target
    # with 50 inits can take 45 s, so a run would see one or two targets and
    # its median would rest on them.
    n_inits = 10
    runs_per_unit = 2 * n_inits  # both metrics
    config = TrainConfig(step=0.05)

    def warmup(self):
        lcnlab.run_distinct_experiment(self.arch, n_targets=1, n_inits=2, seed=10_000,
                                       config=self.config, workers=1)

    def parts(self, r: int) -> list:
        return [Part(
            kind="2-2", units=1,
            call=lambda: lcnlab.run_distinct_experiment(
                self.arch, n_targets=1, n_inits=self.n_inits, seed=r,
                config=self.config, workers=1),
            answer=lambda table: {metric: sorted(hist.items())
                                  for metric, hist in sorted(table.histogram.items())})]

    def check(self, part: Part, got, ref) -> Verdict:
        v = Verdict(units=1)
        if _is_error(got):
            v.failed = v.unexpected = 1
        elif _normalise(got) != _normalise(ref):
            v.mismatched = 1
        return v


def _normalise(answer):
    return json.loads(json.dumps(answer))


# --- strata -------------------------------------------------------------------


class Strata:
    """``crit_on_stratum`` on the case-study target: multi-start Newton, no descent."""

    name = "strata"
    unit = "stratum"
    pool = 128
    target = (2.0, 0.0, 5.0, 0.0, 2.0)
    lambdas = ((2, 1, 1), (2, 2), (3, 1), (4,))
    n_starts = 10
    w_tol = 1e-6

    def __init__(self):
        self.objective = QuadraticObjective.euclidean(np.array(self.target))

    def warmup(self):
        lcnlab.crit_on_stratum(self.objective, (2, 2), n_starts=4, seed=10_000)

    def traced_work(self, tracer, mark, part) -> int:
        """QuadraticObjective.grad calls since ``mark``."""
        return tracer.grad_calls() - mark[1]

    def expected_calls(self, records) -> dict:
        return {"critlab.crit_on_stratum": len(records)}

    def parts(self, r: int) -> list:
        return [Part(
            kind="-".join(map(str, lam)), units=1,
            call=lambda lam=lam: lcnlab.crit_on_stratum(
                self.objective, lam, n_starts=self.n_starts, seed=r),
            answer=lambda report: [[p.w.tolist(), p.pattern.label, p.kind]
                                   for p in report.points])
            for lam in self.lambdas]

    def check(self, part: Part, got, ref) -> Verdict:
        v = Verdict(units=1)
        if _is_error(got):
            v.failed = v.unexpected = 1
            return v
        same = len(got) == len(ref) and all(
            g[1:] == f[1:] and len(g[0]) == len(f[0])
            and max(abs(a - b) for a, b in zip(g[0], f[0]))
            <= self.w_tol * max(1.0, max(abs(b) for b in f[0]))
            for g, f in zip(got, ref))
        v.mismatched = 0 if same else 1
        return v


# --- classify -----------------------------------------------------------------


UNIT_ARCHS = ((2, 2), (3, 2), (2, 2, 2), (3, 3))
POOLED_ARCHS = ((2, 2), (2, 2, 2), (3, 2, 2))
# Inputs on which lcnlab 0.1.0's root finder raises RootFindingError; their
# labels are known: two real roots near -1 and -1e300, and two conjugate pairs.
EDGE_FILTERS = (((1e-300, 1.0, 1.0), "11|0"), ((1.0, 0.0, 0.0, 0.0, 1e-200), "0|11"))
FACTOR_RTOL = 1e-8


def _label(rho, gamma) -> str:
    left = "".join(str(m) for m in sorted(rho)) or "0"
    right = "".join(str(m) for m in sorted(gamma)) or "0"
    return f"{left}|{right}"


def _patterns(degree: int) -> list:
    """All (rho, gamma) multiplicity patterns of a real binary form of this degree."""
    out = []

    def parts(n, cap):
        if n == 0:
            yield ()
            return
        for p in range(min(n, cap), 0, -1):
            for rest in parts(n - p, p):
                yield (p,) + rest

    for pairs in range(degree // 2 + 1):
        for gamma in parts(pairs, pairs):
            for rho in parts(degree - 2 * pairs, degree):
                out.append((rho, gamma))
    return out


def constructed_filter(rng: np.random.Generator):
    """A filter built from chosen, well-separated roots, and its label.

    Roots span 1e-3..1e3 in magnitude, the overall scale 1e-50..1e50, and one
    real root may sit at infinity (leading zero coefficient) or at zero.
    """
    degree = int(rng.integers(1, 5))
    options = _patterns(degree)
    rho, gamma = options[int(rng.integers(len(options)))]
    while True:
        reals = [float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-3, 3)) for _ in rho]
        pairs = [10 ** rng.uniform(-3, 3) * np.exp(1j * rng.uniform(0.3, math.pi - 0.3))
                 for _ in gamma]
        points = reals + pairs
        if all(abs(a - b) > 0.05 * max(abs(a), abs(b))
               for i, a in enumerate(points) for b in points[i + 1:]):
            break
    factors = [np.array([1.0, -x]) for x in reals]
    if reals and rng.uniform() < 0.2:
        factors[0] = np.array([0.0, 1.0]) if rng.uniform() < 0.5 else np.array([1.0, 0.0])
    factors += [np.array([1.0, -2.0 * z.real, abs(z) ** 2]) for z in pairs]
    w = np.array([10 ** rng.uniform(-50, 50)])
    for f, m in zip(factors, list(rho) + list(gamma)):
        for _ in range(m):
            w = np.convolve(w, f)
    return w, _label(rho, gamma)


def composed_filter(ks, rng: np.random.Generator, shared_root: bool) -> np.ndarray:
    """End-to-end filter of random layers; with ``shared_root`` every layer
    has the root x = r y, so the product has an len(ks)-fold root, which
    factor_into can only recover through its Gauss-Newton polish."""
    r = rng.standard_normal()
    w = np.array([1.0])
    for k in ks:
        f = np.convolve([1.0, -r], rng.standard_normal(k - 1)) if shared_root else rng.standard_normal(k)
        w = np.convolve(w, f)
    return w


def _call_each(name, arg_tuples, answer=lambda result: result) -> list:
    """lcnlab.<name>(*args) for each args; an error becomes its class name."""
    fn = getattr(lcnlab, name)  # looked up per call, so a tracer's rebinding is seen
    out = []
    for args in arg_tuples:
        try:
            out.append(answer(fn(*args)))
        except Exception as exc:  # the answer records which error the library raised
            out.append(_error_name(exc))
    return out


def _round_trip(inputs, results) -> list:
    """'ok' where the returned layer filters compose back to the input."""
    out = []
    for (w, _), theta in zip(inputs, results):
        if _is_error(theta):
            out.append(theta)
            continue
        prod = np.array([1.0])
        for f in theta:
            prod = np.convolve(prod, f)
        good = prod.shape == w.shape and np.max(np.abs(prod - w)) <= FACTOR_RTOL * np.max(np.abs(w))
        out.append("ok" if good else "bad")
    return out


class Classify:
    """Seeded filters through the public entry points of rootlab and funcspace."""

    name = "classify"
    unit = "filter"
    pool = 64
    per_degree = 48
    per_pooled_arch = 16
    per_region_arch = 12
    per_factor_arch = 6
    n_constructed = 48

    def warmup(self):
        self._run_all(self.parts(10_000, scale=8))

    @staticmethod
    def _run_all(parts):
        for part in parts:
            part.answer(part.call())

    def traced_work(self, tracer, mark, part) -> int:
        return part.units

    def expected_calls(self, records) -> dict:
        """One traced call per unit for the entry points only the benchmark
        calls (classify_rrmp is also called by region)."""
        units = {}
        for rec in records:
            units[rec.kind] = units.get(rec.kind, 0) + rec.units
        return {
            "rootlab.rrmp_classify_by_signs": sum(v for k, v in units.items() if k.startswith("signs")),
            "rootlab.classify_rrmp_pooled": units["pooled"],
            "funcspace.region": units["region"],
            "funcspace.factor_into": units["factor_into"],
        }

    def parts(self, r: int, scale: int = 1) -> list:
        rng = np.random.default_rng([20_211_008, r])
        n_deg = max(1, self.per_degree // scale)
        by_degree = {d: [rng.standard_normal(d + 1) for _ in range(n_deg)] for d in (1, 2, 3, 4)}
        pooled = [Architecture(ks).random_theta(rng) for ks in POOLED_ARCHS
                  for _ in range(max(1, self.per_pooled_arch // scale))]
        regions = [(rng.standard_normal(Architecture(ks).filter_size), Architecture(ks))
                   for ks in UNIT_ARCHS for _ in range(max(1, self.per_region_arch // scale))]
        factor_inputs = []
        for ks in UNIT_ARCHS:
            for j in range(max(2, self.per_factor_arch // scale)):
                factor_inputs.append((composed_filter(ks, rng, shared_root=j % 2 == 1),
                                      Architecture(ks)))
        built = [constructed_filter(rng) for _ in range(max(1, self.n_constructed // scale))]
        built += [(np.array(w), label) for w, label in EDGE_FILTERS]

        def labels(name, inputs):
            return lambda: _call_each(name, [(x,) for x in inputs], lambda rrmp: rrmp.label)

        parts = [Part(f"classify.deg{d}", len(xs), labels("classify_rrmp", xs), list)
                 for d, xs in by_degree.items()]
        parts += [Part(f"signs.deg{d}", len(by_degree[d]),
                       labels("rrmp_classify_by_signs", by_degree[d]), list)
                  for d in (2, 3, 4)]
        parts.append(Part("pooled", len(pooled), labels("classify_rrmp_pooled", pooled), list))
        parts.append(Part("region", len(regions),
                          lambda: _call_each("region", regions, lambda region: region.name), list))
        parts.append(Part("factor_into", len(factor_inputs),
                          lambda: _call_each("factor_into", factor_inputs),
                          lambda results: _round_trip(factor_inputs, results)))
        parts.append(Part("constructed", len(built),
                          labels("classify_rrmp", [w for w, _ in built]), list,
                          known=[label for _, label in built]))
        return parts

    def check(self, part: Part, got, ref) -> Verdict:
        """Labels must equal the stored ones; in the constructed slice, the
        label known by construction is also accepted."""
        v = Verdict(units=part.units)
        for i, (g, f) in enumerate(zip(got, ref)):
            truth = part.known[i] if part.known is not None else None
            if _is_error(g):
                v.failed += 1
                v.unexpected += 0 if _is_error(f) else 1
            elif g == truth:
                continue
            elif g != f:
                v.mismatched += 1
            elif truth is not None:
                v.known_wrong += 1
        if len(got) != len(ref):
            v.mismatched += abs(len(got) - len(ref))
        return v


WORKLOADS = {w.name: w for w in (Pattern, Distinct, Strata, Classify)}


# --- references ---------------------------------------------------------------


def reference_path(name: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{name}.json.gz")


def load_reference(name: str) -> dict:
    with gzip.open(reference_path(name), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_reference(name: str, data: dict):
    raw = json.dumps(data, separators=(",", ":"), sort_keys=True).encode("utf-8")
    with open(reference_path(name), "wb") as fh:
        with gzip.GzipFile(fileobj=fh, mode="wb", mtime=0) as gz:
            gz.write(raw)
