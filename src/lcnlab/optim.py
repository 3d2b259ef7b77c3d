"""Quadratic losses on filter space, their gradients through the layers, and
gradient-descent experiment drivers.

A square regression loss on the network's input/output matrices collapses to
a quadratic form on the end-to-end filter: the data covariance folds along
the filter's sliding placements (``tau``).  Training operates directly on
the layer filters; the gradient of a layer is the cross-correlation of the
loss gradient with the product of the other (upsampled) layers, read at the
layer's span, for any strides.  One scalar core, ``_gradients``, computes it
on Python float lists with numpy's bits; gradient descent runs its steps
there and evaluates ``obj.value`` once per run.

The experiment drivers reproduce two studies: the distribution of root
patterns reached by gradient descent from random data, and the number of
distinct minima under the Euclidean versus the derivative-weighted
(Bombieri) metric.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, field

import numpy as np

from .poly_core import (Architecture, _complements, _correlate_list, _layers, _mul_list,
                        _placements, _same_filter, as_filter, end_to_end, network_matrices,
                        upsample)
from .rootlab import ROOT_TOL, RootFindingError, Rrmp, classify_rrmp, classify_rrmp_pooled


def unconstrained_opt(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Least-squares optimum over unstructured matrices: Y X^T (X X^T)^{-1}."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    return Y @ X.T @ np.linalg.inv(X @ X.T)


def tau(M: np.ndarray, k: int, n_out: int, stride: int = 1,
        circulant: bool = False) -> np.ndarray:
    """Fold a d0 x d0 matrix along the filter's placements.

    Entry (i, j) sums M[i + s*m, j + s*m] over the n_out output positions
    (cyclically in circulant mode), so that the induced quadratic form on
    filters w satisfies w^T tau(M) w = sum_m (row_m M row_m^T) for the
    sliding-window matrix with rows row_m = filter placed at offset s*m.
    """
    M = np.asarray(M, dtype=float)
    d0 = M.shape[0]
    if M.shape != (d0, d0):
        raise ValueError("need a square matrix")
    out = np.zeros((k, k))
    for idx in _placements(k, stride, d0, n_out, circulant):
        out += M[np.ix_(idx, idx)]
    return out


def bombieri_weights(k: int) -> np.ndarray:
    """Reciprocal binomial weights j!(k-1-j)!/(k-1)! for coefficients 0..k-1."""
    n = k - 1
    return np.array([1.0 / math.comb(n, j) for j in range(k)])


def bombieri_matrix(k: int) -> np.ndarray:
    return np.diag(bombieri_weights(k))


@dataclass(frozen=True)
class QuadraticObjective:
    """loss(w) = (w - target)^T matrix (w - target) + const.

    Raises ValueError when the matrix does not match the target or a field
    has a non-finite entry.
    """

    matrix: np.ndarray
    target: np.ndarray
    const: float = 0.0

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        u = as_filter(self.target)
        if M.shape != (len(u), len(u)):
            raise ValueError(f"matrix shape {M.shape} does not match target {len(u)}")
        for name, value in (("matrix", M), ("target", u), ("const", self.const)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"QuadraticObjective {name} has non-finite entries")
        object.__setattr__(self, "matrix", M)
        object.__setattr__(self, "target", u)

    @property
    def k(self) -> int:
        return len(self.target)

    def value(self, w) -> float:
        r = as_filter(w) - self.target
        return float(r @ self.matrix @ r) + self.const

    def grad(self, w) -> np.ndarray:
        r = as_filter(w) - self.target
        return 2.0 * (self.matrix @ r)

    @staticmethod
    def euclidean(target) -> "QuadraticObjective":
        u = as_filter(target)
        return QuadraticObjective(np.eye(len(u)), u)

    @staticmethod
    def bombieri(target) -> "QuadraticObjective":
        u = as_filter(target)
        return QuadraticObjective(bombieri_matrix(len(u)), u)

    @staticmethod
    def from_data(X, Y, arch: Architecture, circulant: bool = False
                  ) -> "QuadraticObjective":
        """Exact quadratic form of ||W X - Y||_F^2 over the architecture's
        sliding-window matrices W, including the constant term."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        k, s = arch.filter_size, arch.stride
        placements = _placements(k, s, X.shape[0], cyclic=circulant)
        n_out = len(placements)
        if Y.shape != (n_out, X.shape[1]):
            raise ValueError(f"output data must be {n_out} x {X.shape[1]}")

        Sigma = X @ X.T
        M = tau(Sigma, k, n_out, s, circulant)
        XY = X @ Y.T  # (d0, n_out)
        v = np.zeros(k)
        for m, idx in enumerate(placements):
            v += XY[idx, m]
        u = np.linalg.solve(M, v)
        const = float(np.sum(Y * Y) - u @ M @ u)
        return QuadraticObjective(M, u, const)


def network_loss(theta, arch: Architecture, obj: QuadraticObjective) -> float:
    w, _ = end_to_end(theta, arch)
    return obj.value(w)


def loss_and_gradient(theta, arch: Architecture, obj: QuadraticObjective):
    """(loss, per-layer gradients) sharing a single composition pass.

    With C_l the product of every layer but l (each upsampled by its span
    span_i = prod(strides[:i])) and g the loss gradient at the end-to-end
    filter, the gradient of layer l is ``correlate(g, C_l, "valid")`` read at
    every span_l-th entry.  Raises ValueError when ``theta`` does not match
    ``arch``.
    """
    fs, spans = _layers(theta, arch)
    w, _, grads = _gradients([f.tolist() for f in fs], spans, obj)
    return obj.value(np.array(w)), [np.array(g) for g in grads]


def _gradients(fs, spans, obj: QuadraticObjective):
    """(end-to-end filter, its loss gradient, layer gradients) as float lists,
    with numpy's bits, for float-list layers upsampled as by ``_layers``."""
    w, comps = _complements(fs, _mul_list)
    g = obj.grad(np.array(w)).tolist()
    return w, g, [_correlate_list(g, c) if s == 1 else _correlate_list(g, c)[::s]
                  for c, s in zip(comps, spans)]


def network_gradient(theta, arch: Architecture, obj: QuadraticObjective) -> list:
    """Per-layer gradients of obj(end_to_end(theta))."""
    return loss_and_gradient(theta, arch, obj)[1]


def gradient_via_matrices(theta, arch: Architecture, X, Y) -> list:
    """Same gradient, computed through the sliding-window matrices.

    Uses the chain rule on ||W_L ... W_1 X - Y||_F^2 with explicit matrix
    products, then sums each matrix gradient along its filter's placements.
    Serves as an independent check of ``network_gradient``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    mats = network_matrices(theta, arch, X.shape[0])

    grads = []
    for l in range(arch.depth):
        before = np.eye(X.shape[0])
        for M in mats[:l]:
            before = M @ before
        after = np.eye(mats[l].shape[0])
        for M in mats[l + 1 :]:
            after = M @ after
        full = after @ mats[l] @ before
        dL = 2.0 * (full @ X @ X.T - Y @ X.T)  # gradient wrt the full matrix
        Gmat = after.T @ dL @ before.T  # gradient wrt layer-l matrix
        g = np.zeros(arch.ks[l])
        for m, idx in enumerate(_placements(arch.ks[l], arch.strides[l], Gmat.shape[1])):
            g += Gmat[m, idx]
        grads.append(g)
    return grads


# --- gradient descent --------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    step: float = 0.01
    max_steps: int = 15000
    grad_sq_tol: float = 1e-14
    diverge_loss: float = 1e12

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValueError(f"step must be finite and positive, got {self.step}")
        if self.max_steps < 0:
            raise ValueError(f"max_steps must be non-negative, got {self.max_steps}")
        if not self.grad_sq_tol >= 0:
            raise ValueError(f"grad_sq_tol must be non-negative, got {self.grad_sq_tol}")
        if not self.diverge_loss > 0:
            raise ValueError(f"diverge_loss must be positive, got {self.diverge_loss}")


@dataclass
class TrainRun:
    theta: list
    w: np.ndarray
    loss: float
    grad_sq: float
    steps: int
    converged: bool
    diverged: bool
    solution_rrmp: Rrmp = None
    target_rrmp: Rrmp = None
    init_rrmp: Rrmp = None


def _classified(classify, coeffs):
    """``classify(coeffs)``, or None for zero or non-finite filters and roots
    the solver cannot certify."""
    try:
        return classify(coeffs)
    except (ValueError, RootFindingError):
        return None


def _sq_norm(grads) -> float:
    """Squared norm of a list of gradients, equal bit for bit to
    ``float(sum(np.sum(np.square(g)) for g in grads))``.  Below 8
    entries numpy sums left to right, so a Python loop gives the same bits
    faster; from 8 on it sums pairwise, so longer layers keep its reduction."""
    total = 0.0
    for g in grads:
        if len(g) < 8:
            s = 0.0
            for x in g:
                s += x * x
            total += s
        else:
            total += float(np.sum(np.square(g)))
    return total


def gd_train(obj: QuadraticObjective, arch: Architecture, theta0,
             config: TrainConfig = TrainConfig()) -> TrainRun:
    """Plain gradient descent on obj(end_to_end(theta)).

    Stops when the squared gradient norm drops below the tolerance; flags
    divergence when the loss explodes or turns non-finite.  Steps run on
    float lists with one ``obj.grad`` call each and test the loss as
    (w - target).g / 2 + const; ``obj.value`` runs once, for the returned
    loss at the final filter.  The returned run carries the root pattern of
    the target and the pooled root patterns of the initialization and the
    final layers, all at ``ROOT_TOL``; each is None when its filter is zero
    or non-finite or its roots cannot be certified.  Raises ValueError,
    before any step, when ``theta0`` does not match ``arch``.
    """
    theta = [as_filter(w) for w in theta0]
    _, spans = _layers(theta, arch)
    strided = any(s > 1 for s in spans)
    init_rrmp = _classified(classify_rrmp_pooled, theta)
    target, const, step = obj.target.tolist(), obj.const, config.step
    theta = [w.tolist() for w in theta]
    grad_sq = np.inf
    converged = diverged = False
    steps = 0
    for steps in range(config.max_steps + 1):
        fs = [upsample(t, s).tolist() for t, s in zip(theta, spans)] if strided else theta
        w, g, grads = _gradients(fs, spans, obj)
        half = 0.0
        for x, u, y in zip(w, target, g):
            half += (x - u) * y
        # within a few ulps of obj.value(w), which would cost a second call
        loss = 0.5 * half + const
        if not math.isfinite(loss) or loss > config.diverge_loss:
            diverged = True
            break
        grad_sq = _sq_norm(grads)
        if grad_sq <= config.grad_sq_tol:
            converged = True
            break
        if steps == config.max_steps:
            break
        theta = [[x - step * y for x, y in zip(t, gt)] for t, gt in zip(theta, grads)]

    theta = [np.array(t) for t in theta]
    w, _ = end_to_end(theta, arch)
    return TrainRun(
        theta=theta,
        w=w,
        loss=float(obj.value(w)),
        grad_sq=grad_sq,
        steps=steps,
        converged=converged,
        diverged=diverged,
        init_rrmp=init_rrmp,
        target_rrmp=_classified(classify_rrmp, obj.target),
        solution_rrmp=_classified(classify_rrmp_pooled, theta),
    )


# --- experiment drivers ------------------------------------------------------


def _fan_out(fn, jobs, workers, chunksize):
    """[fn(job) for job in jobs], spread over ``workers`` processes when that
    is more than one (None: the CPU count, at most 8).  Results keep the job
    order, so they do not depend on the worker count."""
    if workers is None:
        workers = min(multiprocessing.cpu_count(), 8)
    if workers <= 1:
        return [fn(job) for job in jobs]
    with multiprocessing.Pool(workers) as pool:
        return pool.map(fn, jobs, chunksize=chunksize)


@dataclass
class PatternCell:
    """One (target, init, solution) cell of the pattern table."""

    count: int = 0
    loss_sum: float = 0.0

    @property
    def mean_loss(self) -> float:
        return self.loss_sum / self.count if self.count else float("nan")


@dataclass
class PatternTable:
    """Aggregated gradient-descent outcomes for one architecture."""

    arch: Architecture
    n_runs: int = 0
    n_discarded: int = 0
    cells: dict = field(default_factory=dict)  # (target, init, solution) -> cell
    target_counts: dict = field(default_factory=dict)

    def add(self, target: str, init: str, solution: str, loss: float):
        self.n_runs += 1
        self.target_counts[target] = self.target_counts.get(target, 0) + 1
        cell = self.cells.setdefault((target, init, solution), PatternCell())
        cell.count += 1
        cell.loss_sum += loss

    def discard(self):
        self.n_runs += 1
        self.n_discarded += 1

    def target_share(self, target: str) -> float:
        kept = self.n_runs - self.n_discarded
        return self.target_counts.get(target, 0) / kept if kept else float("nan")

    def solution_share(self, target: str, solution: str) -> float:
        """Share of a solution pattern among kept runs with this target."""
        total = sum(c.count for (t, _, _), c in self.cells.items() if t == target)
        hit = sum(c.count for (t, _, s), c in self.cells.items()
                  if t == target and s == solution)
        return hit / total if total else float("nan")

    def rows(self) -> list:
        """Stable row dump: (target, init, solution, count, mean_loss)."""
        out = []
        for (t, i, s), cell in sorted(self.cells.items()):
            out.append((t, i, s, cell.count, cell.mean_loss))
        return out


def _pattern_worker(args):
    arch, master_seed, idx, config, n_samples = args
    rng = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(idx,)))
    k = arch.filter_size
    X = rng.standard_normal((k, n_samples))
    Y = rng.standard_normal((1, n_samples))
    # reduced form ||w - u||^2_{XX^T}: same gradients as the data loss, but
    # zero at a perfect fit, which is what the loss column should report
    Sigma = X @ X.T
    u = np.linalg.solve(Sigma, X @ Y.T).ravel()
    obj = QuadraticObjective(Sigma, u)
    theta0 = arch.random_theta(rng)
    run = gd_train(obj, arch, theta0, config)
    if not run.converged:
        return None
    labels = tuple(
        r.label if r is not None else "?"
        for r in (run.target_rrmp, run.init_rrmp, run.solution_rrmp)
    )
    return labels + (run.loss,)


def run_pattern_experiment(arch: Architecture, n_datasets: int = 1000,
                           seed: int = 0, config: TrainConfig = TrainConfig(),
                           workers: int = None, n_samples: int = 10) -> PatternTable:
    """Gradient descent on random regression data; classify what it reaches.

    Each dataset draws ``n_samples`` standard-normal input/output pairs with
    input size equal to the end-to-end filter size and scalar outputs,
    initializes all layers from a standard normal, and runs gradient descent
    to the gradient tolerance.  Non-converged runs are discarded (counted).
    Seeds are per-dataset, so results do not depend on worker scheduling.
    """
    if n_samples < 1 or n_datasets < 1:
        raise ValueError("need at least one dataset and one sample")
    table = PatternTable(arch)
    jobs = [(arch, seed, i, config, n_samples) for i in range(n_datasets)]
    for res in _fan_out(_pattern_worker, jobs, workers, chunksize=16):
        if res is None:
            table.discard()
        else:
            target, init, solution, loss = res
            table.add(target, init, solution, loss)
    return table


# --- distinct-minima experiment ----------------------------------------------


def count_distinct_filters(filters, tol: float = ROOT_TOL) -> int:
    """Number of distinct filters: each filter starts a new group unless it is
    the same as the first filter of an earlier group under the shared rule
    ``poly_core._same_filter`` at ``tol``."""
    reps = []
    for w in map(as_filter, filters):
        if not any(_same_filter(w, r, tol) for r in reps):
            reps.append(w)
    return len(reps)


def _distinct_worker(args):
    arch, master_seed, idx, n_inits, config = args
    rng = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(idx,)))
    k = arch.filter_size
    u = rng.standard_normal(k)
    counts = {}
    for metric, obj in (("euclidean", QuadraticObjective.euclidean(u)),
                        ("bombieri", QuadraticObjective.bombieri(u))):
        sols = []
        for _ in range(n_inits):
            theta0 = arch.random_theta(rng)
            run = gd_train(obj, arch, theta0, config)
            if run.converged:
                sols.append(run.w)
        counts[metric] = count_distinct_filters(sols)
    return counts


@dataclass
class DistinctTable:
    """Distribution of the number of distinct minima per metric.  A target
    where no descent run converged is counted under 0."""

    arch: Architecture
    histogram: dict = field(default_factory=dict)  # metric -> {count: n_targets}

    def add(self, metric: str, n_distinct: int):
        h = self.histogram.setdefault(metric, {})
        h[n_distinct] = h.get(n_distinct, 0) + 1

    def share(self, metric: str, n_distinct: int) -> float:
        h = self.histogram.get(metric, {})
        total = sum(h.values())
        return h.get(n_distinct, 0) / total if total else float("nan")

    def mean(self, metric: str) -> float:
        h = self.histogram.get(metric, {})
        total = sum(h.values())
        return sum(k * v for k, v in h.items()) / total if total else float("nan")


def run_distinct_experiment(arch: Architecture, n_targets: int = 100,
                            n_inits: int = 50, seed: int = 0,
                            config: TrainConfig = TrainConfig(),
                            workers: int = None) -> DistinctTable:
    """How many distinct minima gradient descent finds per random target,
    under the Euclidean and the derivative-weighted coefficient metrics.

    Only converged runs count, so 0 distinct minima means that no run for
    that target converged within ``config.max_steps``.
    """
    if n_targets < 1 or n_inits < 1:
        raise ValueError("need at least one target and one initialization")
    table = DistinctTable(arch)
    jobs = [(arch, seed, i, n_inits, config) for i in range(n_targets)]
    for counts in _fan_out(_distinct_worker, jobs, workers, chunksize=4):
        for metric, n in counts.items():
            table.add(metric, n)
    return table
