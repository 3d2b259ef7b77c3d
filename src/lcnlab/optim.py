"""Quadratic losses on filter space, their gradients through the layers, and
gradient-descent experiment drivers.

A square regression loss on the network's input/output matrices collapses to
a quadratic form on the end-to-end filter: the data covariance folds along
the filter's sliding placements (``tau``).  Training operates directly on
the layer filters; the gradient of a layer is the cross-correlation of the
loss gradient with the product of the other (upsampled) layers, read at the
layer's span, for any strides.  One kernel per architecture computes it:
``_descent_kernel`` writes the gradient and the whole descent loop once as
straight-line Python on float locals, with numpy's bits.
``loss_and_gradient`` and gradient descent both run it, and descent
evaluates ``obj.value`` once per run.  Each step calls ``obj.grad`` once,
except on a diagonal matrix (the Euclidean and Bombieri metrics), whose
kernel writes the loss gradient out with the same bits.

The experiment drivers reproduce two studies: the distribution of root
patterns reached by gradient descent from random data, and the number of
distinct minima under the Euclidean versus the derivative-weighted
(Bombieri) metric.  Each driver, and the CLI's case study, draws its
``gd_train`` arguments lazily in the parent from per-job generators
(``_seeded``) and reads what it needs from the runs that ``_train_all``
yields in job order, in-process or from one process pool.
"""

from __future__ import annotations

import functools
import itertools
import math
import multiprocessing
import operator
import textwrap
from dataclasses import dataclass, field

import numpy as np

from .poly_core import (Architecture, _checked_filters, _compile, _complements, _Emitter,
                        _integer, _list_source, _placements, _require_tol, _same_filter,
                        _sum_source, as_filter, end_to_end, network_matrices)
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
        # _diagonal, for gd_train: the diagonal as a float list when every off-diagonal
        # entry is zero, else None.  Set here, not cached on first read: a write into
        # the instance's __dict__ after construction slows every attribute read of grad
        d = M.diagonal()
        diagonal = d.tolist() if np.array_equal(M, np.diag(d)) else None
        object.__setattr__(self, "_diagonal", diagonal)

    @property
    def k(self) -> int:
        return len(self.target)

    def value(self, w) -> float:
        """The loss at ``w``; ValueError unless ``w`` has the target's size."""
        w = as_filter(w)
        if len(w) != self.k:
            raise self._size_error(w)
        r = w - self.target
        return float(r @ self.matrix @ r) + self.const

    def grad(self, w) -> np.ndarray:
        """The gradient at ``w``; ValueError unless ``w`` has the target's size."""
        # grad runs once per Newton probe and descent step: ndarray.dot reaches the BLAS
        # kernel of @ without its dispatch and gives its bits, except on one entry, where
        # @ sums 0.0 + m*r (a -0.0 product gives 0.0) and .dot does not; g + g is 2.0*g
        # bit for bit, without numpy's conversion of the Python scalar.  A w of another
        # size fails the subtraction or the product, or has one entry and a target that
        # has more, which would broadcast
        w = as_filter(w)
        if len(w) == 1:
            if self.k != 1:
                raise self._size_error(w)
            g = self.matrix @ (w - self.target)
        else:
            try:
                g = self.matrix.dot(w - self.target)
            except ValueError:
                raise self._size_error(w) from None
        g += g
        return g

    def _size_error(self, w) -> ValueError:
        return ValueError(f"filter of size {len(w)} does not match the objective's size {self.k}")

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
    every span_l-th entry.  Raises ValueError, before any ``obj.grad`` call,
    when ``theta`` or the objective's size does not match ``arch``.
    """
    gradients = _checked_kernel(theta, arch, obj)[1]
    w, grads = gradients([as_filter(t).tolist() for t in theta], obj.grad)
    return obj.value(np.array(w)), [np.array(g) for g in grads]


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
        max_steps = _integer("max_steps", self.max_steps)
        if max_steps < 0:
            raise ValueError(f"max_steps must be non-negative, got {max_steps}")
        object.__setattr__(self, "max_steps", max_steps)
        if not self.grad_sq_tol >= 0:
            raise ValueError(f"grad_sq_tol must be non-negative, got {self.grad_sq_tol}")
        if not self.diverge_loss > 0:
            raise ValueError(f"diverge_loss must be positive, got {self.diverge_loss}")


@dataclass
class TrainRun:
    """One ``gd_train`` run.  ``target_rrmp`` is the target's root pattern, classified
    on first read and then kept; ``target`` is the run's own copy of the target."""

    theta: list
    w: np.ndarray
    loss: float
    grad_sq: float
    steps: int
    converged: bool
    diverged: bool
    target: np.ndarray
    solution_rrmp: Rrmp = None
    init_rrmp: Rrmp = None

    @functools.cached_property
    def target_rrmp(self) -> Rrmp:
        return _classified(classify_rrmp, self.target)


def _classified(classify, coeffs):
    """``classify(coeffs)``, or None for zero or non-finite filters and roots
    the solver cannot certify."""
    try:
        return classify(coeffs)
    except (ValueError, RootFindingError):
        return None


def _sq_norm_source(grads) -> str:
    """Source of the squared norm of layer gradients given as lists of names, equal bit
    for bit to ``float(sum(np.sum(np.square(g)) for g in grads))``.  Below 8 entries
    numpy sums left to right, so the sum is written out; from 8 on it sums pairwise, so
    longer layers keep its reduction."""
    return _sum_source(f"float(_sum(_square({_list_source(g)})))" if len(g) >= 8
                       else f"({_sum_source(f'{x}*{x}' for x in g)})" for g in grads)


def _gradient_source(ks, strides, diagonal=False):
    """(lines, taps, w, g, grads): straight-line source of one gradient evaluation,
    with the layer taps, the end-to-end filter, the loss gradient at it and the layer
    gradients as lists of names.  The loss gradient is what ``grad`` returns (its one
    call, on a float list), or for a ``diagonal`` matrix m*(w - u) doubled by addition
    on the locals ``m{i}`` and ``u{i}``.  ``strides`` are those of every layer but the
    last; upsampled zeros stay literal 0.0 factors."""
    em = _Emitter()
    taps = [[f"t{l}_{j}" for j in range(k)] for l, k in enumerate(ks)]
    spans = list(itertools.accumulate((1,) + tuple(strides), operator.mul))
    fs = []
    for t, s in zip(taps, spans):
        f = ["0.0"] * ((len(t) - 1) * s + 1)
        f[::s] = t
        fs.append(f)
    w, comps = _complements(fs, em.mul)
    if diagonal:
        g = em.assign(f"m{i}*({x} - u{i})" for i, x in enumerate(w))
        g = em.assign(f"{x} + {x}" for x in g)
    else:
        g = em.unpack(f"grad({_list_source(w)}).tolist()", len(w))
    return em.lines, taps, w, g, [em.correlate(g, c, s) for c, s in zip(comps, spans)]


@functools.lru_cache(maxsize=256)
def _descent_kernel(ks: tuple, strides: tuple, diagonal: bool = False):
    """(descend, gradients) for the layer sizes ``ks`` and the strides of every layer but
    the last, which never enters the source, compiled once from straight-line source.

    ``descend(theta, target, const, metric, step, max_steps, tol, diverge)`` runs
    ``gd_train``'s loop on float-list layers and returns (theta, grad_sq, steps,
    converged, diverged); ``gradients(theta, grad)`` returns the end-to-end filter and
    the layer gradients as float lists.  ``metric`` is the objective's ``grad``, which
    each evaluation calls once.  The ``diagonal`` variant takes the diagonal of an
    objective whose off-diagonal entries are all zero as ``metric``, a float list, and
    writes out its loss gradient, which has ``grad``'s bits up to the sign of a zero:
    every read of it is a sum from 0.0 or a ``_correlate`` call, and neither passes a
    zero's sign on.  That variant has no ``gradients`` (None).  The source depends only
    on ``ks``, ``strides`` and ``diagonal``; ``metric`` comes in with every call.
    """
    lines, taps, w, g, grads = _gradient_source(ks, strides, diagonal)
    layers = _list_source(map(_list_source, taps))
    body = "\n".join(lines)
    update = "\n".join(f"{x} = {x} - step*{y}" for t, d in zip(taps, grads)
                       for x, y in zip(t, d))
    half = _sum_source(f"({x} - u{i})*{y}" for i, (x, y) in enumerate(zip(w, g)))
    source = f"""
def descend(theta, target, const, metric, step, max_steps, tol, diverge):
    {layers} = theta
    {_list_source(f"u{i}" for i in range(len(w)))} = target
    {_list_source(f"m{i}" for i in range(len(w))) if diagonal else "grad"} = metric
    grad_sq = _inf
    converged = diverged = False
    for steps in range(max_steps + 1):
{textwrap.indent(body, " " * 8)}
        loss = 0.5 * ({half}) + const
        if not _isfinite(loss) or loss > diverge:
            diverged = True
            break
        grad_sq = {_sq_norm_source(grads)}
        if grad_sq <= tol:
            converged = True
            break
        if steps == max_steps:
            break
{textwrap.indent(update, " " * 8)}
    return {layers}, grad_sq, steps, converged, diverged
"""
    if not diagonal:
        source += f"""

def gradients(theta, grad):
    {layers} = theta
{textwrap.indent(body, " " * 4)}
    return {_list_source(w)}, {_list_source(map(_list_source, grads))}
"""
    namespace = _compile(source, f"<descent kernel {ks} {strides}{' diagonal' * diagonal}>",
                         _isfinite=math.isfinite, _inf=math.inf, _sum=np.sum, _square=np.square)
    return namespace["descend"], namespace.get("gradients")


def _checked_kernel(theta, arch: Architecture, obj: QuadraticObjective, diagonal=False):
    """``_descent_kernel`` of ``arch`` and ``diagonal``, after raising ValueError when
    ``theta`` or the objective's size does not match ``arch``."""
    _checked_filters(theta, arch)
    if obj.k != arch.filter_size:
        raise ValueError(f"objective of size {obj.k} does not match filter size {arch.filter_size}")
    return _descent_kernel(arch.ks, arch.strides[:-1], diagonal)


def gd_train(obj: QuadraticObjective, arch: Architecture, theta0,
             config: TrainConfig = TrainConfig()) -> TrainRun:
    """Plain gradient descent on obj(end_to_end(theta)).

    Stops when the squared gradient norm drops below the tolerance; flags
    divergence when the loss explodes or turns non-finite.  The steps run in
    the architecture's compiled kernel (``_descent_kernel``) on float lists,
    with one ``obj.grad`` call each, or none when every off-diagonal entry of
    ``obj.matrix`` is zero (the Euclidean and Bombieri metrics): that kernel
    writes the loss gradient out, with the same answers.  The steps test the
    loss as (w - target).g / 2 + const; ``obj.value`` runs once, for the
    returned loss at the final filter.  The returned run carries the pooled
    root patterns of the initialization and the final layers and, classified
    on its first read, the root pattern of the target, all at ``ROOT_TOL``;
    each is None when its filter is zero or non-finite or its roots cannot be
    certified.
    Raises ValueError, before any step, when ``theta0`` or the objective's
    size does not match ``arch``.
    """
    theta = [as_filter(w) for w in theta0]
    diagonal = obj._diagonal
    descend = _checked_kernel(theta, arch, obj, diagonal is not None)[0]
    init_rrmp = _classified(classify_rrmp_pooled, theta)
    theta, grad_sq, steps, converged, diverged = descend(
        [w.tolist() for w in theta], obj.target.tolist(), obj.const,
        obj.grad if diagonal is None else diagonal, config.step, config.max_steps,
        config.grad_sq_tol, config.diverge_loss)
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
        target=obj.target.copy(),
        init_rrmp=init_rrmp,
        solution_rrmp=_classified(classify_rrmp_pooled, theta),
    )


# --- experiment drivers ------------------------------------------------------


def _seeded(seed, *key) -> np.random.Generator:
    """The generator of the job ``key`` under the master ``seed``: its own
    ``SeedSequence`` spawn key, so no job's draws depend on another's."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _train(job) -> TrainRun:
    return gd_train(*job)


def _train_all(jobs, workers):
    """``gd_train(*job)`` for each job, yielded in job order, so the runs do not
    depend on the worker count.  With more than one worker (None: the CPU count,
    at most 8) one pool runs them and is shut down once the runs are exhausted
    or the iterator is closed.  With one, each run looks up this module's
    ``gd_train`` as it starts, so a rebound ``gd_train`` sees every run."""
    if workers is None:
        workers = min(multiprocessing.cpu_count(), 8)
    if workers <= 1:
        yield from map(_train, jobs)
        return
    with multiprocessing.Pool(workers) as pool:
        yield from pool.imap(_train, jobs, chunksize=16)


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


def run_pattern_experiment(arch: Architecture, n_datasets: int = 1000,
                           seed: int = 0, config: TrainConfig = TrainConfig(),
                           workers: int = None, n_samples: int = 10) -> PatternTable:
    """Gradient descent on random regression data; classify what it reaches.

    Each dataset draws ``n_samples`` standard-normal input/output pairs with
    input size equal to the end-to-end filter size and scalar outputs,
    initializes all layers from a standard normal, and runs gradient descent
    to the gradient tolerance.  Non-converged runs are discarded (counted).
    Seeds are per-dataset, so results do not depend on worker scheduling.
    Counts that are not integers, and fewer samples than the filter size,
    which give a singular Gram matrix, raise ValueError.
    """
    if _integer("n_datasets", n_datasets) < 1:
        raise ValueError("need at least one dataset")
    if _integer("n_samples", n_samples) < arch.filter_size:
        raise ValueError(f"{n_samples} samples give a singular Gram matrix for filter "
                         f"size {arch.filter_size}; need at least {arch.filter_size}")

    def jobs():
        k = arch.filter_size
        for i in range(n_datasets):
            rng = _seeded(seed, i)
            X = rng.standard_normal((k, n_samples))
            Y = rng.standard_normal((1, n_samples))
            # reduced form ||w - u||^2_{XX^T}: same gradients as the data loss, but
            # zero at a perfect fit, which is what the loss column should report
            Sigma = X @ X.T
            u = np.linalg.solve(Sigma, X @ Y.T).ravel()
            yield QuadraticObjective(Sigma, u), arch, arch.random_theta(rng), config

    table = PatternTable(arch)
    for run in _train_all(jobs(), workers):
        if not run.converged:
            table.discard()
            continue
        labels = (r.label if r is not None else "?"
                  for r in (run.target_rrmp, run.init_rrmp, run.solution_rrmp))
        table.add(*labels, run.loss)
    return table


# --- distinct-minima experiment ----------------------------------------------


def count_distinct_filters(filters, tol: float = ROOT_TOL) -> int:
    """Number of distinct filters: each filter starts a new group unless it is
    the same as the first filter of an earlier group under the shared rule
    ``poly_core._same_filter`` at ``tol``.  Raises ValueError for a negative or
    non-finite ``tol``."""
    _require_tol(tol)
    reps = []
    for w in map(as_filter, filters):
        if not any(_same_filter(w, r, tol) for r in reps):
            reps.append(w)
    return len(reps)


@dataclass
class DistinctTable:
    """Distribution of the number of distinct minima per metric.  A target
    where no descent run converged is counted under 0."""

    arch: Architecture
    histogram: dict = field(default_factory=dict)  # metric -> {count: n_targets}

    def add(self, metric: str, n_distinct: int):
        h = self.histogram.setdefault(metric, {})
        h[n_distinct] = h.get(n_distinct, 0) + 1

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
    that target converged within ``config.max_steps``.  Counts that are not
    integers of at least one raise ValueError.
    """
    if _integer("n_targets", n_targets) < 1 or _integer("n_inits", n_inits) < 1:
        raise ValueError("need at least one target and one initialization")

    def jobs():
        for i in range(n_targets):
            rng = _seeded(seed, i)
            u = rng.standard_normal(arch.filter_size)
            for obj in (QuadraticObjective.euclidean(u), QuadraticObjective.bombieri(u)):
                for _ in range(n_inits):
                    yield obj, arch, arch.random_theta(rng), config

    table = DistinctTable(arch)
    # zip(*[it] * n) groups n consecutive runs, one target and metric each, until none is left
    runs = _train_all(jobs(), workers)
    for group, metric in zip(zip(*[runs] * n_inits), itertools.cycle(("euclidean", "bombieri"))):
        table.add(metric, count_distinct_filters(run.w for run in group if run.converged))
    return table
