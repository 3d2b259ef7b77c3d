"""Critical points of the quadratic loss restricted to multiple-root strata.

The closure of the function space of a deep linear convolutional network is a
union of multiple-root loci: sets of binary forms whose root multiplicities
refine a fixed partition.  Optimizing a quadratic loss over such a network
therefore leads to two complementary questions that this module answers
numerically:

* which points of a given stratum are critical for the loss restricted to
  that stratum (``crit_on_stratum``), and
* where gradient descent in filter coordinates can get stuck even though the
  function-space picture is benign (``find_spurious_minimum``).

On the rank-one stratum lambda = (d) the critical points are the real roots
of one binary form of degree 3d - 2, so they are found exactly; filter size 3,
the quadratic cone, is ``cone_critical_points``.  ``crit_on_stratum`` keeps
its Newton search on every stratum, this one included.

Each Newton probe takes the optimal scale, the point and the Jacobian from one
factor pass, which runs as straight-line float code that ``_probe_kernel``
compiles once per real type, with numpy's bits.  Each evaluation of the shape
gradient is one call of the probe that the kernel binds to the objective once,
which ends in the objective's ``grad`` and the product with the Jacobian; for
the identity matrix, the Euclidean distance, the scale's denominator takes one
product fewer.  The Newton iterates and the central differences are float lists
too; numpy keeps only the BLAS products, the Jacobian arrays and the linear
solves, and the fused products and solves call its C loops without their Python
wrappers (``poly_core._compile`` and ``poly_core._solve``).  Both Jacobians,
the probe's and ``_fd_jacobian``'s, are built from one row-major flat list and
reshaped, so each is a C-ordered float64 array and ``jac.T.dot(g)`` keeps one
BLAS layout.

Both routes hand their points to ``_finish``, the one rule that types them and
builds the report.  Newton's shape Hessian is the central-difference Jacobian
of its last step; ``_fd_jacobian`` is the only finite-difference routine here.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import textwrap
from typing import Callable, Sequence

import numpy as np

from .optim import QuadraticObjective, loss_and_gradient
from .poly_core import (Architecture, _compile, _complements, _Emitter, _integer,
                        _list_source, _nearest, _product, _real, _require_filter_size,
                        _require_no_interior_stride, _same_filter, _sized_filter, _solve,
                        as_filter, end_to_end, poly_mul)
from .rootlab import (ZERO_BAND, Rrmp, _cluster_rep, _homogeneous_residual, _partition,
                      classify_rrmp, cluster_roots, compatible_rrmps, find_roots,
                      real_type_splits)

# Acceptance thresholds for the Newton search.  _GRAD_TOL is relative to the
# gradient magnitude at the origin, _EIG_BAND to the Hessian spectral radius.
# _COLLAPSE_TOL decides when two chart roots have merged, i.e. the iterate
# slid off the open stratum onto a finer one; converged points separate their
# roots by orders of magnitude more than Newton's terminal wobble.
_GRAD_TOL = 1e-11
_EIG_BAND = 1e-6
_DEDUP_TOL = 1e-7
_COLLAPSE_TOL = 1e-4
# A Newton landing is the zero filter, which lies on no stratum, when its max-norm
# is at most this share of the target's.  At unit targets such landings sit about
# 1e-10 from zero, since Newton stops at _GRAD_TOL.
_ZERO_TOL = 1e-5
# A simple root of the rank-one critical form is real when its imaginary part
# is this small relative to its modulus.
_SIMPLE_REAL_TOL = 1e-9


# ---------------------------------------------------------------------------
# Stratum charts: sigma * prod (cos(phi) x + sin(phi) y)^m * prod (x^2+bxy+cy^2)^m
# ---------------------------------------------------------------------------


def _probe_source(rho: tuple[int, ...], gamma: tuple[int, ...]) -> str:
    """Source of ``bind(objective)`` for one real type, which returns the chart's
    ``probe(shape, landing=False)``: the factors from one cos and sin per real slot,
    the unit-scale product and the first-copy complements in ``_complements``'
    order, the optimal scale on arrays, the point in ``_product([[sigma]] + copies)``
    order and the Jacobian rows, all through ``poly_core._Emitter``, then the
    returns of ``_probe_kernel``."""
    em = _Emitter()
    n = len(rho)
    shape = [f"p{i}" for i in range(n + 2 * len(gamma))]
    slots = [(em.assign([f"_cos({phi})", f"_sin({phi})"]), m) for m, phi in zip(rho, shape)]
    slots += [(["1.0", b, c], m) for m, b, c in zip(gamma, shape[n::2], shape[n + 1::2])]
    copies = [f for f, m in slots for _ in range(m)]
    firsts = list(itertools.accumulate([0] + [m for _, m in slots[:-1]]))
    monic, comps = _complements(copies, em.mul, firsts)
    em.lines += [f"arr = _array({_list_source(monic)})",
                 "sigma = float(arr.dot(mu)) / float(arr.dot(arr) if identity"
                 " else arr.dot(matrix).dot(arr))"]
    point = _product([["sigma"]] + copies, em.mul)
    cols = [monic]
    for (f, m), first in zip(slots, firsts):
        scale = "sigma" if m == 1 else em.assign([f"sigma*{m}"])[0]
        dfacs = ([em.assign([f"-{f[1]}"]) + f[:1]] if len(f) == 2
                 else [["0.0", "1.0", "0.0"], ["0.0", "0.0", "1.0"]])
        cols += [em.assign([f"{scale}*{x}" for x in em.mul(comps[first], d)]) for d in dfacs]
    flat = _list_source(x for row in zip(*cols) for x in row)
    body = textwrap.indent("\n".join(em.lines), " " * 8)
    return f"""
def bind(objective):
    matrix, mu, grad = objective.matrix, objective.matrix @ objective.target, objective.grad
    identity = objective._diagonal is not None and all(x == 1.0 for x in objective._diagonal)

    def probe(shape, landing=False):
        {_list_source(shape)} = shape
{body}
        point = _array({_list_source(point)})
        jac = _array({flat}).reshape({len(point)}, {len(cols)})
        if landing:
            return sigma, point, jac
        return jac.T.dot(grad(point)).tolist()[1:]
    return probe
"""


@functools.lru_cache(maxsize=256)
def _probe_kernel(rho: tuple[int, ...], gamma: tuple[int, ...]):
    """``bind(objective)`` for the chart of one real type, compiled once from
    ``_probe_source``, which depends only on ``rho`` and ``gamma``.

    ``bind`` reads the objective's matrix M, mu = M u, whether M is the identity
    and its ``grad`` once, and returns ``probe(shape, landing=False)``.  On a
    float-list shape the probe returns the shape gradient
    ``jacobian.T.dot(grad(point)).tolist()[1:]`` at the loss-optimal scale, or,
    for a landing, (sigma, point, jacobian).  The loss is quadratic in the scale,
    so along the ray of the unit-scale point ``monic`` it is least at
    sigma = monic.mu / monic.M.monic; for the identity M, monic.M.monic is
    monic.monic bit for bit, one product fewer.  The Jacobian's columns are
    d/d sigma = ``monic``, then sigma * m * comp * d(factor) per slot, with comp
    the product without the slot's first copy; ``monic`` and the comps come from
    one factor pass.  Its entries are written as one row-major flat list and
    reshaped to a C-ordered (k, 1 + len(shape)) array.
    """
    return _compile(_probe_source(rho, gamma), f"<probe kernel {rho} {gamma}>",
                    _cos=math.cos, _sin=math.sin, _array=np.array)["bind"]


def _is_interior(split: Rrmp, shape: list[float]) -> bool:
    """True when the roots of ``shape``, a float-list shape in the chart of ``split``
    (one angle per real root slot, then (b, c) per conjugate-pair slot), have that
    real type.

    Rejects reducible quadratic factors and coinciding roots -- both belong to
    smaller strata and would otherwise be double counted.  Root collisions are
    measured both projectively (by angle, so clusters at zero or infinity are
    caught) and by relative distance.  A collapsed scale is the caller's test,
    against the target.
    """
    n = len(split.rho)
    quadratics = list(zip(shape[n::2], shape[n + 1::2]))
    if any(b * b - 4.0 * c > -1e-8 * (1.0 + b * b + abs(c)) for b, c in quadratics):
        return False  # quadratic factor (nearly) reducible
    angles = [math.atan2(math.sin(phi), math.cos(phi)) % math.pi for phi in shape[:n]]
    for a1, a2 in itertools.combinations(angles, 2):
        delta = abs(a1 - a2)
        if min(delta, math.pi - delta) <= _COLLAPSE_TOL:
            return False
    pairs = [complex(-b / 2.0, math.sqrt(4.0 * c - b * b) / 2.0) for b, c in quadratics]
    return not any(abs(z1 - z2) <= _COLLAPSE_TOL * (1.0 + abs(z1) + abs(z2))
                   for z1, z2 in itertools.combinations(pairs, 2))


def _initial_params(split: Rrmp, rng: np.random.Generator, scale: float) -> np.ndarray:
    """A random start in the chart of ``split``: the scale sigma, then the shape."""
    params = [rng.standard_normal() * scale]
    params += [rng.uniform(0.0, math.pi) for _ in split.rho]
    for _ in split.gamma:
        re = rng.standard_normal()
        im = abs(rng.standard_normal()) + 0.05
        params += [-2.0 * re, re * re + im * im]
    return np.array(params)


# ---------------------------------------------------------------------------
# Critical point containers
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True, eq=False)
class CritPoint:
    """One critical point of the restricted loss, compared and hashed by identity,
    as its filter ``w`` is an array."""

    w: np.ndarray
    lam: tuple[int, ...]
    pattern: Rrmp
    loss: float
    grad_norm: float
    kind: str  # "MIN" | "MAX" | "SADDLE" | "DEGENERATE"

    def is_rational(self) -> bool:
        """Heuristic check that every coordinate is within relative 1e-9 of a
        rational with denominator at most 64."""
        from fractions import Fraction  # imports decimal; only reports need it
        for x in map(float, self.w):
            if abs(float(Fraction(x).limit_denominator(64)) - x) > 1e-9 * max(1.0, abs(x)):
                return False
        return True


@dataclasses.dataclass(frozen=True)
class StratumReport:
    lam: tuple[int, ...]
    points: tuple[CritPoint, ...]

    @property
    def n_real(self) -> int:
        return len(self.points)


# ---------------------------------------------------------------------------
# Newton search over one stratum
# ---------------------------------------------------------------------------


def _fd_jacobian(fun: Callable[[list], Sequence[float]], x: list[float]) -> np.ndarray:
    """Central-difference Jacobian of ``fun`` at the float list ``x``, column by
    column in float arithmetic, read out as one row-major flat list and reshaped to
    a C-ordered (len(fun(x)), len(x)) array."""
    cols = []
    for j, xj in enumerate(x):
        h = 1e-6 * (1.0 + abs(xj))
        d = 2.0 * h
        up, down = x.copy(), x.copy()
        up[j] = xj + h
        down[j] = xj - h
        cols.append([(a - b) / d for a, b in zip(fun(up), fun(down))])
    return np.array([v for row in zip(*cols) for v in row]).reshape(-1, len(x))


def _newton_on_gradient(
    fun: Callable[[list], Sequence[float]],
    x0: np.ndarray,
    *,
    scale: float,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Solve fun(x) = 0 by at most 80 damped Newton steps with a
    finite-difference Jacobian.  ``fun`` takes the iterate as a float list.

    Returns (x, jac): the root, or None when the iteration fails, and the
    Jacobian of the last step, or None when the start already meets the
    tolerance and no step was taken.  Norms are sqrt(v.v), the formula of
    ``np.linalg.norm``; the linear algebra alone runs in numpy, each step solved
    by ``poly_core._solve`` (``np.linalg.solve``'s bytes) or, on a singular
    Jacobian, by least squares.
    """
    x = np.array(x0, dtype=float).tolist()
    jac = None
    for steps in range(81):
        g = fun(x)
        if not all(map(math.isfinite, g)):
            return None, None
        g = np.array(g)
        if math.sqrt(g.dot(g)) <= _GRAD_TOL * scale:
            return np.array(x), jac
        if steps == 80:
            return None, None
        jac = _fd_jacobian(fun, x)
        try:
            step = _solve(jac, g)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jac, g, rcond=None)
        norm = math.sqrt(step.dot(step))
        if norm > 10.0:
            step *= 10.0 / norm
        x = [a - b for a, b in zip(x, step.tolist())]
        if not all(map(math.isfinite, x)):
            return None, None


def _inertia(eigs: np.ndarray) -> str:
    """MIN, MAX or SADDLE by the signs of Hessian eigenvalues, DEGENERATE when
    one is within _EIG_BAND times the spectral radius of zero.  A NaN
    eigenvalue gives SADDLE, never MIN."""
    band = _EIG_BAND * max(np.max(np.abs(eigs)), 1e-300)
    if np.any(np.abs(eigs) <= band):
        return "DEGENERATE"
    if np.all(eigs > 0):
        return "MIN"
    if np.all(eigs < 0):
        return "MAX"
    return "SADDLE"


def _finish(objective: QuadraticObjective, lam: tuple[int, ...], found) -> StratumReport:
    """The report of one stratum from its routes' points (w, pattern, grad_norm,
    shape_hessian), built in arrival order and sorted by loss, stably.  At a
    critical point the loss Hessian in (log sigma, shape) splits into the scale's
    curvature 2 w.M.w and the shape Hessian at the optimal scale, symmetrized: the
    inertia of the two is the kind, and a point without a shape Hessian is DEGENERATE.
    """
    points = []
    for w, pattern, grad_norm, hess in found:
        kind = "DEGENERATE" if hess is None else _inertia(np.concatenate((
            [2.0 * float(w @ objective.matrix @ w)], np.linalg.eigvalsh(0.5 * (hess + hess.T)))))
        points.append(CritPoint(w=w, lam=lam, pattern=pattern, loss=float(objective.value(w)),
                                grad_norm=grad_norm, kind=kind))
    points.sort(key=lambda p: p.loss)
    return StratumReport(lam=lam, points=tuple(points))


def crit_on_stratum(
    objective: QuadraticObjective,
    lam: Sequence[int],
    *,
    n_starts: int = 200,
    seed: int = 0,
) -> StratumReport:
    """Find real critical points of ``objective`` restricted to one stratum.

    Runs a seeded multi-start Newton search in the chart of every real type
    of the partition, keeps converged points that genuinely lie on the open
    stratum and deduplicates them by coefficient vectors within each real type.
    ``_finish`` types the survivors, with the Jacobian of Newton's last step at
    the loss-optimal scale as the shape Hessian.  Raises ValueError when
    ``lam`` is empty, has a part that is not a positive integer or does not
    sum to the filter degree, when ``n_starts`` is not an integer of at
    least one or ``seed`` not a non-negative integer, or when the objective's
    matrix is singular: its critical set is then not isolated, and each
    start's landing would count as a point.
    """
    k = objective.matrix.shape[0]
    if len(lam) == 0:
        raise ValueError("the partition is empty")
    lam = _partition(lam, k - 1)
    n_starts = _integer("n_starts", n_starts, 1)
    rng = np.random.default_rng(_integer("seed", seed, 0))
    rank = int(np.linalg.matrix_rank(objective.matrix))
    if rank < k:
        zero = " (the matrix is zero)" if rank == 0 else ""
        raise ValueError(f"the objective matrix has rank {rank} of {k}{zero}, so its "
                         "critical points on a stratum are not isolated")
    grad_scale = float(np.linalg.norm(objective.grad(np.zeros(k)))) + 1.0
    u_max = float(np.max(np.abs(objective.target)))

    found = []
    for split in real_type_splits(lam):
        # The loss is quadratic in the overall scale, so every critical point
        # carries the optimal scale for its root configuration.  Solving for
        # it in closed form removes the flat sigma = 0 manifold that would
        # otherwise swallow most Newton starts.
        probe = _probe_kernel(split.rho, split.gamma)(objective)

        kept = []  # deduplicate within this real type only
        for _ in range(n_starts):
            start = _initial_params(split, rng, 1.0)[1:]
            shape, hess = _newton_on_gradient(probe, start, scale=grad_scale)
            if shape is None:
                continue
            _, w, jac = probe(shape.tolist(), landing=True)
            # sigma = 0 is the zero filter, on no stratum.  Newton lands next to it
            # where w.M.u vanishes, so a landing that small against the target is dropped.
            if np.max(np.abs(w)) <= _ZERO_TOL * u_max or not _is_interior(split, shape.tolist()):
                continue
            if any(_same_filter(w, v, _DEDUP_TOL) for v in kept):
                continue
            kept.append(w)
            if hess is None:  # the start met the tolerance: Newton took no step
                hess = _fd_jacobian(probe, shape.tolist())
            found.append((w, split, float(np.linalg.norm(jac.T @ objective.grad(w))), hess))
    return _finish(objective, lam, found)


def critical_points_for_target(
    objective: QuadraticObjective,
    arch: Architecture,
    *,
    n_starts: int = 200,
    seed: int = 0,
) -> list[StratumReport]:
    """Search every non-trivial stratum whose patterns the architecture attains
    for the critical points of ``objective``, whose target is the one searched.

    Raises ValueError when the target does not have the architecture's filter
    size or the architecture keeps an interior stride.
    """
    _require_filter_size("target", objective.k, arch)
    return [crit_on_stratum(objective, lam, n_starts=n_starts, seed=seed)
            for lam in _attainable_strata(arch)]


def _attainable_strata(arch: Architecture) -> list[tuple[int, ...]]:
    """Multiplicity partitions of the filter degree, skipping the trivial
    all-ones one, with a real type the architecture can realize: those of
    its non-generic compatible patterns, in reverse lexicographic order.
    Raises ValueError when an interior stride remains.
    """
    _require_no_interior_stride(arch)
    return sorted({r.partition() for r in compatible_rrmps(arch) if not r.is_generic},
                  reverse=True)


def match_critical_point(
    w: np.ndarray, reports: Sequence[StratumReport], tol: float = 1e-4
) -> CritPoint | None:
    """The catalogued critical point nearest to ``w`` (max-norm, same size),
    when the two are the same filter under ``poly_core._same_filter`` at
    ``tol``; otherwise None.  Raises ValueError for a ``tol`` that is not
    finite and non-negative."""
    _real("tol", tol, "non-negative")
    w = as_filter(w)
    points = [p for report in reports for p in report.points]
    idx, _ = _nearest(w, [p.w for p in points])
    if idx is None or not _same_filter(w, points[idx].w, tol):
        return None
    return points[idx]


# ---------------------------------------------------------------------------
# Exact solver on the rank-one stratum; filter size 3 is the quadratic cone
# ---------------------------------------------------------------------------

_CONE_J = np.array([[0.0, 0.0, 1.0], [0.0, -0.5, 0.0], [1.0, 0.0, 0.0]])


def cone_lambda_polynomial(
    sigma: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Multiplier polynomial whose real roots give the cone critical points.

    For the quadratic cone (coefficient vectors of perfect squares, up to
    sign) a Lagrange multiplier argument shows every critical point of the
    data loss has the form ``w = v (Sigma - lam J)^{-1}`` where ``lam`` solves
    a degree-four polynomial: writing ``(A, B, C)`` for the components of
    ``v . adj(Sigma - lam J)``, the multiplier equation is the vanishing of
    ``B^2 - 4 A C``.  Returns ``(quartic, A, B, C)`` with all coefficient
    arrays highest degree first.  Raises ValueError unless ``v`` is a finite
    filter of size 3 and ``sigma`` a 3x3 matrix.
    """
    sigma = np.asarray(sigma, dtype=float)
    v = _sized_filter(np.ravel(v), 3, "cone solver")
    if sigma.shape != (3, 3):
        raise ValueError("the cone solver works on 3x3 Gram matrices")
    # entries of Sigma - lam*J as degree<=1 polynomials in lam
    entry = [[np.array([-_CONE_J[i][j], sigma[i][j]]) for j in range(3)] for i in range(3)]

    def minor(i: int, j: int) -> np.ndarray:
        rows = [r for r in range(3) if r != i]
        cols = [c for c in range(3) if c != j]
        a, b = entry[rows[0]][cols[0]], entry[rows[0]][cols[1]]
        c, d = entry[rows[1]][cols[0]], entry[rows[1]][cols[1]]
        return np.convolve(a, d) - np.convolve(b, c)

    # adjugate: adj[i][j] = (-1)^(i+j) * minor(j, i)
    adj = [[(-1) ** (i + j) * minor(j, i) for j in range(3)] for i in range(3)]
    comps = []
    for j in range(3):
        acc = np.zeros(3)
        for i in range(3):
            acc = acc + v[i] * adj[i][j]
        comps.append(acc)
    a_pol, b_pol, c_pol = comps
    quartic = np.convolve(b_pol, b_pol) - 4.0 * np.convolve(a_pol, c_pol)
    return quartic, a_pol, b_pol, c_pol


def _rank_one_points(objective: QuadraticObjective) -> list[CritPoint]:
    """Every real critical point of ``objective`` on the stratum lambda = (d),
    sorted by loss.

    A point is sigma * (a x + b y)^d.  With v its coefficient vector, N = v.Mu
    and D = v.Mv are binary forms in (a, b), the optimal scale is N / D, and
    the reduced loss const - N^2 / D is critical where N = 0 (the zero filter,
    not on the stratum) or where P = 2 N' D - N D' vanishes.  A zero target
    makes N vanish everywhere, so it has no point.  P has degree
    3d - 2 in t = b / a; a zero leading coefficient is the root at infinity,
    the point y^d.  Roots within ROOT_TOL of the real line are clustered;
    a cluster whose mean leaves P at rounding level is a repeated root, one
    DEGENERATE point, else each member real to _SIMPLE_REAL_TOL is a point,
    so real roots merge only for targets within about 1e-12 of the caustic.
    ``_finish`` types the points; the shape Hessian of a simple one is the
    reduced loss's -N P' / D^2, quadratic in the target and linear in the Gram
    matrix, in whichever chart, t or s = a / b, holds the root in [-1, 1].
    ``grad_norm`` is 0: the points are roots, not Newton iterates.
    """
    u = objective.target
    if not u.any():
        return []
    d = u.shape[0] - 1
    powers = np.arange(d + 1)
    binom = np.array([math.comb(d, j) for j in powers], dtype=float)
    # N(1, t) and D(1, t), highest power first; reversed, N(s, 1) and D(s, 1)
    n_t = (binom * (objective.matrix @ u))[::-1]
    d_t = np.bincount(np.add.outer(powers, powers).ravel(),
                      weights=(np.outer(binom, binom) * objective.matrix).ravel())[::-1]
    charts = ((n_t, d_t), (n_t[::-1], d_t[::-1]))
    # P per chart; the top terms of 2 N' D and N D' cancel, leaving degree 3d - 2
    forms = [(2.0 * poly_mul(np.polyder(num), den) - poly_mul(num, np.polyder(den)))[1:]
             for num, den in charts]

    found = []
    bound = ZERO_BAND * np.max(np.abs(forms[0]))
    for cluster in cluster_roots([r for r in find_roots(forms[0]) if r.is_real()]):
        rep = _cluster_rep(cluster)
        repeated = len(cluster) > 1 and _homogeneous_residual(forms[0].tolist(), rep) <= bound
        for root in [rep] if repeated else [r for r in cluster if r.is_real(_SIMPLE_REAL_TOL)]:
            flip = root.infinite or abs(root.value) > 1.0
            x = 0.0 if root.infinite else (1.0 / root.value.real if flip else root.value.real)
            num, den = charts[flip]
            n_x, d_x = np.polyval(num, x), np.polyval(den, x)
            if abs(n_x) <= 1e-12 * np.max(np.abs(num)):
                continue  # sigma = 0 up to rounding: a multiple root of N
            v = binom * x**powers
            w = n_x / d_x * (v[::-1] if flip else v)
            curvature = -n_x * np.polyval(np.polyder(forms[flip]), x) / d_x**2
            found.append((w, Rrmp(rho=(d,)), 0.0, None if repeated else np.array([[curvature]])))
    return list(_finish(objective, (d,), found).points)


def cone_critical_points(
    u: np.ndarray, sigma: np.ndarray | None = None
) -> list[CritPoint]:
    """All critical points of the loss on the quadratic cone, solved exactly.

    ``sigma`` is the Gram matrix of the data (identity for the plain
    Euclidean distance); ``u`` is the unconstrained optimum.  The cone is the
    rank-one stratum of size-3 filters: one point per real root of the
    quartic ``_rank_one_points`` solves, a repeated root once, as DEGENERATE.
    """
    u = _sized_filter(u, 3, "cone solver")
    return _rank_one_points(QuadraticObjective(np.eye(3) if sigma is None else sigma, u))


def caustic_value(u: np.ndarray) -> float:
    """Sign of the curve separating the 4- and 2-critical-point regimes.

    Negative inside the caustic (two minima and two saddles on the cone for
    an identity Gram matrix), positive outside.  Raises ValueError unless ``u``
    is a finite filter of size 3.
    """
    u1, u2, u3 = _sized_filter(u, 3, "cone solver")
    return float(
        32 * u1**6 + 435 * u1**4 * u2**2 + 384 * u1**2 * u2**4 + 256 * u2**6
        - 240 * u1**5 * u3 - 960 * u1**3 * u2**2 * u3 - 960 * u1 * u2**4 * u3
        + 696 * u1**4 * u3**2 + 1098 * u1**2 * u2**2 * u3**2 + 384 * u2**4 * u3**2
        - 980 * u1**3 * u3**3 - 960 * u1 * u2**2 * u3**3
        + 696 * u1**2 * u3**4 + 435 * u2**2 * u3**4 - 240 * u1 * u3**5 + 32 * u3**6
    )


def cone_region_counts(u: np.ndarray, sigma: np.ndarray | None = None) -> tuple[int, int]:
    """Count (minima, saddles) of the loss restricted to the quadratic cone."""
    points = cone_critical_points(u, sigma)
    n_min = sum(1 for p in points if p.kind == "MIN")
    n_saddle = sum(1 for p in points if p.kind == "SADDLE")
    return n_min, n_saddle


# ---------------------------------------------------------------------------
# Euclidean distance degrees
# ---------------------------------------------------------------------------

# Worked values for quartic binary forms (degree 4 strata); the hook-shaped
# partitions follow the closed forms below, (2, 2) does not.
_ED_GENERIC_22 = 13
_ED_SPECIAL_22 = 7


class _NoClosedForm(ValueError):
    """``ed_degree`` has no closed form for the partition."""


def ed_degree(lam: Sequence[int], degree: int, *, metric: str = "generic") -> int:
    """Euclidean distance degree of a multiple-root stratum.

    ``metric="generic"`` is a generic quadratic distance on coefficients;
    ``metric="special"`` the weighted distance under which products of linear
    forms behave like tensors.  Closed forms exist for hook partitions
    ``(alpha, 1, ..., 1)``; the ``(2, 2)`` values are included for quartics.
    Any other partition raises ``_NoClosedForm``, a ValueError; a part that
    is not a positive integer, or parts that do not sum to ``degree``, a plain
    one.
    """
    lam = _partition(lam, degree)
    if metric not in ("generic", "special"):
        raise ValueError("metric must be 'generic' or 'special'")
    if len(lam) == 0 or all(p == 1 for p in lam):
        return 1  # dense stratum: the target itself
    if all(p == 1 for p in lam[1:]):
        alpha = lam[0]
        if metric == "generic":
            return (2 * alpha - 1) * degree - 2 * (alpha - 1) ** 2
        return degree
    if lam == (2, 2) and degree == 4:
        return _ED_GENERIC_22 if metric == "generic" else _ED_SPECIAL_22
    raise _NoClosedForm(f"no closed form implemented for partition {lam}")


def ed_bound(arch: Architecture, *, metric: str = "generic") -> int:
    """Upper bound on critical points of a generic quadratic loss for ``arch``.

    One critical point comes from the dense stratum; each non-trivial
    multiplicity partition the architecture can realize contributes at most
    its ED degree.  Raises ValueError for an interior stride, and
    ``_NoClosedForm`` where ``ed_degree`` has no closed form.
    """
    degree = arch.filter_size - 1
    return 1 + sum(ed_degree(lam, degree, metric=metric) for lam in _attainable_strata(arch))


# ---------------------------------------------------------------------------
# Spurious minima in filter coordinates
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SpuriousMinimum:
    """A strict local minimum of the parameterized loss with non-zero loss."""

    theta: tuple[np.ndarray, ...]
    chart: np.ndarray  # free coordinates: first filter minus its pinned lead
    w: np.ndarray
    loss: float
    grad_norm: float
    hessian_eigs: np.ndarray

    @property
    def pattern(self) -> Rrmp:
        return classify_rrmp(self.w)


def find_spurious_minimum(
    u: np.ndarray,
    arch: Architecture | None = None,
    *,
    n_starts: int = 400,
    seed: int = 0,
) -> SpuriousMinimum:
    """Search filter space for a strict local minimum with non-zero loss.

    Works in the chart that pins the leading coordinate of the first filter
    to one (removing the rescaling symmetry of the parameterization), finds
    critical points of the end-to-end loss by multi-start Newton, and
    returns the lowest strict local minimum whose loss exceeds 1e-8.
    Raises ``ValueError`` when no such point is found --
    for many targets none exists -- when ``n_starts`` is not an integer of
    at least one, or ``seed`` not a non-negative integer.
    """
    u = as_filter(u)
    _integer("n_starts", n_starts, 1)
    rng = np.random.default_rng(_integer("seed", seed, 0))
    if arch is None:
        arch = Architecture(ks=(2, u.shape[0] - 1), strides=(1, 1))
    _require_filter_size("target", u.shape[0], arch)
    if arch.depth != 2 or not arch.is_stride_one:
        raise ValueError("the chart search supports two stride-one layers")
    k1, k2 = arch.ks
    objective = QuadraticObjective.euclidean(u)

    def theta_of(x: Sequence[float]) -> tuple[np.ndarray, Sequence[float]]:
        return np.concatenate(([1.0], x[: k1 - 1])), x[k1 - 1 :]

    def grad(x: Sequence[float]) -> np.ndarray:
        _, (g1, g2) = loss_and_gradient(theta_of(x), arch, objective)
        return np.concatenate((g1[1:], g2))  # drop the pinned entry

    def hessian_eigs(x: np.ndarray) -> np.ndarray:
        hess = _fd_jacobian(grad, x.tolist())
        return np.linalg.eigvalsh(0.5 * (hess + hess.T))

    scale = float(np.linalg.norm(u)) + 1.0
    candidates: list[SpuriousMinimum] = []
    for _ in range(n_starts):
        x0 = rng.standard_normal(k1 - 1 + k2) * scale
        x, _ = _newton_on_gradient(grad, x0, scale=scale)
        if x is None:
            continue
        theta = theta_of(x)
        w, _ = end_to_end(theta, arch)
        loss = objective.value(w)
        if loss <= 1e-8:
            continue
        eigs = hessian_eigs(x)
        if _inertia(eigs) != "MIN":
            continue
        if any(_same_filter(w, c.w, 1e-6) for c in candidates):
            continue
        candidates.append(
            SpuriousMinimum(
                theta=theta,
                chart=x,
                w=w,
                loss=loss,
                grad_norm=float(np.linalg.norm(grad(x))),
                hessian_eigs=eigs,
            )
        )
    if not candidates:
        raise ValueError("no strict positive-loss local minimum found")
    candidates.sort(key=lambda p: p.loss)
    return candidates[0]
