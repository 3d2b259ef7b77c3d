"""Acceptance suite: one test per external contract of the package.

Each test pins a single deliverable end to end — algebraic identities,
classifier equivalences, catalogued critical points, and the statistical
behaviour of the experiment drivers at desk scale — with explicit tolerances
and, where the contract includes one, a wall-clock budget.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from lcnlab.critlab import (
    caustic_value,
    cone_lambda_polynomial,
    cone_region_counts,
    crit_on_stratum,
    find_spurious_minimum,
)
from lcnlab.dynamics import integrate_flow, recover_scales, squared_norm_gaps
from lcnlab.funcspace import SpaceRegion, is_filling, region_of_rrmp
from lcnlab.optim import (
    QuadraticObjective,
    TrainConfig,
    loss_and_gradient,
    network_gradient,
    network_loss,
    run_distinct_experiment,
    run_pattern_experiment,
)
from lcnlab.poly_core import (
    Architecture,
    end_to_end,
    network_matrices,
    network_poly,
    pi,
    toeplitz_matrix,
)
from lcnlab.rootlab import (
    Rrmp,
    _discriminant_margin,
    all_rrmps,
    classify_rrmp,
    rrmp_classify_by_signs,
)


def _random_arch(rng, max_depth=4, max_k=5, max_stride=3):
    depth = int(rng.integers(1, max_depth + 1))
    ks = tuple(int(rng.integers(1, max_k + 1)) for _ in range(depth))
    strides = tuple(int(rng.integers(1, max_stride + 1)) for _ in range(depth))
    return Architecture(ks, strides)


def test_composition_is_multiplicative_and_matches_matrix_products():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    for _ in range(10_000):
        arch = _random_arch(rng)
        theta = arch.random_theta(rng)
        u, s_total = end_to_end(theta, arch)
        assert s_total == arch.stride
        # coefficient route: product of the stride-lifted layer forms
        p = network_poly(theta, arch)
        scale = max(1.0, float(np.max(np.abs(p))))
        assert np.max(np.abs(p - pi(u))) <= 1e-12 * scale
        # matrix route: stacked sliding-window matrices compose to the
        # sliding-window matrix of the composed filter
        d0 = arch.min_input_size(int(rng.integers(1, 3)))
        mats = network_matrices(theta, arch, d0)
        prod = mats[0]
        for m in mats[1:]:
            prod = m @ prod
        ref = toeplitz_matrix(u, d0, s_total)
        mscale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(prod - ref)) <= 1e-12 * mscale
    assert time.perf_counter() - start < 10.0


def test_root_pattern_classifier_agrees_with_sign_charts():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    for degree in (2, 3, 4):
        for _ in range(10_000):
            c = rng.standard_normal(degree + 1)
            if _discriminant_margin(c) <= 1e-6:
                continue  # inside the numerical boundary band
            assert rrmp_classify_by_signs(c) == classify_rrmp(c)
    assert time.perf_counter() - start < 30.0


# All stride-one non-filling architectures with end-to-end filter size 3..5,
# up to permutation of the layers: which root patterns the function space
# contains, which it misses, and which form its Euclidean boundary.
REGION_ROWS = [
    ((2, 2), {"11|0", "2|0"}, {"0|1"}, {"2|0"}),
    ((2, 2, 2), {"111|0", "12|0", "3|0"}, {"1|1"}, {"12|0", "3|0"}),
    ((3, 2, 2),
     {"1111|0", "112|0", "22|0", "13|0", "4|0", "11|1", "2|1"},
     {"0|2", "0|11"}, {"2|1", "22|0", "4|0"}),
    ((4, 2),
     {"1111|0", "112|0", "22|0", "13|0", "4|0", "11|1", "2|1"},
     {"0|2", "0|11"}, {"2|1", "22|0", "4|0"}),
    ((2, 2, 2, 2),
     {"1111|0", "112|0", "22|0", "13|0", "4|0"},
     {"11|1", "2|1", "0|2", "0|11"},
     {"112|0", "13|0", "22|0", "4|0"}),
]


def test_function_space_region_tables_reproduced_exactly():
    for ks, space, complement, boundary in REGION_ROWS:
        arch = Architecture(ks)
        assert boundary <= space and not (space & complement)
        labels = {r.label for r in all_rrmps(arch.filter_size - 1)}
        assert space | complement == labels, ks
        for label in space - boundary:
            assert region_of_rrmp(Rrmp.from_label(label), arch) == SpaceRegion.INTERIOR
        for label in boundary:
            assert region_of_rrmp(Rrmp.from_label(label), arch) == SpaceRegion.BOUNDARY
        for label in complement:
            assert region_of_rrmp(Rrmp.from_label(label), arch) == SpaceRegion.EXTERIOR


def _compositions(total):
    """All ordered tuples of parts >= 1 summing to exactly ``total``."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def test_filling_gate_matches_parity_rule_exhaustively():
    # stride one: the function space fills the ambient space exactly when at
    # most one filter has even size
    for degree in range(1, 9):
        for parts in _compositions(degree):
            arch = Architecture(tuple(p + 1 for p in parts))
            expected = arch.n_even <= 1
            assert is_filling(arch) == expected, arch.ks
    # size-one layers are inert
    assert is_filling(Architecture((3, 1, 3, 1)))
    assert not is_filling(Architecture((1, 2, 2)))
    # a strided counterexample: proper subvariety even with one even size
    assert not is_filling(Architecture((3, 2), (2, 1)))


def test_analytic_gradient_matches_central_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(100):
        arch = _random_arch(rng, max_stride=2)
        theta = arch.random_theta(rng)
        u = rng.standard_normal(arch.filter_size)
        obj = QuadraticObjective.euclidean(u)
        _, grads = loss_and_gradient(theta, arch, obj)
        analytic = np.concatenate(grads)
        fd = np.zeros_like(analytic)
        pos = 0
        for li, w in enumerate(theta):
            for j in range(len(w)):
                h = 1e-6 * (1.0 + abs(w[j]))
                for sign in (1.0, -1.0):
                    shifted = [x.copy() for x in theta]
                    shifted[li][j] += sign * h
                    fd[pos] += sign * network_loss(shifted, arch, obj) / (2 * h)
                pos += 1
        err = np.max(np.abs(analytic - fd))
        assert err <= 1e-5 * (1.0 + np.max(np.abs(fd)))


def test_flow_integration_conserves_layer_norm_gaps():
    rng = np.random.default_rng(3)
    for ks in [(2, 2), (2, 3), (3, 2, 2)]:
        arch = Architecture(ks)
        u = rng.standard_normal(arch.filter_size)
        obj = QuadraticObjective.euclidean(u)
        theta0 = arch.random_theta(rng)
        grad_fn = lambda th: network_gradient(th, arch, obj)
        theta = integrate_flow(theta0, grad_fn, step=1e-4, n_steps=10_000)
        norms0 = np.array([np.sum(w**2) for w in theta0])
        norms1 = np.array([np.sum(w**2) for w in theta])
        for i in range(len(ks)):
            for j in range(i + 1, len(ks)):
                delta0 = norms0[i] - norms0[j]
                delta1 = norms1[i] - norms1[j]
                assert abs(delta1 - delta0) <= 1e-6 * (1.0 + abs(delta0))


# Rational critical points of the squared distance from (2, 0, 5, 0, 2) to
# the multiple-root strata of quartics, together with the stratum ED degrees
# that cap how many real points a search may return.
STRATUM_CATALOGUE = [
    ((2, 1, 1), 10, [
        (0.0, 0.0, 5.0, 0.0, 2.0),
        (2.0, 0.0, 5.0, 0.0, 0.0),
        (1 / 5, 9 / 5, 16 / 5, 9 / 5, 1 / 5),
        (1 / 5, -9 / 5, 16 / 5, -9 / 5, 1 / 5),
    ]),
    ((2, 2), 13, [
        (7 / 3, 0.0, 14 / 3, 0.0, 7 / 3),
        (0.0, 0.0, 5.0, 0.0, 0.0),
        (-1.0, 0.0, 2.0, 0.0, -1.0),
    ]),
    ((4,), 10, [
        (0.0, 0.0, 0.0, 0.0, 2.0),
        (2.0, 0.0, 0.0, 0.0, 0.0),
        (17 / 35, 68 / 35, 102 / 35, 68 / 35, 17 / 35),
        (17 / 35, -68 / 35, 102 / 35, -68 / 35, 17 / 35),
    ]),
]


def test_stratum_search_recovers_rational_critical_points():
    obj = QuadraticObjective.euclidean([2.0, 0.0, 5.0, 0.0, 2.0])
    for lam, ed_cap, rationals in STRATUM_CATALOGUE:
        start = time.perf_counter()
        report = crit_on_stratum(obj, lam, n_starts=200, seed=0)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, (lam, elapsed)
        assert len(report.points) <= ed_cap
        found = [p.w for p in report.points]
        for target in rationals:
            dist = min(np.max(np.abs(w - np.array(target))) for w in found)
            assert dist <= 1e-6, (lam, target, dist)


def test_scale_recovery_matches_reference_and_round_trips():
    # catalogued fiber: factor directions of (2, 0, 5, 0, 0) with norm gap -177
    profiles = recover_scales([[2.0, 0.0, 5.0, 0.0], [1.0, 0.0]], [-177.0])
    assert len(profiles) == 1
    kappa = profiles[0].kappa_abs[1]
    assert abs(kappa - 0.4045867) <= 1e-6
    assert abs(kappa - math.sqrt((math.sqrt(31445.0) - 177.0) / 2.0)) <= 1e-12

    rng = np.random.default_rng(5)
    for _ in range(20):
        arch = _random_arch(rng, max_stride=1)
        theta = [w if np.linalg.norm(w) > 0.1 else w + 1.0
                 for w in arch.random_theta(rng)]
        gaps = squared_norm_gaps(theta)
        scales = rng.uniform(0.5, 2.0, size=arch.depth)
        scales[-1] = 1.0 / np.prod(scales[:-1])
        q_filters = [c * w for c, w in zip(scales, theta)]
        truth = np.array([np.sum(w**2) for w in theta])
        best = min(np.max(np.abs(p.beta - truth))
                   for p in recover_scales(q_filters, gaps))
        assert best <= 1e-8 * max(1.0, float(np.max(truth)))


def test_cone_multiplier_polynomial_and_landscape_regimes():
    rng = np.random.default_rng(6)
    # identity Gram: the quartic multiplier polynomial in closed form
    for _ in range(20):
        u1, u2, u3 = rng.standard_normal(3)
        quartic, _, _, _ = cone_lambda_polynomial(np.eye(3), np.array([u1, u2, u3]))
        expected = np.array([
            u2**2 - u1 * u3,
            -(u1**2) - 4 * u1 * u3 - u3**2,
            -4 * u1**2 - 2 * u2**2 - 5 * u1 * u3 - 4 * u3**2,
            -4 * u1**2 - 4 * u1 * u3 - 4 * u3**2,
            u2**2 - 4 * u1 * u3,
        ])
        assert np.max(np.abs(quartic - expected)) <= 1e-10 * np.max(np.abs(expected))
    # one sample target per landscape regime on the palindromic slice
    inside = np.array([0.5, 0.10, 0.5])
    between = np.array([0.5, 0.35, 0.5])
    outside = np.array([0.5, 0.60, 0.5])
    assert caustic_value(inside) < 0 < caustic_value(between)
    assert cone_region_counts(inside) == (2, 2)
    assert cone_region_counts(between) == (1, 1)
    assert cone_region_counts(outside) == (2, 0)
    # weighted Gram diag(1, 1/2, 1): (lam + 1)^2 always divides the quartic
    sigma = np.diag([1.0, 0.5, 1.0])
    for _ in range(10):
        u = rng.standard_normal(3)
        quartic, _, _, _ = cone_lambda_polynomial(sigma, sigma @ u)
        _, rem = np.polydiv(quartic, np.array([1.0, 2.0, 1.0]))
        assert np.max(np.abs(rem)) <= 1e-10


@pytest.mark.desk
def test_pattern_experiment_statistics_at_desk_scale():
    config = TrainConfig(step=0.01, max_steps=200_000, grad_sq_tol=1e-18)
    start = time.perf_counter()
    t22 = run_pattern_experiment(Architecture((2, 2)), n_datasets=1000,
                                 seed=0, config=config, workers=4)
    t222 = run_pattern_experiment(Architecture((2, 2, 2)), n_datasets=1000,
                                  seed=0, config=config, workers=4)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, elapsed

    # depth 2: targets without real roots always descend to a double root
    assert t22.solution_share("0|1", "2|0") == 1.0
    assert abs(t22.target_share("11|0") - 0.658) <= 0.05
    # depth 3: split of the no-real-cubic-factorization targets between the
    # two boundary components
    s12 = t222.solution_share("1|1", "12|0")
    s3 = t222.solution_share("1|1", "3|0")
    assert abs(s12 - 0.698) <= 0.07
    assert abs(s3 - 0.302) <= 0.07


@pytest.mark.desk
def test_distinct_minima_counts_by_coefficient_metric():
    table = run_distinct_experiment(Architecture((2, 2)), n_targets=100,
                                    n_inits=50, seed=0,
                                    config=TrainConfig(step=0.05),
                                    workers=4)
    assert table.histogram["bombieri"] == {1: 100}
    assert any(n >= 2 for n in table.histogram["euclidean"])
    assert table.mean("bombieri") <= table.mean("euclidean")


def _exact_chart_gradient_and_hessian(x, u):
    """Gradient and Hessian of |(1, a) * (b_0, ..., b_{k-1}) - u|^2 at x = (a, b).

    Works on ``Fraction`` entries, so both are exact: each entry w_i of the
    composed filter is bilinear in a and b, and its only second derivative
    is d^2 w_i / (da db_{i-1}) = 1.
    """
    a, b = x[0], x[1:]
    k, n = len(b), len(u)
    w = [(b[i] if i < k else 0) + (a * b[i - 1] if i >= 1 else 0) for i in range(n)]
    e = [wi - ui for wi, ui in zip(w, u)]
    jac = [[b[i - 1] if i >= 1 else 0]
           + [int(i == j) + (a if i == j + 1 else 0) for j in range(k)]
           for i in range(n)]
    grad = [2 * sum(jac[i][p] * e[i] for i in range(n)) for p in range(k + 1)]
    hess = [[2 * sum(jac[i][p] * jac[i][q] for i in range(n)) for q in range(k + 1)]
            for p in range(k + 1)]
    for j in range(k):
        hess[0][j + 1] += 2 * e[j + 1]
        hess[j + 1][0] += 2 * e[j + 1]
    return grad, hess


def _exact_solve(matrix, rhs):
    """Gauss-Jordan elimination in exact rational arithmetic."""
    n = len(rhs)
    rows = [list(row) + [v] for row, v in zip(matrix, rhs)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [v - f * p for v, p in zip(rows[r], rows[c])]
    return [rows[r][n] / rows[r][r] for r in range(n)]


def test_pinned_local_minimum_coordinates():
    # The published digits below are an external 13-digit report of this
    # minimum.  They are not a critical point of the loss: the chart gradient
    # there has norm 1.75e-7, and they lie 5.285e-8 from the true critical
    # point in the third coordinate.  They serve only as the start of three
    # Newton steps in exact rational arithmetic (each iterate rounded to the
    # grid 2^-200), whose exact gradient residual certifies the reference
    # point; the program is compared against that certified point.
    published = ("0.0578445483987", "1.0000187825172", "0.941829719725",
                 "0.0511336556138")
    target = [Fraction(v) for v in ("1", "1", "0.1", "0.1")]
    grid = 2**200
    x = [Fraction(v) for v in published]
    for _ in range(3):
        grad, hess = _exact_chart_gradient_and_hessian(x, target)
        step = _exact_solve(hess, grad)
        x = [Fraction(round((xi - si) * grid), grid) for xi, si in zip(x, step)]
    grad, _ = _exact_chart_gradient_and_hessian(x, target)
    residual = max(abs(g) for g in grad)
    assert residual < Fraction(1, 10**50), float(residual)
    # the refinement stayed on the published minimum
    assert max(abs(Fraction(p) - xi) for p, xi in zip(published, x)) < 1e-7
    reference = np.array([float(v) for v in x])

    sm = find_spurious_minimum([1.0, 1.0, 0.1, 0.1], Architecture((2, 3)),
                               n_starts=150, seed=0)
    assert np.min(sm.hessian_eigs) > 0
    assert sm.grad_norm <= 1e-10
    assert np.max(np.abs(sm.chart - reference)) <= 1e-8
