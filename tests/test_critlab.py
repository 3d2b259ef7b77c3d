import builtins
import dis
import itertools
import math
import textwrap
import types
from collections import Counter

import numpy as np
import pytest

from lcnlab import critlab
from lcnlab.critlab import (
    _EIG_BAND,
    CritPoint,
    StratumReport,
    _attainable_strata,
    _expand_stratum_point,
    _inertia,
    _rank_one_points,
    caustic_value,
    cone_critical_points,
    cone_lambda_polynomial,
    cone_region_counts,
    crit_on_stratum,
    critical_points_for_target,
    ed_bound,
    ed_degree,
    find_spurious_minimum,
    match_critical_point,
    real_type_splits,
)
from lcnlab.funcspace import factor_into
from lcnlab.optim import (QuadraticObjective, _descent_kernel, _gradient_source,
                          count_distinct_filters, loss_and_gradient)
from lcnlab.poly_core import (Architecture, _compile, _complements, _Emitter, _list_source,
                              _nearest, _product, _same_filter, end_to_end)
from lcnlab.rootlab import (INFINITY, ProjRoot, Rrmp, _partitions, all_rrmps, classify_rrmp_pooled,
                            is_compatible)

from test_poly_core import random_arch

# The palindromic quartic target used throughout: every stratum of its loss
# has known critical points, several of them rational.
U_STAR = np.array([2.0, 0.0, 5.0, 0.0, 2.0])


def test_real_type_splits():
    assert [s.label for s in real_type_splits((2, 1, 1))] == ["112|0", "2|1"]
    assert [s.label for s in real_type_splits((2, 2))] == ["22|0", "0|2"]
    assert [s.label for s in real_type_splits((4,))] == ["4|0"]
    assert [s.label for s in real_type_splits((1, 1, 1, 1))] == ["1111|0", "11|1", "0|11"]
    with pytest.raises(ValueError):
        real_type_splits((2, 0))


def test_chart_jacobian_matches_finite_differences():
    rng = np.random.default_rng(5)
    for chart in (Rrmp(rho=(2, 1), gamma=(1,)), Rrmp(rho=(), gamma=(1,)),
                  Rrmp(rho=(3, 1), gamma=()), Rrmp(rho=(2, 2), gamma=()),
                  Rrmp(rho=(4,), gamma=())):
        k = 1 + sum(chart.rho) + 2 * sum(chart.gamma)
        objective = QuadraticObjective.euclidean(np.ones(k))  # only the scale reads it
        for _ in range(10):
            params = critlab._initial_params(chart, rng, 2.0)
            J = _array_chart(chart, params, objective)[1]
            h = 1e-7
            for p in range(len(params)):
                bumped = params.copy()
                bumped[p] += h
                up = _array_chart(chart, bumped, objective)[0]
                bumped[p] -= 2 * h
                dn = _array_chart(chart, bumped, objective)[0]
                assert np.allclose(J[:, p], (up - dn) / (2 * h), atol=1e-5)


def _convolve_all(fs):
    """np.convolve left to right, accumulated operand first; [1] for no filter."""
    acc = np.array([1.0]) if not fs else fs[0]
    for f in fs[1:]:
        acc = np.convolve(acc, f)
    return acc


def _array_chart(chart, params, objective):
    """A chart's point, Jacobian and optimal scale composed on arrays with
    np.convolve and np.column_stack, independently of the compiled probe."""
    sigma, shape = float(params[0]), params[1:]
    n = len(chart.rho)
    slots = [(np.array([math.cos(phi), math.sin(phi)]), m) for m, phi in zip(chart.rho, shape)]
    slots += [(np.array([1.0, b, c]), m)
              for m, b, c in zip(chart.gamma, shape[n::2], shape[n + 1::2])]
    copies = [f for f, m in slots for _ in range(m)]
    point = _convolve_all([np.array([sigma])] + copies)
    cols, first = [_convolve_all(copies)], 0
    for f, m in slots:
        comp = _convolve_all(copies[:first] + copies[first + 1:])
        first += m
        dfacs = ([np.array([-f[1], f[0]])] if len(f) == 2
                 else [np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])])
        cols += [sigma * m * np.convolve(comp, d) for d in dfacs]
    jac = np.column_stack(cols)
    monic = _convolve_all([np.array([1.0])] + copies)
    scale = float(monic @ (objective.matrix @ objective.target)) / float(
        monic @ objective.matrix @ monic)
    return point, jac, scale


def test_chart_probe_matches_the_array_composition_bit_for_bit():
    rng = np.random.default_rng(8)
    charts = [Rrmp(rho=(2, 1), gamma=(1,)), Rrmp(rho=(), gamma=(1,)),
              Rrmp(rho=(3, 1), gamma=()), Rrmp(rho=(2, 2), gamma=()),
              Rrmp(rho=(4,), gamma=())]
    charts += [s for lam in ((2, 1, 1), (2, 2), (3, 1), (4,)) for s in real_type_splits(lam)]
    assert {"2|1", "0|2"} <= {c.label for c in charts}
    for chart in charts:
        k = 1 + sum(chart.rho) + 2 * sum(chart.gamma)
        bind = critlab._probe_kernel(chart.rho, chart.gamma)
        gram = rng.standard_normal((k, k))
        for objective in (QuadraticObjective.euclidean(rng.standard_normal(k)),
                          QuadraticObjective(gram @ gram.T + np.eye(k), rng.standard_normal(k))):
            probe = bind(objective)
            draws = [critlab._initial_params(chart, rng, 2.0) for _ in range(6)]
            for j in range(1, len(draws[0])):  # a -0.0 angle, b or c in each slot
                draws.append(draws[0].copy())
                draws[-1][j] = -0.0
            for params in draws:
                scale = _array_chart(chart, params, objective)[2]
                # the probe: optimal scale, point, Jacobian and J^T g in one pass
                sigma, w, jac_w = probe(params[1:].tolist(), landing=True)
                at_scale = np.concatenate(([scale], params[1:]))
                point, jac, _ = _array_chart(chart, at_scale, objective)
                assert sigma.hex() == scale.hex()
                assert w.tobytes() == point.tobytes()
                assert jac_w.strides == jac.strides and jac_w.tobytes() == jac.tobytes()
                assert ((jac_w.T @ objective.grad(w)).tobytes()
                        == (jac.T @ objective.grad(point)).tobytes())


def _same_up_to_nan_signs(got, ref):
    """NaN at the same entries and equal bytes everywhere else."""
    nan = np.isnan(ref)
    return (got.shape == ref.shape and got.strides == ref.strides
            and np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == ref[~nan].tobytes())


def test_probe_kernel_matches_the_array_composition_at_the_edges():
    # a NaN's sign bit may differ, as in the float-list helpers: such a probe reaches no
    # answer, since _newton_on_gradient drops a non-finite gradient
    rng = np.random.default_rng(41)
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 5e-324, 1e-310]
    seen = Counter()
    with np.errstate(all="ignore"):
        for lam in (lam for degree in range(2, 7) for lam in _partitions(degree)):
            for chart in real_type_splits(lam):
                k = 1 + sum(lam)
                objective = QuadraticObjective.euclidean(rng.standard_normal(k))
                probe = critlab._probe_kernel(chart.rho, chart.gamma)(objective)
                for _ in range(12):
                    params = critlab._initial_params(chart, rng, 2.0)
                    hit = rng.random(len(params)) < 0.3
                    params[hit] = rng.choice(edges, size=int(np.sum(hit)))
                    try:
                        scale = _array_chart(chart, params, objective)[2]
                    except ValueError as exc:  # the cos and sin of an infinite angle
                        with pytest.raises(type(exc)):
                            probe(params[1:].tolist(), landing=True)
                        seen[type(exc).__name__] += 1
                        continue
                    sigma, w, jac = probe(params[1:].tolist(), landing=True)
                    point, ref_jac, _ = _array_chart(
                        chart, np.concatenate(([scale], params[1:])), objective)
                    assert sigma.hex() == scale.hex() or math.isnan(sigma) and math.isnan(scale)
                    assert _same_up_to_nan_signs(w, point)
                    assert _same_up_to_nan_signs(jac, ref_jac)
                    seen["finite" if np.all(np.isfinite(jac)) else "non-finite"] += 1
    assert set(seen) == {"finite", "non-finite", "ValueError"}


def _same_floats(got, ref):
    """Equal float lists, a NaN's sign aside."""
    return len(got) == len(ref) and all(
        a.hex() == b.hex() or math.isnan(a) and math.isnan(b) for a, b in zip(got, ref))


def test_the_kernel_returns_the_shape_gradient_of_its_tuple_bit_for_bit():
    # crit_on_stratum's shape gradient is one call of the bound probe; bound to the
    # Euclidean matrix, its scale takes monic.monic for monic.I.monic
    rng = np.random.default_rng(47)
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 5e-324, 1e-310]
    seen = Counter()
    with np.errstate(all="ignore"):
        for lam in (lam for degree in range(2, 7) for lam in _partitions(degree)):
            for chart in real_type_splits(lam):
                bind = critlab._probe_kernel(chart.rho, chart.gamma)
                k = 1 + sum(lam)
                gram = rng.standard_normal((k, k))
                for objective in (QuadraticObjective.euclidean(rng.standard_normal(k)),
                                  QuadraticObjective(gram @ gram.T + np.eye(k),
                                                     rng.standard_normal(k))):
                    probe = bind(objective)
                    draws = [critlab._initial_params(chart, rng, 2.0) for _ in range(6)]
                    for j in range(1, len(draws[0])):  # a -0.0 angle, b or c in each slot
                        draws.append(draws[0].copy())
                        draws[-1][j] = -0.0
                    for _ in range(6):
                        draws.append(critlab._initial_params(chart, rng, 2.0))
                        hit = rng.random(len(draws[-1])) < 0.3
                        draws[-1][hit] = rng.choice(edges, size=int(np.sum(hit)))
                    for params in draws:
                        shape = params[1:].tolist()
                        try:
                            _, w, jac = probe(shape, landing=True)
                        except ValueError:  # the cos and sin of an infinite angle
                            with pytest.raises(ValueError):
                                probe(shape)
                            seen["ValueError"] += 1
                            continue
                        ref = jac.T.dot(objective.grad(w)).tolist()[1:]
                        got = probe(shape)
                        if all(map(math.isfinite, ref)):
                            assert list(map(float.hex, got)) == list(map(float.hex, ref))
                            seen["finite"] += 1
                        else:
                            assert _same_floats(got, ref)
                            seen["non-finite"] += 1
    assert set(seen) == {"finite", "non-finite", "ValueError"} and seen["finite"] > 500


def test_crit_on_stratum_rejects_a_zero_matrix_before_any_start(monkeypatch):
    def no_kernel(rho, gamma):
        pytest.fail("a probe kernel was built for a zero matrix")

    monkeypatch.setattr(critlab, "_probe_kernel", no_kernel)
    objective = QuadraticObjective(np.zeros((5, 5)), [2.0, 0.0, 5.0, 0.0, 2.0])
    with pytest.raises(ValueError, match="matrix is zero"):
        crit_on_stratum(objective, (2, 2), n_starts=3)


@pytest.mark.parametrize("matrix", [np.diag([0.0, 0.0, 0.0, 0.0, 1.0]),
                                    np.diag([1.0, 0.0, 0.0, 0.0, 0.0]),
                                    np.outer([1.0, -1.0, 1.0, -1.0, 1.0], [1.0, -1.0, 1.0, -1.0, 1.0])],
                         ids=["last", "first", "alternating"])
def test_crit_on_stratum_rejects_a_singular_matrix_before_any_start(matrix, monkeypatch):
    # the critical set is not isolated, and 20 starts gave up to 40 points on a stratum
    def no_kernel(rho, gamma):
        pytest.fail("a probe kernel was built for a singular matrix")

    monkeypatch.setattr(critlab, "_probe_kernel", no_kernel)
    objective = QuadraticObjective(matrix, [2.0, 0.0, 5.0, 0.0, 2.0])
    for lam in ((2, 1, 1), (2, 2), (3, 1), (4,)):
        with pytest.raises(ValueError, match="matrix has rank 1 of 5, so its critical points"):
            crit_on_stratum(objective, lam, n_starts=20)


def test_one_probe_kernel_per_real_type():
    critlab._probe_kernel.cache_clear()
    for objective in (QuadraticObjective.euclidean(U_STAR), QuadraticObjective.bombieri(U_STAR)):
        crit_on_stratum(objective, (2, 2), n_starts=3, seed=1)
    info = critlab._probe_kernel.cache_info()
    assert info.misses == 2 and info.hits > 0  # the real types 22|0 and 0|2
    kernel = critlab._probe_kernel((2, 2), ())
    assert critlab._probe_kernel((), (2,)) is not kernel
    crit_on_stratum(QuadraticObjective.euclidean(U_STAR), (3, 1), n_starts=3, seed=1)
    assert critlab._probe_kernel.cache_info().misses == 3
    assert critlab._probe_kernel((2, 2), ()) is kernel


def test_crit_on_stratum_evaluates_one_gradient_per_newton_probe(monkeypatch):
    calls = {"grad": 0, "probe": 0}
    grad = QuadraticObjective.grad

    def counted_grad(self, w):
        calls["grad"] += 1
        return grad(self, w)

    newton = critlab._newton_on_gradient

    def counted_newton(fun, x0, **kwargs):
        def probe(x):
            calls["probe"] += 1
            return fun(x)
        return newton(probe, x0, **kwargs)

    monkeypatch.setattr(QuadraticObjective, "grad", counted_grad)
    monkeypatch.setattr(critlab, "_newton_on_gradient", counted_newton)
    for objective in (QuadraticObjective.euclidean(U_STAR), QuadraticObjective.bombieri(U_STAR)):
        for lam in ((2, 1, 1), (2, 2), (3, 1), (4,)):
            calls.update(grad=0, probe=0)
            report = crit_on_stratum(objective, lam, n_starts=10, seed=3)
            assert calls["probe"] > 0
            # one more for the gradient scale at w = 0, and one per point for its grad_norm
            assert calls["grad"] == calls["probe"] + 1 + report.n_real


def test_newton_returns_the_jacobian_of_its_last_step(monkeypatch):
    jacobians = []
    fd_jacobian = critlab._fd_jacobian

    def recorded(fun, x):
        jacobians.append(fd_jacobian(fun, x))
        return jacobians[-1]

    monkeypatch.setattr(critlab, "_fd_jacobian", recorded)

    def fun(x):
        return np.array([x[0] ** 3 - 1.0, x[1] + x[0] * x[1] - 4.0, math.sinh(x[2])])

    x, jac = critlab._newton_on_gradient(fun, np.array([2.0, 1.0, 0.5]), scale=1.0)
    assert np.allclose(x, [1.0, 2.0, 0.0]) and len(jacobians) > 1
    assert jac is jacobians[-1]
    # a start that already meets the tolerance takes no step
    n_jacobians = len(jacobians)
    again, jac = critlab._newton_on_gradient(fun, x, scale=1.0)
    assert again.tobytes() == x.tobytes() and jac is None
    assert len(jacobians) == n_jacobians
    nan = critlab._newton_on_gradient(lambda x: np.full(3, np.nan), np.zeros(3), scale=1.0)
    assert nan == (None, None)


def test_crit_on_stratum_types_a_start_that_takes_no_step(monkeypatch):
    # every start of the chart 0|2 is the (2, 2) minimum 7/3 (x^2 + y^2)^2, b = 0 and
    # c = 1, where Newton meets its tolerance at once: the central-difference Jacobian
    # at the start is the shape Hessian, and the type matches that of a stepped search
    objective = QuadraticObjective.euclidean(U_STAR)
    minimum = 7 / 3 * np.array([1.0, 0.0, 2.0, 0.0, 1.0])
    (stepped,) = [p for p in crit_on_stratum(objective, (2, 2), n_starts=5).points
                  if _same_filter(p.w, minimum, 1e-9)]
    initial_params, newton, fd_jacobian = (critlab._initial_params, critlab._newton_on_gradient,
                                           critlab._fd_jacobian)
    landed, typed = [], []

    def at_the_minimum(split, rng, scale):
        params = initial_params(split, rng, scale)
        return np.array([params[0], 0.0, 1.0]) if split.gamma == (2,) else params

    def recorded_newton(fun, x0, **kwargs):
        x, jac = newton(fun, x0, **kwargs)
        if x is not None and jac is None:
            landed.append(x.tolist())
        return x, jac

    def recorded_fd_jacobian(fun, x):
        typed.append(x)
        return fd_jacobian(fun, x)

    monkeypatch.setattr(critlab, "_initial_params", at_the_minimum)
    monkeypatch.setattr(critlab, "_newton_on_gradient", recorded_newton)
    monkeypatch.setattr(critlab, "_fd_jacobian", recorded_fd_jacobian)
    report = crit_on_stratum(objective, (2, 2), n_starts=3)
    assert landed == [[0.0, 1.0]] * 3 and typed.count([0.0, 1.0]) == 1
    (point,) = [p for p in report.points if p.pattern.label == "0|2"]
    assert _same_filter(point.w, stepped.w, 1e-12)
    assert point.kind == stepped.kind == "MIN"


def _array_fd_jacobian(fun, x):
    """``_fd_jacobian`` as it was on arrays, before the float-list routine."""
    n = x.shape[0]
    jac = np.empty((n, n))
    for j in range(n):
        h = 1e-6 * (1.0 + abs(x[j]))
        xp = x.copy()
        xp[j] += h
        xm = x.copy()
        xm[j] -= h
        jac[:, j] = (fun(xp) - fun(xm)) / (2.0 * h)
    return jac


def _array_newton(fun, x0, *, scale):
    """``_newton_on_gradient`` as it was on arrays, before the float-list routine."""
    x = np.array(x0, dtype=float)
    jac = None
    for _ in range(80):
        g = fun(x)
        if not np.all(np.isfinite(g)):
            return None, None
        if np.linalg.norm(g) <= critlab._GRAD_TOL * scale:
            return x, jac
        jac = _array_fd_jacobian(fun, x)
        try:
            step = np.linalg.solve(jac, g)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jac, g, rcond=None)
        norm = np.linalg.norm(step)
        if norm > 10.0:
            step *= 10.0 / norm
        x = x - step
        if not np.all(np.isfinite(x)):
            return None, None
    g = fun(x)
    if np.all(np.isfinite(g)) and np.linalg.norm(g) <= critlab._GRAD_TOL * scale:
        return x, jac
    return None, None


def _same_array(got, ref):
    return (got is None and ref is None) or (
        got is not None and ref is not None and got.strides == ref.strides
        and got.tobytes() == ref.tobytes())


def _compare_newtons(by_list, by_array, starts, scale):
    """Run both Newton routines from each start, recording every point each one
    probes; assert equal bytes throughout and return the outcomes."""
    outcomes = Counter()
    for start in starts:
        probed = {"list": [], "array": []}

        def recorded(fun, key):
            def f(x):
                probed[key].append(np.array(x, dtype=float).tobytes())
                return fun(x)
            return f

        x, jac = critlab._newton_on_gradient(recorded(by_list, "list"), start, scale=scale)
        ref_x, ref_jac = _array_newton(recorded(by_array, "array"), start, scale=scale)
        assert probed["list"] == probed["array"]
        assert _same_array(x, ref_x) and _same_array(jac, ref_jac)
        if np.all(np.isfinite(start)):
            assert _same_array(critlab._fd_jacobian(by_list, start.tolist()),
                               _array_fd_jacobian(by_array, start))
        outcomes["failed" if x is None else "no step" if jac is None else "landed"] += 1
        if x is not None and jac is not None:
            again = _compare_newtons(by_list, by_array, [x], scale)  # meets the tolerance
            assert again == Counter({"no step": 1})
            outcomes += again
    return outcomes


def _solve_newton(fun, x0, *, scale):
    """``_newton_on_gradient`` as it was with ``np.linalg.solve``, before the solve
    went through ``poly_core._solve``."""
    x = np.array(x0, dtype=float).tolist()
    jac = None
    for steps in range(81):
        g = fun(x)
        if not all(map(math.isfinite, g)):
            return None, None
        g = np.array(g)
        if math.sqrt(g.dot(g)) <= critlab._GRAD_TOL * scale:
            return np.array(x), jac
        if steps == 80:
            return None, None
        jac = critlab._fd_jacobian(fun, x)
        try:
            step = np.linalg.solve(jac, g)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jac, g, rcond=None)
        norm = math.sqrt(step.dot(step))
        if norm > 10.0:
            step *= 10.0 / norm
        x = [a - b for a, b in zip(x, step.tolist())]
        if not all(map(math.isfinite, x)):
            return None, None


def test_newton_falls_back_to_least_squares_on_a_singular_jacobian(monkeypatch):
    fallbacks = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        fallbacks.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)

    def fun(x):
        # entries 0 and 2 are one expression, so every central-difference Jacobian
        # has two equal rows and its LU factorization meets an exact zero pivot
        r = x[0] ** 3 - 1.0 + x[2]
        return [r, math.sinh(x[1] - 0.5), r]

    for start in ([2.0, 1.0, 0.5], [0.3, -1.0, 2.0], [-1.5, 0.5, 0.0]):
        fallbacks.clear()
        x, jac = critlab._newton_on_gradient(fun, np.array(start), scale=1.0)
        steps = len(fallbacks)
        ref_x, ref_jac = _solve_newton(fun, np.array(start), scale=1.0)
        assert steps > 0 and len(fallbacks) == 2 * steps  # every step fell back
        assert x is not None and jac is not None
        assert _same_array(x, ref_x) and _same_array(jac, ref_jac)
        assert abs(fun(x.tolist())[0]) < 1e-10


def test_newton_on_float_lists_matches_the_array_routine_bit_for_bit():
    rng = np.random.default_rng(43)
    outcomes = Counter()
    for lam in (lam for degree in range(2, 6) for lam in _partitions(degree)):
        for chart in real_type_splits(lam):
            k = 1 + sum(lam)
            gram = rng.standard_normal((k, k))
            for objective in (QuadraticObjective.bombieri(rng.standard_normal(k)),
                              QuadraticObjective(gram @ gram.T + np.eye(k),
                                                 rng.standard_normal(k))):
                probe = critlab._probe_kernel(chart.rho, chart.gamma)(objective)

                def by_array(shape):
                    _, w, jac = probe(shape.tolist(), landing=True)
                    return (jac.T @ objective.grad(w))[1:]

                starts = [critlab._initial_params(chart, rng, 1.0)[1:] for _ in range(3)]
                starts.append(np.full(len(starts[0]), np.nan))
                scale = float(np.linalg.norm(objective.grad(np.zeros(k)))) + 1.0
                # probe is crit_on_stratum's shape gradient
                outcomes += _compare_newtons(probe, by_array, starts, scale)
    # find_spurious_minimum's gradient in its chart, the first filter's lead pinned to 1
    for u in ([1.0, 0.0, -0.3, 0.4], [2.0, -1.0, 0.5, 1.0], [0.3, 1.0, 1.0, 0.2, -0.5]):
        u = np.array(u)
        arch = Architecture(ks=(2, len(u) - 1))
        objective = QuadraticObjective.euclidean(u)

        def grad(x):
            _, (g1, g2) = loss_and_gradient((np.concatenate(([1.0], x[:1])), x[1:]), arch,
                                            objective)
            return np.concatenate((g1[1:], g2))

        scale = float(np.linalg.norm(u)) + 1.0
        starts = [rng.standard_normal(len(u)) * scale for _ in range(6)]
        outcomes += _compare_newtons(grad, grad, starts, scale)
    assert set(outcomes) == {"landed", "no step", "failed"} and min(outcomes.values()) > 50


def _nested_probe_source(rho, gamma):
    """``critlab._probe_source`` as it was when the Jacobian went to np.array as a
    nested list of rows."""
    em = _Emitter()
    n = len(rho)
    shape = [f"p{i}" for i in range(n + 2 * len(gamma))]
    slots = [(em.assign([f"_cos({phi})", f"_sin({phi})"]), m) for m, phi in zip(rho, shape)]
    slots += [(["1.0", b, c], m) for m, b, c in zip(gamma, shape[n::2], shape[n + 1::2])]
    copies = [f for f, m in slots for _ in range(m)]
    firsts = list(itertools.accumulate([0] + [m for _, m in slots[:-1]]))
    monic, comps = _complements(copies, em.mul, firsts)
    em.lines += [f"arr = _array({_list_source(monic)})",
                 "sigma = float(arr.dot(mu)) / float(arr.dot(matrix).dot(arr))"]
    point = _product([["sigma"]] + copies, em.mul)
    cols = [monic]
    for (f, m), first in zip(slots, firsts):
        scale = em.assign([f"sigma*{m}"])[0]
        dfacs = ([em.assign([f"-{f[1]}"]) + f[:1]] if len(f) == 2
                 else [["0.0", "1.0", "0.0"], ["0.0", "0.0", "1.0"]])
        cols += [[f"{scale}*{x}" for x in em.mul(comps[first], d)] for d in dfacs]
    rows = _list_source(map(_list_source, zip(*cols)))
    body = textwrap.indent("\n".join(em.lines), " " * 4)
    return f"""
def probe(shape, matrix, mu):
    {_list_source(shape)} = shape
{body}
    return sigma, _array({_list_source(point)}), _array({rows})
"""


def _nested_fd_jacobian(fun, x):
    """``critlab._fd_jacobian`` as it was when its rows went to np.array as a list of
    tuples."""
    cols = []
    for j, xj in enumerate(x):
        h = 1e-6 * (1.0 + abs(xj))
        up = fun(x[:j] + [xj + h] + x[j + 1:])
        down = fun(x[:j] + [xj - h] + x[j + 1:])
        cols.append([(a - b) / (2.0 * h) for a, b in zip(up, down)])
    return np.array(list(zip(*cols)))


def _same_c_layout(got, ref):
    return (got.dtype == ref.dtype == np.float64 and got.flags.c_contiguous
            and ref.flags.c_contiguous and got.shape == ref.shape
            and got.strides == ref.strides and got.tobytes() == ref.tobytes())


def test_flat_jacobians_keep_the_nested_list_layout_bit_for_bit():
    # both Jacobians are built from a row-major flat list and reshaped; they stay the
    # C-ordered float64 arrays the nested lists gave, so jac.T.dot(g) keeps its BLAS call
    rng = np.random.default_rng(67)
    checked = 0
    for lam in (lam for degree in range(2, 6) for lam in _partitions(degree)):
        for split in real_type_splits(lam):
            k = 1 + sum(lam)
            bind = critlab._probe_kernel(split.rho, split.gamma)
            nested = _compile(_nested_probe_source(split.rho, split.gamma),
                              f"<nested probe {split.label}>", _cos=math.cos, _sin=math.sin,
                              _array=np.array)["probe"]
            gram = rng.standard_normal((k, k))
            for objective in (QuadraticObjective.bombieri(rng.standard_normal(k)),
                              QuadraticObjective(gram @ gram.T + np.eye(k),
                                                 rng.standard_normal(k))):
                mu = objective.matrix @ objective.target
                probe = bind(objective)

                def shape_grad(shape, probe=probe):
                    _, w, jac = probe(shape, landing=True)
                    return jac.T.dot(objective.grad(w)).tolist()[1:]

                for _ in range(4):
                    shape = critlab._initial_params(split, rng, 1.0)[1:].tolist()
                    sigma, w, jac = probe(shape, landing=True)
                    ref_sigma, ref_w, ref_jac = nested(shape, objective.matrix, mu)
                    assert sigma.hex() == ref_sigma.hex() and w.tobytes() == ref_w.tobytes()
                    assert jac.shape == (k, 1 + len(shape)) and _same_c_layout(jac, ref_jac)
                    g = objective.grad(w)
                    assert jac.T.dot(g).tobytes() == ref_jac.T.dot(g).tobytes()
                    fd = critlab._fd_jacobian(shape_grad, shape)
                    ref_fd = _nested_fd_jacobian(shape_grad, shape)
                    assert fd.shape == (len(shape),) * 2 and _same_c_layout(fd, ref_fd)
                    v = np.array(shape_grad(shape))
                    assert fd.T.dot(v).tobytes() == ref_fd.T.dot(v).tobytes()
                    checked += 1
    assert checked == 8 * sum(len(real_type_splits(lam))
                              for degree in range(2, 6) for lam in _partitions(degree))


def test_crit_on_stratum_drops_landings_next_to_the_zero_filter():
    # on this Bombieri target Newton also lands within 1e-10 of the zero filter, where
    # w.M.u vanishes: no stratum holds the zero filter, and the test is free of scale
    u = np.array([0.6061457288054009, 0.5141360357068666, 0.1063379638618435])
    for c in (1.0, 0.1, 1e3):
        objective = QuadraticObjective.bombieri(c * u)
        exact = _rank_one_points(objective)
        report = crit_on_stratum(objective, (2,), n_starts=20)
        assert report.n_real > 0
        for p in report.points:
            assert np.max(np.abs(p.w)) > 1e-3 * c
            assert any(_same_filter(p.w, q.w, 1e-8) and p.kind == q.kind for q in exact)


def test_no_compiled_source_repeats_an_assigned_expression():
    # a slot of multiplicity m repeats its factor m times, so the prefix products and
    # the first complement share their leading products; each is written once
    def assigned(lines):
        return [line.split(" = ", 1)[1] for line in map(str.strip, lines)
                if line.startswith("v") and " = " in line]

    checked = 0
    for lam in (lam for degree in range(1, 7) for lam in _partitions(degree)):
        for split in real_type_splits(lam):
            exprs = assigned(critlab._probe_source(split.rho, split.gamma).splitlines())
            assert len(exprs) == len(set(exprs)), split.label
            checked += max(split.rho + split.gamma) > 1
    assert checked > 20
    rng = np.random.default_rng(29)
    for _ in range(200):
        arch = random_arch(rng, max_depth=4, max_k=6)
        exprs = assigned(_gradient_source(arch.ks, arch.strides[:-1])[0])
        assert len(exprs) == len(set(exprs)), arch


def _global_reads(fn) -> set:
    """Names that ``LOAD_GLOBAL`` reads in ``fn``'s code, nested code included."""
    codes, names = [fn.__code__], set()
    while codes:
        code = codes.pop()
        names |= {i.argval for i in dis.get_instructions(code) if i.opname == "LOAD_GLOBAL"}
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return names


def test_compiled_kernels_read_only_bound_globals():
    # every real type of degree 1-6 and strided layers of up to 14 taps reach the fused
    # products and the correlations of 12 or more taps that numpy's C loop computes
    kernels = [critlab._probe_kernel(split.rho, split.gamma)
               for lam in (lam for degree in range(1, 7) for lam in _partitions(degree))
               for split in real_type_splits(lam)]
    rng = np.random.default_rng(53)
    for _ in range(200):
        arch = random_arch(rng, max_depth=4, max_k=14, max_stride=3)
        kernels += _descent_kernel(arch.ks, arch.strides[:-1])
    read = set()
    for fn in kernels:
        names = _global_reads(fn)
        assert names <= set(fn.__globals__) | set(dir(builtins)), names - set(fn.__globals__)
        read |= names
    assert {"_correlate", "_cos", "_sin", "_array", "_isfinite", "_inf", "_sum",
            "_square"} <= read


def test_crit_on_stratum_types_the_caustic_landings_as_degenerate():
    # (2, 1, 2) lies on the caustic: (x + y)^2 is a degenerate critical point
    # of the cone, where Newton's landings scatter by about 1e-4
    report = crit_on_stratum(QuadraticObjective.euclidean(np.array([2.0, 1.0, 2.0])), (2,),
                             n_starts=200)
    near, far = [], []
    for p in report.points:
        (near if _same_filter(p.w, np.array([1.0, 2.0, 1.0]), 1e-3) else far).append(p)
    assert len(near) > 1 and all(p.kind == "DEGENERATE" for p in near)
    assert len(far) == 1 and np.allclose(far[0].w, [1 / 3, -2 / 3, 1 / 3], atol=1e-9)
    assert far[0].kind == "SADDLE"
    assert sorted(p.kind for p in cone_critical_points(np.array([2.0, 1.0, 2.0]))) == [
        "DEGENERATE", "SADDLE"]


@pytest.mark.parametrize("metric, row", [("euclidean", 0), ("bombieri", 1)])
def test_crit_on_stratum_kinds_do_not_depend_on_the_target_scale(metric, row):
    # scaling the target by c >= 1 scales every point by c; below 1 the
    # |grad(0)| + 1 convergence scale is not scale-free and Newton lands elsewhere
    matched = 0
    for u in np.random.default_rng(3).standard_normal((2, 4, 5))[row]:
        for lam in ((2, 1, 1), (2, 2), (3, 1), (4,)):
            base = crit_on_stratum(getattr(QuadraticObjective, metric)(u), lam, n_starts=20)
            scaled = crit_on_stratum(getattr(QuadraticObjective, metric)(100.0 * u), lam,
                                     n_starts=20)
            for p in scaled.points:
                for q in base.points:
                    if _same_filter(p.w / 100.0, q.w, 1e-6):
                        matched += 1
                        assert p.kind == q.kind, (u, lam, p.w)
    assert matched > 20


def test_expand_stratum_point_rebuilds_rational_critical_point():
    # (1/5)(x+y)^2 (x^2+7xy+y^2) has the double root -1 and two simple real
    # roots; its coefficient vector is one of the catalogued critical points.
    r1 = (-7.0 + np.sqrt(45.0)) / 2.0
    r2 = (-7.0 - np.sqrt(45.0)) / 2.0
    pattern = Rrmp(rho=(1, 1, 2), gamma=())
    w = _expand_stratum_point(
        pattern, [ProjRoot(complex(r1)), ProjRoot(complex(r2)), ProjRoot(complex(-1.0))], 0.2
    )
    assert np.allclose(w, [0.2, 1.8, 3.2, 1.8, 0.2], atol=1e-12)


def test_expand_stratum_point_with_infinite_root():
    w = _expand_stratum_point(Rrmp(rho=(2,), gamma=(1,)), [INFINITY, ProjRoot(1j * np.sqrt(0.4))], 5.0)
    assert np.allclose(w, [0.0, 0.0, 5.0, 0.0, 2.0], atol=1e-12)


def test_crit_on_stratum_double_plus_singles():
    report = crit_on_stratum(QuadraticObjective.euclidean(U_STAR), (2, 1, 1), seed=0)
    assert report.n_real == 4
    found = sorted(tuple(np.round(p.w, 9)) for p in report.points)
    expected = sorted(
        [
            (0.0, 0.0, 5.0, 0.0, 2.0),
            (2.0, 0.0, 5.0, 0.0, 0.0),
            (0.2, 1.8, 3.2, 1.8, 0.2),
            (0.2, -1.8, 3.2, -1.8, 0.2),
        ]
    )
    for got, want in zip(found, expected):
        assert np.allclose(got, want, atol=1e-9)
    # the two projection points have the conjugate-pair type, the others all-real
    labels = sorted(p.pattern.label for p in report.points)
    assert labels == ["112|0", "112|0", "2|1", "2|1"]


def test_crit_on_stratum_two_double_roots():
    report = crit_on_stratum(QuadraticObjective.euclidean(U_STAR), (2, 2), seed=0)
    assert report.n_real == 5
    rational = [p for p in report.points if p.is_rational()]
    got = sorted(tuple(np.round(p.w, 9)) for p in rational)
    assert np.allclose(got[0], [-1.0, 0.0, 2.0, 0.0, -1.0], atol=1e-9)
    assert np.allclose(got[1], [0.0, 0.0, 5.0, 0.0, 0.0], atol=1e-9)
    assert np.allclose(got[2], [7 / 3, 0.0, 14 / 3, 0.0, 7 / 3], atol=1e-9)


def test_crit_on_stratum_quadruple_root():
    report = crit_on_stratum(QuadraticObjective.euclidean(U_STAR), (4,), seed=0)
    assert report.n_real == 4
    ws = sorted((tuple(np.round(p.w, 9)) for p in report.points), key=lambda w: (w[0], w[1]))
    assert np.allclose(ws[0], [0.0, 0.0, 0.0, 0.0, 2.0], atol=1e-9)
    # the symmetric pair 17/35 (x +- y)^4
    assert np.allclose(ws[1], [17 / 35, -68 / 35, 102 / 35, -68 / 35, 17 / 35], atol=1e-9)
    assert np.allclose(ws[2], [17 / 35, 68 / 35, 102 / 35, 68 / 35, 17 / 35], atol=1e-9)
    assert np.allclose(ws[3], [2.0, 0.0, 0.0, 0.0, 0.0], atol=1e-9)


def test_crit_on_stratum_rejects_bad_partition():
    with pytest.raises(ValueError):
        crit_on_stratum(QuadraticObjective.euclidean(U_STAR), (3, 2))
    # parts and start counts that are not integers are rejected, not truncated
    cubic = QuadraticObjective.euclidean([1.0, 0.5, -2.0, 1.0])
    with pytest.raises(ValueError, match="partition parts must be integers"):
        crit_on_stratum(cubic, (2.5, 1.5))
    with pytest.raises(ValueError, match="n_starts must be an integer"):
        crit_on_stratum(cubic, (2, 1), n_starts=2.5)


@pytest.mark.parametrize("lam, message", [
    ((2.5, 1.5), "partition parts must be integers, got (2.5, 1.5)"),
    ((3, 0), "partition parts must be positive"),
    ((4, -1), "partition parts must be positive"),
    ((1, 2, 2), "partition (2, 2, 1) does not sum to the polynomial degree 3"),
], ids=["not-integer", "zero-part", "negative-part", "wrong-sum"])
@pytest.mark.parametrize("partition_of_3", [
    lambda lam: crit_on_stratum(QuadraticObjective.euclidean([1.0, 0.5, -2.0, 1.0]), lam),
    lambda lam: ed_degree(lam, 3),
], ids=["crit_on_stratum", "ed_degree"])
def test_partition_checks_are_shared(partition_of_3, lam, message):
    with pytest.raises(ValueError) as err:
        partition_of_3(lam)
    assert str(err.value) == message
    assert not isinstance(err.value, critlab._NoClosedForm)


def test_crit_on_stratum_reports_an_empty_partition_first():
    for target in ([1.0, 0.5, -2.0, 1.0], U_STAR):
        with pytest.raises(ValueError, match="^the partition is empty$"):
            crit_on_stratum(QuadraticObjective.euclidean(target), (), n_starts=0)


def test_find_spurious_minimum_rejects_bad_start_counts():
    with pytest.raises(ValueError, match="n_starts must be an integer"):
        find_spurious_minimum(U_STAR[:4], n_starts=2.5)
    for n_starts in (0, -3):  # not "no minimum found" after searching nothing
        with pytest.raises(ValueError, match="need at least one start"):
            find_spurious_minimum(U_STAR[:4], n_starts=n_starts)


def test_crit_on_stratum_rejects_an_empty_partition(monkeypatch):
    # the degree-0 target sums to the empty partition, which has no chart to search
    def no_kernel(*args):
        pytest.fail("a probe kernel was built for the empty partition")

    monkeypatch.setattr(critlab, "_probe_kernel", no_kernel)
    with pytest.raises(ValueError, match="empty"):
        crit_on_stratum(QuadraticObjective.euclidean([3.0]), ())


def test_critical_points_for_target_respects_architecture():
    # two bins of sizes (3, 1): a triple or quadruple root needs more bins,
    # and a pair of double roots does not fit either
    reports = critical_points_for_target(U_STAR, Architecture((4, 2)), n_starts=120, seed=1)
    assert [r.lam for r in reports] == [(2, 1, 1)]
    # (3,2,2) can realize a pair of double roots and a triple root, but a
    # quadruple root would need four layers
    reports = critical_points_for_target(U_STAR, Architecture((3, 2, 2)), n_starts=60, seed=1)
    assert sorted(r.lam for r in reports) == [(2, 1, 1), (2, 2), (3, 1)]


def test_attainable_strata_pinned():
    assert _attainable_strata(Architecture((2, 2))) == [(2,)]
    assert _attainable_strata(Architecture((3, 2))) == [(2, 1)]
    assert _attainable_strata(Architecture((2, 2, 2))) == [(3,), (2, 1)]
    assert _attainable_strata(Architecture((4, 2))) == [(2, 1, 1)]


def _attainable_strata_loop(arch):
    """The partitions of the filter degree, skipping the all-ones one, that
    have a compatible real-type split: how ``_attainable_strata`` found them
    before it read them off ``compatible_rrmps``."""
    degree = arch.filter_size - 1
    if sum(arch.bin_sizes) != degree:
        raise ValueError("interior stride")
    return [lam for lam in _partitions(degree)
            if len(lam) < degree
            and any(is_compatible(split, arch) for split in real_type_splits(lam))]


def test_attainable_strata_equal_the_partition_loop():
    # every architecture of depth 1-3 with sizes 1-5 (degree <= 12), at unit
    # strides, a final stride and a first stride
    n = 0
    for depth in (1, 2, 3):
        for ks in itertools.product(range(1, 6), repeat=depth):
            for strides in ((1,) * depth, (1,) * (depth - 1) + (2,), (2,) + (1,) * (depth - 1)):
                arch = Architecture(ks, strides)
                try:
                    want = _attainable_strata_loop(arch)
                except ValueError:
                    with pytest.raises(ValueError, match="interior stride"):
                        _attainable_strata(arch)
                    continue
                assert _attainable_strata(arch) == want, (ks, strides)
                n += 1
    assert n == 325


def test_critical_points_for_target_and_ed_bound_use_attainable_strata():
    for ks, u in (((2, 2, 2), [1.0, 0.5, -2.0, 0.3]), ((4, 2), U_STAR)):
        arch = Architecture(ks)
        strata = _attainable_strata(arch)
        reports = critical_points_for_target(np.array(u), arch, n_starts=2, seed=0)
        assert [r.lam for r in reports] == strata
        degree = arch.filter_size - 1
        for metric in ("generic", "special"):
            assert ed_bound(arch, metric=metric) == 1 + sum(
                ed_degree(lam, degree, metric=metric) for lam in strata)


def test_interior_strides_have_no_strata():
    # the layer degrees of (3, 2) at strides (2, 1) sum to 3, the filter
    # degree is 4; a final stride only subsamples and keeps the strata
    interior = Architecture((3, 2), (2, 1))
    with pytest.raises(ValueError, match="interior stride"):
        ed_bound(interior)
    with pytest.raises(ValueError, match="interior stride"):
        critical_points_for_target(np.arange(1.0, 6.0), interior)
    assert _attainable_strata(Architecture((2, 2), (1, 2))) == [(2,)]


def test_critical_points_for_target_rejects_size_mismatch():
    with pytest.raises(ValueError, match="size"):
        critical_points_for_target(U_STAR, Architecture((2, 2)))


def test_match_critical_point():
    reports = critical_points_for_target(U_STAR, Architecture((4, 2)), n_starts=120, seed=0)
    hit = match_critical_point(np.array([2.0, 1e-6, 5.0, -1e-6, 1e-6]), reports)
    assert hit is not None and np.allclose(hit.w, [2.0, 0.0, 5.0, 0.0, 0.0], atol=1e-9)
    assert match_critical_point(np.array([1.0, 1.0, 1.0, 1.0, 1.0]), reports) is None


def test_crit_points_compare_and_hash_by_identity():
    a = CritPoint(w=U_STAR.copy(), lam=(2, 2), pattern=Rrmp(gamma=(2,)), loss=0.0,
                  grad_norm=0.0, kind="MIN")
    copy = CritPoint(w=a.w.copy(), lam=a.lam, pattern=a.pattern, loss=a.loss,
                     grad_norm=a.grad_norm, kind=a.kind)
    assert a == a and a != copy and not (a == copy)
    assert len({a, a, copy}) == 2 and a in {a} and copy not in {a}
    assert StratumReport(lam=(2, 2), points=(a,)) == StratumReport(lam=(2, 2), points=(a,))


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_match_critical_point_rejects_a_bad_tolerance(tol):
    # a negative or NaN tolerance matched no point, not even the point itself
    point = CritPoint(w=U_STAR.copy(), lam=(2, 2), pattern=Rrmp(gamma=(2,)), loss=0.0,
                      grad_norm=0.0, kind="MIN")
    report = StratumReport(lam=(2, 2), points=(point,))
    assert match_critical_point(U_STAR, [report]) is point
    for reports in ([report], []):
        with pytest.raises(ValueError, match="tol must be finite and non-negative"):
            match_critical_point(U_STAR, reports, tol=tol)


@pytest.mark.parametrize("a", [np.array([3.0, -1.0, 2.0]), np.array([0.1, 0.2, -0.3])])
@pytest.mark.parametrize("factor, same", [(0.9, True), (1.1, False)])
def test_shared_filter_rule_at_the_boundary(a, factor, same):
    tol = 1e-4
    scale = max(float(np.max(np.abs(a))), 1.0)
    b = a + np.array([0.0, factor * tol * scale, 0.0])  # moves a non-maximal entry
    assert _same_filter(a, b, tol) is same
    assert _same_filter(b, a, tol) is same
    assert count_distinct_filters([a, b], tol) == (1 if same else 2)
    point = CritPoint(w=a, lam=(1, 1), pattern=Rrmp((1, 1)), loss=0.0, grad_norm=0.0, kind="MIN")
    hit = match_critical_point(b, [StratumReport(lam=(1, 1), points=(point,))], tol)
    assert (hit is point) is same
    idx, dist = _nearest(b, [np.zeros(4), a + 1.0, a])
    assert idx == 2 and dist == pytest.approx(factor * tol * scale)


def test_cone_lambda_polynomial_identity_gram():
    rng = np.random.default_rng(7)
    for _ in range(20):
        u1, u2, u3 = rng.standard_normal(3)
        quartic, _, _, _ = cone_lambda_polynomial(np.eye(3), np.array([u1, u2, u3]))
        expected = np.array(
            [
                u2**2 - u1 * u3,
                -(u1**2) - 4 * u1 * u3 - u3**2,
                -4 * u1**2 - 2 * u2**2 - 5 * u1 * u3 - 4 * u3**2,
                -4 * u1**2 - 4 * u1 * u3 - 4 * u3**2,
                u2**2 - 4 * u1 * u3,
            ]
        )
        assert np.max(np.abs(quartic - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_cone_lambda_polynomial_weighted_gram_divisibility():
    # with the weighted Gram diag(1, 1/2, 1) the multiplier polynomial always
    # contains the factor (lam + 1)^2, leaving a quadratic
    sigma = np.diag([1.0, 0.5, 1.0])
    rng = np.random.default_rng(11)
    for _ in range(10):
        u = rng.standard_normal(3)
        quartic, _, _, _ = cone_lambda_polynomial(sigma, sigma @ u)
        _, rem = np.polydiv(quartic, np.array([1.0, 2.0, 1.0]))
        assert np.max(np.abs(rem)) <= 1e-10 * np.max(np.abs(quartic))


def test_cone_lambda_polynomial_rejects_bad_shape():
    with pytest.raises(ValueError):
        cone_lambda_polynomial(np.eye(4), np.ones(4))


def _assert_critical_on_cone(points, u):
    for p in points:
        disc = p.w[1] ** 2 - 4.0 * p.w[0] * p.w[2]
        assert abs(disc) <= 1e-6 * max(1.0, np.max(np.abs(p.w)) ** 2)
        # criticality: residual must be parallel to the cone normal J w
        normal = np.array([p.w[2], -0.5 * p.w[1], p.w[0]])
        resid = p.w - u
        cross = resid - (resid @ normal) / (normal @ normal) * normal
        assert np.linalg.norm(cross) <= 1e-6 * (1.0 + np.linalg.norm(resid))
    losses = [p.loss for p in points]
    assert losses == sorted(losses)


def test_cone_critical_points_project_onto_cone():
    rng = np.random.default_rng(13)
    for _ in range(10):
        u = rng.standard_normal(3)
        points = cone_critical_points(u)
        assert points, "a projection onto the cone always exists"
        _assert_critical_on_cone(points, u)


@pytest.mark.parametrize("offset", [0.0, 1e-6, -1e-6])
def test_cone_critical_points_on_and_next_to_the_caustic(offset):
    # at u = (2, 1, 2) the caustic value is exactly 0 and (1, 2, 1) is a
    # triple root of the critical form; moving u off it keeps one real root
    # of the three, about offset^(1/3) away, and the saddle stays put
    u = np.array([2.0, 1.0, 2.0 + offset])
    points = cone_critical_points(u)
    _assert_critical_on_cone(points, u)
    assert len(points) == 2
    near, saddle = points
    assert np.max(np.abs(near.w - [1.0, 2.0, 1.0])) <= (1e-5 if offset == 0.0 else 2e-2)
    assert saddle.kind == "SADDLE" and _same_filter(saddle.w, np.array([1.0, -2.0, 1.0]) / 3, 1e-5)
    if offset == 0.0:
        assert caustic_value(u) == 0.0 and near.kind == "DEGENERATE"


@pytest.mark.parametrize("offset, kinds", [(-1e-9, ["MIN", "MIN", "SADDLE", "SADDLE"]),
                                           (1e-9, ["MIN", "SADDLE"])])
def test_cone_critical_points_next_to_a_fold_of_the_caustic(offset, kinds):
    # (0.5, FOLD, 0.45) is on the caustic, where a minimum and a saddle meet
    # in a double root; 1e-9 off it they are two real roots about 3e-5 apart,
    # or a complex pair as close to the real line, and must stay two or none
    u = np.array([0.5, 0.1414465844455028 + offset, 0.45])
    points = cone_critical_points(u)
    _assert_critical_on_cone(points, u)
    assert sorted(p.kind for p in points) == kinds
    assert (caustic_value(u) < 0) == (len(points) == 4)


@pytest.mark.parametrize("scale", [1e-4, 1e4])
def test_cone_critical_points_do_not_depend_on_the_scale(scale):
    # scaling the target scales every point; scaling the Gram matrix moves
    # none (points tied in loss may swap places)
    rng = np.random.default_rng(17)
    for u in [np.array([0.5, 0.10, 0.5]), *rng.standard_normal((10, 3))]:
        for sigma in (np.eye(3), np.diag([1.0, 0.5, 1.0])):
            base = cone_critical_points(u, sigma)
            for points, w_scale in ((cone_critical_points(scale * u, sigma), scale),
                                    (cone_critical_points(u, scale * sigma), 1.0)):
                assert len(points) == len(base)
                for p in points:
                    same = [q for q in base if _same_filter(p.w / w_scale, q.w, 1e-9)]
                    assert len(same) == 1 and same[0].kind == p.kind


def test_cone_zero_target_has_no_critical_point():
    # the loss sigma^2 D has no critical point with sigma != 0
    assert cone_critical_points(np.zeros(3)) == []
    assert cone_region_counts(np.zeros(3)) == (0, 0)


def test_cone_lambda_polynomial_counts_the_cone_critical_points():
    # each real multiplier root gives one critical point, except on the
    # palindromic slice u1 = u3, where lam = -1 is a double root that gives none
    rng = np.random.default_rng(19)
    targets = [np.array([0.5, b, 0.45]) for b in (0.10, 0.35, 0.60)]
    for u in targets + list(rng.standard_normal((20, 3))):
        quartic, _, _, _ = cone_lambda_polynomial(np.eye(3), u)
        n_real = sum(abs(r.imag) <= 1e-9 * (1.0 + abs(r)) for r in np.roots(quartic))
        assert n_real == len(cone_critical_points(u))


@pytest.mark.parametrize("metric", ["euclidean", "bombieri"])
def test_rank_one_points_contain_every_newton_point(metric):
    # seeded targets off the caustic, where Newton's landings do not scatter
    rng = np.random.default_rng(5)
    ed_metric = "special" if metric == "bombieri" else "generic"
    for d in (3, 4, 5):
        for _ in range(8):
            obj = getattr(QuadraticObjective, metric)(rng.standard_normal(d + 1))
            exact = _rank_one_points(obj)
            assert len(exact) <= ed_degree((d,), d, metric=ed_metric)
            for p in crit_on_stratum(obj, (d,), n_starts=40).points:
                same = [q for q in exact if _same_filter(p.w, q.w, 1e-6)]
                assert len(same) == 1 and same[0].kind == p.kind


@pytest.mark.parametrize("roots", [(0.3,), (-1.7,), (2.5,), (0.4, -1.2), (3.0, 0.5)])
def test_rank_one_points_leave_out_the_zero_filter(roots):
    # when N = v.u has a double root at r, P vanishes there with sigma = 0
    n_up = np.poly([roots[0], *roots])[::-1]  # (t - r)^2 (t - s), lowest power first
    d = len(n_up) - 1
    u = 1.7 * n_up / np.array([math.comb(d, j) for j in range(d + 1)])
    points = _rank_one_points(QuadraticObjective.euclidean(u))
    assert points and all(np.max(np.abs(p.w)) > 1e-3 * np.max(np.abs(u)) for p in points)


def test_cone_region_counts_across_sample_targets():
    # three targets on the palindromic slice, one per landscape regime
    assert cone_region_counts(np.array([0.5, 0.10, 0.5])) == (2, 2)
    assert cone_region_counts(np.array([0.5, 0.35, 0.5])) == (1, 1)
    assert cone_region_counts(np.array([0.5, 0.60, 0.5])) == (2, 0)


def test_caustic_value_signs():
    assert caustic_value(np.array([0.5, 0.10, 0.5])) < 0
    assert caustic_value(np.array([0.5, 0.35, 0.5])) > 0
    assert caustic_value(np.array([0.5, 0.60, 0.5])) > 0


def test_ed_degree_tables():
    quartic_strata = [(2, 1, 1), (2, 2), (3, 1), (4,)]
    assert [ed_degree(lam, 4) for lam in quartic_strata] == [10, 13, 12, 10]
    assert [ed_degree(lam, 4, metric="special") for lam in quartic_strata] == [4, 7, 4, 4]
    # discriminant hypersurface in any degree: 3(k-1) - 2 generically
    assert ed_degree((2, 1, 1, 1), 5) == 13
    assert ed_degree((2,), 2) == 4
    assert ed_degree((1, 1, 1), 3) == 1


def test_ed_degree_errors():
    with pytest.raises(ValueError):
        ed_degree((2, 2), 5)
    with pytest.raises(ValueError):
        ed_degree((2, 2, 1), 5)  # no closed form
    with pytest.raises(ValueError):
        ed_degree((2, 2), 4, metric="fancy")
    # a plain ValueError, as real_type_splits raises, not the missing closed
    # form that analyze-arch reports as a null bound
    for lam in ((2, 0, 2), (3, 2, -1), (0,)):
        with pytest.raises(ValueError, match="positive") as err:
            ed_degree(lam, sum(lam))
        assert not isinstance(err.value, critlab._NoClosedForm)
    with pytest.raises(ValueError, match="partition parts must be integers") as err:
        ed_degree((2.5, 1.5), 3)
    assert not isinstance(err.value, critlab._NoClosedForm)


def test_ed_bound():
    assert ed_bound(Architecture((3, 2, 2))) == 36
    assert ed_bound(Architecture((4, 2))) == 11


def test_find_spurious_minimum_matches_exact_point():
    # the (2,3) architecture is filling, yet its parameterized loss has a
    # strict non-global minimum; coordinates certified by exact-rational
    # Newton refinement, which runs in full in
    # tests/test_acceptance.py::test_pinned_local_minimum_coordinates.
    u = np.array([1.0, 1.0, 0.1, 0.1])
    sm = find_spurious_minimum(u, Architecture((2, 3)), n_starts=150, seed=0)
    exact = np.array(
        [0.0578445443253357, 1.0000187822593627, 0.9418296668754089, 0.0511336537590084]
    )
    assert np.max(np.abs(sm.chart - exact)) <= 1e-9
    assert sm.loss > 1e-3
    assert np.min(sm.hessian_eigs) > 0
    assert sm.grad_norm <= 1e-10
    # the composed filter factors the first filter out of the target's basin
    assert np.allclose(sm.w, np.convolve(sm.theta[0], sm.theta[1]), atol=1e-12)


def test_find_spurious_minimum_rejects_mismatched_sizes():
    with pytest.raises(ValueError):
        find_spurious_minimum(np.ones(4), Architecture((2, 2)))


def _old_strict_minimum(eigs):
    """The rule find_spurious_minimum applied before it called _inertia."""
    return not np.min(eigs) <= _EIG_BAND * float(np.max(np.abs(eigs)))


@pytest.mark.parametrize("eigs", [
    [0.0, 0.0, 0.0],  # all zero
    [0.5 * _EIG_BAND, 1.0, 2.0],  # one eigenvalue inside the band
    [_EIG_BAND, 1.0],  # on the band edge
    [2.0 * _EIG_BAND, 1.0, 3.0],  # one just outside
    [-1.0, 2.0, 3.0],  # mixed signs
    [-1.0, -2.0],
    [1.0, np.inf],
    [-np.inf, 1.0],
    [np.inf, np.inf],
])
def test_inertia_min_matches_the_old_strict_minimum_rule(eigs):
    eigs = np.array(eigs)
    assert (_inertia(eigs) == "MIN") == _old_strict_minimum(eigs)


def test_inertia_min_matches_the_old_rule_on_random_spectra():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        n = int(rng.integers(1, 6))
        eigs = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
        assert (_inertia(eigs) == "MIN") == _old_strict_minimum(eigs)


def test_inertia_rejects_a_nan_eigenvalue():
    eigs = np.array([1.0, np.nan, 2.0])
    assert _old_strict_minimum(eigs)  # the old rule let NaN through as a minimum
    assert _inertia(eigs) != "MIN"


def test_real_type_splits_are_the_all_rrmps_patterns_of_the_partition():
    key = lambda p: (len(p.gamma), p.label)
    for degree in range(1, 9):
        for lam in _partitions(degree):
            splits = real_type_splits(lam)
            assert splits == sorted((p for p in all_rrmps(degree) if p.partition() == lam), key=key)
            # independently: each part value v of count c gives j conjugate
            # pairs of multiplicity v and c - 2j real roots, for j <= c // 2
            counts = sorted(Counter(lam).items())
            choices = [range(c // 2 + 1) for _, c in counts]
            expected = {Rrmp(rho=sum(((v,) * (c - 2 * j) for (v, c), j in zip(counts, js)), ()),
                             gamma=sum(((v,) * j for (v, _), j in zip(counts, js)), ()))
                        for js in itertools.product(*choices)}
            assert set(splits) == expected and len(splits) == len(expected)
            assert real_type_splits(lam[::-1]) == splits


@pytest.mark.parametrize("pattern, roots, ks", [
    (Rrmp(rho=(1, 2), gamma=(1,)), [INFINITY, ProjRoot(complex(0.5)), ProjRoot(1.0 + 2.0j)],
     (3, 2, 3)),
    (Rrmp(rho=(1,), gamma=(1, 2)), [ProjRoot(complex(-2.0)), ProjRoot(0.3 + 0.4j),
                                    ProjRoot(-1.0 + 1.5j)], (4, 3, 3)),
], ids=["infinity", "conjugate-pairs"])
def test_expand_stratum_point_round_trips_through_factor_into(pattern, roots, ks):
    arch = Architecture(ks)
    w = _expand_stratum_point(pattern, roots, 1.5)
    assert len(w) == arch.filter_size
    theta = factor_into(w, arch)
    prod, _ = end_to_end(theta, arch)
    assert np.allclose(prod, w, rtol=0, atol=1e-10 * np.max(np.abs(w)))
    assert classify_rrmp_pooled(theta) == pattern
