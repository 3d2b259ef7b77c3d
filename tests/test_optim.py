import numpy as np
import pytest

from lcnlab.critlab import crit_on_stratum, find_spurious_minimum
from lcnlab.optim import (
    QuadraticObjective,
    TrainConfig,
    _sq_norm,
    bombieri_matrix,
    bombieri_weights,
    count_distinct_filters,
    gd_train,
    gradient_via_matrices,
    loss_and_gradient,
    network_gradient,
    network_loss,
    run_distinct_experiment,
    run_pattern_experiment,
    tau,
    unconstrained_opt,
)
from lcnlab.poly_core import (Architecture, _complements, _layers, as_filter, end_to_end,
                              network_matrices, network_poly, toeplitz_matrix)
from lcnlab.rootlab import RootFindingError, classify_rrmp, classify_rrmp_pooled
from lcnlab.dynamics import jacobian_mu, stack_theta, unstack_theta

from test_poly_core import (_layer_dims_loop, _same_bytes, _signed_zero_filter, _toeplitz_loop,
                            random_arch)


def test_unconstrained_opt_is_least_squares():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((4, 12))
    Y = rng.standard_normal((2, 12))
    W = unconstrained_opt(X, Y)
    # first-order condition: residual orthogonal to data
    assert np.allclose((W @ X - Y) @ X.T, 0.0, atol=1e-10)


def test_tau_folds_diagonal_into_bombieri_weights():
    M = np.diag([0.75, 0.25, 0.25, 0.75])
    assert np.allclose(tau(M, k=3, n_out=2), bombieri_matrix(3))


def test_tau_quadratic_form_matches_matrix_loss():
    rng = np.random.default_rng(2)
    for stride in (1, 2):
        k = 3
        n_out = 3
        d0 = (n_out - 1) * stride + k
        X = rng.standard_normal((d0, 7))
        M = X @ X.T
        t = tau(M, k, n_out, stride)
        w = rng.standard_normal(k)
        W = toeplitz_matrix(w, d0, stride)
        assert np.allclose(w @ t @ w, np.trace(W @ M @ W.T), atol=1e-8)


def test_tau_circulant_wraps():
    M = np.eye(4)
    t = tau(M, k=3, n_out=4, stride=1, circulant=True)
    assert np.allclose(t, 4 * np.eye(3) + 0.0)  # diagonal placements only
    with pytest.raises(ValueError):
        tau(M, k=3, n_out=3, stride=1)  # would overrun without wrap... fits
    # overrun case: k=3, stride=2, n_out=2 on a 4x4 needs index 5
    with pytest.raises(ValueError):
        tau(M, k=3, n_out=2, stride=2)


@pytest.mark.parametrize("call, message", [
    (lambda M: tau(M, k=3, n_out=2, stride=0), "stride"),
    (lambda M: tau(M, k=3, n_out=2, stride=-1), "stride"),
    # a cyclic filter longer than the signal would wrap onto itself; from_data
    # used to fail in the solve (LinAlgError is a ValueError) or fit anyway
    (lambda M: tau(M, k=5, n_out=2, circulant=True), "exceeds"),
    (lambda M: QuadraticObjective.from_data(M, np.ones((4, 4)), Architecture((3, 3)),
                                            circulant=True), "exceeds"),
    (lambda M: tau(M, k=3, n_out=-1), "nonnegative"),
], ids=["stride-0", "stride-minus-1", "cyclic-k-over-d", "cyclic-from-data-k-over-d",
        "negative-n-out"])
def test_bad_placements_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call(np.eye(4))


def test_bombieri_weights_values():
    assert np.allclose(bombieri_weights(3), [1.0, 0.5, 1.0])
    assert np.allclose(bombieri_weights(5), [1.0, 0.25, 1 / 6, 0.25, 1.0])


def test_objective_from_data_matches_direct_loss():
    rng = np.random.default_rng(3)
    for ks, strides in [((2, 2), None), ((3, 2), (2, 1)), ((2, 2, 2), None)]:
        arch = Architecture(ks, strides)
        d_out = 3
        d0 = arch.min_input_size(d_out)
        X = rng.standard_normal((d0, 9))
        Y = rng.standard_normal((d_out, 9))
        obj = QuadraticObjective.from_data(X, Y, arch)
        for _ in range(10):
            w = rng.standard_normal(arch.filter_size)
            direct = np.sum((toeplitz_matrix(w, d0, arch.stride) @ X - Y) ** 2)
            assert abs(obj.value(w) - direct) < 1e-8 * max(1.0, direct)


def test_objective_gradient_consistency():
    rng = np.random.default_rng(4)
    u = rng.standard_normal(4)
    obj = QuadraticObjective.bombieri(u)
    w = rng.standard_normal(4)
    h = 1e-7
    g = obj.grad(w)
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        fd = (obj.value(w + e) - obj.value(w - e)) / (2 * h)
        assert abs(g[i] - fd) < 1e-6


NAN = float("nan")


@pytest.mark.parametrize("make, field", [
    (lambda: QuadraticObjective.euclidean([NAN, 0.0, 5.0, 0.0, 2.0]), "target"),
    (lambda: QuadraticObjective.bombieri([1.0, np.inf, 1.0]), "target"),
    (lambda: QuadraticObjective(np.full((3, 3), NAN), np.ones(3)), "matrix"),
    (lambda: QuadraticObjective(np.eye(3), np.ones(3), const=-np.inf), "const"),
    (lambda: QuadraticObjective.from_data(np.eye(3), np.full((2, 3), NAN), Architecture((2,))),
     "target"),
    (lambda: crit_on_stratum(QuadraticObjective.euclidean([NAN, 0.0, 5.0, 0.0, 2.0]), (4,)),
     "target"),
    (lambda: gd_train(QuadraticObjective.euclidean([NAN, 1.0, 1.0]), Architecture((2, 2)),
                      [np.ones(2), np.ones(2)]), "target"),
    (lambda: find_spurious_minimum(np.array([np.inf, 1.0, 0.1, 0.1])), "target"),
], ids=["euclidean", "bombieri", "matrix", "const", "from-data", "crit-on-stratum", "gd-train",
        "find-spurious-minimum"])
def test_non_finite_objectives_are_rejected_naming_the_field(make, field):
    with pytest.raises(ValueError, match=f"QuadraticObjective {field} has non-finite"):
        make()


def test_network_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(40):
        depth = int(rng.integers(1, 4))
        ks = tuple(int(rng.integers(1, 5)) for _ in range(depth))
        strides = tuple(int(rng.integers(1, 3)) for _ in range(depth))
        arch = Architecture(ks, strides)
        u = rng.standard_normal(arch.filter_size)
        obj = QuadraticObjective.euclidean(u)
        theta = arch.random_theta(rng)
        grads = network_gradient(theta, arch, obj)
        flat = stack_theta(theta)
        gflat = stack_theta(grads)
        h = 1e-6
        for p in range(len(flat)):
            bumped = flat.copy()
            bumped[p] += h
            up = network_loss(unstack_theta(bumped, arch), arch, obj)
            bumped[p] -= 2 * h
            dn = network_loss(unstack_theta(bumped, arch), arch, obj)
            fd = (up - dn) / (2 * h)
            assert abs(gflat[p] - fd) <= 1e-5 * max(1.0, abs(fd))


def test_strided_gradient_is_the_transposed_differential():
    rng = np.random.default_rng(12)
    for _ in range(200):
        depth = int(rng.integers(1, 5))
        ks = tuple(int(rng.integers(1, 5)) for _ in range(depth))
        strides = tuple(int(rng.integers(1, 4)) for _ in range(depth))
        arch = Architecture(ks, strides)
        obj = QuadraticObjective.bombieri(rng.standard_normal(arch.filter_size))
        theta = arch.random_theta(rng)
        loss, grads = loss_and_gradient(theta, arch, obj)
        w, _ = end_to_end(theta, arch)
        ref = jacobian_mu(theta, arch).T @ obj.grad(w)
        assert loss == obj.value(w)
        assert [len(g) for g in grads] == list(ks)
        assert np.max(np.abs(stack_theta(grads) - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


@pytest.fixture
def grad_calls(monkeypatch):
    calls = []
    grad = QuadraticObjective.grad

    def counting(self, w):
        calls.append(1)
        return grad(self, w)

    monkeypatch.setattr(QuadraticObjective, "grad", counting)
    return calls


@pytest.mark.parametrize("theta, ks", [
    ([[1.0, 2.0, 3.0], [1.0]], (2, 2)),  # sizes (3, 1) compose to the right size
    ([[1.0, 2.0], [1.0, 2.0], [3.0]], (2, 2)),  # one layer too many
    ([[1.0, 2.0]], (2, 2)),  # one layer too few
])
def test_theta_that_does_not_match_the_architecture_is_rejected(theta, ks, grad_calls):
    arch = Architecture(ks)
    obj = QuadraticObjective.euclidean([1.0, 2.0, 3.0])
    for fn in (end_to_end, network_poly, jacobian_mu,
               lambda theta, arch: loss_and_gradient(theta, arch, obj),
               lambda theta, arch: gd_train(obj, arch, theta)):
        with pytest.raises(ValueError):
            fn(theta, arch)
    assert grad_calls == []  # gd_train checks theta0 before its first step


def test_gradient_via_matrices_agrees():
    rng = np.random.default_rng(6)
    for ks, strides in [((2, 2), None), ((3, 2), (2, 1)), ((2, 2, 2), None),
                        ((3, 2, 2), None), ((4, 2), (1, 3))]:
        arch = Architecture(ks, strides)
        d_out = 2
        d0 = arch.min_input_size(d_out)
        X = rng.standard_normal((d0, 8))
        Y = rng.standard_normal((d_out, 8))
        theta = arch.random_theta(rng)
        g_matrix = gradient_via_matrices(theta, arch, X, Y)

        obj = QuadraticObjective.from_data(X, Y, arch)
        # loss uses sliding windows over d0, matching the matrix route only
        # when the architecture consumes the full input; compare via FD of
        # the matrix loss instead for full generality
        mats_loss = lambda th: float(np.sum((_full_matrix(th, arch, d0) @ X - Y) ** 2))
        flat = stack_theta(theta)
        h = 1e-6
        fd = np.zeros_like(flat)
        for p in range(len(flat)):
            bumped = flat.copy()
            bumped[p] += h
            up = mats_loss(unstack_theta(bumped, arch))
            bumped[p] -= 2 * h
            dn = mats_loss(unstack_theta(bumped, arch))
            fd[p] = (up - dn) / (2 * h)
        assert np.allclose(stack_theta(g_matrix), fd, atol=1e-4)

        g_filter = network_gradient(theta, arch, obj)
        assert all(np.allclose(a, b, atol=1e-9)
                   for a, b in zip(g_matrix, g_filter))


# the loops these folds ran before they shared one placement rule



def test_matrix_realizations_check_theta_against_the_architecture():
    # one filter for a two-layer network: the composition routines' mismatch
    # error, not a numpy broadcast error further down
    theta, arch = [np.ones(2)], Architecture((2, 2))
    with pytest.raises(ValueError, match="expected 2 filters"):
        network_matrices(theta, arch, 5)
    with pytest.raises(ValueError, match="expected 2 filters"):
        gradient_via_matrices(theta, arch, np.eye(5), np.ones((3, 5)))

def _tau_loop(M, k, n_out, stride, circulant):
    out = np.zeros((k, k))
    for m in range(n_out):
        idx = np.arange(k) + stride * m
        if circulant:
            idx = idx % M.shape[0]
        out += M[np.ix_(idx, idx)]
    return out


def _from_data_loop(X, Y, arch, circulant):
    d0, k, s = X.shape[0], arch.filter_size, arch.stride
    n_out = d0 // s if circulant else (d0 - k) // s + 1
    M = _tau_loop(X @ X.T, k, n_out, s, circulant)
    XY = X @ Y.T
    v = np.zeros(k)
    for m in range(n_out):
        idx = np.arange(k) + s * m
        if circulant:
            idx = idx % d0
        v += XY[idx, m]
    u = np.linalg.solve(M, v)
    return M, u, float(np.sum(Y * Y) - u @ M @ u)


def _gradient_via_matrices_loop(theta, arch, X, Y):
    d0 = X.shape[0]
    dims = _layer_dims_loop(arch, d0)
    mats = [_toeplitz_loop(w, dims[i], s) for i, (w, s) in enumerate(zip(theta, arch.strides))]
    grads = []
    for l in range(arch.depth):
        before = np.eye(d0)
        for M in mats[:l]:
            before = M @ before
        after = np.eye(dims[l + 1])
        for M in mats[l + 1 :]:
            after = M @ after
        full = after @ mats[l] @ before
        dL = 2.0 * (full @ X @ X.T - Y @ X.T)
        Gmat = after.T @ dL @ before.T
        k, s = arch.ks[l], arch.strides[l]
        g = np.zeros(k)
        for m in range(Gmat.shape[0]):
            g += Gmat[m, s * m : s * m + k]
        grads.append(g)
    return grads


def test_folds_match_the_reference_loops_byte_for_byte():
    rng = np.random.default_rng(31)
    for trial in range(400):
        depth = int(rng.integers(1, 4))
        # every other net has size-1 filters only, so k = 1 with 8 or more
        # placements, where a pairwise sum would differ from the loop
        ks = (1,) * depth if trial % 2 else tuple(int(rng.integers(1, 5)) for _ in range(depth))
        arch = Architecture(ks, tuple(int(rng.integers(1, 4)) for _ in range(depth)))
        k, s = arch.filter_size, arch.stride
        d_out = int(rng.integers(8, 13)) if k == 1 else int(rng.integers(1, 6))
        d0 = arch.min_input_size(d_out)
        n = int(rng.integers(1, 6))
        X, Y = rng.standard_normal((d0, n)), rng.standard_normal((d_out, n))
        theta = [_signed_zero_filter(rng, kl) for kl in arch.ks]
        for got, want in zip(gradient_via_matrices(theta, arch, X, Y),
                             _gradient_via_matrices_loop(theta, arch, X, Y)):
            assert _same_bytes(got, want)
        M = X @ X.T
        n_fit = int(rng.integers(0, d_out + 1))
        assert _same_bytes(tau(M, k, n_fit, s), _tau_loop(M, k, n_fit, s, False))

        d_cyc = s * int(rng.integers(-(-k // s), -(-k // s) + 3))
        Xc = rng.standard_normal((d_cyc, d_cyc + 3))
        Yc = rng.standard_normal((d_cyc // s, d_cyc + 3))
        n_wrap = int(rng.integers(0, 3 * d_cyc // s + 2))
        Mc = rng.standard_normal((d_cyc, d_cyc))
        assert _same_bytes(tau(Mc, k, n_wrap, s, circulant=True),
                           _tau_loop(Mc, k, n_wrap, s, True))
        for data, circulant in (((X, Y), False), ((Xc, Yc), True)):
            try:
                want = _from_data_loop(*data, arch, circulant)
            except np.linalg.LinAlgError:
                continue  # fewer samples than filter taps
            obj = QuadraticObjective.from_data(*data, arch, circulant=circulant)
            assert _same_bytes(obj.matrix, want[0]) and _same_bytes(obj.target, want[1])
            assert obj.const.hex() == want[2].hex()


def _full_matrix(theta, arch, d0):
    dims = arch.layer_dims(d0)
    M = np.eye(d0)
    for i, w in enumerate(theta):
        M = toeplitz_matrix(w, dims[i], arch.strides[i]) @ M
    return M


def test_gd_train_reaches_interior_target():
    arch = Architecture((2, 2))
    rng = np.random.default_rng(7)
    u = np.array([1.0, 0.0, -1.0])  # two distinct real roots: realizable
    obj = QuadraticObjective.euclidean(u)
    run = gd_train(obj, arch, arch.random_theta(rng))
    assert run.converged and not run.diverged
    assert run.loss < 1e-10
    assert run.solution_rrmp.label == "11|0"
    assert run.target_rrmp.label == "11|0"
    assert np.allclose(run.w, u, atol=1e-5)


def test_gd_train_exterior_target_hits_boundary():
    arch = Architecture((2, 2))
    rng = np.random.default_rng(8)
    u = np.array([2.0, 1.0, 3.0])  # no real roots: outside the cone
    obj = QuadraticObjective.euclidean(u)
    run = gd_train(obj, arch, arch.random_theta(rng))
    assert run.converged
    assert run.loss > 1e-3
    assert run.solution_rrmp.label == "2|0"


def test_gd_train_respects_max_steps():
    arch = Architecture((2, 2))
    obj = QuadraticObjective.euclidean([1.0, 0.0, 1.0])
    run = gd_train(obj, arch, [np.array([0.1, 0.0]), np.array([0.1, 0.0])],
                   TrainConfig(max_steps=3))
    assert not run.converged and run.steps == 3


def test_gd_train_diverging_runs_return_a_run():
    arch = Architecture((2, 2))
    obj = QuadraticObjective.euclidean([1.0, 0.0, -1.0])
    config = TrainConfig(step=1.0, max_steps=1000, diverge_loss=np.inf)
    with np.errstate(all="ignore"):
        run = gd_train(obj, arch, [np.array([2.0, 1.0]), np.array([3.0, -1.0])], config)
        # a non-finite layer has no root pattern: both of its labels are None
        bad = gd_train(obj, arch, [np.array([np.inf, 1.0]), np.array([3.0, -1.0])], config)
    assert run.diverged and not run.converged
    assert run.solution_rrmp.label == "11|0"
    assert bad.diverged and bad.steps == 0
    assert bad.init_rrmp is None and bad.solution_rrmp is None
    assert bad.target_rrmp.label == "11|0"


def _label(classify, coeffs):
    try:
        return classify(coeffs).label
    except (ValueError, RootFindingError):
        return None


def _array_loss_and_gradient(theta, arch, obj):
    """``loss_and_gradient`` on numpy arrays, as it was before the float-list
    core: np.convolve products, ``obj.value`` and np.correlate."""
    fs, spans = _layers(theta, arch)
    w, comps = _complements(fs)
    g = obj.grad(w)
    return obj.value(w), [np.correlate(g, c, "valid")[::s] for c, s in zip(comps, spans)]


def test_loss_and_gradient_matches_the_array_formula_byte_for_byte():
    rng = np.random.default_rng(15)
    for _ in range(300):
        arch = random_arch(rng)
        obj = QuadraticObjective(bombieri_matrix(arch.filter_size),
                                 _signed_zero_filter(rng, arch.filter_size))
        theta = [_signed_zero_filter(rng, k) for k in arch.ks]
        loss, grads = loss_and_gradient(theta, arch, obj)
        ref_loss, ref_grads = _array_loss_and_gradient(theta, arch, obj)
        assert loss.hex() == ref_loss.hex()
        assert [g.tobytes() for g in grads] == [g.tobytes() for g in ref_grads]


def _reference_descent(obj, arch, theta0, config):
    """The descent loop as it was before ``gd_train`` ran on float lists: the
    array formula and ``obj.value`` every step and numpy's squared norm.
    Returns the fields of a run, floats as hex."""
    theta = [as_filter(w).copy() for w in theta0]
    init = _label(classify_rrmp_pooled, theta)
    loss = grad_sq = np.inf
    converged = diverged = False
    steps = 0
    for steps in range(config.max_steps + 1):
        loss, grads = _array_loss_and_gradient(theta, arch, obj)
        if not np.isfinite(loss) or loss > config.diverge_loss:
            diverged = True
            break
        grad_sq = float(sum(np.sum(g * g) for g in grads))
        if grad_sq <= config.grad_sq_tol:
            converged = True
            break
        if steps == config.max_steps:
            break
        theta = [w - config.step * g for w, g in zip(theta, grads)]
    w, _ = end_to_end(theta, arch)
    return ([t.tobytes() for t in theta], w.tobytes(), float(loss).hex(), grad_sq.hex(),
            steps, converged, diverged, _label(classify_rrmp, obj.target), init,
            _label(classify_rrmp_pooled, theta))


def _run_fields(run):
    labels = [r.label if r is not None else None
              for r in (run.target_rrmp, run.init_rrmp, run.solution_rrmp)]
    return ([t.tobytes() for t in run.theta], run.w.tobytes(), run.loss.hex(),
            run.grad_sq.hex(), run.steps, run.converged, run.diverged, *labels)


@pytest.mark.parametrize("ks, strides", [
    ((2, 2), None), ((2, 2, 2), None), ((2, 3), None), ((3,), None), ((2, 2, 2, 2), None),
    ((3, 2), (2, 1)), ((8, 2), None),
    # products with a 3-entry shorter operand and a 12-tap correlation take numpy's route
    ((3, 3), None), ((2, 2, 3), None), ((12, 2), None), ((2, 2), (2, 1)),
])
def test_gd_train_matches_the_reference_loop_byte_for_byte(ks, strides):
    arch = Architecture(ks, strides)
    rng = np.random.default_rng(12)
    configs = {
        "converged": TrainConfig(step=0.05, max_steps=50000, grad_sq_tol=1e-10),
        "capped": TrainConfig(step=0.02, max_steps=50, grad_sq_tol=1e-12),
        "diverged": TrainConfig(step=1.5, max_steps=1000),
    }
    for outcome, config in configs.items():
        for metric in (QuadraticObjective.euclidean, QuadraticObjective.bombieri):
            obj = metric(rng.standard_normal(arch.filter_size))
            theta0 = [0.5 * w for w in arch.random_theta(rng)]
            with np.errstate(all="ignore"):
                run = gd_train(obj, arch, theta0, config)
                ref = _reference_descent(obj, arch, theta0, config)
            assert (run.converged, run.diverged) == (outcome == "converged", outcome == "diverged")
            assert _run_fields(run) == ref
    # one start with exact +0.0 and -0.0 taps in every layer
    theta0 = [_signed_zero_filter(rng, k) for k in ks]
    for i, w in enumerate(theta0):
        w[i % len(w)] = -0.0 if i % 2 else 0.0
    obj = QuadraticObjective.euclidean(rng.standard_normal(arch.filter_size))
    with np.errstate(all="ignore"):
        run = gd_train(obj, arch, theta0, configs["converged"])
        ref = _reference_descent(obj, arch, theta0, configs["converged"])
    assert _run_fields(run) == ref


def test_squared_norm_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(13)
    for n in range(1, 21):
        for _ in range(200):
            grads = [rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, size=n)
                     for _ in range(int(rng.integers(1, 4)))]
            assert _sq_norm(grads[:1]).hex() == float(np.sum(grads[0] * grads[0])).hex()
            assert _sq_norm(grads).hex() == float(sum(np.sum(g * g) for g in grads)).hex()


@pytest.mark.parametrize("max_steps", [20000, 40])
def test_gd_train_evaluates_one_gradient_per_step(max_steps, grad_calls):
    arch = Architecture((2, 2, 2))
    rng = np.random.default_rng(14)
    obj = QuadraticObjective.euclidean(rng.standard_normal(arch.filter_size))
    run = gd_train(obj, arch, arch.random_theta(rng),
                   TrainConfig(step=0.02, max_steps=max_steps, grad_sq_tol=1e-12))
    assert not run.diverged and run.converged == (max_steps > 40)
    assert len(grad_calls) == run.steps + 1


@pytest.mark.parametrize("kwargs", [
    {"step": 0.0}, {"step": -0.1}, {"step": np.nan}, {"step": np.inf}, {"max_steps": -1},
    {"grad_sq_tol": np.nan}, {"grad_sq_tol": -1e-14},
    {"diverge_loss": np.nan}, {"diverge_loss": 0.0}, {"diverge_loss": -1.0},
])
def test_train_config_rejects_bad_settings(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        TrainConfig(**kwargs)


def test_count_distinct_filters_rule():
    w = np.array([1.0, 2.0, 3.0])
    assert count_distinct_filters([w, w + 1e-6, w + 1.0]) == 2
    assert count_distinct_filters([]) == 0
    # the scale is the larger max-norm of the two filters, floored at one
    big = np.array([1e6, 0.0, 0.0])
    assert count_distinct_filters([big, big + np.array([50.0, 0, 0])]) == 1


def test_pattern_experiment_smoke():
    arch = Architecture((2, 2))
    table = run_pattern_experiment(arch, n_datasets=30, seed=5, workers=1)
    kept = table.n_runs - table.n_discarded
    assert kept >= 24  # a few runs hit the iteration cap and are discarded
    # every exterior target lands on the boundary pattern
    assert table.solution_share("0|1", "2|0") == 1.0
    # interior targets are fit exactly
    for (t, _, s), cell in table.cells.items():
        if t == "11|0":
            assert s == "11|0"
            assert cell.mean_loss < 1e-10


def test_pattern_experiment_deterministic_across_workers():
    arch = Architecture((2, 2))
    t1 = run_pattern_experiment(arch, n_datasets=12, seed=9, workers=1)
    t2 = run_pattern_experiment(arch, n_datasets=12, seed=9, workers=3)
    assert t1.rows() == t2.rows()


def test_distinct_experiment_smoke():
    arch = Architecture((2, 2))
    table = run_distinct_experiment(arch, n_targets=6, n_inits=8, seed=11,
                                    workers=1)
    for metric in ("euclidean", "bombieri"):
        h = table.histogram[metric]
        assert sum(h.values()) == 6
        assert all(n >= 1 for n in h)
    assert table.mean("bombieri") <= table.mean("euclidean") + 1e-9


def test_distinct_experiment_counts_a_target_without_converged_runs_under_zero():
    table = run_distinct_experiment(Architecture((2, 2)), n_targets=3, n_inits=2, seed=11,
                                    config=TrainConfig(max_steps=0), workers=1)
    assert table.histogram == {"euclidean": {0: 3}, "bombieri": {0: 3}}


@pytest.mark.parametrize("n_targets, n_inits", [(0, 5), (3, 0)])
def test_distinct_experiment_rejects_empty_runs(n_targets, n_inits):
    with pytest.raises(ValueError, match="at least one"):
        run_distinct_experiment(Architecture((2, 2)), n_targets=n_targets, n_inits=n_inits)
