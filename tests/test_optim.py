import itertools
import multiprocessing

import numpy as np
import pytest

from lcnlab import poly_core
from lcnlab.critlab import crit_on_stratum, find_spurious_minimum
from lcnlab.optim import (
    DistinctTable,
    PatternTable,
    QuadraticObjective,
    TrainConfig,
    _descent_kernel,
    _seeded,
    _sq_norm_source,
    _train_all,
    bombieri_matrix,
    bombieri_weights,
    count_distinct_filters,
    gd_train,
    gradient_via_matrices,
    loss_and_gradient,
    network_loss,
    run_distinct_experiment,
    run_pattern_experiment,
    tau,
)
from lcnlab.poly_core import (Architecture, _complements, _layers, as_filter, end_to_end,
                              network_matrices, toeplitz_matrix)
from lcnlab.rootlab import RootFindingError, classify_rrmp, classify_rrmp_pooled
from lcnlab.dynamics import jacobian_mu

from test_poly_core import (_layer_dims_loop, _same_bytes, _signed_zero_filter, _toeplitz_loop,
                            random_arch)


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


def test_objectives_compare_and_hash_by_identity():
    a = QuadraticObjective.euclidean([1.0, 2.0, 3.0])
    copy = QuadraticObjective(a.matrix.copy(), a.target.copy(), a.const)
    assert a == a and a != copy and not (a == copy)
    assert len({a, a, copy}) == 2 and a in {a} and copy not in {a}
    assert {a: 1}[a] == 1 and hash(a) == hash(a)


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


def _edge_entries(rng, shape):
    """Magnitudes over six decades, with now and then a signed zero, an infinity, a NaN
    or a subnormal."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    hit = rng.random(shape) < 0.1
    x[hit] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-310], size=np.sum(hit))
    return x


def test_dot_gives_the_bytes_of_matmul_from_two_entries_on():
    # the hot paths' products: M r and r M r in the objective (M C-ordered or transposed),
    # the probe's monic.mu and monic.M.monic, and J^T g with J C-ordered
    rng = np.random.default_rng(19)
    with np.errstate(all="ignore"):
        for _ in range(2000):
            k, n = (int(x) for x in rng.integers(2, 13, size=2))
            M, r, s = _edge_entries(rng, (k, k)), _edge_entries(rng, k), _edge_entries(rng, k)
            for m in (M, M.T):
                assert m.dot(r).tobytes() == (m @ r).tobytes()
                assert r.dot(m).dot(s).tobytes() == (r @ m @ s).tobytes()
            assert r.dot(s).tobytes() == (r @ s).tobytes()
            jac = _edge_entries(rng, (k, n))
            assert jac.T.dot(r).tobytes() == (jac.T @ r).tobytes()


def test_a_one_entry_objective_keeps_the_matmul_bytes():
    # on one entry @ sums 0.0 + m*r and .dot gives m*r, so a zero's sign can differ
    M = np.array([[-2.0]])
    assert np.copysign(1.0, (M @ np.array([0.0]))[0]) == 1.0
    assert np.copysign(1.0, M.dot(np.array([0.0]))[0]) == -1.0
    arch = Architecture((1, 1))
    rng = np.random.default_rng(23)
    entries = [0.0, -0.0, 5e-324, -2.0, float(rng.standard_normal())]
    thetas = [[np.array([0.0]), np.array([1.0])], [np.array([-0.0]), np.array([2.0])],
              arch.random_theta(rng)]
    by_dot = 0  # cases where .dot would give other bytes
    for m, u, const in itertools.product(entries, entries, (0.0, -0.0, 1.5)):
        obj = QuadraticObjective(np.array([[m]]), np.array([u]), const)
        for theta in thetas:
            r = end_to_end(theta, arch)[0] - obj.target
            g = 2.0 * (obj.matrix @ r)
            ref_loss = float(r @ obj.matrix @ r) + const
            assert obj.grad(r + obj.target).tobytes() == g.tobytes()
            loss, grads = loss_and_gradient(theta, arch, obj)
            assert loss.hex() == ref_loss.hex()
            ref_grads = [np.correlate(g, theta[1], "valid"), np.correlate(g, theta[0], "valid")]
            assert [d.tobytes() for d in grads] == [d.tobytes() for d in ref_grads]
            by_dot += (obj.matrix.dot(r).tobytes() != (obj.matrix @ r).tobytes()
                       or (float(r.dot(obj.matrix).dot(r)) + const).hex() != ref_loss.hex())
    assert by_dot > 0


def _doubled_grad(obj, w):
    """``QuadraticObjective.grad`` as it was before it doubled by addition."""
    r = as_filter(w) - obj.target
    return 2.0 * (obj.matrix @ r if len(r) == 1 else obj.matrix.dot(r))


def test_grad_doubles_by_addition_with_the_bytes_of_the_scalar_product():
    rng = np.random.default_rng(37)
    overflowed = subnormal = 0  # entries where doubling overflows or stays subnormal
    with np.errstate(all="ignore"):
        for k in range(1, 7):
            for _ in range(300):
                # matrix scales from 1e-320 (subnormal products) to 1e307 (overflow)
                scale = 10.0 ** rng.integers(-320, 308)
                obj = QuadraticObjective(rng.standard_normal((k, k)) * scale,
                                         rng.standard_normal(k))
                w = _edge_entries(rng, k)
                for x in (w, list(w)):
                    g = obj.grad(x)
                    assert g.tobytes() == _doubled_grad(obj, x).tobytes()
                half = obj.matrix.dot(w - obj.target)
                overflowed += np.sum(np.isfinite(half) & np.isinf(g))
                subnormal += np.sum((g != 0) & (np.abs(g) < np.finfo(float).tiny))
    assert overflowed > 0 and subnormal > 0
    # one entry: @ sums 0.0 + m*r, so a -0.0 residual still doubles to +0.0
    obj = QuadraticObjective(np.array([[1.0]]), np.array([0.0]))
    g = obj.grad([-0.0])
    assert g.tobytes() == _doubled_grad(obj, [-0.0]).tobytes() == np.array([0.0]).tobytes()


@pytest.mark.parametrize("k, w", [(3, [1.0]), (3, [1.0, 2.0]), (3, [1.0, 2.0, 3.0, 4.0]),
                                  (1, [1.0, 2.0]), (2, [1.0, 2.0, 3.0])])
def test_objective_rejects_a_filter_of_another_size(k, w):
    # a one-entry filter broadcast against the target, so grad([1.0]) of a size-3
    # objective returned a size-3 gradient; other sizes raised numpy's messages
    message = f"filter of size {len(w)} does not match the objective's size {k}"
    obj = QuadraticObjective.euclidean(np.arange(1.0, k + 1))
    for call in (obj.grad, obj.value):
        with pytest.raises(ValueError, match=message):
            call(w)
    if len(w) == 1:
        with pytest.raises(ValueError, match=message):
            network_loss([np.ones(1), np.ones(1)], Architecture((1, 1)), obj)


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
        grads = loss_and_gradient(theta, arch, obj)[1]
        flat = np.concatenate(theta)
        gflat = np.concatenate(grads)
        cuts = np.cumsum(ks)[:-1]
        h = 1e-6
        for p in range(len(flat)):
            bumped = flat.copy()
            bumped[p] += h
            up = network_loss(np.split(bumped, cuts), arch, obj)
            bumped[p] -= 2 * h
            dn = network_loss(np.split(bumped, cuts), arch, obj)
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
        assert np.max(np.abs(np.concatenate(grads) - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


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
    for fn in (end_to_end, jacobian_mu,
               lambda theta, arch: loss_and_gradient(theta, arch, obj),
               lambda theta, arch: gd_train(obj, arch, theta)):
        with pytest.raises(ValueError):
            fn(theta, arch)
    assert grad_calls == []  # gd_train checks theta0 before its first step


def test_theta_checks_build_no_upsampled_copy(monkeypatch):
    # the descent and gradient entry points check theta without _layers' copies; only
    # gd_train's final end_to_end composes the strided layers
    arch = Architecture((2, 3, 2), (2, 3, 1))
    theta = [np.array([1.0, -2.0]), np.array([0.5, 1.0, -1.0]), np.array([3.0, 1.0])]
    obj = QuadraticObjective.euclidean(np.linspace(-1.0, 1.0, arch.filter_size))
    copies = []
    pi_s = poly_core.pi_s

    def counted(w, stride):
        copies.append(stride)
        return pi_s(w, stride)

    monkeypatch.setattr(poly_core, "pi_s", counted)
    loss_and_gradient(theta, arch, obj)
    network_matrices(theta, arch, arch.min_input_size(2))
    assert copies == []
    gd_train(obj, arch, theta, TrainConfig(max_steps=3))
    assert copies == [2, 6]  # the final end_to_end


def test_gd_train_rejects_an_objective_of_another_size(grad_calls):
    obj = QuadraticObjective.euclidean([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match="size 4 does not match filter size 3"):
        gd_train(obj, Architecture((2, 2)), [np.ones(2), np.ones(2)])
    assert grad_calls == []


def test_gradients_reject_an_objective_of_another_size(grad_calls):
    obj = QuadraticObjective.euclidean([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match="size 4 does not match filter size 3"):
        loss_and_gradient([np.ones(2), np.ones(2)], Architecture((2, 2)), obj)
    assert grad_calls == []


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
        flat = np.concatenate(theta)
        cuts = np.cumsum(arch.ks)[:-1]
        h = 1e-6
        fd = np.zeros_like(flat)
        for p in range(len(flat)):
            bumped = flat.copy()
            bumped[p] += h
            up = mats_loss(np.split(bumped, cuts))
            bumped[p] -= 2 * h
            dn = mats_loss(np.split(bumped, cuts))
            fd[p] = (up - dn) / (2 * h)
        assert np.allclose(np.concatenate(g_matrix), fd, atol=1e-4)

        g_filter = loss_and_gradient(theta, arch, obj)[1]
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


@pytest.fixture
def target_classifications(monkeypatch):
    """One entry per ``classify_rrmp`` call that ``optim`` makes."""
    calls = []

    def counting(coeffs):
        calls.append(1)
        return classify_rrmp(coeffs)

    monkeypatch.setattr("lcnlab.optim.classify_rrmp", counting)
    return calls


def test_gd_train_classifies_the_target_on_first_read(target_classifications):
    arch = Architecture((2, 2))
    rng = np.random.default_rng(31)
    u = np.array([1.0, 0.5, -2.0])
    want = classify_rrmp(u.copy())
    run = gd_train(QuadraticObjective(np.eye(3), u), arch, arch.random_theta(rng))
    assert target_classifications == []
    u[:] = [1.0, 0.0, 1.0]  # the caller's array changes; the run's copy does not
    assert run.target_rrmp == want and want.label == "11|0"
    assert len(target_classifications) == 1
    assert run.target_rrmp is run.target_rrmp
    assert len(target_classifications) == 1
    zero = gd_train(QuadraticObjective.euclidean(np.zeros(3)), arch, arch.random_theta(rng))
    assert zero.target_rrmp is None and zero.target_rrmp is None
    assert len(target_classifications) == 2


def test_experiments_classify_only_the_targets_they_read(target_classifications):
    arch = Architecture((2, 2))
    run_distinct_experiment(arch, n_targets=2, n_inits=3, seed=11, workers=1)
    assert target_classifications == []
    table = run_pattern_experiment(arch, n_datasets=6, seed=5, workers=1)
    # the pattern table reads the target's label of every converged run, once
    kept = table.n_runs - table.n_discarded
    assert kept > 0 and len(target_classifications) == kept


def test_pattern_experiment_needs_as_many_samples_as_filter_taps():
    # fewer samples than taps leave the Gram matrix X X^T singular
    with pytest.raises(ValueError, match="2 samples .* filter size 3"):
        run_pattern_experiment(Architecture((2, 2)), n_datasets=1, n_samples=2, workers=1)
    with pytest.raises(ValueError, match="10 samples .* filter size 11"):
        run_pattern_experiment(Architecture((6, 6)), n_datasets=1, workers=1)
    table = run_pattern_experiment(Architecture((2, 2)), n_datasets=2, n_samples=3,
                                   config=TrainConfig(max_steps=50), workers=1)
    assert table.n_runs == 2


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


def _dense_objective(rng, target):
    """A Gram-matrix objective, as the pattern study draws, whose off-diagonal entries
    are not zero from two entries on, so that descent calls its ``grad``."""
    k = len(target)
    X = rng.standard_normal((k, 2 * k)) / np.sqrt(2 * k)
    return QuadraticObjective(X @ X.T, target)


def _diagonal_objectives(rng, k):
    """Diagonal objectives with random positive weights, one of them zero or negative,
    and targets scaled by 2^-30, 1 and 2^30."""
    for weight in (None, 0.0, -0.5):
        m = rng.uniform(0.1, 2.0, k)
        if weight is not None:
            m[rng.integers(k)] = weight
        for scale in (2.0 ** -30, 1.0, 2.0 ** 30):
            obj = QuadraticObjective(np.diag(m), scale * rng.standard_normal(k))
            assert obj._diagonal == m.tolist()
            yield obj


@pytest.mark.parametrize("ks, strides", [
    ((1,), None), ((2, 2), None), ((2, 2, 2), None), ((3, 2), (2, 1)), ((3, 3), None),
    ((12, 2), None),
])
def test_gd_train_matches_the_reference_loop_on_diagonal_objectives(ks, strides):
    # the diagonal kernel writes the loss gradient out; the reference calls obj.grad
    arch = Architecture(ks, strides)
    rng = np.random.default_rng(43)
    configs = (TrainConfig(step=0.05, max_steps=3000, grad_sq_tol=1e-10),
               TrainConfig(step=0.02, max_steps=30, grad_sq_tol=1e-12),
               TrainConfig(step=1.5, max_steps=300))
    outcomes = set()
    for obj in _diagonal_objectives(rng, arch.filter_size):
        for config in configs:
            theta0 = [0.5 * w for w in arch.random_theta(rng)]
            with np.errstate(all="ignore"):
                run = gd_train(obj, arch, theta0, config)
                ref = _reference_descent(obj, arch, theta0, config)
            assert _run_fields(run) == ref, (obj, config)
            outcomes.add("converged" if run.converged else "diverged" if run.diverged
                         else "capped")
    assert outcomes == {"converged", "capped", "diverged"}


def test_a_diagonal_matrix_product_is_the_elementwise_one_up_to_a_zeros_sign():
    # the diagonal descent kernel writes m*r where grad takes M.dot(r) (@ on one entry):
    # on a finite r, BLAS adds exact zeros to the one rounded product of each row
    rng = np.random.default_rng(47)
    edges = [0.0, -0.0, 5e-324, -1e-310, 1e-300, -1e-300, 1e300, -1e300]
    zero_signs = 0  # entries where only the sign of a zero differs
    with np.errstate(all="ignore"):
        for k in range(1, 13):
            for _ in range(400):
                m, r = (np.where(rng.random(k) < 0.3, rng.choice(edges, k),
                                 rng.standard_normal(k) * 10.0 ** rng.integers(-8, 9, k))
                        for _ in range(2))
                M = np.diag(m)
                M[(rng.random((k, k)) < 0.5) & ~np.eye(k, dtype=bool)] = -0.0
                want = m * r
                for got in (M.dot(r), M @ r):
                    assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
                    zero_signs += np.sum(np.signbit(got) != np.signbit(want))
    assert zero_signs > 0


def test_the_identity_product_keeps_a_vector_up_to_a_zeros_sign():
    # the probe's scale takes monic.monic for monic.I.monic: v.I is v but for a zero's
    # sign, which a sum with a nonzero term drops, and the monic's leading entry, a
    # product of cosines or 1, is never zero
    rng = np.random.default_rng(71)
    edges = [0.0, -0.0, 5e-324, -1e-310, 1e-300, -1e-300, 1e300, -1e300]
    zero_signs = 0  # entries of v.I where only the sign of a zero differs
    with np.errstate(all="ignore"):
        for k in range(2, 13):
            for _ in range(300):
                v = np.where(rng.random(k) < 0.4, rng.choice(edges, k),
                             rng.standard_normal(k) * 10.0 ** rng.integers(-8, 9, k))
                if v[0] == 0.0:
                    v[0] = rng.choice(edges[2:])
                eye = np.eye(k)
                eye[(rng.random((k, k)) < 0.5) & ~np.eye(k, dtype=bool)] = -0.0
                product = v.dot(eye)
                assert (product + 0.0).tobytes() == (v + 0.0).tobytes()
                assert product.dot(v).tobytes() == v.dot(v).tobytes()
                zero_signs += np.sum(np.signbit(product) != np.signbit(v))
    assert zero_signs > 0


def _numpy_routes(arch):
    """The numpy cases of the float-list arithmetic that a descent step on ``arch``
    takes: a product with a shorter operand of 3 or more entries, a squared norm of a
    layer of 8 or more entries and a correlation with 12 or more taps."""
    fs, _ = _layers([np.ones(k) for k in arch.ks], arch)
    shorter = [0]

    def mul(a, b):
        shorter.append(min(len(a), len(b)))
        return np.convolve(a, b)

    _, comps = _complements(fs, mul)
    return {route for route, taken in (("product", max(shorter) >= 3), ("norm", max(arch.ks) >= 8),
                                       ("correlation", max(map(len, comps)) >= 12)) if taken}


def test_gd_train_matches_the_reference_loop_on_random_architectures():
    rng = np.random.default_rng(16)
    gram_rng = np.random.default_rng(18)  # the dense matrices, apart from rng's draws
    outcomes, routes = set(), set()
    for i in range(24):
        arch = random_arch(rng, max_k=(5, 13)[i % 2])  # every other one up to 13 taps
        routes |= _numpy_routes(arch)
        metric = (QuadraticObjective.euclidean, QuadraticObjective.bombieri)[int(rng.integers(2))]
        obj = metric(end_to_end([rng.standard_normal(k) / np.sqrt(k) for k in arch.ks], arch)[0])
        theta0 = [_signed_zero_filter(rng, k) / np.sqrt(k) for k in arch.ks]
        with_inf = [w.copy() for w in theta0]
        with_inf[int(rng.integers(arch.depth))][0] = np.inf
        # the diagonal metric and a dense objective take the two descent kernels
        for obj in (obj, _dense_objective(gram_rng, obj.target)):
            with np.errstate(all="ignore"):
                g0 = float(sum(np.sum(g * g) for g in loss_and_gradient(theta0, arch, obj)[1]))
                converging = TrainConfig(step=0.1 / (1 + g0), max_steps=200, grad_sq_tol=0.1 * g0)
                for theta, config in ((theta0, converging), (with_inf, converging),
                                      (theta0, TrainConfig(step=1e-3 / (1 + g0), max_steps=10,
                                                           grad_sq_tol=0.0)),
                                      (theta0, TrainConfig(step=10.0, max_steps=200,
                                                           diverge_loss=1e6))):
                    run = gd_train(obj, arch, theta, config)
                    ref = _reference_descent(obj, arch, theta, config)
                    assert _run_fields(run) == ref, (arch, config)
                    outcomes.add((obj._diagonal is None, "converged" if run.converged
                                  else "diverged" if run.diverged else "capped"))
    assert outcomes == {(dense, outcome) for dense in (False, True)
                        for outcome in ("converged", "capped", "diverged")}
    assert routes == {"product", "norm", "correlation"}


def test_one_descent_kernel_per_architecture():
    _descent_kernel.cache_clear()
    arch = Architecture((3, 2), (2, 1))
    rng = np.random.default_rng(17)
    # both metrics are diagonal, so they share the diagonal kernel
    for metric in (QuadraticObjective.euclidean, QuadraticObjective.bombieri):
        obj = metric(rng.standard_normal(arch.filter_size))
        for config in (TrainConfig(max_steps=5), TrainConfig(step=0.02, max_steps=3)):
            gd_train(obj, arch, arch.random_theta(rng), config)
    info = _descent_kernel.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    diagonal = _descent_kernel(arch.ks, arch.strides[:-1], True)
    assert diagonal[1] is None  # loss_and_gradient takes the dense kernel's gradients
    # a dense objective and the gradients share the dense kernel
    gd_train(_dense_objective(rng, rng.standard_normal(arch.filter_size)), arch,
             arch.random_theta(rng), TrainConfig(max_steps=5))
    assert _descent_kernel.cache_info().misses == 2
    kernel = _descent_kernel(arch.ks, arch.strides[:-1], False)
    assert kernel[0] is not diagonal[0]
    # the last layer's stride never enters the source, so it does not key the kernel
    same = Architecture((3, 2), (2, 2))
    loss_and_gradient(same.random_theta(rng),
                      same, QuadraticObjective.euclidean(rng.standard_normal(same.filter_size)))
    assert _descent_kernel.cache_info().misses == 2
    assert _descent_kernel(same.ks, same.strides[:-1], False) is kernel
    other = Architecture((3, 2), (1, 1))
    gd_train(QuadraticObjective.euclidean(rng.standard_normal(other.filter_size)), other,
             other.random_theta(rng), TrainConfig(max_steps=5))
    assert _descent_kernel.cache_info().misses == 3
    assert _descent_kernel(other.ks, other.strides[:-1], True) is not diagonal


def test_descent_kernel_multiplies_upsampled_zeros():
    """inf * 0.0 is NaN, so a strided layer's zeros still meet every factor."""
    arch = Architecture((2, 2), (2, 1))
    theta = [np.array([np.inf, 2.0]), np.array([3.0, 4.0])]
    g = np.array([1.0, np.inf, 1.0, 1.0])
    gradients = _descent_kernel(arch.ks, arch.strides[:-1])[1]
    w, grads = gradients([t.tolist() for t in theta], lambda w: g)
    fs, spans = _layers(theta, arch)
    ref_w, comps = _complements(fs)
    ref_grads = [np.correlate(g, c, "valid")[::s] for c, s in zip(comps, spans)]
    assert np.array_equal(w, ref_w, equal_nan=True) and np.isnan(w[1])
    assert all(np.array_equal(d, r, equal_nan=True) for d, r in zip(grads, ref_grads))
    assert np.isnan(grads[0][0])


def _sq_norm(grads):
    """The descent kernel's squared norm of a list of layers, run from its source."""
    names = [[f"x{l}_{j}" for j in range(len(g))] for l, g in enumerate(grads)]
    values = {n: float(x) for layer, g in zip(names, grads) for n, x in zip(layer, g)}
    return eval(_sq_norm_source(names), {"_sum": np.sum, "_square": np.square, **values})


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
    obj = _dense_objective(rng, rng.standard_normal(arch.filter_size))
    run = gd_train(obj, arch, arch.random_theta(rng),
                   TrainConfig(step=0.02, max_steps=max_steps, grad_sq_tol=1e-12))
    assert not run.diverged and run.converged == (max_steps > 40)
    assert len(grad_calls) == run.steps + 1


@pytest.mark.parametrize("max_steps", [20000, 40])
def test_gd_train_on_a_diagonal_objective_calls_no_gradient(max_steps, grad_calls):
    arch = Architecture((2, 2, 2))
    rng = np.random.default_rng(14)
    obj = QuadraticObjective.euclidean(rng.standard_normal(arch.filter_size))
    run = gd_train(obj, arch, arch.random_theta(rng),
                   TrainConfig(step=0.02, max_steps=max_steps, grad_sq_tol=1e-12))
    assert not run.diverged and run.converged == (max_steps > 40)
    assert grad_calls == []


@pytest.mark.parametrize("kwargs", [
    {"step": 0.0}, {"step": -0.1}, {"step": np.nan}, {"step": np.inf}, {"max_steps": -1},
    {"grad_sq_tol": np.nan}, {"grad_sq_tol": -1e-14},
    {"diverge_loss": np.nan}, {"diverge_loss": 0.0}, {"diverge_loss": -1.0},
    {"max_steps": 10.5}, {"max_steps": np.nan}, {"max_steps": np.inf},
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


def test_filters_of_different_sizes_are_distinct():
    # a one-entry filter broadcast against a longer one and counted once with it;
    # sizes 2 and 3 raised numpy's broadcast error
    assert not poly_core._same_filter(np.ones(3), np.ones(1), 1e-4)
    assert count_distinct_filters([np.ones(3), np.ones(1)]) == 2
    assert count_distinct_filters([np.ones(2), np.ones(3), np.ones(2)]) == 2


@pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
def test_count_distinct_filters_rejects_a_bad_tolerance(tol):
    # a negative tolerance counted two equal filters as two
    assert count_distinct_filters([np.ones(3), np.ones(3)]) == 1
    for filters in ([np.ones(3), np.ones(3)], []):
        with pytest.raises(ValueError, match="tol must be finite and non-negative"):
            count_distinct_filters(filters, tol=tol)


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


@pytest.mark.parametrize("call, name", [
    (lambda: run_pattern_experiment(Architecture((2, 2)), n_datasets=2.5), "n_datasets"),
    (lambda: run_pattern_experiment(Architecture((2, 2)), n_datasets=2, n_samples=4.0),
     "n_samples"),
    (lambda: run_distinct_experiment(Architecture((2, 2)), n_targets=2.5), "n_targets"),
    (lambda: run_distinct_experiment(Architecture((2, 2)), n_inits=2.5), "n_inits"),
])
def test_experiments_reject_counts_that_are_not_integers(call, name, monkeypatch):
    monkeypatch.setattr("lcnlab.optim.gd_train", lambda *job: pytest.fail("a run started"))
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        call()


# --- the drivers' one fan-out against the per-driver workers it replaced -------


def _reference_fan_out(fn, jobs, workers, chunksize):
    if workers <= 1:
        return [fn(job) for job in jobs]
    with multiprocessing.Pool(workers) as pool:
        return pool.map(fn, jobs, chunksize=chunksize)


def _reference_pattern_worker(args):
    arch, master_seed, idx, config, n_samples = args
    rng = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(idx,)))
    k = arch.filter_size
    X = rng.standard_normal((k, n_samples))
    Y = rng.standard_normal((1, n_samples))
    Sigma = X @ X.T
    u = np.linalg.solve(Sigma, X @ Y.T).ravel()
    run = gd_train(QuadraticObjective(Sigma, u), arch, arch.random_theta(rng), config)
    if not run.converged:
        return None
    labels = tuple(r.label if r is not None else "?"
                   for r in (run.target_rrmp, run.init_rrmp, run.solution_rrmp))
    return labels + (run.loss,)


def _reference_distinct_worker(args):
    arch, master_seed, idx, n_inits, config = args
    rng = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(idx,)))
    u = rng.standard_normal(arch.filter_size)
    counts = {}
    for metric, obj in (("euclidean", QuadraticObjective.euclidean(u)),
                        ("bombieri", QuadraticObjective.bombieri(u))):
        sols = []
        for _ in range(n_inits):
            run = gd_train(obj, arch, arch.random_theta(rng), config)
            if run.converged:
                sols.append(run.w)
        counts[metric] = count_distinct_filters(sols)
    return counts


def _pattern_bytes(table):
    return ([(t, i, s, n, loss.hex()) for t, i, s, n, loss in table.rows()],
            table.n_runs, table.n_discarded)


def _distinct_bytes(table):
    return [(metric, list(h.items())) for metric, h in table.histogram.items()]


# step 0.01 converges or hits the 3,000-step cap; step 0.3 diverges on most datasets
_DRIVER_CONFIGS = [TrainConfig(step=0.01, max_steps=3000, grad_sq_tol=1e-16),
                   TrainConfig(step=0.3, max_steps=3000)]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("ks", [(2, 2), (2, 2, 2), (3, 2), (2, 3)])
def test_drivers_give_the_tables_of_the_reference_workers_byte_for_byte(ks, workers,
                                                                         monkeypatch):
    outcomes = set()  # (converged, diverged) of the runs, seen in-process only

    def recording(*job):
        run = gd_train(*job)
        outcomes.add((run.converged, run.diverged))
        return run

    monkeypatch.setattr("lcnlab.optim.gd_train", recording)
    arch = Architecture(ks)
    for config in _DRIVER_CONFIGS:
        got = run_pattern_experiment(arch, n_datasets=20, seed=3, config=config,
                                     workers=workers)
        assert multiprocessing.active_children() == []
        ref = PatternTable(arch)
        jobs = [(arch, 3, i, config, 10) for i in range(20)]
        for res in _reference_fan_out(_reference_pattern_worker, jobs, workers, 16):
            if res is None:
                ref.discard()
            else:
                ref.add(*res)
        assert _pattern_bytes(got) == _pattern_bytes(ref)

        got = run_distinct_experiment(arch, n_targets=4, n_inits=5, seed=7, config=config,
                                      workers=workers)
        assert multiprocessing.active_children() == []
        ref = DistinctTable(arch)
        jobs = [(arch, 7, i, 5, config) for i in range(4)]
        for counts in _reference_fan_out(_reference_distinct_worker, jobs, workers, 4):
            for metric, n in counts.items():
                ref.add(metric, n)
        assert _distinct_bytes(got) == _distinct_bytes(ref)
    if workers == 1:  # converged, capped and diverged runs all occur
        assert outcomes == {(True, False), (False, False), (False, True)}


def test_each_driver_run_is_one_gd_train_call(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(1)
        return gd_train(*args)

    monkeypatch.setattr("lcnlab.optim.gd_train", counting)
    arch = Architecture((2, 2))
    table = run_pattern_experiment(arch, n_datasets=5, seed=1, workers=1)
    assert len(calls) == table.n_runs == 5
    del calls[:]
    run_distinct_experiment(arch, n_targets=2, n_inits=3, seed=1, workers=1)
    assert len(calls) == 2 * 2 * 3


def test_train_all_yields_in_job_order_and_leaves_no_worker():
    arch = Architecture((2, 2))
    rng = _seeded(4, 0)
    jobs = [(QuadraticObjective.euclidean(rng.standard_normal(3)), arch,
             arch.random_theta(rng), TrainConfig(max_steps=200 * j)) for j in range(6)]
    want = [gd_train(*job).steps for job in jobs]
    assert [run.steps for run in _train_all(jobs, 1)] == want
    runs = _train_all(iter(jobs), 2)
    assert next(runs).steps == want[0] and multiprocessing.active_children() != []
    runs.close()  # a consumer that stops early shuts the pool down
    assert multiprocessing.active_children() == []
    assert [run.steps for run in _train_all(iter(jobs), 2)] == want
    assert multiprocessing.active_children() == []
    # the same spawn key gives the same draws
    assert _seeded(4, 0).standard_normal() == np.random.default_rng(
        np.random.SeedSequence(4, spawn_key=(0,))).standard_normal()
