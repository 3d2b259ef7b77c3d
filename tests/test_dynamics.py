import numpy as np
import pytest

from lcnlab.dynamics import (
    balancedness_matrix,
    integrate_flow,
    jacobian_mu,
    mu_rank,
    ntk,
    recover_scales,
    scale_sign_patterns,
    squared_norm_gaps,
    stack_theta,
    unstack_theta,
)
from lcnlab.optim import QuadraticObjective, network_gradient
from lcnlab.poly_core import Architecture, end_to_end


def test_norm_gaps_and_matrix():
    theta = [np.array([3.0, 4.0]), np.array([1.0, 0.0])]
    assert np.allclose(squared_norm_gaps(theta), [1.0 - 25.0])
    D = balancedness_matrix(theta)
    assert D[0, 1] == 24.0 and D[1, 0] == -24.0 and D[0, 0] == 0.0


def test_stack_unstack_round_trip():
    arch = Architecture((3, 2))
    theta = [np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0])]
    assert [list(w) for w in unstack_theta(stack_theta(theta), arch)] == \
        [[1.0, 2.0, 3.0], [4.0, 5.0]]


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(30):
        depth = int(rng.integers(1, 4))
        ks = tuple(int(rng.integers(1, 5)) for _ in range(depth))
        strides = tuple(int(rng.integers(1, 3)) for _ in range(depth))
        arch = Architecture(ks, strides)
        theta = arch.random_theta(rng)
        J = jacobian_mu(theta, arch)
        flat = stack_theta(theta)
        h = 1e-6
        for p in range(len(flat)):
            bumped = flat.copy()
            bumped[p] += h
            up, _ = end_to_end(unstack_theta(bumped, arch), arch)
            bumped[p] -= 2 * h
            dn, _ = end_to_end(unstack_theta(bumped, arch), arch)
            fd = (up - dn) / (2 * h)
            assert np.allclose(J[:, p], fd, atol=1e-6)


def probe_jacobian(theta, arch):
    """The differential column by column: column (l, j) is the composed
    filter with layer l replaced by the j-th unit filter."""
    cols = []
    for l, k in enumerate(arch.ks):
        for j in range(k):
            probe = [np.asarray(w, dtype=float) for w in theta]
            probe[l] = np.eye(k)[j]
            cols.append(end_to_end(probe, arch)[0])
    return np.column_stack(cols)


def test_jacobian_matches_column_probe():
    rng = np.random.default_rng(11)
    for _ in range(300):
        depth = int(rng.integers(1, 5))
        ks = tuple(int(rng.integers(1, 5)) for _ in range(depth))
        strides = tuple(int(rng.integers(1, 4)) for _ in range(depth))
        arch = Architecture(ks, strides)
        theta = arch.random_theta(rng)
        J, ref = jacobian_mu(theta, arch), probe_jacobian(theta, arch)
        assert J.shape == ref.shape
        assert np.max(np.abs(J - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))


def test_jacobian_blocks_for_quadratic_times_linear():
    a, b, c, d, e = 2.0, 3.0, 5.0, 7.0, 11.0
    arch = Architecture((3, 2))
    J = jacobian_mu([[a, b, c], [d, e]], arch)
    block1 = np.array([[d, 0, 0], [e, d, 0], [0, e, d], [0, 0, e]])
    block2 = np.array([[a, 0], [b, a], [c, b], [0, c]])
    assert np.allclose(J[:, :3], block1)
    assert np.allclose(J[:, 3:], block2)
    K = ntk([[a, b, c], [d, e]], arch)
    assert np.allclose(K, block1 @ block1.T + block2 @ block2.T)


def test_mu_rank_drops_on_shared_roots():
    arch = Architecture((2, 2))
    assert mu_rank([[1.0, 1.0], [1.0, 1.0]], arch) == 2
    assert mu_rank([[1.0, 1.0], [1.0, 2.0]], arch) == 3


def test_mu_rank_matches_numeric_rank():
    rng = np.random.default_rng(8)
    cases = []
    for _ in range(40):
        depth = int(rng.integers(2, 4))
        ks = tuple(int(rng.integers(2, 4)) for _ in range(depth))
        arch = Architecture(ks)
        theta = arch.random_theta(rng)
        cases.append((arch, theta))
    # engineered shared-root cases
    cases.append((Architecture((2, 2, 2)),
                  [np.array([1.0, 2.0]), np.array([2.0, 4.0]), np.array([1.0, 1.0])]))
    cases.append((Architecture((3, 2)),
                  [np.array([1.0, 3.0, 2.0]), np.array([1.0, 1.0])]))
    cases.append((Architecture((3, 3)),
                  [np.array([1.0, 2.0, 1.0]), np.array([2.0, 4.0, 2.0])]))
    for arch, theta in cases:
        J = jacobian_mu(theta, arch)
        assert mu_rank(theta, arch) == np.linalg.matrix_rank(J, tol=1e-8), (
            arch.ks, [list(w) for w in theta])


def test_recover_scales_worked_case():
    # layers ([1,6,11,6],[4,1]) -> gap 17 - 194 = -177; directions from the
    # limit filter [2,0,5,0,0] factoring as [2,0,5,0] (x) [1,0]
    gaps = [17.0 - 194.0]
    sols = recover_scales([[2.0, 0.0, 5.0, 0.0], [1.0, 0.0]], gaps)
    assert len(sols) == 1
    s = sols[0]
    kappa2 = np.sqrt((np.sqrt(31445.0) - 177.0) / 2.0)
    assert abs(s.kappa_abs[1] - kappa2) < 1e-12
    assert abs(s.kappa_abs[0] - 1.0 / kappa2) < 1e-12
    assert abs(np.prod(s.beta) - 29.0) < 1e-9
    assert np.allclose(np.diff(s.beta), gaps)


def test_recover_scales_signed_patterns():
    sols = recover_scales([[2.0, 0.0, 5.0, 0.0], [1.0, 0.0]], [-177.0])
    s = sols[0]
    signed = s.signed((-1, -1))
    assert np.allclose(np.abs(signed), s.kappa_abs)
    with pytest.raises(ValueError):
        s.signed((1, -1))  # product -1 would flip the composition


def test_scale_sign_patterns():
    pats = scale_sign_patterns(3)
    assert len(pats) == 4
    assert all(np.prod(p) == 1 for p in pats)
    assert (1, 1, 1) in pats and (-1, -1, 1) in pats


def test_recover_scales_rejects_mismatched_gaps():
    with pytest.raises(ValueError):
        recover_scales([[1.0, 0.0], [1.0, 0.0]], [1.0, 2.0])


def test_flow_conserves_gaps_rk4():
    arch = Architecture((2, 2, 2))
    rng = np.random.default_rng(5)
    u = rng.standard_normal(4)
    obj = QuadraticObjective.euclidean(u)
    theta0 = arch.random_theta(rng)
    gaps0 = squared_norm_gaps(theta0)

    def grad(theta):
        return network_gradient(theta, arch, obj)

    theta = integrate_flow(theta0, grad, step=1e-3, n_steps=2000, method="rk4")
    drift = np.max(np.abs(squared_norm_gaps(theta) - gaps0))
    assert drift < 1e-9
    # the flow actually moved
    assert np.max(np.abs(stack_theta(theta) - stack_theta(theta0))) > 1e-3


def test_euler_flow_matches_gradient_descent_step():
    arch = Architecture((2, 2))
    rng = np.random.default_rng(6)
    obj = QuadraticObjective.euclidean(rng.standard_normal(3))
    theta0 = arch.random_theta(rng)

    def grad(theta):
        return network_gradient(theta, arch, obj)

    theta1 = integrate_flow(theta0, grad, step=0.01, n_steps=1, method="euler")
    manual = [w - 0.01 * g for w, g in zip(theta0, grad(theta0))]
    assert all(np.allclose(a, b) for a, b in zip(theta1, manual))


def test_flow_rejects_unknown_method():
    with pytest.raises(ValueError):
        integrate_flow([np.ones(2)], lambda t: t, 0.1, 1, method="leapfrog")
