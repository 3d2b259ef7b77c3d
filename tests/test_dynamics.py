import numpy as np
import pytest

from lcnlab.dynamics import (
    balancedness_matrix,
    integrate_flow,
    jacobian_mu,
    mu_rank,
    recover_scales,
    scale_sign_patterns,
    squared_norm_gaps,
)
from lcnlab.optim import QuadraticObjective, loss_and_gradient
from lcnlab.poly_core import Architecture, end_to_end


def test_norm_gaps_and_matrix():
    theta = [np.array([3.0, 4.0]), np.array([1.0, 0.0])]
    assert np.allclose(squared_norm_gaps(theta), [1.0 - 25.0])
    D = balancedness_matrix(theta)
    assert D[0, 1] == 24.0 and D[1, 0] == -24.0 and D[0, 0] == 0.0


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(30):
        depth = int(rng.integers(1, 4))
        ks = tuple(int(rng.integers(1, 5)) for _ in range(depth))
        strides = tuple(int(rng.integers(1, 3)) for _ in range(depth))
        arch = Architecture(ks, strides)
        theta = arch.random_theta(rng)
        J = jacobian_mu(theta, arch)
        flat = np.concatenate(theta)
        cuts = np.cumsum(ks)[:-1]
        h = 1e-6
        for p in range(len(flat)):
            bumped = flat.copy()
            bumped[p] += h
            up, _ = end_to_end(np.split(bumped, cuts), arch)
            bumped[p] -= 2 * h
            dn, _ = end_to_end(np.split(bumped, cuts), arch)
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
    # roots shared across layers or repeated within one, at 1 and at infinity and 0,
    # where find_roots gives every such root as the same object: the rank must come
    # from each root's own layer
    for ks, theta in (((2, 2), [[0.0, 1.0], [0.0, 1.0]]),
                      ((3, 2), [[1.0, 0.0, 0.0], [1.0, 0.0]]),
                      ((3, 3), [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
                      ((2, 2, 2), [[0.0, 1.0], [1.0, 0.0], [0.0, 2.0]]),
                      ((3, 2, 2), [[1.0, -2.0, 1.0], [1.0, -1.0], [2.0, -2.0]])):
        cases.append((Architecture(ks), [np.array(w) for w in theta]))
    # a final stride only subsamples and trailing size-one layers only
    # rescale, so root counts still give the rank
    for ks, strides in (((2, 2), (1, 2)), ((3, 2), (1, 3)), ((2, 2, 1), (1, 2, 1)),
                        ((3, 2, 1, 1), (1, 2, 3, 1)), ((2, 3, 1), (1, 1, 2))):
        arch = Architecture(ks, strides)
        cases += [(arch, arch.random_theta(rng)) for _ in range(5)]
    cases.append((Architecture((2, 2, 1), (1, 2, 1)),
                  [np.array([1.0, 1.0]), np.array([2.0, 2.0]), np.array([3.0])]))
    cases.append((Architecture((3, 2, 1), (1, 2, 2)),
                  [np.array([1.0, 3.0, 2.0]), np.array([1.0, 1.0]), np.array([-0.5])]))
    # a nonzero layer of size one has no roots
    cases.append((Architecture((2, 1)), [np.array([1.0, 2.0]), np.array([3.0])]))
    for arch, theta in cases:
        J = jacobian_mu(theta, arch)
        assert mu_rank(theta, arch) == np.linalg.matrix_rank(J, tol=1e-8), (
            arch.ks, [list(w) for w in theta])


def test_mu_rank_rejects_a_zero_layer():
    # find_roots' error, for a layer of any size: a zero scalar layer drops the rank of
    # the differential to 1, so the root count of the other layers would be wrong
    assert np.linalg.matrix_rank(jacobian_mu([[1.0, 2.0], [0.0]], Architecture((2, 1)))) == 1
    for theta, ks in (([[1.0, 2.0], [0.0, 0.0, 0.0]], (2, 3)), ([[1.0, 2.0], [0.0]], (2, 1))):
        with pytest.raises(ValueError, match="the zero filter has no root data"):
            mu_rank(theta, Architecture(ks))
    # a non-finite layer raises find_roots' ValueError too (test_rootlab)
    with pytest.raises(ValueError, match="non-finite"):
        mu_rank([[1.0, 2.0], [np.nan]], Architecture((2, 1)))


def test_mu_rank_rejects_an_interior_stride_and_a_mismatched_theta():
    # root counts do not give the rank here: 4 from roots, 3 numerically
    arch = Architecture((2, 2), (2, 1))
    theta = [np.array([1.0, 1.0]), np.array([1.0, -1.0])]
    assert np.linalg.matrix_rank(jacobian_mu(theta, arch)) == 3
    with pytest.raises(ValueError, match="interior stride"):
        mu_rank(theta, arch)
    with pytest.raises(ValueError, match="do not match"):
        mu_rank([np.ones(3), np.ones(2)], Architecture((2, 2)))
    with pytest.raises(ValueError, match="expected 2 filters"):
        mu_rank([np.ones(2)], Architecture((2, 2)))


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


@pytest.mark.parametrize("q_filters, gaps, field", [
    ([[1.0, 0.0], [1.0, 0.0]], [np.nan], "gaps"),
    ([[1.0, 0.0], [1.0, 0.0]], [np.inf], "gaps"),
    ([[1.0, np.nan], [1.0, 0.0]], [0.0], "q_filters"),
    ([[1.0, 0.0], [-np.inf, 0.0]], [0.0], "q_filters"),
    ([[1e200, 0.0], [1e200, 0.0]], [0.0], "q_filters"),
    ([[1e150, 0.0], [1e150, 0.0]], [0.0], "scale polynomial"),
    ([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]], [1e308, 1e308], "scale polynomial"),
])
def test_recover_scales_rejects_norms_it_cannot_represent(q_filters, gaps, field, monkeypatch):
    def no_roots(poly):
        pytest.fail("np.roots ran before the input was rejected")

    monkeypatch.setattr(np, "roots", no_roots)
    with pytest.raises(ValueError, match=field):
        recover_scales(q_filters, gaps)


@pytest.mark.parametrize("fn", [squared_norm_gaps, balancedness_matrix])
def test_layer_norms_reject_an_overflowing_squared_norm(fn):
    with pytest.raises(ValueError, match=r"theta\[0\] has squared norm inf"):
        fn([[1e200, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match=r"theta\[1\] has squared norm nan"):
        fn([[1.0, 1.0], [np.nan, 1.0]])
    assert np.all(np.isfinite(fn([[1e154, 1.0], [1.0, 1.0]])))


def test_flow_conserves_gaps_rk4():
    arch = Architecture((2, 2, 2))
    rng = np.random.default_rng(5)
    u = rng.standard_normal(4)
    obj = QuadraticObjective.euclidean(u)
    theta0 = arch.random_theta(rng)
    gaps0 = squared_norm_gaps(theta0)

    def grad(theta):
        return loss_and_gradient(theta, arch, obj)[1]

    theta = integrate_flow(theta0, grad, step=1e-3, n_steps=2000, method="rk4")
    drift = np.max(np.abs(squared_norm_gaps(theta) - gaps0))
    assert drift < 1e-9
    # the flow actually moved
    assert np.max(np.abs(np.concatenate(theta) - np.concatenate(theta0))) > 1e-3


def test_euler_flow_matches_gradient_descent_step():
    arch = Architecture((2, 2))
    rng = np.random.default_rng(6)
    obj = QuadraticObjective.euclidean(rng.standard_normal(3))
    theta0 = arch.random_theta(rng)

    def grad(theta):
        return loss_and_gradient(theta, arch, obj)[1]

    theta1 = integrate_flow(theta0, grad, step=0.01, n_steps=1, method="euler")
    manual = [w - 0.01 * g for w, g in zip(theta0, grad(theta0))]
    assert all(np.allclose(a, b) for a, b in zip(theta1, manual))


def test_flow_rejects_unknown_method():
    # checked before stepping, so also when there is no step to take
    for n_steps in (1, 0):
        with pytest.raises(ValueError, match="leapfrog"):
            integrate_flow([np.ones(2)], lambda t: t, 0.1, n_steps, method="leapfrog")


@pytest.mark.parametrize("step, n_steps, message", [
    (0.0, 1, "step must be finite and positive, got 0.0"),
    (-0.1, 1, "step must be finite and positive"),
    (np.nan, 1, "step must be finite and positive, got nan"),
    (np.inf, 1, "step must be finite and positive"),
    (0.1, -3, "n_steps must be non-negative, got -3"),
    (0.1, 2.0, "n_steps must be an integer, got 2.0"),
    (0.1, "2", "n_steps must be an integer"),
])
def test_flow_rejects_bad_step_settings(step, n_steps, message):
    def no_grad(theta):
        pytest.fail("the flow stepped before its settings were checked")

    for method in ("euler", "rk4"):
        with pytest.raises(ValueError, match=message):
            integrate_flow([np.ones(2)], no_grad, step, n_steps, method=method)
    theta0 = [np.array([1.0, 2.0])]
    theta = integrate_flow(theta0, no_grad, 0.1, np.int64(0))
    assert theta[0].tobytes() == theta0[0].tobytes() and theta[0] is not theta0[0]
