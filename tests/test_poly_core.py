import math

import numpy as np
import pytest

from lcnlab.poly_core import (
    Architecture,
    _correlate_list,
    _mul_list,
    _nearest,
    apply_conv_tensor,
    as_filter,
    circulant_matrix,
    compose_filters,
    compose_tensor_filters,
    end_to_end,
    materialize_conv_tensor,
    network_matrices,
    network_poly,
    pi,
    pi_s,
    toeplitz_matrix,
    upsample,
)


def random_arch(rng, max_depth=4, max_k=5, max_stride=3):
    depth = int(rng.integers(1, max_depth + 1))
    ks = tuple(int(rng.integers(1, max_k + 1)) for _ in range(depth))
    strides = tuple(int(rng.integers(1, max_stride + 1)) for _ in range(depth))
    return Architecture(ks, strides)


def test_architecture_basics():
    arch = Architecture((3, 2), (2, 1))
    assert arch.depth == 2
    assert arch.filter_size == 5
    assert arch.stride == 2
    assert arch.bin_sizes == (2, 1)
    assert arch.layer_dims(9) == (9, 4, 3)


def test_architecture_defaults_to_unit_strides():
    arch = Architecture((2, 2, 2))
    assert arch.strides == (1, 1, 1)
    assert arch.filter_size == 4
    assert arch.stride == 1


def test_architecture_rejects_bad_input():
    with pytest.raises(ValueError):
        Architecture((3, 0))
    with pytest.raises(ValueError):
        Architecture((3, 2), (2,))
    arch = Architecture((3, 2), (2, 1))
    with pytest.raises(ValueError):
        arch.layer_dims(8)  # (8 - 3) not divisible by 2


def test_min_input_size_round_trips():
    rng = np.random.default_rng(7)
    for _ in range(50):
        arch = random_arch(rng)
        d0 = arch.min_input_size()
        assert arch.layer_dims(d0)[-1] == 1


def test_compose_worked_example():
    # stride-2 composition of (a, b, c) then (d, e)
    a, b, c, d, e = 2.0, 3.0, 5.0, 7.0, 11.0
    out = compose_filters([d, e], 2, [a, b, c])
    expected = [a * d, b * d, a * e + c * d, b * e, c * e]
    assert np.allclose(out, expected)


def test_upsample_places_entries_stride_apart():
    assert np.array_equal(upsample([3.0, 4.0], 2), [3.0, 0.0, 4.0])
    assert np.array_equal(upsample([1.0, 1.0], 3), [1.0, 0.0, 0.0, 1.0])
    assert np.array_equal(upsample([5.0], 4), [5.0])


def test_end_to_end_size_and_stride():
    arch = Architecture((3, 2), (2, 1))
    theta = [np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0])]
    w, stride = end_to_end(theta, arch)
    assert len(w) == 5 == arch.filter_size
    assert stride == 2 == arch.stride


def test_depth_one_end_to_end_does_not_alias_the_layer():
    theta = [np.array([1.0, 2.0, 3.0])]
    w, _ = end_to_end(theta, Architecture((3,)))
    assert np.array_equal(w, theta[0])
    assert not np.shares_memory(w, theta[0])


def test_pi_is_identity_on_coefficients():
    w = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(pi(w), w)
    assert np.array_equal(pi_s(w, 1), w)


def test_pi_multiplicative_on_random_networks():
    rng = np.random.default_rng(123)
    for _ in range(200):
        arch = random_arch(rng)
        theta = arch.random_theta(rng)
        w, _ = end_to_end(theta, arch)
        prod = network_poly(theta, arch)
        assert np.allclose(pi(w), prod, atol=1e-10 * max(1.0, np.max(np.abs(prod))))


def test_toeplitz_entries():
    T = toeplitz_matrix([1.0, 2.0], 3, stride=1)
    assert np.array_equal(T, [[1.0, 2.0, 0.0], [0.0, 1.0, 2.0]])
    T2 = toeplitz_matrix([1.0, 2.0, 3.0], 5, stride=2)
    assert np.array_equal(T2, [[1.0, 2.0, 3.0, 0.0, 0.0], [0.0, 0.0, 1.0, 2.0, 3.0]])


def test_toeplitz_requires_divisible_size():
    with pytest.raises(ValueError):
        toeplitz_matrix([1.0, 2.0, 3.0], 6, stride=2)


@pytest.mark.parametrize("realize, d, stride", [
    (toeplitz_matrix, 2, 1),  # filter longer than the input
    (toeplitz_matrix, 3, 0),
    (toeplitz_matrix, 3, -1),
    (circulant_matrix, 2, 1),  # a cyclic filter may not wrap onto itself
    (circulant_matrix, 4, 3),
    (circulant_matrix, 3, 0),
    (circulant_matrix, 3, -1),
])
def test_window_matrices_reject_bad_placements(realize, d, stride):
    with pytest.raises(ValueError):
        realize([1.0, 2.0, 3.0], d, stride)


def test_circulant_rows_shift_by_stride():
    a, b = 2.0, 7.0
    C = circulant_matrix([a, b], 3, stride=1)
    assert np.array_equal(C, [[a, b, 0.0], [0.0, a, b], [b, 0.0, a]])
    C2 = circulant_matrix([a, b], 4, stride=2)
    assert np.array_equal(C2, [[a, b, 0, 0], [0, 0, a, b]])


def test_circulant_wraps_filter():
    C = circulant_matrix([1.0, 2.0, 3.0], 4, stride=2)
    assert np.array_equal(C, [[1.0, 2.0, 3.0, 0.0], [3.0, 0.0, 1.0, 2.0]])


def test_toeplitz_is_corner_of_circulant():
    rng = np.random.default_rng(5)
    for _ in range(100):
        k = int(rng.integers(1, 6))
        s = int(rng.integers(1, 4))
        d_out = int(rng.integers(1, 5))
        d_in = (d_out - 1) * s + k
        w = rng.standard_normal(k)
        T = toeplitz_matrix(w, d_in, s)
        d_round = d_in + (-d_in) % s  # circulant needs a stride-divisible size
        C = circulant_matrix(w, d_round, s)
        assert np.allclose(T, C[: T.shape[0], : T.shape[1]])


def test_matrix_product_matches_composed_filter():
    rng = np.random.default_rng(11)
    for _ in range(200):
        arch = random_arch(rng, max_depth=3)
        theta = arch.random_theta(rng)
        d0 = arch.min_input_size(d_out=int(rng.integers(1, 4)))
        mats = network_matrices(theta, arch, d0)
        prod = np.eye(d0)
        for M in mats:
            prod = M @ prod
        w, stride = end_to_end(theta, arch)
        assert np.allclose(prod, toeplitz_matrix(w, d0, stride), atol=1e-10)


def test_circulant_product_is_circulant_of_composition():
    rng = np.random.default_rng(13)
    for _ in range(100):
        k1, k2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        s1, s2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        w1, w2 = rng.standard_normal(k1), rng.standard_normal(k2)
        u = compose_filters(w2, s1, w1)
        d0 = s1 * s2 * int(rng.integers(1, 4)) + len(u) - 1
        d0 += (-d0) % (s1 * s2)
        if len(u) > d0:
            continue
        lhs = circulant_matrix(w2, d0 // s1, s2) @ circulant_matrix(w1, d0, s1)
        rhs = circulant_matrix(u, d0, s1 * s2)
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_filter_application_is_cross_correlation():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    T = toeplitz_matrix([1.0, -1.0], 5, stride=1)
    assert np.allclose(T @ x, x[:-1] - x[1:])


# ---- multi-dimensional filters ----


def test_tensor_slices_match_hand_example():
    w = np.array([[1.0, 2.0], [3.0, 4.0]])
    T = materialize_conv_tensor(w, (3, 2))  # output shape (2, 1)
    assert np.array_equal(T[0, 0], [[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]])
    assert np.array_equal(T[1, 0], [[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]])


def test_tensor_composition_matches_matrix_composition():
    rng = np.random.default_rng(17)
    for _ in range(30):
        shape1 = tuple(int(rng.integers(1, 4)) for _ in range(2))
        shape2 = tuple(int(rng.integers(1, 4)) for _ in range(2))
        w1 = rng.standard_normal(shape1)
        w2 = rng.standard_normal(shape2)
        u = compose_tensor_filters(w2, w1)
        assert u.shape == tuple(a + b - 1 for a, b in zip(shape1, shape2))
        in_shape = tuple(u.shape[i] + int(rng.integers(0, 3)) for i in range(2))
        x = rng.standard_normal(in_shape)
        direct = apply_conv_tensor(u, x)
        staged = apply_conv_tensor(w2, apply_conv_tensor(w1, x))
        assert np.allclose(direct, staged, atol=1e-10)


@pytest.mark.parametrize("w_shape, x_shape", [((2, 2), (4,)), ((3,), (2,)), ((2, 3), (4, 2))])
def test_tensor_maps_reject_mismatched_shapes(w_shape, x_shape):
    with pytest.raises(ValueError):
        apply_conv_tensor(np.ones(w_shape), np.ones(x_shape))
    with pytest.raises(ValueError):
        materialize_conv_tensor(np.ones(w_shape), x_shape)


def _signed_zero_filter(rng, shape):
    """Standard normal entries with about a third set to +0.0 or -0.0."""
    w = rng.standard_normal(shape)
    u = rng.random(shape)
    w[u < 0.15] = 0.0
    w[(u >= 0.15) & (u < 0.3)] = -0.0
    return w


def _same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# the loops these realizations ran before they shared one placement rule


def _toeplitz_loop(w, d_in, stride):
    k = len(w)
    T = np.zeros(((d_in - k) // stride + 1, d_in))
    for i in range(T.shape[0]):
        T[i, i * stride : i * stride + k] = w
    return T


def _circulant_loop(w, d, stride):
    C = np.zeros((d // stride, d))
    for r in range(d // stride):
        for j in range(len(w)):
            C[r, (r * stride + j) % d] += w[j]
    return C


def _layer_dims_loop(arch, d0):
    dims = [d0]
    for k, s in zip(arch.ks, arch.strides):
        dims.append((dims[-1] - k) // s + 1)
    return tuple(dims)


def _tensor_loops(w, x):
    out_shape = tuple(d - k + 1 for d, k in zip(x.shape, w.shape))
    T, out = np.zeros(out_shape + x.shape), np.zeros(out_shape)
    for i in np.ndindex(out_shape):
        window = tuple(slice(a, a + n) for a, n in zip(i, w.shape))
        T[i][window] = w
        out[i] = float(np.sum(w * x[window]))
    return T, out


def test_realizations_match_the_reference_loops_byte_for_byte():
    rng = np.random.default_rng(29)
    for _ in range(400):
        k = int(rng.integers(1, 6))
        s = int(rng.integers(1, 4))
        n_out = int(rng.integers(8, 13)) if k == 1 else int(rng.integers(1, 6))
        d = (n_out - 1) * s + k
        w = _signed_zero_filter(rng, k)
        assert _same_bytes(toeplitz_matrix(w, d, s), _toeplitz_loop(w, d, s))
        d_cyc = d + (-d) % s
        assert _same_bytes(circulant_matrix(w, d_cyc, s), _circulant_loop(w, d_cyc, s))

        arch = random_arch(rng)
        d0 = arch.min_input_size(int(rng.integers(1, 10)))
        assert arch.layer_dims(d0) == _layer_dims_loop(arch, d0)

        shape = tuple(int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4))))
        x = rng.standard_normal(tuple(a + int(rng.integers(0, 4)) for a in shape))
        w = _signed_zero_filter(rng, shape)
        T, out = _tensor_loops(w, x)
        assert _same_bytes(materialize_conv_tensor(w, x.shape), T)
        assert _same_bytes(apply_conv_tensor(w, x), out)


def _compose_tensor_loop(outer, inner):
    out = np.zeros(tuple(a + b - 1 for a, b in zip(outer.shape, inner.shape)))
    for idx in np.ndindex(outer.shape):
        window = tuple(slice(i, i + n) for i, n in zip(idx, inner.shape))
        out[window] += outer[idx] * inner
    return out


def test_tensor_composition_matches_the_reference_loop_byte_for_byte():
    rng = np.random.default_rng(31)
    for _ in range(300):
        ndim = int(rng.integers(1, 4))
        outer, inner = (_signed_zero_filter(rng, tuple(int(rng.integers(1, 5)) for _ in range(ndim)))
                        for _ in range(2))
        assert _same_bytes(compose_tensor_filters(outer, inner), _compose_tensor_loop(outer, inner))
    with pytest.raises(ValueError, match="filters must share the number of axes"):
        compose_tensor_filters(np.ones((2, 2)), np.ones(2))


def test_materialized_tensor_contracts_like_application():
    rng = np.random.default_rng(19)
    w = rng.standard_normal((2, 3))
    x = rng.standard_normal((4, 5))
    T = materialize_conv_tensor(w, x.shape)
    out = np.tensordot(T, x, axes=([2, 3], [0, 1]))
    assert np.allclose(out, apply_conv_tensor(w, x), atol=1e-12)


def test_as_filter_validates():
    with pytest.raises(ValueError):
        as_filter(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        as_filter([])


def test_nearest_skips_other_shapes_and_keeps_the_first_tie():
    w = np.array([1.0, 2.0])
    assert _nearest(w, [np.array([1.0]), np.array([1.0, 2.0, 3.0])]) == (None, np.inf)
    assert _nearest(w, [w + 0.5, w - 0.5, np.zeros(3)]) == (0, 0.5)


def _same_floats(got, ref):
    """Equal by ``.hex()`` and sign bit; two NaNs count as equal whatever
    their sign bits, which numpy's vector loop sets by output position."""
    return len(got) == len(ref) and all(
        (math.isnan(a) and math.isnan(b))
        or (a.hex() == b.hex() and math.copysign(1.0, a) == math.copysign(1.0, b))
        for a, b in zip(got, ref))


def _edge_filter(rng, n):
    """Signed zeros, magnitudes over six decades and, now and then, inf,
    -inf or NaN taps."""
    w = _signed_zero_filter(rng, n) * 10.0 ** rng.integers(-3, 4, size=n)
    u = rng.random(n)
    w[u > 0.95] = rng.choice([np.inf, -np.inf, np.nan], size=int(np.sum(u > 0.95)))
    return w


def test_list_helpers_match_numpy_bit_for_bit():
    # shorter operands of 1-4 and kernels of 1-13 taps cover both sides of
    # numpy's switches to the BLAS dot (3 entries, 12 taps)
    rng = np.random.default_rng(31)
    with np.errstate(all="ignore"):
        for _ in range(3000):
            n = int(rng.integers(1, 5))
            a, b = _edge_filter(rng, n + int(rng.integers(0, 6))), _edge_filter(rng, n)
            for x, y in ((a, b), (b, a)):
                assert _same_floats(_mul_list(x.tolist(), y.tolist()), np.convolve(x, y).tolist())
            c = _edge_filter(rng, int(rng.integers(1, 14)))
            g = _edge_filter(rng, len(c) + int(rng.integers(0, 6)))
            assert _same_floats(_correlate_list(g.tolist(), c.tolist()),
                                np.correlate(g, c, "valid").tolist())
