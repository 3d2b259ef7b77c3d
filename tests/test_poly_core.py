import functools
import math
from collections import Counter

import numpy as np
import pytest

from lcnlab.poly_core import (
    Architecture,
    _checked_filters,
    _compile,
    _Emitter,
    _layers,
    _nearest,
    _same_filter,
    _solve,
    apply_conv_tensor,
    as_filter,
    circulant_matrix,
    compose_filters,
    compose_tensor_filters,
    end_to_end,
    materialize_conv_tensor,
    network_matrices,
    pi,
    pi_s,
    toeplitz_matrix,
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


@pytest.mark.parametrize("ks, strides, field", [
    ((2.5, 2), None, "ks"), ((2.0, 2), None, "ks"), (("3",), None, "ks"),
    ((2, 2), (1.9, 1), "strides"), ((2, 2), (2, "1"), "strides"),
])
def test_architecture_rejects_non_integer_sizes(ks, strides, field):
    # int() would truncate 2.5 to 2 and 1.9 to 1
    with pytest.raises(ValueError, match=f"^{field} must be integers"):
        Architecture(ks, strides)
    arch = Architecture((np.int64(3), 2), (np.int32(2), np.uint8(1)))
    assert arch.ks == (3, 2) and arch.strides == (2, 1)
    assert all(type(n) is int for n in arch.ks + arch.strides)


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
    assert np.array_equal(pi_s([3.0, 4.0], 2), [3.0, 0.0, 4.0])
    assert np.array_equal(pi_s([1.0, 1.0], 3), [1.0, 0.0, 0.0, 1.0])
    assert np.array_equal(pi_s([5.0], 4), [5.0])


@pytest.mark.parametrize("stride, shown", [(0, "0"), (-1, "-1"), (2.5, "2.5"), (2.0, "2.0"),
                                           ("2", "'2'"), (None, "None")])
def test_strided_lifts_reject_a_bad_stride(stride, shown):
    rule = "be at least 1" if isinstance(stride, int) else "be an integer"
    message = f"stride must {rule}, got {shown}"
    for lift in (pi_s, lambda w, s: compose_filters(w, s, [1.0, 2.0])):
        with pytest.raises(ValueError, match=message):
            lift([1.0, 1.0], stride)
    with pytest.raises(ValueError, match=message):
        toeplitz_matrix([1.0, 1.0], 4, stride)
    assert np.array_equal(pi_s([1.0, 1.0], np.int64(2)), [1.0, 0.0, 1.0])


def test_min_input_size_rejects_an_empty_output():
    arch = Architecture((2, 2))
    for d_out in (0, -5):
        with pytest.raises(ValueError, match=f"output length must be at least 1, got {d_out}"):
            arch.min_input_size(d_out)
    assert arch.min_input_size(1) == arch.filter_size == 3


def test_lengths_that_are_not_integers_are_rejected_not_truncated():
    arch = Architecture((2, 2))
    with pytest.raises(ValueError, match="output length must be an integer, got 2.5"):
        arch.min_input_size(2.5)
    with pytest.raises(ValueError, match="input length must be an integer, got 4.9"):
        arch.layer_dims(4.9)
    assert arch.min_input_size(np.int64(2)) == 4 and arch.layer_dims(np.int64(4)) == (4, 3, 2)


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
        lifted = [pi_s(t, math.prod(arch.strides[:i])) for i, t in enumerate(theta)]
        prod = functools.reduce(np.convolve, lifted)
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


def _emitted(op, operands, *args):
    """``_Emitter.<op>`` on ``operands`` run through ``_compile``: (entries, source
    lines).  A float list is held in locals; a list of strings is written as literals."""
    em, values, sources = _Emitter(), {}, []
    for n, x in enumerate(operands):
        if not all(isinstance(v, str) for v in x):
            names = [f"a{n}_{i}" for i in range(len(x))]
            values.update(zip(names, x))
            x = names
        sources.append(x)
    out = getattr(em, op)(*sources, *args)
    namespace = _compile("\n".join(em.lines), "<emitted>", **values)
    return [namespace[v] for v in out], em.lines


def test_list_helpers_match_numpy_bit_for_bit():
    # shorter operands of 1-4 and kernels of 1-13 taps, every step 1-3, cover both sides
    # of numpy's switches to the BLAS dot (3 entries, 12 taps)
    rng = np.random.default_rng(31)
    with np.errstate(all="ignore"):
        for _ in range(3000):
            n = int(rng.integers(1, 5))
            a, b = _edge_filter(rng, n + int(rng.integers(0, 6))), _edge_filter(rng, n)
            for x, y in ((a, b), (b, a)):
                got, _ = _emitted("mul", [x.tolist(), y.tolist()])
                assert _same_floats(got, np.convolve(x, y).tolist())
            c = _edge_filter(rng, int(rng.integers(1, 14)))
            g = _edge_filter(rng, len(c) + int(rng.integers(0, 6)))
            step = int(rng.integers(1, 4))
            got, _ = _emitted("correlate", [g.tolist(), c.tolist()], step)
            assert _same_floats(got, np.correlate(g, c, "valid")[::step].tolist())


def test_long_products_give_the_bytes_of_convolve_nan_signs_included():
    # from a 3-entry shorter operand on the emitted source calls np.correlate(a, b[::-1],
    # "full"), the C loop that np.convolve wraps, so every bit agrees, a NaN's sign too
    rng = np.random.default_rng(47)
    nan_signs = set()
    with np.errstate(all="ignore"):
        for _ in range(3000):
            n = int(rng.integers(3, 13))
            a, b = _edge_filter(rng, n + int(rng.integers(0, 8))), _edge_filter(rng, n)
            for x, y in ((a, b), (b, a)):
                ref = np.convolve(x, y)
                got, _ = _emitted("mul", [x.tolist(), y.tolist()])
                assert np.array(got).tobytes() == ref.tobytes()
                nan_signs |= set(np.signbit(ref[np.isnan(ref)]).tolist())
    assert nan_signs == {False, True}


def test_emitted_products_with_a_zero_one_operand_match_numpy_bit_for_bit():
    # every product with a 0.0 or 1.0 factor is exact, so numpy's fused sums and the
    # written-out ones agree; inf and NaN entries must still meet the 0.0 factors
    rng = np.random.default_rng(37)
    with np.errstate(all="ignore"):
        for _ in range(3000):
            a = _edge_filter(rng, int(rng.integers(1, 9)))
            b = rng.integers(0, 2, size=int(rng.integers(1, 9))).astype(float)
            got, lines = _emitted("mul", [a.tolist(), [repr(x) for x in b.tolist()]])
            ref = np.convolve(a, b) if len(a) >= len(b) else np.convolve(b, a)
            assert _same_floats(got, ref.tolist())
            assert any("_correlate" in line for line in lines) == (len(a) < len(b)
                                                                    and len(a) > 2)


def test_the_bound_correlate_gives_the_bytes_of_np_correlate():
    # the kernels call _correlate on float lists: fused edge windows of 'full' products
    # with 3 or more taps, and 'valid' correlations of 12 or more taps read at [::step]
    correlate = _compile("", "<empty>")["_correlate"]
    rng = np.random.default_rng(61)
    special = Counter()
    with np.errstate(all="ignore"):
        for _ in range(3000):
            n = int(rng.integers(1, 15))
            a, v = _edge_filter(rng, n + int(rng.integers(0, 8))), _edge_filter(rng, n)
            step = int(rng.integers(1, 4))
            for mode, every in (("full", 1), ("valid", step)):
                got = correlate(a.tolist(), v.tolist(), mode)[::every]
                ref = np.correlate(a, v, mode)[::every]
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
                special["long kernel"] += mode == "valid" and n > 11 and step > 1
            x = np.concatenate((a, v))
            special["nan"] += bool(np.isnan(x).any())
            special["inf"] += bool(np.isinf(x).any())
            special["-0.0"] += bool(((x == 0) & np.signbit(x)).any())
    assert min(special.values()) > 0 and len(special) == 4, special


def _system(rng, n):
    """A seeded n x n system; about a quarter singular (a zero, repeated or
    combined row) or holding inf or NaN."""
    a, b = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-3, 4), rng.standard_normal(n)
    kind = int(rng.integers(0, 8))
    if kind == 0:
        a[rng.integers(0, n)] = 0.0
    elif kind == 1 and n > 1:
        a[-1] = a[0]
    elif kind == 2:
        a.flat[rng.integers(0, n * n)] = rng.choice([np.inf, -np.inf, np.nan])
    elif kind == 3:
        b[rng.integers(0, n)] = rng.choice([np.inf, np.nan])
    return a, b


def _solved(solve, a, b):
    try:
        return solve(a, b).tobytes()
    except np.linalg.LinAlgError as err:
        return f"LinAlgError: {err}"


def test_the_bound_solve_gives_the_bytes_of_np_linalg_solve():
    rng = np.random.default_rng(67)
    outcomes = Counter()
    for _ in range(4000):
        a, b = _system(rng, int(rng.integers(1, 6)))
        ref = _solved(np.linalg.solve, a, b)
        assert _solved(_solve, a, b) == ref, (a, b)
        raised = isinstance(ref, str)
        outcomes["raised" if raised else "finite" if np.isfinite(a).all() else "non-finite"] += 1
        if raised:
            assert ref == "LinAlgError: Singular matrix"
    # the seeded systems reach numpy's singular branch, and non-finite ones solve too
    assert min(outcomes.values()) > 50 and len(outcomes) == 3, outcomes


def test_the_bound_solve_opens_a_fresh_error_state_on_every_call():
    a, b = np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([1.0, 2.0])
    for _ in range(3):
        assert _solve(a, b).tobytes() == np.linalg.solve(a, b).tobytes()
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            _solve(np.zeros((2, 2)), b)
    before = np.geterr()
    with np.errstate(all="raise"):
        assert _solve(a, b).tobytes() == np.linalg.solve(a, b).tobytes()
    assert np.geterr() == before


# a regular, an overflowing, an underflowing, a singular and a NaN system
_ERROR_SYSTEMS = [(np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([1.0, 2.0])),
                  (np.array([[1e-300, 0.0], [0.0, 1.0]]), np.array([1e300, 1.0])),
                  (np.array([[1e300, 0.0], [0.0, 1.0]]), np.array([1e-300, 1.0])),
                  (np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 2.0])),
                  (np.array([[np.nan, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]))]


def _solve_outcomes(solve):
    """What ``solve`` gives on ``_ERROR_SYSTEMS`` inside a caller's
    np.errstate(all="raise"), which every call must leave as it was."""
    before = np.geterr()
    with np.errstate(all="raise"):
        inside = np.geterr()
        out = []
        for a, b in _ERROR_SYSTEMS:
            out.append(_solved(solve, a, b))
            assert np.geterr() == inside
    assert np.geterr() == before
    return out


def test_the_bound_solve_raises_only_for_singular_and_nan_systems():
    # over, divide and under stay silent even where the caller raises on them
    out = _solve_outcomes(_solve)
    assert out[3:] == ["LinAlgError: Singular matrix"] * 2
    assert np.frombuffer(out[1])[0] == np.inf and np.frombuffer(out[2])[0] == 0.0
    assert out == [_solved(np.linalg.solve, a, b) for a, b in _ERROR_SYSTEMS]


@pytest.mark.parametrize("theta", [
    [[1.0, 2.0]],  # one layer too few
    [[1.0, 2.0], [1.0], [1.0, 2.0, 3.0]],  # sizes (2, 1, 3)
    [[1.0, 2.0], np.ones((2, 2)), [1.0, 2.0]],  # a layer that is not 1-D
    [[1.0, 2.0], [], [1.0]],
])
def test_checked_filters_raise_the_messages_of_layers(theta):
    arch = Architecture((2, 2, 2), (2, 3, 1))
    with pytest.raises(ValueError) as ref:
        _layers(theta, arch)
    with pytest.raises(ValueError) as err:
        _checked_filters(theta, arch)
    assert str(err.value) == str(ref.value)



def _same_filter_by_numpy(a, b, tol):
    """The filter rule as numpy arrays state it: max|a - b| within tol times the
    larger max-norm, floored at one."""
    if a.shape != b.shape:
        return False
    with np.errstate(all="ignore"):
        scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1.0)
        return bool(np.all(np.abs(a - b) <= tol * scale))


def test_same_filter_gives_the_numpy_verdict_on_every_edge_value():
    edge = [0.0, -0.0, 1.0, -1.0, 1.0 + 1e-4, 2.0, 5e-324, -2e-310, 1e308, -1e308,
            math.inf, -math.inf, math.nan]
    rng = np.random.default_rng(5)
    pairs = [(np.array([x, y]), np.array([y, x])) for x in edge for y in edge]
    pairs += [(np.array(rng.choice(edge, 3)), np.array(rng.choice(edge, 3)))
              for _ in range(400)]
    pairs += [(np.ones(3), np.ones(2)), (np.zeros(1), np.zeros(2))]
    verdicts = Counter()
    for a, b in pairs:
        for tol in (0.0, 1e-4, 1.0, 1e300):
            for x, y in ((a, b), (b, a), (a, a)):
                same = _same_filter_by_numpy(x, y, tol)
                assert _same_filter(x, y, tol) is same, (x, y, tol)
                verdicts[same] += 1
    assert min(verdicts.values()) > 1000
