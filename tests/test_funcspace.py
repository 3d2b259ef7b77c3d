import itertools

import numpy as np
import pytest

from lcnlab.funcspace import (
    SpaceRegion,
    _pack_atoms,
    factor_into,
    is_filling,
    membership,
    reduce_architecture,
    region,
    region_of_rrmp,
    stride2_factor,
    stride2_membership,
)
from lcnlab.poly_core import Architecture, _interior_stride, compose_filters, end_to_end
from lcnlab.rootlab import Rrmp, all_rrmps, classify_rrmp, classify_rrmp_pooled, is_compatible


REGION_TABLE = {
    (2, 2): {"11|0": "interior", "2|0": "boundary", "0|1": "exterior"},
    (2, 2, 2): {"111|0": "interior", "12|0": "boundary", "3|0": "boundary",
                "1|1": "exterior"},
    (4, 2): {"1111|0": "interior", "112|0": "interior", "22|0": "boundary",
             "13|0": "interior", "4|0": "boundary", "11|1": "interior",
             "2|1": "boundary", "0|2": "exterior", "0|11": "exterior"},
    (3, 2, 2): {"1111|0": "interior", "112|0": "interior", "22|0": "boundary",
                "13|0": "interior", "4|0": "boundary", "11|1": "interior",
                "2|1": "boundary", "0|2": "exterior", "0|11": "exterior"},
    (2, 2, 2, 2): {"1111|0": "interior", "112|0": "boundary", "22|0": "boundary",
                   "13|0": "boundary", "4|0": "boundary", "11|1": "exterior",
                   "2|1": "exterior", "0|2": "exterior", "0|11": "exterior"},
}


def test_region_table():
    for ks, rows in REGION_TABLE.items():
        arch = Architecture(ks)
        for label, expected in rows.items():
            got = region_of_rrmp(Rrmp.from_label(label), arch)
            assert got == SpaceRegion(expected), (ks, label)


def test_membership_matches_region():
    for ks in REGION_TABLE:
        arch = Architecture(ks)
        for r in all_rrmps(arch.filter_size - 1):
            member = membership(r, arch)
            assert member == (region_of_rrmp(r, arch) != SpaceRegion.EXTERIOR)


def test_compatible_implies_member():
    for ks in [(2, 2), (3, 2), (2, 2, 2), (3, 3), (4, 2), (3, 2, 2),
               (2, 2, 2, 2), (5, 2), (4, 3)]:
        arch = Architecture(ks)
        for r in all_rrmps(arch.filter_size - 1):
            if is_compatible(r, arch):
                assert membership(r, arch), (ks, r.label)


def test_member_but_incompatible_exists():
    # a fourth power needs four layers to split without repeats, but lies in
    # the function space of two odd layers
    arch = Architecture((3, 3))
    quartic = Rrmp.from_label("4|0")
    assert membership(quartic, arch)
    assert not is_compatible(quartic, arch)


def test_region_of_concrete_filters():
    arch = Architecture((2, 2))
    assert region([1.0, 0.0, -1.0], arch) == SpaceRegion.INTERIOR
    assert region([1.0, 2.0, 1.0], arch) == SpaceRegion.BOUNDARY
    assert region([1.0, 0.0, 1.0], arch) == SpaceRegion.EXTERIOR


def test_region_rejects_strided_architecture():
    with pytest.raises(ValueError):
        region_of_rrmp(Rrmp.from_label("11|0"), Architecture((3, 2), (2, 1)))


def test_reduce_architecture():
    red = reduce_architecture(Architecture((3, 1, 1), (2, 1, 1)))
    assert red.ks == (3,) and red.strides == (1,)
    red2 = reduce_architecture(Architecture((3, 2), (1, 4)))
    assert red2.ks == (3, 2) and red2.strides == (1, 1)


def test_interior_stride_rule_agrees_with_reduce_architecture():
    # every architecture of depth 1-4 with sizes 1-4 and strides 1-3
    n = 0
    for depth in range(1, 5):
        for ks in itertools.product(range(1, 5), repeat=depth):
            for strides in itertools.product(range(1, 4), repeat=depth):
                arch = Architecture(ks, strides)
                red = reduce_architecture(arch)
                assert _interior_stride(arch) == (not red.is_stride_one), (ks, strides)
                assert (red.filter_size, red.n_even) == (arch.filter_size, arch.n_even)
                n += 1
    assert n == 22_620


def test_is_filling():
    assert is_filling(Architecture((3, 3)))
    assert is_filling(Architecture((5,)))
    assert is_filling(Architecture((2, 3)))
    assert is_filling(Architecture((3, 1, 1), (2, 1, 1)))  # scalars collapse
    assert not is_filling(Architecture((2, 2)))
    assert not is_filling(Architecture((4, 2)))
    assert not is_filling(Architecture((3, 2, 2)))
    assert not is_filling(Architecture((3, 2), (2, 1)))
    assert not is_filling(Architecture((2, 2), (3, 1)))


def test_factor_into_reproduces_random_compositions():
    rng = np.random.default_rng(21)
    for ks in [(2, 2), (3, 2), (2, 2, 2), (3, 3), (4, 2)]:
        arch = Architecture(ks)
        for _ in range(20):
            theta = arch.random_theta(rng)
            w, _ = end_to_end(theta, arch)
            back = factor_into(w, arch)
            w2, _ = end_to_end(back, arch)
            assert np.max(np.abs(w2 - w)) < 1e-9 * max(1.0, np.max(np.abs(w)))


def test_factor_into_any_cubic_with_one_even_layer():
    # sizes (2, 3): a single even layer, so every cubic filter is realizable
    rng = np.random.default_rng(22)
    arch = Architecture((2, 3))
    for _ in range(50):
        w = rng.standard_normal(4)
        back = factor_into(w, arch)
        w2, _ = end_to_end(back, arch)
        assert np.max(np.abs(w2 - w)) < 1e-9 * max(1.0, np.max(np.abs(w)))


def test_factor_into_boundary_filter():
    arch = Architecture((2, 2))
    back = factor_into([1.0, 2.0, 1.0], arch)  # (x + y)^2
    w2, _ = end_to_end(back, arch)
    assert np.allclose(w2, [1.0, 2.0, 1.0], atol=1e-10)


def test_factor_into_infinity_root():
    arch = Architecture((2, 2))
    back = factor_into([0.0, 1.0, 2.0], arch)
    w2, _ = end_to_end(back, arch)
    assert np.allclose(w2, [0.0, 1.0, 2.0], atol=1e-10)


@pytest.mark.parametrize("small, large", [(1e-2, 3.0), (0.3, 1e2), (0.5, 2.0)])
def test_factor_into_agrees_with_classify_on_conjugate_pairs(small, large):
    # one conjugate pair inside and one outside the unit circle: the pairing
    # tolerance is relative to the modulus on both sides of 1
    pair = lambda r, phi: np.array([1.0, -2 * r * np.cos(phi), r * r])
    quads = np.convolve(pair(small, 1.1), pair(large, 2.3))
    cases = [(quads, (3, 3)), (np.convolve(quads, [1.0, -0.7]), (4, 3)),
             (np.convolve(np.convolve(pair(small, 0.4), [1.0, 1.5]), [1.0, -0.2]),
              (3, 2, 2))]
    for w, ks in cases:
        label = classify_rrmp(w).label
        theta = factor_into(w, Architecture(ks))
        assert classify_rrmp_pooled(theta).label == label
        prod, _ = end_to_end(theta, Architecture(ks))
        assert np.allclose(prod, w, rtol=0, atol=1e-10 * np.max(np.abs(w)))


def test_factor_into_rejects_exterior():
    with pytest.raises(ValueError):
        factor_into([1.0, 0.0, 1.0], Architecture((2, 2)))
    with pytest.raises(ValueError):
        factor_into([0.0, 1.0, 2.0, 3.0], Architecture((2, 2, 2)))


def test_factor_into_zero_filter():
    # every layer, the dropped scalar ones included, as for a non-zero filter
    for ks in [(2, 2), (2, 2, 1), (3, 1, 2), (1, 3)]:
        arch = Architecture(ks)
        out = factor_into(np.zeros(arch.filter_size), arch)
        assert [len(f) for f in out] == list(ks)
        w, _ = end_to_end(out, arch)
        assert np.allclose(w, 0.0)


def test_factor_handles_scalar_layers():
    arch = Architecture((2, 2, 1))
    back = factor_into([1.0, 0.0, -1.0], arch)
    assert len(back) == 3
    w2, _ = end_to_end(back, arch)
    assert np.allclose(w2, [1.0, 0.0, -1.0], atol=1e-10)


def _reference_pack_atoms(real_atoms, pair_atoms, caps):
    """A test-local copy of the packing loop with size tags and a re-queue,
    which fixes the atom order that ``_pack_atoms`` must keep."""
    bins = [[] for _ in caps]
    remaining = list(caps)
    linear = list(real_atoms)
    for i, cap in enumerate(caps):
        if cap % 2 == 1:
            bins[i].append(linear.pop())
            remaining[i] -= 1
    units = [(a, 1) for a in linear] + [(a, 2) for a in pair_atoms]
    units.sort(key=lambda t: -t[1])
    for i in range(len(caps)):
        while remaining[i] > 0:
            atom, size = units.pop()
            if size <= remaining[i]:
                bins[i].append(atom)
                remaining[i] -= size
            else:
                units.insert(0, (atom, size))
    assert not units
    return bins


def test_pack_atoms_keeps_the_reference_order_on_every_valid_layout():
    # up to 4 capacities of size 0-5, with every number of linear atoms that
    # covers the odd capacities and leaves an even count for the rest
    layouts = 0
    for n_caps in range(1, 5):
        for caps in itertools.product(range(6), repeat=n_caps):
            odd, total = sum(c % 2 for c in caps), sum(caps)
            for n_linear in range(odd, total + 1, 2):
                linear = [f"r{j}" for j in range(n_linear)]
                quadratic = [f"q{j}" for j in range((total - n_linear) // 2)]
                got = _pack_atoms(linear, quadratic, caps)
                assert got == _reference_pack_atoms(linear, quadratic, caps), (caps, n_linear)
                assert [sum(1 + a.startswith("q") for a in b) for b in got] == list(caps)
                layouts += 1
    assert layouts == 7464


# ---- the stride-2 worked family ----


def test_stride2_membership_of_compositions():
    rng = np.random.default_rng(33)
    for _ in range(200):
        w1 = rng.standard_normal(3)
        w2 = rng.standard_normal(2)
        u = compose_filters(w2, 2, w1)
        assert stride2_membership(u)


def test_stride2_non_members():
    assert not stride2_membership([1.0, 0.0, 0.0, 0.0, 1.0])  # fails inequality
    assert not stride2_membership([0.0, 1.0, 0.0, 0.0, 1.0])  # fails equation
    assert not stride2_membership([1.0, 1.0, 1.0, 1.0, 1.0])


def test_stride2_factor_round_trip():
    rng = np.random.default_rng(34)
    for _ in range(200):
        w1 = rng.standard_normal(3)
        w2 = rng.standard_normal(2)
        u = compose_filters(w2, 2, w1)
        f1, f2 = stride2_factor(u)
        back = compose_filters(f2, 2, f1)
        assert np.max(np.abs(back - u)) < 1e-8 * max(1.0, np.max(np.abs(u)))


@pytest.mark.parametrize("w1,w2", [
    ([1.0, 2.0, 3.0], [1.0, 0.0]),     # outer second coefficient zero
    ([1.0, 2.0, 0.0], [3.0, 1.0]),     # inner trailing zero
    ([1.0, 0.0, 3.0], [0.0, 1.0]),     # outer leading zero
    ([0.0, 2.0, 3.0], [1.0, 1.0]),     # inner leading zero
    ([1.0, 0.0, 2.0], [2.0, 5.0]),     # no middle inner coefficient
    ([1.0, 0.0, 0.5 + 1e-10], [2.0, 1.0]),  # b = 0 and a near-double root
])
def test_stride2_factor_degenerate_cases(w1, w2):
    u = compose_filters(np.array(w2), 2, np.array(w1))
    f1, f2 = stride2_factor(u)
    back = compose_filters(f2, 2, f1)
    assert np.max(np.abs(back - u)) < 1e-8 * max(1.0, np.max(np.abs(u)))


def test_stride2_factor_rejects_non_member():
    with pytest.raises(ValueError):
        stride2_factor([1.0, 1.0, 1.0, 1.0, 1.0])


@pytest.mark.parametrize("scale", [10.0**p for p in range(-200, 201, 50)])
def test_stride2_is_scale_free(scale):
    # seeded members with zero taps, each layer scaled, round-trip to 1e-8 of
    # max|u| at every scale; a near-double b = 0 member among them; the
    # non-members stay non-members
    rng = np.random.default_rng(35)
    cases = [(np.array([1.0, 0.0, 0.5 + 1e-10]), np.array([1e-13, 0.5e-13]))]
    for _ in range(100):
        w1, w2 = rng.standard_normal(3), rng.standard_normal(2)
        w1[rng.random(3) < 0.3] = 0.0
        w2[rng.random(2) < 0.3] = 0.0
        cases.append((w1, w2))
    for w1, w2 in cases:
        split = 10.0 ** rng.uniform(-50, 50)
        u = compose_filters(w2 * split, 2, w1 * (scale / split))
        if not u.any():
            continue
        assert stride2_membership(u)
        f1, f2 = stride2_factor(u)
        back = compose_filters(f2, 2, f1)
        assert np.max(np.abs(back - u)) <= 1e-8 * np.max(np.abs(u))
    for u in ([1.0, 0.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0, 1.0]):
        assert not stride2_membership(scale * np.array(u))


@pytest.mark.parametrize("u, message", [([np.inf, 1.0, 1.0, 1.0, 1.0], "non-finite"),
                                        ([1.0, 1.0, np.nan, 1.0, 1.0], "non-finite"),
                                        ([1.0, 2.0, 1.0, 0.0], "size 4")])
def test_stride2_rejects_non_finite_and_wrong_size(u, message):
    for stride2 in (stride2_membership, stride2_factor):
        with pytest.raises(ValueError, match=message):
            stride2(u)
