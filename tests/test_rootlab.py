import cmath
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from lcnlab import rootlab
from lcnlab.rootlab import (
    INFINITY,
    ProjRoot,
    RootFindingError,
    Rrmp,
    all_rrmps,
    classify_roots,
    classify_rrmp,
    classify_rrmp_pooled,
    cluster_roots,
    compatible_rrmps,
    discriminant,
    find_roots,
    is_compatible,
    rrmp_classify_by_signs,
    _partitions,
    _start_circle,
)
from lcnlab.dynamics import mu_rank
from lcnlab.funcspace import factor_into, region
from lcnlab.poly_core import Architecture


def test_find_roots_simple_quadratic():
    roots = find_roots([1.0, -3.0, 2.0])  # (x - y)(x - 2y)
    values = sorted(r.value.real for r in roots)
    assert np.allclose(values, [1.0, 2.0], atol=1e-12)
    assert all(not r.infinite for r in roots)


def test_leading_zeros_are_roots_at_infinity():
    roots = find_roots([0.0, 0.0, 1.0])  # y^2
    assert len(roots) == 2 and all(r.infinite for r in roots)


def test_trailing_zeros_are_roots_at_zero():
    roots = find_roots([1.0, 0.0, 0.0])  # x^2
    assert len(roots) == 2 and all(r.value == 0 for r in roots)


def test_mixed_zero_pattern():
    roots = find_roots([0.0, 2.0, -2.0, 0.0])  # 2xy(x - y)
    infs = [r for r in roots if r.infinite]
    zeros = [r for r in roots if not r.infinite and abs(r.value) < 1e-12]
    ones = [r for r in roots if not r.infinite and abs(r.value - 1) < 1e-12]
    assert len(infs) == 1 and len(zeros) == 1 and len(ones) == 1


def test_zero_filter_rejected():
    with pytest.raises(ValueError):
        find_roots([0.0, 0.0])


def test_find_roots_is_deterministic():
    w = np.random.default_rng(0).standard_normal(7)
    r1 = find_roots(w)
    r2 = find_roots(w)
    assert all(a.value == b.value and a.infinite == b.infinite
               for a, b in zip(r1, r2))


def test_root_residuals_on_random_filters():
    rng = np.random.default_rng(42)
    for _ in range(300):
        k = int(rng.integers(2, 10))
        w = rng.standard_normal(k)
        roots = find_roots(w)
        assert len(roots) == k - 1


def test_same_root_is_relative():
    a = ProjRoot.finite(1e6)
    b = ProjRoot.finite(1e6 * (1 + 1e-5))
    assert rootlab._same_root(a, b, 1e-4)
    assert not rootlab._same_root(ProjRoot.finite(1.0), ProjRoot.finite(1.001), 1e-4)
    assert rootlab._same_root(INFINITY, INFINITY, rootlab.ROOT_TOL)
    assert not rootlab._same_root(INFINITY, ProjRoot.finite(1e300), rootlab.ROOT_TOL)


def test_cluster_roots_single_linkage():
    roots = [
        ProjRoot.finite(1.0),
        ProjRoot.finite(1.00005),
        ProjRoot.finite(1.0001),
        ProjRoot.finite(2.0),
    ]
    clusters = cluster_roots(roots, tol=1e-4)
    sizes = sorted(len(c) for c in clusters)
    assert sizes == [1, 3]  # chain links the first three


def test_cluster_roots_keeps_group_and_member_order():
    # each link makes the later root the union-find root, so no group's first member
    # is its root; groups still come in order of their first member, members in input order
    roots = [ProjRoot.finite(x) for x in (1.0, 5.0, 1.00001, 5.00001, 1.00002, 9.0)]
    clusters = cluster_roots(roots)
    assert clusters == [[roots[0], roots[2], roots[4]], [roots[1], roots[3]], [roots[5]]]


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_cluster_roots_rejects_a_bad_tolerance(tol):
    # a NaN tolerance kept equal roots apart, and a negative one every root
    roots = [ProjRoot.finite(1.0), ProjRoot.finite(1.0)]
    assert [len(c) for c in cluster_roots(roots)] == [2]
    for given in (roots, []):
        with pytest.raises(ValueError, match=f"tol must be finite and non-negative, got {tol}"):
            cluster_roots(given, tol=tol)


def test_rrmp_label_round_trip():
    for label in ["112|0", "13|0", "0|11", "2|1", "1111|0", "4|0", "0|2"]:
        assert Rrmp.from_label(label).label == label
    assert Rrmp((2, 1), (1,)).label == "12|1"
    with pytest.raises(ValueError):
        Rrmp.from_label("112")
    for rho, gamma in (((1.5,), ()), ((1,), (2.0,))):
        with pytest.raises(ValueError, match="multiplicities must be integers"):
            Rrmp(rho, gamma)


def test_rrmp_degree_and_partition():
    r = Rrmp((1, 2), (1,))
    assert r.degree == 5
    assert r.partition() == (2, 1, 1, 1)
    assert Rrmp((4,), ()).partition() == (4,)
    assert Rrmp((), (2,)).partition() == (2, 2)


def test_classify_simple_patterns():
    assert classify_rrmp([1.0, 0.0, 1.0]).label == "0|1"
    assert classify_rrmp([1.0, 0.0, -1.0]).label == "11|0"
    assert classify_rrmp([1.0, 2.0, 1.0]).label == "2|0"
    assert classify_rrmp([1.0, -3.0, 3.0, -1.0]).label == "3|0"
    assert classify_rrmp([1.0, 0.0, 2.0, 0.0, 1.0]).label == "0|2"
    assert classify_rrmp([0.0, 1.0, 2.0]).label == "11|0"  # root at infinity


def test_classify_pooled_keeps_split_multiplicities_sharp():
    # (x + 2y) appearing in three factors: multiplicity 3 across the product
    filters = [[1.0, 2.0], [2.0, 4.0], [1.0, 5.0, 6.0]]
    assert classify_rrmp_pooled(filters).label == "13|0"


def test_pooled_agrees_with_product_on_generic_filters():
    rng = np.random.default_rng(9)
    for _ in range(100):
        filters = [rng.standard_normal(int(rng.integers(2, 5))) for _ in range(3)]
        prod = filters[0]
        for f in filters[1:]:
            prod = np.convolve(prod, f)
        assert classify_rrmp_pooled(filters) == classify_rrmp(prod)


def _pooled_by_roots(filters):
    """The pooled label as the root solve gives it: ``classify_roots`` of the
    concatenated ``find_roots`` outputs, or the error it raises."""
    try:
        return classify_roots([r for w in filters for r in find_roots(w)]).label
    except (RootFindingError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _pooled_corpus(rng):
    """Linear-layer lists of 1-5 layers at scales 1e-300..1e300, with roots repeated
    across layers and root pairs just inside and outside ROOT_TOL, then the same lists
    with one entry swapped for a zero, a subnormal, +-inf, NaN or a size-3 layer."""
    lists = []
    for _ in range(400):
        n = int(rng.integers(1, 6))
        scale = 10.0 ** rng.choice([-300, -150, -1, 0, 1, 150, 300])
        a = rng.standard_normal(n) * scale
        x = rng.standard_normal(n) * 10.0 ** rng.choice([-300, -100, 0, 100, 300])
        for i in range(1, n):
            pick = rng.uniform()
            if pick < 0.3:
                x[i] = x[int(rng.integers(i))]
            elif pick < 0.6:
                x[i] = x[i - 1] * (1 + rng.choice([0.99e-4, 1.01e-4, -0.99e-4, -1.01e-4]))
        with np.errstate(over="ignore", under="ignore"):  # an inf or subnormal b falls back
            lists.append([[ai, -ai * xi] for ai, xi in zip(a, x)])
    odd = [0.0, -0.0, 5e-324, -1e-310, math.inf, -math.inf, math.nan]
    for filters in lists[:200]:
        filters = [list(w) for w in filters]
        i = int(rng.integers(len(filters)))
        if rng.uniform() < 0.2:
            filters[i] = filters[i] + [rng.standard_normal()]
        else:
            filters[i][int(rng.integers(2))] = odd[int(rng.integers(len(odd)))]
        lists.append(filters)
    return lists


def test_pooled_linear_layers_label_as_their_roots_do():
    lists = _pooled_corpus(np.random.default_rng(33))
    lists += [[[1.0, -1e308], [1.0, -1e308]], [[1e-300, 1e8]] * 3, [], [[1.0, 2.0]],
              [[3.0, 1.5], [2.0, 1.0], [-4.0, -2.0]], [[1.0, 1e-308]], [[1e300, 1e-10]]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for filters in lists:
            assert _label_or_error(classify_rrmp_pooled, filters) == _pooled_by_roots(filters), \
                filters


@pytest.mark.parametrize("filters, label", [([[1.0, -1e308]] * 2, "2|0"),
                                            ([[1e-300, 1e8]] * 3, "3|0")])
def test_real_roots_whose_sum_overflows_cluster_quietly(filters, label):
    # each cluster mean is then the sum of the roots' shares x / n, on both routes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert classify_rrmp_pooled(filters).label == label
        assert _pooled_by_roots(filters) == label
        x = -filters[0][1] / filters[0][0]
        assert rootlab._cluster_rep([ProjRoot.finite(x)] * len(filters)).value == x


def test_pooled_linear_layers_link_through_their_last_root():
    # 1 and 1 + 1.8e-4 are more than ROOT_TOL apart; only the last root, 1 + 0.9e-4,
    # links them, so a grouping that joins a root to one earlier group only says 12|0
    filters = [[1.0, -x] for x in (1.0, 1.0 + 1.8e-4, 1.0 + 0.9e-4)]
    assert classify_rrmp_pooled(filters).label == "3|0"
    assert _pooled_by_roots(filters) == "3|0"


def test_pooled_linear_layers_take_no_root_solve(monkeypatch):
    calls = []
    monkeypatch.setattr(rootlab, "find_roots",
                        lambda w: calls.append(len(w)) or find_roots(w))
    assert classify_rrmp_pooled([[1.0, 2.0], [2.0, 4.0], np.array([1.0, -3.0])]).label == "12|0"
    assert calls == []
    assert classify_rrmp_pooled([[1.0, 2.0], [2.0, 4.0], [1.0, 5.0, 6.0]]).label == "13|0"
    assert calls == [3]
    assert classify_rrmp_pooled([[1.0, 2.0], [1.0, 1e-310]]).label == "11|0"
    assert calls == [3, 2]


def test_discriminant_values():
    for c, value in (([1.0, 2.0, 1.0], 0.0), ([1.0, 0.0, -1.0], 4.0), ([1.0, 3.0, 1.0], 5.0),
                     ([1.0, -3.0, 3.0, -1.0], 0.0)):
        assert rootlab._disc_and_scale(np.array(c))[0] == value
    assert np.allclose(rootlab._depressed(np.array([2.0, 8.0, 12.0, 8.0, 2.0])), 0.0,
                       atol=1e-14)  # 2(x+y)^4
    p, q, r = rootlab._depressed(np.array([1.0, 0.0, -2.0, 0.0, 1.0]))  # (x^2 - y^2)^2
    assert (p, q, r) == (-2.0, 0.0, 1.0)
    assert rootlab._signed_sum(rootlab._quartic_terms(p, q, r))[0] == 0.0
    assert rootlab._signed_sum(rootlab._quartic_dprime_terms(p, q, r))[0] == 0.0


def _written_out(c):
    """(discriminant, largest monomial) as each formula was spelled out
    before the monomials were listed once; a quartic is depressed first."""
    if len(c) == 3:
        a, b, cc = c
        return b * b - 4 * a * cc, max(b * b, abs(4 * a * cc))
    if len(c) == 4:
        a, b, cc, d = c
        return (b * b * cc * cc - 4 * a * cc**3 - 4 * b**3 * d - 27 * a * a * d * d
                + 18 * a * b * cc * d,
                max(abs(b * b * cc * cc), abs(4 * a * cc**3), abs(4 * b**3 * d),
                    abs(27 * a * a * d * d), abs(18 * a * b * cc * d)))
    p, q, r = rootlab._depressed(c)
    return ((256 * r**3 - 128 * p * p * r * r + 144 * p * q * q * r + 16 * p**4 * r
             - 27 * q**4 - 4 * p**3 * q * q),
            max(abs(256 * r**3), abs(128 * p * p * r * r), abs(144 * p * q * q * r),
                abs(16 * p**4 * r), abs(27 * q**4), abs(4 * p**3 * q * q)))


def test_discriminants_match_the_written_out_formulas_bit_for_bit():
    def bits(x):
        return np.float64(x).tobytes()

    rng = np.random.default_rng(37)
    for _ in range(3000):
        c = rng.standard_normal(int(rng.integers(3, 6)))
        if rng.random() < 0.5:
            c = np.round(c * 2) / 2  # exact zeros of the discriminant
        u = rng.random(len(c))
        c[u < 0.2] = 0.0
        c[u > 0.8] = -0.0
        c[0] = c[0] or 1.0
        value, scale = _written_out(c)
        got = rootlab._disc_and_scale(c)
        assert bits(got[0]) == bits(value) and bits(got[1]) == bits(scale)
        if len(c) == 5:
            p, q, r = got[2]
            dprime = 8 * p * r - 9 * q * q - 2 * p**3
            got = rootlab._signed_sum(rootlab._quartic_dprime_terms(p, q, r))
            assert bits(got[0]) == bits(dprime)


QUARTIC_CASES = [
    ([1.0, 0.0, -5.0, 0.0, 4.0], "1111|0"),   # (x^2-1)(x^2-4)
    ([1.0, 0.0, -1.0, 0.0, 0.0], "112|0"),    # x^2 (x^2 - 1)
    ([1.0, 0.0, -2.0, 0.0, 1.0], "22|0"),     # (x^2-1)^2
    ([1.0, 0.0, -6.0, 8.0, -3.0], "13|0"),    # (x-1)^3 (x+3)
    ([1.0, 4.0, 6.0, 4.0, 1.0], "4|0"),       # (x+y)^4
    ([1.0, 0.0, 0.0, 0.0, -1.0], "11|1"),     # x^4 - 1
    ([1.0, 0.0, 1.0, 0.0, 0.0], "2|1"),       # x^2 (x^2 + 1)
    ([1.0, 0.0, 2.0, 0.0, 1.0], "0|2"),       # (x^2+1)^2
    ([1.0, 0.0, 5.0, 0.0, 4.0], "0|11"),      # (x^2+1)(x^2+4)
]


@pytest.mark.parametrize("coeffs,label", QUARTIC_CASES)
def test_quartic_sign_chart(coeffs, label):
    assert rrmp_classify_by_signs(coeffs).label == label


@pytest.mark.parametrize("coeffs,label", [
    ([1.0, 0.0, -1.0], "11|0"),
    ([1.0, 2.0, 1.0], "2|0"),
    ([1.0, 0.0, 1.0], "0|1"),
    ([1.0, 0.0, -1.0, 0.0], "111|0"),
    ([1.0, -1.0, -1.0, 1.0], "12|0"),
    ([1.0, 3.0, 3.0, 1.0], "3|0"),
    ([1.0, 0.0, 1.0, 0.0], "1|1"),
])
def test_low_degree_sign_charts(coeffs, label):
    assert rrmp_classify_by_signs(coeffs).label == label


def test_sign_chart_rejects_leading_zero_and_high_degree():
    with pytest.raises(ValueError):
        rrmp_classify_by_signs([0.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        rrmp_classify_by_signs([1.0] * 6)


def test_chart_matches_root_clustering_on_random_samples():
    rng = np.random.default_rng(2024)
    band = 1e-6
    for deg in (2, 3, 4):
        for _ in range(500):
            c = rng.standard_normal(deg + 1)
            if abs(c[0]) < 1e-3:
                c[0] = 1.0
            if rootlab._margin(rootlab._disc_and_scale(c)) <= band:
                continue
            assert rrmp_classify_by_signs(c) == classify_roots(find_roots(c))


def test_scaled_coefficients_classify_identically():
    rng = np.random.default_rng(31)
    for _ in range(50):
        c = rng.standard_normal(5)
        if abs(c[0]) < 1e-3:
            c[0] = 1.0
        assert rrmp_classify_by_signs(c) == rrmp_classify_by_signs(1e8 * c)
        assert rrmp_classify_by_signs(c) == rrmp_classify_by_signs(1e-8 * c)


# a cubic whose chart monomials, unscaled, underflow into rounding noise at 2^-267
UNDERFLOWING_CUBIC = np.ldexp([-0.0471070855877405, -0.5394111090639113, 2.071750359349201,
                               -1.741041909063964], -267)


@pytest.mark.parametrize("w,label", [([1e200, 1.0, 1e200], "0|1"), ([1e200, 3e200, 1e200], "11|0"),
                                     (UNDERFLOWING_CUBIC, "111|0")])
def test_sign_charts_label_forms_whose_unscaled_chart_values_overflow_or_underflow(w, label):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rrmp_classify_by_signs(w).label == label
        assert classify_rrmp(w).label == label


# entries spanning more than the double range keep a form unscaled, so its
# discriminant overflows; classify_rrmp roots such a form instead
@pytest.mark.parametrize("w,label", [([1e200, 1e-200, 1e200], "0|1"), ([1e200, 1e-200, -1e200], "11|0")])
def test_sign_charts_raise_where_a_chart_value_overflows(w, label):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflowed"):
            rrmp_classify_by_signs(w)
        assert classify_rrmp(w).label == label


def test_sign_charts_label_a_form_alike_at_every_scale():
    for e in range(-750, 1020, 3):
        assert rrmp_classify_by_signs(np.ldexp(UNDERFLOWING_CUBIC, 267 + e)).label == "111|0", e
    # scaled to max|c| near 1, 1e-300 would turn subnormal and drop bits: kept unscaled
    assert rrmp_classify_by_signs([1e300, 1.0, 1e-300]).label == "0|1"
    # a quartic whose leading entry is tiny overflows its depression: charted reversed,
    # it keeps the label of x^4 + x^3 + x^2 + x + 1e-300 (roots near 0, -1 and +-i)
    assert rrmp_classify_by_signs([1e-300, 1.0, 1.0, 1.0, 1.0]).label == "11|1"
    assert rrmp_classify_by_signs([1.0, 1.0, 1.0, 1.0, 1e-300]).label == "11|1"
    with pytest.raises(RootFindingError):
        classify_rrmp([1e-300, 1.0, 1.0, 1.0, 1.0])
    # both ends tiny against the middle: the reversed chart overflows too
    with pytest.raises(ValueError, match="overflowed"):
        rrmp_classify_by_signs([1e-300, 1.0, -3.0, 1.0, -1e-300])


# x^4 + t y^4 and t x^4 + y^4, two conjugate pairs whose depressed delta = 256 r^3
# underflows to 0 after the chart's scaling
@pytest.mark.parametrize("w", [[1.0, 0.0, 0.0, 0.0, 1e-300], [1e-300, 0.0, 0.0, 0.0, 1.0],
                               [1.0, 0.0, 0.0, 0.0, 1e-200], [1e-200, 0.0, 0.0, 0.0, 1.0]])
def test_sign_charts_label_a_quartic_whose_delta_underflows(w):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rrmp_classify_by_signs(w).label == "0|11"


def test_sign_charts_label_quartics_with_tiny_roots_at_every_scale():
    # roots of modulus down to 2^-268: the charts take the signs of delta and delta'
    # on the roots scaled up, so the labels are those of unit-size roots
    for e in range(-1074, 1000, 3):
        assert rrmp_classify_by_signs([1.0, 0.0, 0.0, 0.0, 2.0**e]).label == "0|11", e
        assert rrmp_classify_by_signs([2.0**e, 0.0, 0.0, 0.0, 1.0]).label == "0|11", e
    for e in range(-536, 0, 3):  # (x^2 - a y^2)(x^2 - 2a y^2), a = 2^e
        a = 2.0**e
        assert rrmp_classify_by_signs([1.0, 0.0, -3.0 * a, 0.0, 2.0 * a * a]).label == "1111|0", e
    for e in range(-1074, 0, 3):  # x (x^3 + t y^3)
        assert rrmp_classify_by_signs([1.0, 0.0, 0.0, 2.0**e, 0.0]).label == "11|1", e


def _label_or_error(classify, w):
    try:
        return classify(w).label
    except (RootFindingError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _constructed_filter(rng, degree):
    """A filter built from roots drawn for a random pattern of this degree, where
    the real root of the first multiplicity may sit at 0 or infinity."""
    patterns = all_rrmps(degree)
    rrmp = patterns[int(rng.integers(len(patterns)))]
    factors = []
    for m in rrmp.rho:
        factors += [[1.0, -rng.standard_normal()]] * m
    for m in rrmp.gamma:
        z = complex(*rng.standard_normal(2))
        factors += [[1.0, -2.0 * z.real, abs(z) ** 2]] * m
    if rrmp.rho and rng.uniform() < 0.4:
        end = [0.0, 1.0] if rng.uniform() < 0.5 else [1.0, 0.0]
        factors[: rrmp.rho[0]] = [end] * rrmp.rho[0]
    w = np.array([10 ** rng.uniform(-5, 5)])
    for f in factors:
        w = np.convolve(w, f)
    return w


def _near_double_root(rng, degree):
    """A filter with two real roots at a relative distance of 1e-7 to 1e-2."""
    r = rng.standard_normal()
    pair = np.convolve([1.0, -r], [1.0, -r * (1 + 10 ** rng.uniform(-7, -2))])
    return np.convolve(pair, rng.standard_normal(degree - 1))


def test_classify_rrmp_gives_the_label_or_error_of_its_roots():
    # the sign-chart route must answer as rooting and clustering does, with
    # no numpy warning; the 2^k scalings include the band where a cubic's
    # chart monomials underflow (k near -260)
    rng = np.random.default_rng(20261020)
    inputs = [draw(rng, d) for draw in (lambda rng, d: rng.standard_normal(d + 1),
                                        _constructed_filter, _near_double_root)
              for d in (2, 3, 4) for _ in range(200)]
    with np.errstate(all="ignore"):
        inputs += [b * 2.0 ** k for d in (2, 3, 4) for b in rng.standard_normal((2, d + 1))
                   for k in range(-900, 901, 9)]
        inputs += [b * 2.0 ** k for i in range(40)
                   for b in [rng.standard_normal(4) if i % 2 else _near_double_root(rng, 3)]
                   for k in range(-272, -250)]
    inputs += [np.array(w) for w in (
        [1e-300, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0, 1e-200], [1.0, -4.0, 6.0, -4.0, 1.0],
        [1.0, -4.5, 6.75, -3.375], [7.734157413842388e52, 3.3242570171478316e114,
                                    -3.340982948573189e110, -2.2797019726048847e-114,
                                    -2.352062777877014e-40])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for w in inputs:
            want = _label_or_error(lambda w: classify_roots(find_roots(w)), w)
            assert _label_or_error(classify_rrmp, w) == want, w.tolist()


def test_classify_rrmp_roots_only_what_the_charts_cannot_decide(monkeypatch):
    calls = Counter()
    for name in ("find_roots", "rrmp_classify_by_signs"):
        fn = getattr(rootlab, name)
        monkeypatch.setattr(rootlab, name,
                            lambda *args, fn=fn, name=name: calls.update([name]) or fn(*args))
    assert classify_rrmp([1.0, -3.0, 2.0]).label == "11|0"
    assert not calls
    # roots near 0 or infinity, and the 4-fold root of (x - y)^4
    for w in ([1e-300, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0, 1e-200], [1.0, -4.0, 6.0, -4.0, 1.0]):
        calls.clear()
        with pytest.raises(RootFindingError):
            classify_rrmp(w)
        assert calls == {"find_roots": 1}


# ---- compatibility with architectures ----


def test_compatibility_worked_examples():
    arch322 = Architecture((3, 2, 2))
    arch42 = Architecture((4, 2))
    assert is_compatible(Rrmp.from_label("13|0"), arch322)
    assert not is_compatible(Rrmp.from_label("13|0"), arch42)
    assert not is_compatible(Rrmp.from_label("4|0"), arch322)


def test_compatibility_tables():
    expected_322 = {"1111|0", "112|0", "22|0", "13|0", "11|1", "2|1"}
    expected_42 = {"1111|0", "112|0", "11|1", "2|1"}
    got_322 = {r.label for r in compatible_rrmps(Architecture((3, 2, 2)))}
    got_42 = {r.label for r in compatible_rrmps(Architecture((4, 2)))}
    assert got_322 == expected_322
    assert got_42 == expected_42


def test_degree_mismatch_is_incompatible():
    assert not is_compatible(Rrmp.from_label("11|0"), Architecture((3, 2, 2)))


def test_all_rrmps_degree_four():
    labels = {r.label for r in all_rrmps(4)}
    assert labels == {"1111|0", "112|0", "22|0", "13|0", "4|0",
                      "11|1", "2|1", "0|2", "0|11"}


def _all_rrmps_loop(degree):
    """Every pattern as a partition of the real roots times one of the pairs,
    for each number of pairs: the enumeration ``all_rrmps`` used before it
    took the real-type splits of each partition."""
    out = []
    for n_pair in range(degree // 2 + 1):
        for rho in _partitions(degree - 2 * n_pair):
            for gamma in _partitions(n_pair):
                out.append(Rrmp(rho, gamma))
    out.sort(key=lambda r: (r.rho, r.gamma))
    return out


def test_all_rrmps_equals_the_real_and_pair_partition_loop():
    for degree in range(15):
        got = all_rrmps(degree)
        assert got == _all_rrmps_loop(degree), degree
        assert [r.degree for r in got] == [degree] * len(got)


def test_compatibility_brute_force_cross_check():
    # independent check: enumerate all assignments of root labels to layers
    import itertools

    def brute(rrmp, bins):
        balls = []
        for color, m in enumerate(rrmp.rho):
            balls.append((color, 1, m))
        for j, m in enumerate(rrmp.gamma):
            balls.append((len(rrmp.rho) + j, 2, m))

        def rec(i, caps):
            if i == len(balls):
                return True
            color, size, count = balls[i]
            for combo in itertools.combinations(range(len(caps)), count):
                if all(caps[b] >= size for b in combo):
                    nxt = list(caps)
                    for b in combo:
                        nxt[b] -= size
                    if rec(i + 1, tuple(nxt)):
                        return True
            return False

        return rec(0, tuple(bins))

    archs = [Architecture(k) for k in [(3, 2, 2), (4, 2), (2, 2, 2), (5, 3),
                                       (3, 3), (2, 2, 2, 2)]]
    for arch in archs:
        for r in all_rrmps(arch.filter_size - 1):
            assert is_compatible(r, arch) == brute(r, arch.bin_sizes), (r, arch)


def test_conjugate_pairing_failure_raises():
    with pytest.raises(RootFindingError):
        classify_roots([ProjRoot.finite(1j)])


def test_discriminant_matches_low_degree_charts():
    rng = np.random.default_rng(7)
    for _ in range(100):
        c = rng.standard_normal(3)
        assert discriminant(c) == pytest.approx(rootlab._disc_and_scale(c)[0], abs=1e-10)
    for _ in range(100):
        c = rng.standard_normal(4)
        d = rootlab._disc_and_scale(c)[0]
        assert discriminant(c) == pytest.approx(d, rel=1e-8, abs=1e-9)
    for _ in range(100):  # the undepressed quartic of the chart route's guard
        c = rng.standard_normal(5)
        d = rootlab._signed_sum(rootlab._full_quartic_terms(c.tolist()))[0]
        assert discriminant(c) == pytest.approx(d, rel=1e-8, abs=1e-9)


def test_discriminant_matches_root_product():
    # a^(2n-2) * prod_{i<j} (r_i - r_j)^2 over the complex roots
    rng = np.random.default_rng(8)
    for n in (2, 3, 4, 5):
        for _ in range(50):
            c = rng.standard_normal(n + 1)
            r = np.roots(c)
            prod = complex(c[0]) ** (2 * n - 2)
            for i in range(n):
                for j in range(i + 1, n):
                    prod *= (r[i] - r[j]) ** 2
            assert discriminant(c) == pytest.approx(
                prod.real, rel=1e-5, abs=1e-7 * max(1.0, abs(prod)))


def test_discriminant_handles_infinite_and_repeated_roots():
    assert discriminant([0.0, 0.0, 1.0]) == 0.0          # double root at infinity
    assert discriminant([0.0, 1.0, 2.0]) == pytest.approx(1.0)
    double = np.convolve(np.convolve([1, -1], [1, -1]), [1, -2])
    assert discriminant(double) == pytest.approx(0.0, abs=1e-12)
    assert discriminant([3.0]) == 1.0
    assert discriminant([1.0, 2.0]) == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_filters_raise_value_error(bad):
    w = np.array([1.0, bad, 2.0])
    for classify in (find_roots, classify_rrmp, rrmp_classify_by_signs):
        with pytest.raises(ValueError, match=r"non-finite entries at positions \[1\]"):
            classify(w)
    arch = Architecture((2, 2))
    theta = [np.array([bad, 1.0]), np.array([1.0, 2.0])]
    for call in (lambda: classify_rrmp_pooled(theta), lambda: mu_rank(theta, arch),
                 lambda: region(w, arch), lambda: factor_into(w, arch)):
        with pytest.raises(ValueError, match="non-finite"):
            call()


def test_partitions_count_and_order():
    # partition numbers p(0..8)
    assert [len(list(_partitions(n))) for n in range(9)] == [1, 1, 2, 3, 5, 7, 11, 15, 22]
    assert list(_partitions(0)) == [()]
    for n in range(1, 9):
        parts = list(_partitions(n))
        assert all(sum(p) == n and list(p) == sorted(p, reverse=True) for p in parts)
        assert parts == sorted(parts, reverse=True)  # (n,) first, (1,)*n last
        assert len(set(parts)) == len(parts)


# -- the root finder, pinned bit for bit ---------------------------------------
#
# Test-local copies of the solver written with np.polyval, np.polyder,
# np.fill_diagonal and a fresh default_rng(0) per call.  The library takes p
# and p' from one Horner pass and caches its start circle per degree; it must
# give these bits.  ``stats`` counts the runs that hit the iteration cap and
# the companion-matrix fallbacks, so the test can show it reaches both.


def _reference_aberth(core, stats):
    a = core / core[0]
    m = len(a) - 1
    if m == 1:
        return np.array([-a[1]], dtype=complex)

    rng = np.random.default_rng(0)
    deriv = np.polyder(a)
    radius = 1.0 + np.max(np.abs(a[1:]))
    phase = rng.uniform(0.0, 2.0 * np.pi)
    jitter = rng.uniform(-0.05, 0.05, size=m)
    angles = phase + 2.0 * np.pi * (np.arange(m) + jitter) / m
    z = radius * (0.7 + 0.1 * jitter) * np.exp(1j * angles)

    for _ in range(200):
        p = np.polyval(a, z)
        dp = np.polyval(deriv, z)
        dp = np.where(dp == 0, 1e-300, dp)
        newton = p / dp
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        inv = 1.0 / diff
        np.fill_diagonal(inv, 0.0)
        denom = 1.0 - newton * inv.sum(axis=1)
        denom = np.where(denom == 0, 1e-300, denom)
        step = newton / denom
        z = z - step
        if np.max(np.abs(step) / (1.0 + np.abs(z))) < 1e-14:
            break
    else:
        stats["capped"] += 1

    return _reference_polish(a, z)


def _reference_polish(poly, z):
    deriv = np.polyder(poly)
    for _ in range(5):
        dp = np.polyval(deriv, z)
        mask = np.abs(dp) > 0
        z = np.where(mask, z - np.polyval(poly, z) / np.where(mask, dp, 1.0), z)
    return z


def _reference_sum(coeffs, root):
    """P(x, y) at the unit-normalized root, summed on numpy scalars."""
    k = len(coeffs)
    if root.infinite:
        x, y = 1.0 + 0j, 0j
    else:
        n = math.hypot(abs(root.value), 1.0)
        x, y = root.value / n, 1.0 / n
    return sum(coeffs[j] * x ** (k - 1 - j) * y**j for j in range(k))


def _reference_residual(coeffs, root):
    """|P(x, y)| on numpy scalars: the residual the library computed before
    it summed Python floats."""
    return abs(_reference_sum(coeffs, root))


def _reference_find_roots(coeffs, stats):
    w = np.asarray(coeffs, dtype=float)
    k = len(w)
    n_inf = 0
    while w[n_inf] == 0:
        n_inf += 1
    n_zero = 0
    while w[k - 1 - n_zero] == 0:
        n_zero += 1
    core = w[n_inf : k - n_zero]

    roots = [INFINITY] * n_inf + [ProjRoot.finite(0.0)] * n_zero
    if len(core) > 1:
        with np.errstate(all="ignore"):
            z = _reference_aberth(core, stats)
            finite = [ProjRoot.finite(zi) for zi in z]
            bound = rootlab._RESIDUAL_BOUND * np.max(np.abs(core))
            if any(_reference_residual(core, r) > bound for r in finite):
                stats["fallback"] += 1
                z = _reference_polish(core, np.roots(core))
                finite = [ProjRoot.finite(zi) for zi in z]
                bad = max(_reference_residual(core, r) for r in finite)
                if bad > bound:
                    raise RootFindingError(
                        f"root residual {bad:.3e} exceeds bound for coefficients {w}"
                    )
        roots += finite
    return roots


def _bits(roots):
    """Each root as the hex of its real and imaginary parts; NaN as 'nan'."""
    return [("inf",) if r.infinite else
            tuple("nan" if math.isnan(x) else x.hex() for x in (r.value.real, r.value.imag))
            for r in roots]


def _outcome(find, w):
    try:
        return _bits(find(w))
    except RootFindingError as exc:
        return str(exc)


def _root_finder_inputs(rounds):
    """Seeded filters, drawn in interleaved degree order so that the start
    circle of one degree is reused after others were cached."""
    rng = np.random.default_rng(2_026_1018)
    filters = []
    for _ in range(rounds):
        for d in (1, 5, 2, 8, 3, 7, 4, 6):
            filters.append(rng.standard_normal(d + 1))
            # magnitudes across 300 orders: iterates overflow to inf and NaN
            filters.append(rng.choice([-1.0, 1.0], d + 1) * 10.0 ** rng.uniform(-150, 150, d + 1))
            # roots at scales 1e-50..1e50, short of overflowing the coefficients
            scale = 10.0 ** (rng.uniform(-50, 50) * min(1.0, 6 / d))
            roots = [rng.standard_normal(d) * scale]
            m = int(rng.integers(1, d + 1))  # a root of multiplicity m
            roots.append([rng.standard_normal()] * m + list(rng.standard_normal(d - m)))
            pair = complex(*rng.standard_normal(2))  # repeated conjugate pairs
            roots.append([pair, pair.conjugate()] * (d // 2) + list(rng.standard_normal(d % 2)))
            # a leading coefficient other than 1, so the fallback's polish
            # on the filter itself differs from one on its monic form
            filters += [np.real(np.poly(r)) * rng.standard_normal() for r in roots]
            w = rng.standard_normal(d + 1)  # roots at infinity and at 0
            w[: int(rng.integers(0, 3))] = 0.0
            w[d + 1 - int(rng.integers(0, 3)):] = 0.0
            if np.any(w):
                filters.append(w)
    return filters


def test_find_roots_matches_the_reference_solver_bit_for_bit():
    stats = Counter()
    for w in _root_finder_inputs(rounds=10):
        expected = _outcome(lambda c: _reference_find_roots(c, stats), w)
        assert _outcome(find_roots, w) == expected, w
    # the inputs reach the iteration cap and the companion fallback
    assert stats["capped"] > 0 and stats["fallback"] > 0, stats


def test_newton_polish_matches_the_reference_on_non_finite_estimates():
    # the companion fallback polishes np.roots' output, which can be a real
    # array holding inf; there the leading zero step of p' decides the mask
    rng = np.random.default_rng(11)
    special = [np.inf, -np.inf, np.nan, 0.0, -0.0, 1e300, -1e-300]

    def joined(re, im):
        z = re.astype(complex)
        z.imag = im
        return z

    for d in range(1, 7):
        poly = rng.standard_normal(d + 1) * 10.0 ** rng.uniform(-5, 5)
        for z in (rng.choice(special, d), rng.standard_normal(d),
                  joined(rng.choice(special, d), rng.choice(special + [1.0], d)),
                  joined(rng.standard_normal(d), rng.choice(special, d))):
            with np.errstate(all="ignore"):
                got = rootlab._newton_polish(rootlab._horner_rows(poly), z)
                expected = _reference_polish(poly, z)
            assert got.dtype == expected.dtype
            assert _bits(map(ProjRoot.finite, got)) == _bits(map(ProjRoot.finite, expected)), (poly, z)


def test_a_nan_residual_after_the_companion_fallback_raises():
    # the fallback's polish sends np.roots' two zero roots to inf, whose
    # residuals are NaN; a NaN after a finite residual must still fail
    w = [7.734157413842388e52, 3.3242570171478316e114, -3.340982948573189e110,
         -2.2797019726048847e-114, -2.352062777877014e-40]
    with pytest.raises(RootFindingError, match="root residual nan exceeds bound"):
        find_roots(w)
    with pytest.raises(RootFindingError, match="root residual nan exceeds bound"):
        classify_rrmp(w)


@pytest.mark.parametrize("w", [[1e-300, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0, 1e-200],
                               [1.0, -4.0, 6.0, -4.0, 1.0], [1.0, -4.5, 6.75, -3.375]])
def test_inputs_that_fail_classification_keep_their_roots_and_message(w):
    expected = _reference_find_roots(w, Counter())
    got = find_roots(w)
    assert _bits(got) == _bits(expected)
    if w[0] == 1e-300:
        assert _bits(got) == [("nan", "nan")] * 2
    with pytest.raises(RootFindingError) as ref:
        classify_roots(expected)
    with pytest.raises(RootFindingError, match="conjugate pairing failed") as err:
        classify_rrmp(w)
    assert str(err.value) == str(ref.value)


def test_start_circle_is_read_only_and_shared_across_degrees():
    rng = np.random.default_rng(5)
    w = rng.standard_normal(5)
    before = _bits(find_roots(w))
    for d in (2, 7, 3, 9, 4):
        find_roots(rng.standard_normal(d + 1))
    assert _bits(find_roots(w)) == before
    cached = _start_circle(4)
    one, ones = cached[2:]
    assert one.dtype == ones.dtype == complex and one.shape == (4,) and ones.shape == (4, 4)
    assert (one == 1).all() and (ones == 1).all()
    for array, again in zip(cached, _start_circle(4)):
        assert array is again
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_aberth_stops_when_an_iterate_repeats(monkeypatch):
    # an update is a fixed function of the iterate, so once one repeats the
    # loop could only repeat it up to the cap: stopping there keeps the bits
    values = rootlab._values
    calls = Counter()

    def counted(*args):
        calls["values"] += 1
        return values(*args)

    monkeypatch.setattr(rootlab, "_values", counted)
    # the first update sends both iterates to NaN and the second repeats them
    stats = Counter()
    w = [1e-300, 1.0, 1.0]
    assert _bits(find_roots(w)) == _bits(_reference_find_roots(w, stats))
    assert stats["capped"] == 1 and calls["values"] == 2 + 5

    # coefficients across 300 orders of magnitude: many runs turn NaN
    rng = np.random.default_rng(150)
    cut_short = 0
    for _ in range(60):
        k = int(rng.integers(3, 10))
        w = rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-150, 150, k)
        stats.clear()
        calls.clear()
        expected = _outcome(lambda c: _reference_find_roots(c, stats), w)
        assert _outcome(find_roots, w) == expected, w
        cut_short += stats["capped"] > 0 and calls["values"] < 200
    assert cut_short >= 10, cut_short


def test_no_workspace_state_outlives_a_solve(monkeypatch):
    # every solve allocates its own workspace: solves of interleaved degrees, and a
    # solve started from inside another's Horner pass, give the bytes of lone solves
    filters = _root_finder_inputs(rounds=2)
    lone = [_outcome(find_roots, w) for w in filters]
    order = np.random.default_rng(30).permutation(len(filters))
    assert [_outcome(find_roots, filters[i]) for i in order] == [lone[i] for i in order]

    values = rootlab._values
    inner = iter(range(len(filters)))
    nested = []

    def reentrant(*args):
        i = next(inner, None)
        if i is not None:
            nested.append((i, _outcome(find_roots, filters[i])))
        return values(*args)

    monkeypatch.setattr(rootlab, "_values", reentrant)
    outer = [_outcome(find_roots, w) for w in filters[::-1]]
    assert outer == lone[::-1]
    assert len(nested) == len(filters) and all(got == lone[i] for i, got in nested)


def test_complex_abs_gives_each_entry_the_same_bytes_at_any_length_and_offset():
    # _aberth takes the moduli of [step | z] from one np.abs call, so the SIMD
    # kernel must give an entry the bytes it has in an array of its own
    rng = np.random.default_rng(300)
    special = [np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -2.2e-310, 1.7e308, -1.2e308]
    for length in range(2, 17):
        for offset in range(4):
            for _ in range(40):
                parts = rng.standard_normal((offset + length, 2)) * 10.0 ** rng.uniform(
                    -300, 300, (offset + length, 2))
                mask = rng.random(parts.shape) < 0.4
                parts[mask] = rng.choice(special, mask.sum())
                z = np.empty(offset + length, complex)
                z.real, z.imag = parts[:, 0], parts[:, 1]
                z = z[offset:]
                moduli = np.empty(offset + length)[offset:]
                np.abs(z, moduli)
                for i in range(length):
                    alone = np.abs(z[i : i + 1])
                    assert moduli[i : i + 1].tobytes() == alone.tobytes(), (z[i], length, offset)


@pytest.mark.parametrize("w", [[1e-300, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0, 1e-200],
                               [1e300, -1e-300, 1e300], [1e-300, 1e300],
                               [7.734157413842388e52, 3.3242570171478316e114,
                                -3.340982948573189e110, -2.2797019726048847e-114,
                                -2.352062777877014e-40]])
def test_find_roots_warns_nothing_and_leaves_the_callers_error_state(w):
    # the solve ignores numpy's floating-point errors, as np.errstate(all="ignore")
    # would, and puts back the caller's state whether it returns or raises
    expected = _outcome(find_roots, w)
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(find_roots, w) == expected
        with np.errstate(all="raise"):
            inside = np.geterr()
            assert _outcome(find_roots, w) == expected
            assert np.geterr() == inside
    assert np.geterr() == before


def test_cluster_rep_gives_the_bytes_of_np_mean():
    # a singleton too: its own value is not its mean, which divides by 1
    rng = np.random.default_rng(24)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310]
    differs = 0
    for _ in range(3000):
        n = int(rng.integers(1, 10))
        parts = rng.standard_normal((n, 2))
        mask = rng.random((n, 2)) < 0.4
        parts[mask] = rng.choice(special, mask.sum())
        values = [complex(re, im) for re, im in parts]
        with np.errstate(all="ignore"):
            rep = rootlab._cluster_rep([ProjRoot.finite(v) for v in values])
            mean = complex(np.mean(values))
        assert np.complex128(rep.value).tobytes() == np.complex128(mean).tobytes(), values
        differs += n == 1 and np.complex128(values[0]).tobytes() != np.complex128(mean).tobytes()
    assert differs > 0
    assert rootlab._cluster_rep([INFINITY, INFINITY]) is INFINITY


def test_float_list_residual_gives_the_numpy_scalar_bits():
    # numpy's scalar complex *, + and abs are Python's formulas and libm's
    # hypot; where abs of a finite sum overflows, Python raises and numpy
    # gives inf
    rng = np.random.default_rng(28)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324]
    reached = Counter()
    for i in range(4000):
        k = int(rng.integers(2, 10))
        if i % 3 == 0:
            # coefficients near the top of the double range whose terms add
            # up in one direction, on a root of modulus near 1
            z = cmath.rect(10.0 ** rng.uniform(-0.2, 0.2), rng.uniform(-np.pi, np.pi))
            turn = cmath.rect(1.0, -rng.uniform(-np.pi, np.pi))
            signs = [math.copysign(1.0, (z ** (k - 1 - j) * turn).real) for j in range(k)]
            coeffs = np.array(signs) * rng.uniform(1.0, 1.79, k) * 1e308
        else:
            z = complex(*rng.standard_normal(2) * 10.0 ** rng.uniform(-5, 5, 2))
            coeffs = rng.standard_normal(k) * 10.0 ** rng.uniform(-200, 200, k)
        zeros = rng.random(k) < 0.2
        coeffs[zeros] = rng.choice([0.0, -0.0], zeros.sum())
        re, im = z.real, z.imag
        if i % 5 == 1:
            re = rng.choice(special)
        if i % 4 == 2:
            im = rng.choice(special)
        root = INFINITY if i % 17 == 0 else ProjRoot(complex(re, im), False)
        # CPython's abs of a complex with a NaN part raises OverflowError
        # while errno still holds an earlier overflow's ERANGE; the abs of a
        # finite complex clears errno
        abs(1j)
        with np.errstate(all="ignore"):
            total = _reference_sum(coeffs, root)
            expected = abs(total)
        abs(1j)
        got = rootlab._homogeneous_residual(coeffs.tolist(), root)
        assert type(got) is float
        assert got.hex() == float(expected).hex(), (coeffs, root)
        finite_sum = math.isfinite(total.real) and math.isfinite(total.imag)
        reached["abs overflows"] += finite_sum and expected == np.inf
        reached["sum overflows"] += np.isinf(total.real) or np.isinf(total.imag)
        reached["nan"] += math.isnan(expected)
        reached["non-finite root"] += not (root.infinite or cmath.isfinite(root.value))
    assert min(reached.values()) >= 5 and len(reached) == 4, reached


def test_a_nan_root_after_an_overflowing_modulus_is_nan_not_an_overflow():
    # the overflowing modulus leaves ERANGE in errno, and CPython 3.11's abs of
    # a complex with a NaN part then raises OverflowError as well
    assert rootlab._homogeneous_residual([-1.7e308, 1.7e308, 1.7e308], ProjRoot(1j)) == math.inf
    nan_root = ProjRoot(complex(math.nan, 1.0))
    assert not nan_root.is_real()
    assert math.isnan(rootlab._homogeneous_residual([1.0, 1.0], nan_root))
    assert not rootlab._same_root(nan_root, nan_root, rootlab.ROOT_TOL)


def _full_horner_pass(rows, z):
    """p(z) and p'(z) from every row of the Horner pass, starting at y = 0."""
    zz = np.concatenate([z, z])
    y = np.zeros(len(zz), zz.dtype)
    for c in rows:
        y = y * zz + c
    return y[: len(z)], y[len(z):]


def _horner_pass(rows, z, finite=None):
    """p(z) and p'(z) from ``rootlab._values``, told whether z is finite unless
    ``finite`` says otherwise."""
    zz = np.concatenate([z, z])
    y = np.empty(len(zz), np.result_type(rows[0], zz))
    rootlab._values(rows, zz, np.isfinite(z).all() if finite is None else finite, y)
    return y[: len(z)], y[len(z):]


def test_horner_pass_without_its_zero_row_keeps_the_bits():
    # on a finite z, 0 * zz + rows[0] is rows[0]; an inf or NaN in z makes it
    # NaN, so such a z must take the whole pass
    rng = np.random.default_rng(29)
    special = [np.inf, -np.inf, np.nan, -0.0, 0.0, 1e300]

    def joined(re, im):
        z = re.astype(complex)
        z.imag = im
        return z

    non_finite = 0
    for d in range(1, 8):
        for _ in range(20):
            poly = rng.standard_normal(d + 1) * 10.0 ** rng.uniform(-5, 5)
            complex_z = (joined(rng.standard_normal(d), rng.standard_normal(d)),
                         joined(rng.choice(special, d), rng.standard_normal(d)),
                         joined(rng.standard_normal(d), rng.choice(special, d)))
            # float rows of the core itself on np.roots' real or complex
            # output, as the companion fallback polishes, and complex rows of
            # the monic polynomial on complex iterates, as Aberth's
            for rows, zs in ((rootlab._horner_rows(poly),
                              (rng.standard_normal(d), rng.choice(special, d)) + complex_z),
                             (tuple(rootlab._horner_rows(poly / poly[0]).astype(complex)),
                              complex_z)):
                for z in zs:
                    with np.errstate(all="ignore"):
                        got = _horner_pass(rows, z)
                        expected = _full_horner_pass(rows, z)
                        # a finite z sent through the whole pass gets the same bits
                        whole = _horner_pass(rows, z, finite=False)
                    for g, e, h in zip(got, expected, whole):
                        assert g.dtype == e.dtype and g.tobytes() == e.tobytes(), (poly, z)
                        assert h.tobytes() == g.tobytes(), (poly, z)
                    non_finite += not np.isfinite(z).all()
    assert non_finite > 100


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_same_root_and_is_real_reject_a_bad_tolerance(tol):
    # a NaN tolerance made every comparison False; the same-root rule takes its
    # tolerance through cluster_roots
    a = ProjRoot.finite(1 + 1e-9j)
    assert len(cluster_roots([a, a])) == 1 and a.is_real() and INFINITY.is_real()
    message = f"tol must be finite and non-negative, got {tol}"
    for call in (lambda: cluster_roots([a, a], tol=tol), lambda: cluster_roots([INFINITY, a], tol),
                 lambda: a.is_real(tol), lambda: INFINITY.is_real(tol=tol)):
        with pytest.raises(ValueError, match=message):
            call()


def test_all_rrmps_rejects_a_bad_degree():
    assert all_rrmps(0) == [Rrmp()] and all_rrmps(np.int64(2)) == all_rrmps(2)
    with pytest.raises(ValueError, match="degree must be an integer, got 2.5"):
        all_rrmps(2.5)
    with pytest.raises(ValueError, match="degree must be non-negative, got -1"):
        all_rrmps(-1)


def test_discriminant_rejects_non_finite_input():
    for c in ([np.inf, 1.0, 1.0], [np.nan, 1.0, 1.0, 1.0], [1.0, 2.0, -np.inf]):
        with pytest.raises(ValueError, match="non-finite entries"):
            discriminant(c)


# -- conjugate pairing, pinned --------------------------------------------------


def _reference_root_structure(roots):
    """A test-local copy of the pairing loop with a ``used`` flag per cluster,
    which fixes the pairs and the error that ``_root_structure`` must give."""
    reals, complex_clusters = [], []
    for c in cluster_roots(roots):
        rep = rootlab._cluster_rep(c)
        if rep.is_real():
            reals.append((rep, len(c)))
        else:
            complex_clusters.append((rep, len(c)))
    pairs = []
    used = [False] * len(complex_clusters)
    for i, (rep, size) in enumerate(complex_clusters):
        if used[i]:
            continue
        mate = None
        for j in range(i + 1, len(complex_clusters)):
            if used[j]:
                continue
            other, osize = complex_clusters[j]
            if osize == size and rootlab._same_root(other, rep.conjugate(), rootlab.ROOT_TOL):
                mate = j
                break
        if mate is None:
            raise RootFindingError(
                f"conjugate pairing failed near {rep.value}; is the input real?")
        used[i] = used[mate] = True
        pairs.append((rep, size))
    return reals, pairs


def _structure_outcome(structure, roots):
    try:
        reals, pairs = structure(roots)
    except RootFindingError as exc:
        return str(exc)
    return [(_bits([r]), m) for r, m in reals], [(_bits([z]), m) for z, m in pairs]


def test_root_structure_matches_the_reference_pairing():
    rng = np.random.default_rng(2_026_1019)
    raised = paired = 0
    for _ in range(3000):
        roots = []
        for _ in range(int(rng.integers(1, 6))):
            u, m = rng.random(), int(rng.integers(1, 3))
            if u < 0.15:
                roots += [INFINITY] * m
            elif u < 0.35:
                roots += [ProjRoot.finite(rng.standard_normal())] * m
            else:
                z = complex(*rng.standard_normal(2))
                roots += [ProjRoot.finite(z)] * m
                # a mate of the same or another size, a mate each side of z's
                # conjugate that are not each other's neighbours, or none
                v = rng.random()
                if v < 0.85:
                    roots += [ProjRoot.finite(z.conjugate())] * (m if v < 0.75 else 3 - m)
                elif v < 0.93:
                    for s in (1, -1):
                        roots += [ProjRoot.finite(z.conjugate() * (1 + s * 0.9 * rootlab.ROOT_TOL))]
        roots = [roots[j] for j in rng.permutation(len(roots))]
        expected = _structure_outcome(_reference_root_structure, roots)
        assert _structure_outcome(rootlab._root_structure, roots) == expected, roots
        raised += isinstance(expected, str)
        paired += not isinstance(expected, str) and len(expected[1]) > 1
    assert raised > 500 and paired > 500, (raised, paired)
