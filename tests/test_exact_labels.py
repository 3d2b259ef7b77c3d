"""Exact real-root multiplicity patterns, the judge of the float labelling routes.

A double is a dyadic rational, so every filter has an exact pattern.
``exact_label`` computes it in ``fractions.Fraction`` arithmetic:

* leading zero coefficients give the root at infinity and its multiplicity;
* Yun's square-free decomposition (repeated GCDs with the derivative) splits
  the rest into pairwise coprime factors with simple roots, factor m holding
  the roots of multiplicity m;
* a Sturm sequence counts the real roots of each factor, and the others pair up.

The library counts roots within ROOT_TOL = 1e-4 of each other as one multiple
root, so the float routes are judged only on inputs whose distinct exact roots
are at least 1e-2 apart relative to their size.  Polynomials are lists of
Fractions, highest degree first, with no leading zero; [] is zero.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from lcnlab.rootlab import Rrmp, classify_rrmp, classify_rrmp_pooled

SEPARATION = 1e-2


def _trim(p):
    i = 0
    while i < len(p) and p[i] == 0:
        i += 1
    return p[i:]


def _derivative(p):
    n = len(p) - 1
    return _trim([c * (n - i) for i, c in enumerate(p[:-1])])


def _divmod(a, b):
    """Quotient and remainder of ``a`` by a nonzero ``b``."""
    a, q = list(a), []
    while len(a) >= len(b):
        f = a[0] / b[0]
        q.append(f)
        for i, c in enumerate(b):
            a[i] -= f * c
        a.pop(0)
    return q, _trim(a)


def _gcd(a, b):
    """The monic greatest common divisor of ``a`` and ``b``, not both zero."""
    while b:
        a, b = b, _divmod(a, b)[1]
    return [c / a[0] for c in a]


def _minus(a, b):
    n = max(len(a), len(b))
    a, b = [0] * (n - len(a)) + a, [0] * (n - len(b)) + b
    return _trim([x - y for x, y in zip(a, b)])


def _mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _square_free_factors(p):
    """Yun's decomposition of a nonzero ``p``: [a_1, a_2, ...] with p = c * prod a_m^m,
    each a_m monic and square-free, the a_m pairwise coprime."""
    dp = _derivative(p)
    g = _gcd(p, dp)
    b, c = _divmod(p, g)[0], _divmod(dp, g)[0]
    factors = []
    while len(b) > 1:
        d = _minus(c, _derivative(b))
        a = _gcd(b, d)
        b, c = _divmod(b, a)[0], _divmod(d, a)[0]
        factors.append(a)
    return factors


def _sign_changes(values):
    signs = [v > 0 for v in values]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _real_root_count(p):
    """Number of real roots of a square-free ``p``: the sign changes of its Sturm
    sequence at -infinity minus those at +infinity."""
    seq = [p, _derivative(p)]
    while seq[-1]:
        seq.append([-c for c in _divmod(seq[-2], seq[-1])[1]])
    seq.pop()
    return (_sign_changes([q[0] * (-1) ** (len(q) - 1) for q in seq])
            - _sign_changes([q[0] for q in seq]))


def exact_label(form) -> str:
    """The exact pattern of a binary form given by its coefficients (floats or
    Fractions, the x^(k-1) one first)."""
    coeffs = [Fraction(c) for c in form]
    p = _trim(coeffs)
    if not p:
        raise ValueError("the zero form has no roots")
    n_inf = len(coeffs) - len(p)
    rho, gamma = [n_inf] if n_inf else [], []
    for m, a in enumerate(_square_free_factors(p), 1):
        real = _real_root_count(a)
        rho += [m] * real
        gamma += [m] * ((len(a) - 1 - real) // 2)
    return Rrmp(tuple(rho), tuple(gamma)).label


def separated(form) -> bool:
    """Whether the distinct exact roots of the form are at least SEPARATION apart
    relative to the larger of each two.  They are the simple roots of its
    square-free part, located by ``np.roots`` far more accurately than that."""
    p = _trim([Fraction(c) for c in form])
    core = _divmod(p, _gcd(p, _derivative(p)))[0]
    roots = np.roots([float(c) for c in core])
    return all(abs(x - y) >= SEPARATION * max(abs(x), abs(y))
               for i, x in enumerate(roots) for y in roots[i + 1:])


def _product(layers):
    out = [Fraction(1)]
    for w in layers:
        out = _mul(out, [Fraction(c) for c in w])
    return out


@pytest.mark.parametrize("w, label", [
    ([1.0, -4.0, 6.0, -4.0, 1.0], "4|0"),       # (x - y)^4
    ([1.0, 0.0, 1.0], "0|1"),                   # x^2 + y^2
    ([1.0, 0.0, 2.0, 0.0, 1.0], "0|2"),         # (x^2 + y^2)^2
    ([0.0, 0.0, 1.0, -1.0], "12|0"),            # y^2 (x - y): infinity twice
    ([1.0, 0.0, 0.0], "2|0"),                   # x^2: 0 twice
    ([0.0, 1.0, 0.0, 1.0], "1|1"),              # y (x^2 + y^2)
    ([0.0, 1.0, -2.0, 1.0, 0.0], "112|0"),      # y x (x - y)^2
    ([1.0, -1.5, 0.0, 0.5, 0.0], "112|0"),      # x (x - y)^2 (x + y/2)
    ([2.0, 0.0, -1.0], "11|0"),                 # irrational roots +-1/sqrt(2)
    ([3.0], "0|0"),
])
def test_exact_label_of_hand_checked_forms(w, label):
    assert exact_label(w) == label


def test_exact_label_rejects_the_zero_form():
    with pytest.raises(ValueError, match="the zero form has no roots"):
        exact_label([0.0, 0.0])


def test_exact_label_reads_the_binary_rationals_of_the_floats():
    # 1 + 2^-52 is a double, so x^2 - 2(1 + 2^-52)xy + y^2 has two real roots
    # 2^-25 apart, which the library calls one double root
    c = 1.0 + 2.0 ** -52
    assert exact_label([1.0, -2.0 * c, 1.0]) == "11|0"
    assert not separated([1.0, -2.0 * c, 1.0])
    assert classify_rrmp([1.0, -2.0 * c, 1.0]).label == "2|0"


def test_float_labels_agree_with_exact_labels_on_standard_normal_filters():
    rng = np.random.default_rng(37)
    judged = 0
    for degree in range(1, 7):
        for _ in range(40):
            w = rng.standard_normal(degree + 1)
            if separated(w):
                judged += 1
                label = exact_label(w)
                assert classify_rrmp(w).label == label, w.tolist()
                assert classify_rrmp_pooled([w]).label == label, w.tolist()
    for _ in range(60):
        layers = [rng.standard_normal(int(k)) for k in rng.integers(2, 4, size=rng.integers(2, 4))]
        form = _product(layers)
        if separated(form):
            judged += 1
            assert classify_rrmp_pooled(layers).label == exact_label(form), layers
    assert judged >= 280, judged  # 300 of 300 at this seed


def test_pooled_labels_agree_with_exact_labels_on_exactly_repeated_roots():
    # layers drawn with repetition from a few, each scaled by a signed power of two,
    # so a repeated layer has exactly the same roots; some put roots at infinity or 0
    rng = np.random.default_rng(38)
    judged = 0
    for _ in range(80):
        base = [rng.standard_normal(int(k)) for k in rng.integers(2, 4, size=3)]
        base += [np.array([0.0, rng.standard_normal()]), np.array([rng.standard_normal(), 0.0])]
        layers, degree = [], 0
        while degree < 4:
            w = base[int(rng.integers(len(base)))]
            layers.append(w * math.ldexp(rng.choice([-1.0, 1.0]), int(rng.integers(-3, 4))))
            degree += len(w) - 1
        form = _product(layers)
        if separated(form):
            judged += 1
            assert classify_rrmp_pooled(layers).label == exact_label(form), \
                [w.tolist() for w in layers]
    assert judged >= 72, judged  # 80 of 80 at this seed
