"""Projective roots of filter polynomials and their multiplicity patterns.

A filter of size k is the binary form w_0 x^{k-1} + ... + w_{k-1} y^{k-1};
its k-1 roots live on the projective line (leading zero coefficients put
roots at infinity).  The multiplicity pattern of the *real* locus — written
``rho|gamma`` where rho collects multiplicities of real roots and gamma those
of complex-conjugate pairs — drives everything in the function-space and
critical-point analysis, so this module owns:

* a simultaneous-iteration root finder (Aberth-Ehrlich) with Newton polish;
  its seeded start circle is fixed per degree and scaled to the
  coefficients, one Horner pass gives p and p' together, and the loop stops
  once an iterate repeats; on arrays of a few entries it pre-casts its
  operands, writes every value into one workspace per solve through a
  ufunc's ``out``, skips the work whose result is known (the Horner pass's
  zero row on a finite iterate, the diagonal that the update overwrites)
  and takes its yes/no decisions on Python floats, while every value that
  reaches a root comes from the same numpy kernel on the same operands; it
  runs under an error state that ignores numpy's floating-point errors,
  built once in ``poly_core``; the residuals that certify the roots are
  summed in Python complex arithmetic, which is numpy's scalar arithmetic
  bit for bit,
* the root structure of a filter: tolerance-based clusters split into real
  roots and conjugate pairs with their multiplicities, which both pattern
  classification and explicit factorization read; one single-linkage
  grouping, ``_linkage``, clusters the roots of a filter, the floats that
  linear layers with normal entries and roots give the pooled pattern (no
  root solve, the same labels) and the layer-tagged roots of
  ``dynamics.mu_rank``,
* exact sign-chart classification via closed-form discriminants (degree <= 4),
  which also labels a degree-2..4 filter in ``classify_rrmp`` wherever three
  guards find the chart decision well conditioned; the other filters are
  rooted and clustered,
* every pattern of a degree as the real-type splits of its partitions, and
  the bins-with-colored-balls compatibility test between a pattern and an
  architecture.

Clustering at relative tolerance cannot certify deep multiplicities computed
from a single high-degree polynomial (an exact m-fold root scatters like
eps^(1/m) under floating point); callers that know the factor structure
should classify from it instead of re-rooting the product.
"""

from __future__ import annotations

import cmath
import collections
import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .poly_core import (_QUIET, _enter_errstate, _exit_errstate, _integer, _integers, _real,
                        _require_finite, as_filter, toeplitz_matrix)

#: Default relative tolerance for "is real" / "are equal" root decisions.
ROOT_TOL = 1e-4

#: |value| <= ZERO_BAND * scale counts as an exact zero in sign charts.
ZERO_BAND = 1e-12

_RESIDUAL_BOUND = 1e-10

_TINY, _HUGE = sys.float_info.min, sys.float_info.max  # normal magnitudes


class RootFindingError(RuntimeError):
    """Raised when the iteration cannot certify the computed roots."""


@dataclass(frozen=True)
class ProjRoot:
    """A root on the projective line: a complex number or the point at infinity."""

    value: complex = 0j
    infinite: bool = False

    @staticmethod
    def finite(z) -> "ProjRoot":
        return ProjRoot(complex(z), False)

    def conjugate(self) -> "ProjRoot":
        if self.infinite:
            return self
        return ProjRoot(self.value.conjugate(), False)

    def is_real(self, tol: float = ROOT_TOL) -> bool:
        """Whether the imaginary part is within ``tol`` of the modulus (infinity is
        real).  Raises ValueError for a ``tol`` that is not finite and non-negative."""
        _real("tol", tol, "non-negative")
        if self.infinite:
            return True
        return abs(self.value.imag) <= tol * _modulus(self.value)

    def __repr__(self):
        return "ProjRoot(inf)" if self.infinite else f"ProjRoot({self.value!r})"


INFINITY = ProjRoot(0j, True)


def _same_root(a: ProjRoot, b: ProjRoot, tol: float) -> bool:
    """Relative-tolerance equality, for a ``tol`` the caller checked, as
    ``cluster_roots`` does once for every pair; infinity only ever matches
    infinity."""
    if a.infinite or b.infinite:
        return a.infinite and b.infinite
    return _modulus(a.value - b.value) <= tol * max(_modulus(a.value), _modulus(b.value))


def _modulus(z: complex) -> float:
    """``abs(z)``, with numpy's scalar value where Python's raises: NaN for a NaN
    part, else inf.  Python raises ``OverflowError`` for a finite ``z`` whose
    modulus overflows, and CPython 3.11 also for a NaN part while errno still
    holds an earlier overflow's ERANGE."""
    try:
        return abs(z)
    except OverflowError:
        return math.nan if cmath.isnan(z) else math.inf


def _homogeneous_residual(coeffs: list, root: ProjRoot) -> float:
    """|P(x, y)| at the unit-normalized representative of the root, for P's
    coefficients as a list of Python floats.

    numpy's *scalar* complex ``*``, ``+`` and ``abs`` are Python's formulas
    and libm's ``hypot``, so this gives the bits of the same sum on numpy
    scalars without numpy's per-operation dispatch.
    """
    k = len(coeffs)
    if root.infinite:
        x, y = 1.0 + 0j, 0j
    else:
        n = math.hypot(_modulus(root.value), 1.0)
        x, y = root.value / n, 1.0 / n
    return _modulus(sum(coeffs[j] * x ** (k - 1 - j) * y**j for j in range(k)))


@functools.lru_cache(maxsize=32)
def _start_circle(m: int):
    """Radial weights and unit phases for m roots, then complex ones of shapes
    (m,) and (m, m) for the update's ``1 - ...`` and ``1 / diff``.

    The seeded circle depends on m alone, so every call shares these arrays,
    which are read-only.  A complex one is the operand numpy makes of the
    scalar 1.0 itself, so the pre-cast ones keep the bits of the scalar
    forms.
    """
    rng = np.random.default_rng(0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    jitter = rng.uniform(-0.05, 0.05, size=m)
    angles = phase + 2.0 * np.pi * (np.arange(m) + jitter) / m
    arrays = (0.7 + 0.1 * jitter, np.exp(1j * angles), np.ones(m, complex),
              np.ones((m, m), complex))
    for x in arrays:
        x.flags.writeable = False
    return arrays


def _horner_rows(poly: np.ndarray) -> np.ndarray:
    """Rows of one Horner pass over ``[z, z]`` that gives p(z) and p'(z).

    Row j holds poly[j] in its first m entries and coefficient j - 1 of
    p' = ``np.polyder(poly)`` in the other m, with 0.0 in row 0: the p' half
    starts one step late on exact zeros, as ``np.polyval`` on p' would.
    The rows are float, so real estimates stay real; ``_aberth`` casts them
    to complex once, which is the operand numpy would build on every step.
    """
    m = len(poly) - 1
    rows = np.zeros((m + 1, 2 * m))
    rows[:, :m] = poly[:, None]
    rows[1:, m:] = (poly[:-1] * np.arange(m, 0, -1))[:, None]
    return rows


def _values(rows, zz: np.ndarray, finite: bool, y: np.ndarray):
    """p and p' at the m entries of z, written as ``[p | p']`` into the 2m entries
    of ``y``, for the polynomial with these ``_horner_rows``.  ``zz`` is the
    doubled iterate ``[z | z]``; each row is applied in place as y * zz + c from
    y = 0, the operations and bits of the expression.

    With ``finite`` true, every entry of z is finite and the pass starts at
    y = rows[0] * zz: 0 * zz + rows[0] is rows[0] bit for bit there, as its
    imaginary parts are +0.0 and its real ones nonzero or +0.0.  An inf or NaN
    in z makes 0 * zz NaN, so such a z takes the whole pass; so may a finite
    one, which gives the same bits.
    """
    if finite:
        np.multiply(rows[0], zz, y)
        np.add(y, rows[1], y)
        rest = rows[2:]
    else:
        y.fill(0)
        rest = rows
    for c in rest:
        np.multiply(y, zz, y)
        np.add(y, c, y)


def _aberth(core: np.ndarray) -> np.ndarray:
    """All complex roots of a polynomial with nonzero first/last coefficient.

    ``core`` is in descending order.  Starts from a seeded circle that is
    fixed per degree (only its radius follows the coefficients), runs at
    most 200 simultaneous Aberth-Ehrlich updates with p and p' taken from
    one Horner pass, then five plain Newton steps per root.

    Each update is a fixed function of the iterate, so the loop also stops
    when an iterate repeats the previous one byte for byte (NaN iterates
    do): running on to the cap would only repeat it.  The update runs on
    arrays of a few entries, where numpy's casts, wrappers and allocations
    cost more than the arithmetic.  So every solve allocates a workspace of
    its own, which no other call sees, and writes each value into it through
    a ufunc's ``out``: the same kernel on the same operands.  The iterate
    lives as ``[step | z | z]``: one subtraction updates z, one copy doubles
    it for the next Horner pass, and one ``np.abs`` gives the moduli of the
    step and of z, which decide the stop test, on Python floats, and whether
    z is finite.  The diagonal of ``1 / diff`` divides by zero and is then
    set to 0.0, so callers run this with numpy's warnings off, as
    ``find_roots`` does.
    """
    a = core / core[0]
    m = len(a) - 1
    if m == 1:
        return np.array([-a[1]], dtype=complex)

    weights, phases, one, ones = _start_circle(m)
    rows = tuple(_horner_rows(a).astype(complex))
    radius = 1.0 + np.abs(a[1:]).max()
    # the workspace: [p | p'], which the update overwrites with [newton |
    # denom], the iterate as [step | z | z], diff and then 1 / diff in place
    # with a view of its diagonal, and the moduli of [step | z]
    y = np.empty(2 * m, complex)
    p, dp = y[:m], y[m:]
    work = np.empty(3 * m, complex)
    step, z, twin, zz, moved = work[:m], work[m : 2 * m], work[2 * m :], work[m:], work[: 2 * m]
    column = z[:, None]
    diff = np.empty((m, m), complex)
    diagonal = diff.reshape(-1)[:: m + 1]
    newton, denom = p, dp
    moduli = np.empty(2 * m)
    np.multiply(radius * weights, phases, z)
    twin[:] = z
    finite = all(map(cmath.isfinite, z.tolist()))
    last = z.tobytes()

    # the loop's ufuncs as locals, which skip a global and an attribute lookup per call
    divide, subtract, multiply, add_reduce, absolute = (np.divide, np.subtract, np.multiply,
                                                       np.add.reduce, np.abs)
    for _ in range(200):
        _values(rows, zz, finite, y)
        if 0 in dp.tolist():
            dp[dp == 0] = 1e-300
        divide(p, dp, newton)
        subtract(column, z, diff)
        divide(ones, diff, diff)
        diagonal.fill(0.0)
        add_reduce(diff, 1, None, denom)
        multiply(newton, denom, denom)
        subtract(one, denom, denom)
        if 0 in denom.tolist():
            denom[denom == 0] = 1e-300
        divide(newton, denom, step)
        subtract(z, step, z)
        twin[:] = z
        absolute(moved, moduli)
        sizes = moduli.tolist()
        # float + and / are the IEEE operations numpy's are, and like
        # max(...) < tol, all(...) fails on a NaN
        if all(s / (1.0 + t) < 1e-14 for s, t in zip(sizes, sizes[m:])):
            break
        now = z.tobytes()
        if now == last:
            break
        last = now
        # a finite |z| has finite parts; an overflowing one sends a finite z
        # through the whole Horner pass, which gives the same bits
        finite = all(map(math.isfinite, sizes[m:]))

    return _newton_polish(rows, z)


def _newton_polish(rows, z: np.ndarray) -> np.ndarray:
    """Five plain Newton steps on every root estimate in ``z``, for the
    polynomial with these ``_horner_rows``, in a workspace of its own laid out
    as ``_aberth``'s."""
    m = len(z)
    zz = np.concatenate((z, z))  # [z | z]
    z, twin = zz[:m], zz[m:]
    y = np.empty(2 * m, np.result_type(rows[0], zz))  # [p | p']
    p, dp = y[:m], y[m:]
    for _ in range(5):
        _values(rows, zz, all(map(cmath.isfinite, z.tolist())), y)
        # with no zero and no NaN in p', every |p'| > 0 and both masks are true
        if all(d != 0 and d == d for d in dp.tolist()):
            np.divide(p, dp, p)
            np.subtract(z, p, z)
        else:
            mask = np.abs(dp) > 0
            z[:] = np.where(mask, z - p / np.where(mask, dp, 1.0), z)
        twin[:] = z
    return z


def find_roots(coeffs) -> list:
    """All k-1 projective roots of a size-k filter, with multiplicity.

    Leading zero coefficients become roots at infinity, trailing zeros roots
    at 0; the remaining core is solved numerically (deterministic).
    Residuals, summed on the core's Python floats, are certified against the
    largest coefficient; on failure the companion-matrix fallback is tried
    before giving up.  Non-finite entries raise ValueError before any solver
    runs.
    """
    w = as_filter(coeffs)
    values = _require_finite(w)
    scale = max(map(abs, values))
    if scale == 0:
        raise ValueError("the zero filter has no root data")
    k = len(values)
    if k == 1:
        return []

    n_inf = 0
    while values[n_inf] == 0:
        n_inf += 1
    n_zero = 0
    while values[k - 1 - n_zero] == 0:
        n_zero += 1
    core = w[n_inf : k - n_zero]

    roots = [INFINITY] * n_inf + [ProjRoot.finite(0.0)] * n_zero
    if len(core) > 1:
        # badly scaled cores overflow inside the iterations; the residual
        # check below decides, so numpy's warnings would only be noise
        token = _enter_errstate(_QUIET)
        try:
            finite = [ProjRoot(z, False) for z in _aberth(core).tolist()]
            bound = _RESIDUAL_BOUND * scale  # the trimmed entries are zeros
            floats = values[n_inf : k - n_zero]
            if any(_homogeneous_residual(floats, r) > bound for r in finite):
                z = _newton_polish(_horner_rows(core), np.roots(core))
                finite = [ProjRoot.finite(zi) for zi in z]
                # np.max keeps a NaN residual, which Python's max drops
                bad = np.max([_homogeneous_residual(floats, r) for r in finite])
                if not bad <= bound:
                    raise RootFindingError(
                        f"root residual {bad:.3e} exceeds bound for coefficients {w}"
                    )
        finally:
            _exit_errstate(token)
        roots += finite
    return roots


def _linkage(items, same) -> list:
    """Single-linkage groups of ``items`` under the symmetric predicate ``same``, as
    lists of indices: groups in order of their first member, members in input order."""
    n = len(items)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if same(items[i], items[j]):
                parent[find(i)] = find(j)

    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def cluster_roots(roots, tol: float = ROOT_TOL) -> list:
    """Single-linkage clusters under the relative same-root predicate.  Raises
    ValueError for a ``tol`` that is not finite and non-negative."""
    _real("tol", tol, "non-negative")
    return [[roots[i] for i in group]
            for group in _linkage(roots, lambda a, b: _same_root(a, b, tol))]


def _cluster_rep(cluster) -> ProjRoot:
    if cluster[0].infinite:
        return INFINITY
    # np.mean's bytes, quietly and without its wrapper, or for finite values whose sum
    # overflows the sum of value / n; a singleton's own value is not its mean, whose
    # complex division by 1 can flip a zero's sign or put NaN beside an infinite part
    values = np.array([r.value for r in cluster])
    token = _enter_errstate(_QUIET)
    try:
        mean = np.add.reduce(values) / len(values)
        if not cmath.isfinite(mean) and np.isfinite(values).all():
            mean = np.add.reduce(values / len(values))
    finally:
        _exit_errstate(token)
    return ProjRoot.finite(mean)


@dataclass(frozen=True)
class Rrmp:
    """Real-root multiplicity pattern: multiplicities of the real roots
    (``rho``, counting roots at infinity as real) and of the complex-conjugate
    pairs (``gamma``), each stored sorted ascending."""

    rho: tuple = ()
    gamma: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "rho", tuple(sorted(_integers("multiplicities", self.rho, 1))))
        object.__setattr__(self, "gamma", tuple(sorted(_integers("multiplicities", self.gamma, 1))))

    @property
    def degree(self) -> int:
        return sum(self.rho) + 2 * sum(self.gamma)

    @property
    def n_real(self) -> int:
        """Number of real roots counted with multiplicity."""
        return sum(self.rho)

    @property
    def n_odd_real(self) -> int:
        return sum(1 for m in self.rho if m % 2 == 1)

    @property
    def is_generic(self) -> bool:
        return all(m == 1 for m in self.rho) and all(m == 1 for m in self.gamma)

    def partition(self) -> tuple:
        """Multiplicities over the complex roots (each pair counted twice),
        sorted descending."""
        parts = list(self.rho) + [g for g in self.gamma for _ in (0, 1)]
        return tuple(sorted(parts, reverse=True))

    @property
    def label(self) -> str:
        left = "".join(str(m) for m in self.rho) or "0"
        right = "".join(str(m) for m in self.gamma) or "0"
        return f"{left}|{right}"

    @staticmethod
    def from_label(label: str) -> "Rrmp":
        try:
            left, right = label.split("|")
        except ValueError:
            raise ValueError(f"pattern label must look like '112|0', got {label!r}")
        rho = tuple(int(c) for c in left if c != "0")
        gamma = tuple(int(c) for c in right if c != "0")
        return Rrmp(rho, gamma)

    def __str__(self):
        return self.label


def _root_structure(roots):
    """Clustered roots as ``(reals, pairs)``, lists of (root, multiplicity).

    A cluster is real when its mean is (infinity counts as real).  The other
    clusters come off a worklist in order; each deletes its mate, the first
    remaining cluster of its size that matches its conjugate, and the pair is
    represented by the first cluster's mean.  Raises RootFindingError when a
    cluster has no mate, as happens for a real polynomial only when its roots
    scatter beyond the tolerance.
    """
    reals, complex_clusters = [], []
    for c in cluster_roots(roots):
        rep = _cluster_rep(c)
        (reals if rep.is_real() else complex_clusters).append((rep, len(c)))

    pairs = []
    while complex_clusters:
        rep, size = complex_clusters.pop(0)
        conj = rep.conjugate()
        mate = next((j for j, (other, m) in enumerate(complex_clusters)
                     if m == size and _same_root(other, conj, ROOT_TOL)), None)
        if mate is None:
            raise RootFindingError(
                f"conjugate pairing failed near {rep.value}; is the input real?"
            )
        del complex_clusters[mate]
        pairs.append((rep, size))
    return reals, pairs


def _root_factors(reals, pairs):
    """Factor lists ``(linear, quadratic)`` of a root structure, each factor
    repeated by its multiplicity: a real root r gives (1, -r), infinity
    (0, 1), and a conjugate pair z gives (1, -2 Re z, |z|^2)."""
    linear = [np.array([0.0, 1.0]) if r.infinite else np.array([1.0, -r.value.real])
              for r, m in reals for _ in range(m)]
    quadratic = [np.array([1.0, -2.0 * z.value.real, _modulus(z.value) ** 2])
                 for z, m in pairs for _ in range(m)]
    return linear, quadratic


def classify_roots(roots) -> Rrmp:
    """Pattern of a multiset of projective roots after clustering."""
    reals, pairs = _root_structure(roots)
    return Rrmp(tuple(m for _, m in reals), tuple(m for _, m in pairs))


def classify_rrmp(coeffs) -> Rrmp:
    """Pattern of a single filter.

    A degree-2..4 filter takes the label of the discriminant sign charts when
    ``_chart_form_if_safe`` finds that decision well conditioned; every other
    filter is rooted by ``find_roots`` and its roots clustered, which also
    raises that route's errors.  The guards send the filters on which the two
    routes could disagree (nearly repeated roots, roots near 0 or infinity)
    to the roots.
    """
    c = as_filter(coeffs)
    if 3 <= len(c) <= 5:
        token = _enter_errstate(_QUIET)
        try:
            safe = _chart_form_if_safe(c)
            if safe is not None:
                return _chart_label(*safe)
        finally:
            _exit_errstate(token)
    return classify_roots(find_roots(c))


def classify_rrmp_pooled(filters) -> Rrmp:
    """Pattern of a product of filters from the union of per-factor roots.

    Rooting each small factor separately keeps multiple roots that are split
    across factors well-conditioned (no eps^(1/m) scatter).  A linear layer
    [a, b] whose a, b and root x = -b/a are finite, nonzero, normal doubles
    gives x as a float, which ``find_roots`` gives as complex(x, +0.0); when
    every layer does, the floats are grouped under ``_same_root``'s rule, on
    which a difference of two has modulus |x - y| exactly, with no root solve.
    """
    pooled = []
    for w in map(as_filter, filters):
        ab = w.tolist()
        x = -(ab[1] / ab[0]) if len(ab) == 2 and all(_TINY <= abs(v) <= _HUGE for v in ab) else 0.0
        pooled.extend([x] if _TINY <= abs(x) <= _HUGE else find_roots(w))
    if all(type(x) is float for x in pooled):
        groups = _linkage(pooled, lambda x, y: abs(x - y) <= ROOT_TOL * max(abs(x), abs(y)))
        return Rrmp(tuple(map(len, groups)), ())
    return classify_roots([ProjRoot(complex(x), False) if type(x) is float else x for x in pooled])


# --- closed-form sign charts (degree <= 4) ---------------------------------


def _sgn(value: float, scale: float) -> int:
    """Sign of a chart value, 0 within ``ZERO_BAND * scale``; ValueError when
    the value or its scale overflowed."""
    if not (math.isfinite(value) and math.isfinite(scale)):
        raise ValueError(f"sign-chart value {value} at scale {scale} overflowed; "
                         "the coefficients are too large for the closed forms")
    if abs(value) <= ZERO_BAND * scale:
        return 0
    return 1 if value > 0 else -1


def _signed_sum(terms):
    """(value, scale) of a discriminant written once as a tuple of signed
    monomials: the sum from the first term, left to right (x + (-y) is x - y
    bit for bit), and the largest |monomial|, which the sign charts band."""
    return sum(terms[1:], terms[0]), max(abs(t) for t in terms)


def _quadratic_terms(c):
    a, b, cc = c
    return (b * b, -4 * a * cc)


def _cubic_terms(c):
    a, b, cc, d = c
    return (b * b * cc * cc, -4 * a * cc**3, -4 * b**3 * d, -27 * a * a * d * d,
            18 * a * b * cc * d)


def _quartic_terms(p, q, r):
    """The monomials of delta, the discriminant of the depressed quartic."""
    return (256 * r**3, -128 * p * p * r * r, 144 * p * q * q * r, 16 * p**4 * r,
            -27 * q**4, -4 * p**3 * q * q)


def _quartic_dprime_terms(p, q, r):
    """The monomials of the depressed quartic's delta'."""
    return (8 * p * r, -9 * q * q, -2 * p**3)


def _full_quartic_terms(c):
    """The 16 monomials of the discriminant of a quartic, not depressed."""
    a, b, cc, d, e = c
    return (256 * a**3 * e**3, -192 * a * a * b * d * e * e, -128 * a * a * cc * cc * e * e,
            144 * a * a * cc * d * d * e, -27 * a * a * d**4, 144 * a * b * b * cc * e * e,
            -6 * a * b * b * d * d * e, -80 * a * b * cc * cc * d * e, 18 * a * b * cc * d**3,
            16 * a * cc**4 * e, -4 * a * cc**3 * d * d, -27 * b**4 * e * e,
            18 * b**3 * cc * d * e, -4 * b**3 * d**3, -4 * b * b * cc**3 * e,
            b * b * cc * cc * d * d)


_FULL_TERMS = {2: _quadratic_terms, 3: _cubic_terms, 4: _full_quartic_terms}


def _depressed(c: np.ndarray) -> tuple:
    """(p, q, r) of f(x - b1/4 y, y) = x^4 + p x^2 y^2 + q x y^3 + r y^4 for the
    monic-normalized quartic f of 5 finite coefficients, the leading one nonzero."""
    _, b1, b2, b3, b4 = c / c[0]
    p = b2 - 3 * b1 * b1 / 8
    q = b3 - b1 * b2 / 2 + b1**3 / 8
    r = b4 - b1 * b3 / 4 + b1 * b1 * b2 / 16 - 3 * b1**4 / 256
    return p, q, r


def _disc_and_scale(c: np.ndarray):
    """(discriminant, largest of its monomials, depressed) of a degree-2..4
    form: a quartic is depressed first, and ``depressed`` is its (p, q, r),
    None below degree 4.  ValueError for another degree."""
    deg = len(c) - 1
    depressed = None
    if deg == 2:
        terms = _quadratic_terms(c)
    elif deg == 3:
        terms = _cubic_terms(c)
    elif deg == 4:
        depressed = _depressed(c)
        terms = _quartic_terms(*depressed)
    else:
        raise ValueError(f"sign charts cover degrees 2..4 only, got degree {deg}")
    return (*_signed_sum(terms), depressed)


def rrmp_classify_by_signs(coeffs) -> Rrmp:
    """Pattern of a degree-2..4 form from discriminant sign charts alone.

    The form is first scaled by a power of two to a largest |entry| in
    [0.5, 1) (``_unit``), unless that would make its smallest nonzero entry
    subnormal and so drop bits; so its label does not depend on its overall
    size, and its chart monomials neither overflow nor underflow into rounding
    noise on the way.  Values within ``ZERO_BAND`` times the largest monomial
    of each formula are treated as exact zeros.  A quartic whose discriminant
    overflows, as where its leading coefficient is tiny against the others, is
    charted reversed (x and y swapped), which keeps its label; one whose depressed
    p, q and r are all below 2^-128, as x^4 + 1e-300 y^4, has the signs of delta
    and delta' charted on its roots scaled up by a power of two, as its monomials
    of degree 12 in the roots can underflow.  Raises
    ValueError for a non-finite entry, a zero leading coefficient, another
    degree, and a chart value that overflows, which a form left unscaled with
    an entry above about 1e154, or a quartic that overflows both ways, reaches.
    """
    c = as_filter(coeffs)
    values = _require_finite(c)
    if c[0] == 0:
        raise ValueError("leading coefficient vanishes; dehomogenize first")
    top = max(map(abs, values))
    low = min(abs(v) for v in values if v)
    token = _enter_errstate(_QUIET)
    try:
        if math.frexp(low)[1] - math.frexp(top)[1] >= sys.float_info.min_exp:
            c = _unit(c, top)
        chart = _disc_and_scale(c)
        if chart[2] is not None and not all(map(math.isfinite, chart[:2])):
            c, chart = c[::-1], _disc_and_scale(c[::-1])
        return _chart_label(c, chart)
    finally:
        _exit_errstate(token)


#: A depressed quartic whose p, q and r are all below this is charted with its
#: roots scaled up.
_SMALL_DEPRESSED = 2.0**-128


def _chart_label(c: np.ndarray, chart) -> Rrmp:
    """``rrmp_classify_by_signs`` for a finite degree-2..4 form whose leading
    coefficient is nonzero and its ``chart``, ``_disc_and_scale(c)``, under
    ``_QUIET``."""
    value, scale, depressed = chart
    s = _sgn(value, scale)
    deg = len(c) - 1
    if deg == 2:
        if s > 0:
            return Rrmp((1, 1), ())
        if s == 0:
            return Rrmp((2,), ())
        return Rrmp((), (1,))
    if deg == 3:
        a, b, cc, d = c
        if s > 0:
            return Rrmp((1, 1, 1), ())
        if s < 0:
            return Rrmp((1,), (1,))
        t1 = _sgn(*_signed_sum((3 * a * cc, -b * b)))
        t2 = _sgn(*_signed_sum((9 * a * d, -b * cc)))
        t3 = _sgn(*_signed_sum((3 * b * d, -cc * cc)))
        if t1 == t2 == t3 == 0:
            return Rrmp((3,), ())
        return Rrmp((1, 2), ())
    p, q, r = depressed
    top = max(abs(p), abs(q), abs(r))
    coeff_scale = max(top, 1.0)
    if top < _SMALL_DEPRESSED:
        # delta's monomials have degree 12 in the roots and can underflow: chart the
        # roots scaled by 2^-e to a size near 1, which scales delta by 2^-12e and
        # delta' by 2^-6e exactly and so keeps both signs and bands
        e = max((-(-math.frexp(x)[1] // w) for x, w in ((p, 2), (q, 3), (r, 4)) if x),
                default=0)
        scaled = np.ldexp(p, -2 * e), np.ldexp(q, -3 * e), np.ldexp(r, -4 * e)
        s = _sgn(*_signed_sum(_quartic_terms(*scaled)))
        sdp = _sgn(*_signed_sum(_quartic_dprime_terms(*scaled)))
    else:
        sdp = _sgn(*_signed_sum(_quartic_dprime_terms(p, q, r)))
    sp = _sgn(p, coeff_scale)
    sq = _sgn(q, coeff_scale)
    if s > 0:
        if sdp > 0 and sp == 0:
            # banded-zero p is chart-ambiguous here; fall back to raw sign
            sp = 1 if p > 0 else (-1 if p < 0 else 0)
        if sdp > 0 and sp < 0:
            return Rrmp((1, 1, 1, 1), ())
        return Rrmp((), (1, 1))
    if s < 0:
        return Rrmp((1, 1), (1,))
    # delta == 0: some root is repeated
    if sdp > 0:
        return Rrmp((1, 1, 2), ())
    if sdp < 0:
        return Rrmp((2,), (1,))
    # delta == delta' == 0
    if sp < 0:
        return Rrmp((2, 2), ()) if sq == 0 else Rrmp((1, 3), ())
    if sp > 0:
        return Rrmp((), (2,))
    return Rrmp((4,), ())


def _margin(chart) -> float:
    """|discriminant| over its largest monomial, from ``_disc_and_scale``'s
    ``chart``; 0.0 when every monomial vanishes."""
    value, scale, _ = chart
    return abs(value) / scale if scale else 0.0


def _unit(c: np.ndarray, top: float) -> np.ndarray:
    """``c``, whose largest |entry| is ``top`` > 0, scaled by a power of two to a
    largest |entry| in [0.5, 1).  The scaling is exact unless a scaled entry
    is subnormal, and it keeps the degree-2 and degree-3 chart monomials clear
    of overflow and of the underflow where the charts' signs of a cubic scaled
    by 2^-267 are rounding noise."""
    return np.ldexp(c, -math.frexp(top)[1])


#: Guards of the chart route in ``classify_rrmp``: the smaller end coefficient
#: against the largest one, the charts' own margin, and the balanced margin.
_END_RATIO, _CHART_MARGIN, _BALANCED_MARGIN = 1e-8, 1e-6, 1e-12


def _chart_form_if_safe(c: np.ndarray):
    """(unit, chart) when ``classify_rrmp`` may label the degree-2..4 filter
    ``c`` by its sign charts, else None: ``unit`` is ``_unit(c)`` and
    ``chart`` is ``_disc_and_scale(unit)``, which ``_chart_label`` reads.
    Runs under ``_QUIET``; a NaN or inf guard value says no.  The guards:

    * Every entry is finite, and both end coefficients are at least
      ``_END_RATIO`` times the largest |entry|.  So roots near 0 and infinity
      stay with the root finder, and the balancing factor t below lies in
      [1e-4, 1e4], where its powers cannot overflow.
    * ``_margin(chart)``, the charts' margin after a quartic is depressed,
      exceeds ``_CHART_MARGIN``.
    * The filter balanced as w(t x, y) with t = (|c_d| / |c_0|)^(1/d) and
      divided by its largest |entry| has a discriminant, in its undepressed
      form of 2, 5 or 16 monomials, above ``_BALANCED_MARGIN`` times the
      largest monomial.

    Either margin alone lets through filters with nearly repeated roots whose
    chart label is not the one their clustered roots give.
    """
    values = c.tolist()
    if not all(map(math.isfinite, values)):
        return None
    top = max(map(abs, values))
    ends = min(abs(values[0]), abs(values[-1]))
    if not (ends > 0 and ends >= _END_RATIO * top):
        return None
    unit = _unit(c, top)
    chart = _disc_and_scale(unit)
    if not _CHART_MARGIN < _margin(chart) < math.inf:
        return None
    d = len(values) - 1
    t = (abs(values[-1]) / abs(values[0])) ** (1 / d)
    balanced = [v * t ** (d - j) for j, v in enumerate(unit.tolist())]
    top = max(map(abs, balanced))
    value, largest = _signed_sum(_FULL_TERMS[d]([v / top for v in balanced]))
    return (unit, chart) if abs(value) > _BALANCED_MARGIN * largest else None


def discriminant(coeffs) -> float:
    """Discriminant of a binary form of arbitrary degree.

    Vanishes exactly when the form has a repeated projective root.  Computed
    as the resultant of the two partial derivatives (a Sylvester determinant)
    rescaled by a power of the degree; working with the partials rather than
    with a dehomogenized polynomial keeps roots at infinity (leading zero
    coefficients) on the same footing as finite ones.  Normalized to agree
    with the sign charts' discriminants in low degree.  Degrees <= 1 have
    no root pairs that could collide and return 1.  Raises ValueError for a
    non-finite entry.
    """
    c = as_filter(coeffs)
    _require_finite(c)
    n = len(c) - 1
    if n <= 1:
        return 1.0
    j = np.arange(n + 1)
    fx = (c * (n - j))[:-1]  # d/dx, degree n-1 in x
    fy = (c * j)[1:]         # d/dy
    m = 2 * (n - 1)
    syl = np.vstack((toeplitz_matrix(fx, m), toeplitz_matrix(fy, m)))
    det = float(np.linalg.det(syl))
    sign = -1.0 if (n * (n - 1) // 2) % 2 else 1.0
    return sign * det / float(n) ** (n - 2)


# --- compatibility between a pattern and an architecture --------------------


def is_compatible(rrmp: Rrmp, arch) -> bool:
    """Whether a pattern can split across the layer filters with no repeats.

    Encoded as placing, for each real root, multiplicity-many size-1 balls of
    one color, and for each conjugate pair multiplicity-many size-2 balls of
    one color, into bins of capacities k_i - 1 such that no bin receives two
    balls of the same color.  Patterns of the wrong degree never fit.
    """
    bins = list(arch.bin_sizes)
    if rrmp.degree != sum(bins):
        return False
    colors = [(m, 1) for m in rrmp.rho] + [(m, 2) for m in rrmp.gamma]
    colors.sort(key=lambda t: (-t[1], -t[0]))

    def place(idx, caps):
        if idx == len(colors):
            return True
        count, size = colors[idx]
        eligible = [i for i, cap in enumerate(caps) if cap >= size]
        if len(eligible) < count:
            return False
        for chosen in itertools.combinations(eligible, count):
            nxt = list(caps)
            for i in chosen:
                nxt[i] -= size
            if place(idx + 1, tuple(nxt)):
                return True
        return False

    return place(0, tuple(bins))


def compatible_rrmps(arch) -> list:
    """All patterns of the filter degree compatible with the architecture."""
    return [r for r in all_rrmps(arch.filter_size - 1) if is_compatible(r, arch)]


def all_rrmps(degree: int) -> list:
    """Every pattern of the given degree, lexicographic by label: the real-type
    splits of each partition, which give every pattern once.  Raises
    ValueError for a negative or non-integer degree."""
    degree = _integer("degree", degree, 0)
    return sorted((r for lam in _partitions(degree) for r in real_type_splits(lam)),
                  key=lambda r: (r.rho, r.gamma))


def real_type_splits(lam) -> list:
    """All real root structures refining the complex partition ``lam``.

    Each part of the partition is either carried by a real root or paired
    with an *equal* part to form a conjugate pair.  ``lam = (2, 1, 1)`` for
    example yields the patterns ``112|0`` (all roots real) and ``2|1`` (the
    two simple roots fused into a conjugate pair): a part value v of count c
    gives j pairs and c - 2j real roots of multiplicity v, for each j <= c // 2.
    Raises ValueError for a part that is not an integer of at least one.
    """
    counts = sorted(collections.Counter(_integers("partition parts", lam, 1)).items())
    splits = [Rrmp(rho=[v for (v, c), j in zip(counts, js) for _ in range(c - 2 * j)],
                   gamma=[v for (v, _), j in zip(counts, js) for _ in range(j)])
              for js in itertools.product(*(range(c // 2 + 1) for _, c in counts))]
    return sorted(splits, key=lambda p: (len(p.gamma), p.label))


def _partition(lam, degree: int) -> tuple:
    """The parts of ``lam``, a partition of ``degree``, as a descending tuple of
    ints.  Raises ValueError for a part that is not an integer of at least one,
    and for parts that do not sum to ``degree``."""
    lam = tuple(sorted(_integers("partition parts", lam, 1), reverse=True))
    if sum(lam) != degree:
        raise ValueError(f"partition {lam} does not sum to the polynomial degree {degree}")
    return lam


def _partitions(n: int):
    """Integer partitions of n as descending tuples, (n,) first, (1,) * n last."""

    def gen(rest, cap):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    yield from gen(n, n)
