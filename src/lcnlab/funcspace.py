"""Which end-to-end filters a layered architecture can realize.

Without an interior stride (``poly_core._interior_stride``, the one rule each
function here asks) the answer is a closed semialgebraic condition on the real
root multiplicities of the composed filter: the number of real roots (with
multiplicity, infinity included) must be at least the number of even-size
layers.  This module implements that membership test, the interior/boundary/
exterior trichotomy, the "does the architecture fill everything" decision,
and explicit factorization of a member filter into layer filters.

An architecture that keeps an interior stride has a function space cut out
by polynomial equations, not by root counts.  Only the worked family of
sizes (3, 2) with strides (2, 1) is covered: ``stride2_membership`` tests its
cubic equation and inequality on the filter scaled to max|u| = 1, and
``stride2_factor`` inverts the composition in closed form.
"""

from __future__ import annotations

import enum

import numpy as np

from .dynamics import jacobian_mu
from .poly_core import (Architecture, _interior_stride, _product, _require_filter_size,
                        _require_no_interior_stride, _sized_filter, as_filter, compose_filters,
                        end_to_end)
from .rootlab import Rrmp, _root_factors, _root_structure, classify_rrmp, find_roots


class SpaceRegion(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


def reduce_architecture(arch: Architecture) -> Architecture:
    """Strip structure that cannot affect the set of end-to-end filters.

    The final stride only subsamples the output, and trailing size-one layers
    only rescale, so both are dropped (repeatedly — removing a scalar layer
    exposes the next stride as final).
    """
    ks, strides = list(arch.ks), list(arch.strides)
    strides[-1] = 1
    while len(ks) > 1 and ks[-1] == 1:
        ks.pop()
        strides.pop()
        strides[-1] = 1
    return Architecture(tuple(ks), tuple(strides))


def membership(rrmp: Rrmp, arch: Architecture) -> bool:
    """Can a filter with this root pattern be realized by the architecture?

    True exactly when the real roots (counted with multiplicity) are at least
    as many as the even-size layers.
    """
    _require_no_interior_stride(arch)
    return rrmp.degree == arch.filter_size - 1 and rrmp.n_real >= arch.n_even


def region_of_rrmp(rrmp: Rrmp, arch: Architecture) -> SpaceRegion:
    """Interior/boundary/exterior position of a root pattern's stratum.

    A point is interior when every small perturbation stays realizable;
    splitting an even-multiplicity real root into conjugate pairs is the only
    way to lose real roots, so the odd multiplicities decide.
    """
    _require_no_interior_stride(arch)
    if rrmp.degree != arch.filter_size - 1:
        raise ValueError(
            f"pattern degree {rrmp.degree} does not match filter degree "
            f"{arch.filter_size - 1}"
        )
    e = arch.n_even
    if rrmp.n_real < e:
        return SpaceRegion.EXTERIOR
    if rrmp.n_odd_real <= e - 2:
        return SpaceRegion.BOUNDARY
    return SpaceRegion.INTERIOR


def region(w, arch: Architecture) -> SpaceRegion:
    """Region of a concrete filter, via its root pattern from ``classify_rrmp``
    (the sign charts where they decide, else its numeric roots)."""
    return region_of_rrmp(classify_rrmp(w), arch)


def is_filling(arch: Architecture) -> bool:
    """Does the architecture realize every filter of its end-to-end size?

    An interior stride forces a dimension deficit (never filling); without
    one, an architecture fills exactly when at most one layer has even size.
    """
    return not _interior_stride(arch) and arch.n_even <= 1


# --- explicit factorization (no interior stride) -----------------------------


def _pack_atoms(real_atoms, pair_atoms, caps):
    """Distribute linear and quadratic atoms to exactly fill the capacities.

    Every odd capacity takes one linear atom, popped from the end; then each
    capacity in turn fills up with the leftover linear atoms and after them
    the quadratics, each list taken from its end.  Once ``factor_into``'s
    membership test passes there are enough linear atoms for the odd
    capacities, and the leftover ones are even in number, so no capacity is
    ever left with a single free slot for a quadratic.
    """
    linear, quadratic = list(real_atoms), list(pair_atoms)
    bins = [[linear.pop()] if cap % 2 else [] for cap in caps]
    for atoms, cap in zip(bins, caps):
        n = min(cap - len(atoms), len(linear))
        atoms += [linear.pop() for _ in range(n)]
        atoms += [quadratic.pop() for _ in range((cap - len(atoms)) // 2)]
    return bins


def factor_into(w, arch: Architecture) -> list:
    """Layer filters composing to ``w``, with no interior stride in ``arch``.

    Raises ValueError when the filter is outside the architecture's function
    space.  The factor layout comes from the roots clustered at ``ROOT_TOL``; a
    Gauss-Newton polish on the composition residual then always follows,
    because clustered double roots alone leave ~sqrt(eps) residue.  Every
    layer is returned, scalar ones too; the zero filter gives zero layers.
    """
    _require_no_interior_stride(arch)
    red = reduce_architecture(arch)
    w = as_filter(w)
    _require_filter_size("filter", len(w), arch)
    scale = np.max(np.abs(w))
    if scale == 0:
        return [np.zeros(k) for k in arch.ks]

    reals, pairs = _root_structure(find_roots(w))
    rrmp = Rrmp(tuple(m for _, m in reals), tuple(m for _, m in pairs))
    if not membership(rrmp, red):
        raise ValueError(
            f"pattern {rrmp} has {rrmp.n_real} real roots but {red.ks} needs "
            f"at least {red.n_even}"
        )

    bins = _pack_atoms(*_root_factors(reals, pairs), red.bin_sizes)
    theta = [_product([np.ones(1)] + atoms) for atoms in bins]

    # match the overall scale in least squares, then polish multiplicatively
    prod, _ = end_to_end(theta, red)
    c = float(np.dot(prod, w) / np.dot(prod, prod))
    theta[0] = theta[0] * c
    theta = _polish_factors(theta, w, red)

    # re-inflate to the original depth (dropped layers were scalars)
    full = list(theta) + [np.ones(1) for _ in range(arch.depth - red.depth)]
    return [np.asarray(f, dtype=float) for f in full]


def _polish_factors(theta, w, arch):
    """Gauss-Newton on the composition residual, at most 60 iterations."""
    target = as_filter(w)
    scale = max(np.max(np.abs(target)), 1e-300)
    for _ in range(60):
        prod, _ = end_to_end(theta, arch)
        r = target - prod
        if np.max(np.abs(r)) <= 1e-14 * scale:
            break
        J = jacobian_mu(theta, arch)
        step, *_ = np.linalg.lstsq(J, r, rcond=None)
        pos, stepped = 0, []
        for f, k in zip(theta, arch.ks):
            stepped.append(f + step[pos:pos + k])
            pos += k
        theta = stepped
    return theta


# --- the worked strided family: sizes (3, 2), first stride 2 -----------------


def _unit(u):
    """(u / max|u|, max|u|) for a finite size-5 filter; zero stays zero."""
    u = _sized_filter(u, 5, "stride-2 (3, 2) family")
    scale = float(np.max(np.abs(u)))
    return (u / scale if scale else u), scale


def _cubic(u) -> float:
    A, B, C, D, E = u
    return A * D * D + B * B * E - B * C * D


def stride2_membership(u) -> bool:
    """Is a size-5 filter (A, B, C, D, E) realizable as a stride-2 pair of
    sizes (3, 2)?  Tests A D^2 + B^2 E - B C D = 0 and C^2 - 4 A E >= 0 at
    tolerance 1e-9 on u / max|u|, so the answer does not depend on the scale.
    Raises ValueError for a size other than 5 or a non-finite entry.
    """
    un = _unit(u)[0]
    A, _, C, _, E = un
    return abs(_cubic(un)) <= 1e-9 and C * C - 4 * A * E >= -1e-9


def stride2_factor(u):
    """Layer filters ((a, b, c), (d, e)) composing at stride 2 to ``u``.

    u = (ad, bd, ae + cd, be, ce), so (a, c) solve a least-squares system once
    (b, d, e) are fixed.  On u / max|u|, with m = max(|B|, |D|), that system
    misses by about |cubic| / m^2 for b = 1, (d, e) = (B, D), and by about m
    for b = 0, where (d, e) is a factor of A s^2 + C st + E t^2 at one
    projective root: (0, 1) at infinity, (1, -Re r) at r, so a complex pair
    within tolerance is a double real root.  So b = 1 exactly when
    m^3 > |cubic|; the outer filter carries max|u|.  The zero filter gives
    ((0, 0, 0), (1, 0)).  Raises ValueError where ``stride2_membership`` is
    False or the composition misses u by more than 1e-3 max|u|.
    """
    un, scale = _unit(u)
    if not stride2_membership(un):
        raise ValueError("filter is not realizable by the (3, 2) stride-2 network")
    if scale == 0:
        return np.zeros(3), np.array([1.0, 0.0])
    A, B, C, D, E = un
    b = float(max(abs(B), abs(D)) ** 3 > abs(_cubic(un)))
    if b:
        d, e = B, D
    else:
        linear, _ = _root_factors([(find_roots([A, C, E])[0], 1)], [])
        d, e = linear[0]
    (a, c), *_ = np.linalg.lstsq([[d, 0.0], [e, d], [0.0, e]], [A, C, E], rcond=None)
    w1, w2 = np.array([a, b, c]), np.array([d, e])
    if np.max(np.abs(compose_filters(w2, 2, w1) - un)) > 1e-3:
        raise ValueError("factorization residual too large; input near the "
                         "variety's singular locus?")
    return w1, scale * w2
