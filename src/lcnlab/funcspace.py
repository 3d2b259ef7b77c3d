"""Which end-to-end filters a layered architecture can realize.

For unit strides the answer is a closed semialgebraic condition on the real
root multiplicities of the composed filter: the number of real roots (with
multiplicity, infinity included) must be at least the number of even-size
layers.  This module implements that membership test, the interior/boundary/
exterior trichotomy, the "does the architecture fill everything" decision,
and explicit factorization of a member filter into layer filters.

Strided architectures other than the worked two-layer stride-two family are
genuinely different (their function spaces are cut out by polynomial
equations, not just root-sign conditions); the dedicated ``stride2_*``
functions handle that family exactly.
"""

from __future__ import annotations

import enum

import numpy as np

from .dynamics import jacobian_mu, stack_theta, unstack_theta
from .poly_core import Architecture, _product, as_filter, compose_filters, end_to_end
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


def _require_unit_strides(arch: Architecture) -> Architecture:
    red = reduce_architecture(arch)
    if not red.is_stride_one:
        raise ValueError(
            "root-count membership applies to unit-stride architectures only; "
            f"{arch.ks} with strides {arch.strides} keeps an interior stride"
        )
    return red


def membership(rrmp: Rrmp, arch: Architecture) -> bool:
    """Can a filter with this root pattern be realized by the architecture?

    True exactly when the real roots (counted with multiplicity) are at least
    as many as the even-size layers.
    """
    red = _require_unit_strides(arch)
    if rrmp.degree != red.filter_size - 1:
        return False
    return rrmp.n_real >= red.n_even


def region_of_rrmp(rrmp: Rrmp, arch: Architecture) -> SpaceRegion:
    """Interior/boundary/exterior position of a root pattern's stratum.

    A point is interior when every small perturbation stays realizable;
    splitting an even-multiplicity real root into conjugate pairs is the only
    way to lose real roots, so the odd multiplicities decide.
    """
    red = _require_unit_strides(arch)
    if rrmp.degree != red.filter_size - 1:
        raise ValueError(
            f"pattern degree {rrmp.degree} does not match filter degree "
            f"{red.filter_size - 1}"
        )
    e = red.n_even
    if rrmp.n_real < e:
        return SpaceRegion.EXTERIOR
    if rrmp.n_odd_real <= e - 2:
        return SpaceRegion.BOUNDARY
    return SpaceRegion.INTERIOR


def region(w, arch: Architecture) -> SpaceRegion:
    """Region of a concrete filter, via its numeric root pattern."""
    return region_of_rrmp(classify_rrmp(w), arch)


def is_filling(arch: Architecture) -> bool:
    """Does the architecture realize every filter of its end-to-end size?

    After reduction, an interior stride forces a dimension deficit (never
    filling); unit-stride architectures fill exactly when at most one layer
    has even size.
    """
    red = reduce_architecture(arch)
    if not red.is_stride_one:
        return False
    return red.n_even <= 1


# --- explicit factorization (unit strides) -----------------------------------


def _pack_atoms(real_atoms, pair_atoms, caps):
    """Distribute size-1 and size-2 atoms to exactly fill the capacities.

    Every odd capacity takes one linear atom first; leftover linear atoms are
    then interchangeable with quadratics, so a flat fill finishes the job.
    """
    bins = [[] for _ in caps]
    remaining = list(caps)
    linear = list(real_atoms)
    for i, cap in enumerate(caps):
        if cap % 2 == 1:
            if not linear:
                raise ValueError("not enough real roots for the even-size layers")
            bins[i].append(linear.pop())
            remaining[i] -= 1
    units = [(a, 1) for a in linear] + [(a, 2) for a in pair_atoms]
    # remaining capacities are all even and linear atoms come in pairs now
    units.sort(key=lambda t: -t[1])
    for i in range(len(caps)):
        while remaining[i] > 0:
            if not units:
                raise ValueError("internal packing error: ran out of atoms")
            atom, size = units.pop()
            if size <= remaining[i]:
                bins[i].append(atom)
                remaining[i] -= size
            else:
                units.insert(0, (atom, size))
    if units:
        raise ValueError("internal packing error: leftover atoms")
    return bins


def factor_into(w, arch: Architecture) -> list:
    """Layer filters for a unit-stride architecture composing to ``w``.

    Raises ValueError when the filter is outside the architecture's function
    space.  The factor layout comes from the roots clustered at ``ROOT_TOL``; a
    Gauss-Newton polish on the composition residual then always follows,
    because clustered double roots alone leave ~sqrt(eps) residue.
    """
    red = _require_unit_strides(arch)
    w = as_filter(w)
    if len(w) != red.filter_size:
        raise ValueError(f"filter size {len(w)} does not fit {red.ks}")
    scale = np.max(np.abs(w))
    if scale == 0:
        return [np.zeros(k) for k in red.ks]

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
        theta = unstack_theta(stack_theta(theta) + step, arch)
    return theta


# --- the worked strided family: sizes (3, 2), first stride 2 -----------------


def stride2_membership(u) -> bool:
    """Is a size-5 filter realizable as a stride-2 pair of sizes (3, 2)?

    The image is cut out by one cubic equation and one inequality; both are
    tested at tolerance 1e-9 relative to the largest coefficient.
    """
    A, B, C, D, E = as_filter(u)
    scale = max(np.max(np.abs([A, B, C, D, E])), 1.0)
    eq = A * D * D + B * B * E - B * C * D
    ineq = C * C - 4 * A * E
    return abs(eq) <= 1e-9 * scale**3 and ineq >= -1e-9 * scale**2


def stride2_factor(u):
    """Layer filters ((a, b, c), (d, e)) composing at stride 2 to ``u``.

    Inverts (ad, bd, ae+cd, be, ce) case by case on which of the outer
    coefficients vanish; raises ValueError off the variety.
    """
    u = as_filter(u)
    if len(u) != 5:
        raise ValueError(f"need a size-5 filter, got {len(u)}")
    if not stride2_membership(u):
        raise ValueError("filter is not realizable by the (3, 2) stride-2 network")
    A, B, C, D, E = u
    scale = max(np.max(np.abs(u)), 1.0)
    band = 1e-12 * scale

    if abs(E) <= band:
        if abs(D) <= band:
            w1, w2 = np.array([A, B, C]), np.array([1.0, 0.0])
        else:
            w1, w2 = np.array([C / D, 1.0, 0.0]), np.array([B, D])
    else:
        An, Bn, Cn, Dn = A / E, B / E, C / E, D / E
        if abs(Dn) > band / abs(E):
            d = Bn / Dn if abs(Bn) > band / abs(E) else 0.0
            a = An * Dn / Bn if abs(Bn) > band / abs(E) else Cn
        else:
            if abs(An) <= band / abs(E):
                a, d = Cn, 0.0
            else:
                disc = Cn * Cn - 4 * An
                if disc < 0:
                    disc = 0.0
                d = (Cn + np.sqrt(disc)) / 2
                if d == 0:
                    d = (Cn - np.sqrt(disc)) / 2
                a = An / d
        w1 = np.array([a, Dn, 1.0])
        w2 = np.array([d * E, E])

    # one Newton-style correction pass via exact re-derivation is overkill;
    # verify and return
    check = compose_filters(w2, 2, w1)
    if np.max(np.abs(check - u)) > 1e-3 * scale:
        raise ValueError("factorization residual too large; input near the "
                         "variety's singular locus?")
    return w1, w2
