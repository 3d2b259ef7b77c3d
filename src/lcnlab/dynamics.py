"""Training dynamics: conserved quantities, fiber scales, and the end-to-end
parameterization's differential.

Gradient flow on a layered filter network conserves the pairwise differences
of squared layer norms.  Those invariants pin down, for a given end-to-end
filter and factor directions, the exact layer scales the flow converges to;
``recover_scales`` solves that one-dimensional polynomial problem.

The differential of the parameterization (filters -> composed filter) is
read off the complements of the layers: column (l, j) is the product of
every other layer, shifted by j times layer l's span.  Its rank drops
exactly where factors share roots.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .poly_core import (Architecture, _complements, _integer, _layers, _require_no_interior_stride,
                        as_filter)
from .rootlab import ROOT_TOL, _linkage, _same_root, find_roots


def _squared_norms(filters, name: str) -> np.ndarray:
    """||w||^2 of each filter.  Raises ValueError naming ``name`` when one is not
    finite: the filter has a non-finite entry or its squared norm overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.array([np.sum(as_filter(w) ** 2) for w in filters])
    for i, n in enumerate(norms):
        if not math.isfinite(n):
            raise ValueError(f"{name}[{i}] has squared norm {n}, which is not a finite double")
    return norms


def squared_norm_gaps(theta) -> np.ndarray:
    """delta_i = ||w_{i+1}||^2 - ||w_i||^2 for consecutive layers.  Raises
    ValueError when a squared layer norm is not finite."""
    return np.diff(_squared_norms(theta, "theta"))


def balancedness_matrix(theta) -> np.ndarray:
    """All pairwise differences ||w_i||^2 - ||w_j||^2 (antisymmetric).  Raises
    ValueError when a squared layer norm is not finite."""
    norms = _squared_norms(theta, "theta")
    return norms[:, None] - norms[None, :]


def jacobian_mu(theta, arch: Architecture) -> np.ndarray:
    """Differential of the end-to-end map, shape (filter_size, n_params).

    Column (l, j) is C_l, the product of every layer but l (each upsampled
    by its span span_i = prod(strides[:i])), placed at row offset
    j * span_l; for unit strides these are the familiar banded blocks.
    """
    fs, spans = _layers(theta, arch)
    _, comps = _complements(fs)
    J = np.zeros((arch.filter_size, sum(arch.ks)))
    col = 0
    for c, span, k in zip(comps, spans, arch.ks):
        for j in range(k):
            J[j * span : j * span + len(c), col] = c
            col += 1
    return J


def mu_rank(theta, arch: Architecture) -> int:
    """Rank of the differential from the root structure of the layers.

    Every projective root shared between layers costs rank: a root of total
    multiplicity M spread over the layers with per-layer maximum m contributes
    a drop of M - m.  A nonzero layer of size one has no roots.  Raises
    ValueError for an interior stride, where root counts do not give the rank,
    for ``theta`` not fitting ``arch``, and, as ``find_roots`` does, for a zero
    or non-finite layer of any size.
    """
    fs, _ = _layers(theta, arch)
    _require_no_interior_stride(arch)
    tagged = [(i, r) for i, w in enumerate(fs) for r in find_roots(w)]
    drop = 0
    for group in _linkage(tagged, lambda a, b: _same_root(a[1], b[1], ROOT_TOL)):
        layers = [tagged[g][0] for g in group]
        drop += len(group) - max(map(layers.count, layers))
    return arch.filter_size - drop


# --- fiber scales from conserved gaps ---------------------------------------


@dataclass(frozen=True)
class FiberScales:
    """Layer rescaling consistent with conserved norm gaps.

    ``kappa_abs[i]`` is the magnitude of the factor multiplying direction
    ``q_i``; squared norms are ``beta``.  Signs are free up to an even number
    of flips; ``signed`` applies one choice.
    """

    kappa_abs: np.ndarray
    beta: np.ndarray
    residual: float

    def signed(self, pattern) -> np.ndarray:
        pattern = np.asarray(pattern, dtype=float)
        if pattern.shape != self.kappa_abs.shape or not np.all(np.abs(pattern) == 1):
            raise ValueError("sign pattern must be +-1 per layer")
        if np.prod(pattern) != 1:
            raise ValueError("sign pattern must have product +1 to fix the product")
        return self.kappa_abs * pattern


def scale_sign_patterns(depth: int) -> list:
    """All +-1 patterns with product +1 (the fiber's 2^(L-1) components)."""
    return sorted(p + (math.prod(p),) for p in itertools.product((-1, 1), repeat=depth - 1))


def recover_scales(q_filters, gaps) -> list:
    """All positive scale profiles matching the conserved norm gaps.

    Given factor directions q_i (any nonzero scaling) whose composition is the
    target end-to-end filter, find kappa_i > 0 with prod kappa_i = 1 and
    ||kappa_i q_i||^2 differences equal to ``gaps``.  Squared norms satisfy
    beta_{i+1} = beta_i + gaps_i and prod beta_i = prod ||q_i||^2, a univariate
    polynomial in beta_1; real roots making every beta_i positive survive.
    Raises ValueError for a zero or non-finite direction, a direction whose
    squared norm overflows, a gap count that does not fit, a non-finite gap and
    a polynomial whose coefficients overflow.
    """
    q_norms_sq = _squared_norms(q_filters, "q_filters")
    if np.any(q_norms_sq == 0):
        raise ValueError("factor directions must be nonzero")
    gaps = np.asarray(gaps, dtype=float)
    L = len(q_norms_sq)
    if gaps.shape != (L - 1,):
        raise ValueError(f"need {L - 1} gaps for {L} layers, got {gaps.shape}")
    if not np.all(np.isfinite(gaps)):
        raise ValueError(f"gaps must be finite, got {gaps.tolist()}")

    with np.errstate(over="ignore", invalid="ignore"):
        offsets = np.concatenate([[0.0], np.cumsum(gaps)])
        target = float(np.prod(q_norms_sq))
        # prod_i (b + offsets_i) - target as coefficients in b
        poly = np.poly(-offsets)
        poly[-1] -= target
    if not np.all(np.isfinite(poly)):
        raise ValueError("the scale polynomial overflows: the summed gaps or the product "
                         "of the squared direction norms is not a finite double")

    solutions = []
    for root in np.roots(poly):
        if abs(root.imag) > 1e-9 * (1 + abs(root)):
            continue
        b1 = root.real
        beta = b1 + offsets
        if np.any(beta <= 0):
            continue
        kappa = np.sqrt(beta / q_norms_sq)
        residual = abs(np.prod(beta) - target)
        solutions.append(FiberScales(kappa, beta, residual))
    # dedupe near-equal roots (multiple numeric copies of the same solution)
    unique = []
    for s in solutions:
        if all(np.max(np.abs(s.beta - u.beta)) > 1e-8 * (1 + np.max(np.abs(s.beta)))
               for u in unique):
            unique.append(s)
    unique.sort(key=lambda s: s.beta[0])
    return unique


# --- flow integration --------------------------------------------------------


def integrate_flow(theta0, grad_fn, step: float, n_steps: int,
                   method: str = "rk4"):
    """Integrate theta' = -grad_fn(theta) from theta0.

    grad_fn takes and returns a list of layer filters.  ``rk4`` keeps the
    conserved gaps to integrator precision; ``euler`` matches plain gradient
    descent with learning rate ``step``.  Returns the final theta.  Raises
    ValueError for an unknown method, a step that is not finite and positive and
    an ``n_steps`` that is not a non-negative integer.
    """
    if method not in ("euler", "rk4"):
        raise ValueError(f"unknown method {method!r}")
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and positive, got {step}")
    n_steps = _integer("n_steps", n_steps)
    if n_steps < 0:
        raise ValueError(f"n_steps must be non-negative, got {n_steps}")
    theta = [as_filter(w).copy() for w in theta0]

    def add(ws, scale, gs):
        return [w + scale * g for w, g in zip(ws, gs)]

    for _ in range(n_steps):
        if method == "euler":
            g = grad_fn(theta)
            theta = add(theta, -step, g)
        else:
            k1 = [-g for g in grad_fn(theta)]
            k2 = [-g for g in grad_fn(add(theta, step / 2, k1))]
            k3 = [-g for g in grad_fn(add(theta, step / 2, k2))]
            k4 = [-g for g in grad_fn(add(theta, step, k3))]
            theta = [
                w + step / 6 * (a + 2 * b + 2 * c + d)
                for w, a, b, c, d in zip(theta, k1, k2, k3, k4)
            ]
    return theta
