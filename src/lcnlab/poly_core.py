"""Filters, architectures, and their matrix / polynomial / tensor realizations.

A layer with filter size k and stride s maps a length-d signal to length
(d - k)/s + 1 by sliding inner products.  Everything downstream identifies a
filter (w_0, ..., w_{k-1}) with the homogeneous binary form

    w_0 x^{k-1} + w_1 x^{k-2} y + ... + w_{k-1} y^{k-1},

i.e. the stored coefficient at index j multiplies x^{k-1-j} y^j.  Composition
of layers then becomes polynomial multiplication (with a power substitution
when strides are involved), which is what makes the sparse matrix algebra
tractable.

Every composition in the package goes through ``_layers`` (``_checked_filters``
against an architecture, then layer i upsampled by span_i = prod(strides[:i])),
``_product`` and ``_complements`` (each filter's product of all the others);
``_Emitter`` writes the same products as straight-line source, with numpy's
bits, for the kernels that ``optim`` and ``critlab`` build with ``_compile``.
``_placements`` is the one sliding-window placement rule behind every matrix
realization, signal length and fold of a 1-D layer; ``_tensor_windows`` is
its stride-one D-dimensional counterpart.  ``_interior_stride`` is the one
rule for whether root counts describe an architecture's function space.
Each input rule has one owner: ``_integer`` for a count, seed or worker count
(an integer, at least a bound), ``_integers`` for a tuple of them, ``_real`` for
a step, tolerance or span (a finite real number, positive or non-negative),
``_require_finite`` for an array without NaN or infinite entries, and
``_require_filter_size`` and ``_sized_filter`` for a filter's size against an
architecture or a solver.
Every test of whether two filters are the same goes through ``_same_filter``
(the same shape, and max-norm distance within tol times the larger max-norm,
floored at one), and every nearest-reference lookup through ``_nearest``.
numpy's private names live here alone: ``correlate2``, the gufunc behind
``_solve``, and the error states that ``_solve`` and the root finder switch
to without opening an ``np.errstate``.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools
import math
import operator

import numpy as np
from numpy.linalg import _umath_linalg

from numpy._core._ufunc_config import _extobj_contextvar, _make_extobj
from numpy._core.multiarray import correlate2


def as_filter(w) -> np.ndarray:
    """Coerce to a 1-D float array (the canonical filter representation)."""
    arr = np.asarray(w, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"filter must be a nonempty 1-D array, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class Architecture:
    """Filter sizes and strides of a stack of convolutional layers.

    ``ks[i]`` is the filter size of layer i (applied first-to-last) and
    ``strides[i]`` its stride.  Strides default to all ones.
    """

    ks: tuple
    strides: tuple = None  # type: ignore[assignment]

    def __post_init__(self):
        ks = _integers("ks", self.ks, 1)
        if not ks:
            raise ValueError(f"an architecture needs at least one layer, got ks={self.ks!r}")
        strides = (1,) * len(ks) if self.strides is None else _integers("strides", self.strides, 1)
        if len(strides) != len(ks):
            raise ValueError(f"bad strides {self.strides} for filter sizes {ks}")
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "strides", strides)

    @property
    def depth(self) -> int:
        return len(self.ks)

    @property
    def filter_size(self) -> int:
        """Size of the end-to-end filter of the composed network: the input
        length that one output reads."""
        return self.min_input_size()

    @property
    def stride(self) -> int:
        """Stride of the end-to-end filter (product of layer strides)."""
        out = 1
        for s in self.strides:
            out *= s
        return out

    @property
    def bin_sizes(self) -> tuple:
        """Degrees k_i - 1 of the per-layer filter polynomials."""
        return tuple(k - 1 for k in self.ks)

    @property
    def n_even(self) -> int:
        """Number of layers with even filter size (odd polynomial degree)."""
        return sum(1 for k in self.ks if k % 2 == 0)

    @property
    def is_stride_one(self) -> bool:
        return all(s == 1 for s in self.strides)

    def layer_dims(self, d0: int) -> tuple:
        """Signal lengths (d_0, d_1, ..., d_L) for input length d0.

        Raises ValueError when ``d0`` is not an integer or some layer does not
        divide evenly.
        """
        dims = [_integer("input length", d0)]
        for k, s in zip(self.ks, self.strides):
            dims.append(len(_placements(k, s, dims[-1])))
        return tuple(dims)

    def min_input_size(self, d_out: int = 1) -> int:
        """Smallest input length producing output length ``d_out``.  Raises
        ValueError for ``d_out`` below one or not an integer."""
        d = _integer("output length", d_out, 1)
        for k, s in zip(reversed(self.ks), reversed(self.strides)):
            d = (d - 1) * s + k
        return d

    def random_theta(self, rng: np.random.Generator) -> list:
        """Independent standard-normal filters, drawn layer by layer."""
        return [rng.standard_normal(k) for k in self.ks]


def _integers(name, values, least=None) -> tuple:
    """``values`` as a tuple of ints; ValueError naming ``name`` for a non-integer
    entry, which ``int`` would truncate, and, from ``_integer``, for one below ``least``."""
    try:
        out = tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{name} must be integers, got {values!r}") from None
    if least is not None and out and min(out) < least:
        _integer(name, min(out), least)
    return out


def _integer(name, value, least=None) -> int:
    """``value`` as an int; ValueError naming ``name`` for a non-integer, such as
    a float, which ``int`` would truncate, and for a value below ``least``."""
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and n < least:
        bound = "non-negative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    return n


def _real(name, value, bound):
    """``value``; ValueError naming ``name`` unless it is a finite real number, above
    zero for ``bound`` "positive" and not below zero for "non-negative"."""
    try:  # a non-number fails isfinite: cheaper than an isinstance test on every call
        if math.isfinite(value) and (value > 0 or value == 0 and bound == "non-negative"):
            return value
    except TypeError:
        pass
    raise ValueError(f"{name} must be finite and {bound}, got {value!r}")


def _require_finite(x: np.ndarray, name=None) -> list:
    """The entries of the float array ``x``, flattened, as Python floats.  Raises
    ValueError when one is NaN or infinite, naming ``name`` (by default the filter
    ``x``) and the flat positions of those entries."""
    values = x.ravel().tolist()
    if not all(map(math.isfinite, values)):
        bad = np.flatnonzero(~np.isfinite(x)).tolist()
        raise ValueError(f"{name or f'filter {x}'} has non-finite entries at positions {bad}")
    return values


def _require_filter_size(name, size, arch) -> None:
    """ValueError naming ``name`` unless ``size`` is ``arch``'s end-to-end filter size."""
    if size != arch.filter_size:
        raise ValueError(f"{name} has size {size} but {arch.ks} composes to {arch.filter_size}")


def _sized_filter(u, size, solver) -> np.ndarray:
    """``u`` as a finite filter; ValueError naming ``solver`` unless it has ``size``
    entries, and ``_require_finite``'s for a non-finite one."""
    u = as_filter(u)
    if len(u) != size:
        raise ValueError(f"the {solver} works on filters of size {size}, got size {len(u)}")
    _require_finite(u)
    return u


def _interior_stride(arch: Architecture) -> bool:
    """Whether a layer of size two or more comes after a stride above one, which is
    exactly when the layer degrees fall short of the filter degree: root counts
    then do not describe the function space."""
    return sum(arch.bin_sizes) != arch.filter_size - 1


def _require_no_interior_stride(arch: Architecture):
    """ValueError when ``_interior_stride(arch)``."""
    if _interior_stride(arch):
        raise ValueError(f"{arch.ks} with strides {arch.strides} keeps an interior stride; "
                         "root multiplicities do not describe its function space")


def compose_filters(outer, stride: int, inner) -> np.ndarray:
    """Filter of (outer layer) ∘ (inner map of the given stride).

    The composed entry u_m = sum over j*stride + l = m of outer_j * inner_l,
    of size (len(outer)-1)*stride + len(inner).  Raises ValueError for a stride
    that ``pi_s`` rejects.
    """
    return np.convolve(pi_s(outer, stride), as_filter(inner))


def _checked_filters(theta, arch: Architecture) -> list:
    """``theta``'s filters as arrays, layer by layer.  Raises ValueError unless
    ``theta`` holds one filter of size ``ks[i]`` per layer."""
    if len(theta) != arch.depth:
        raise ValueError(f"expected {arch.depth} filters, got {len(theta)}")
    fs = []
    for w, k in zip(theta, arch.ks):
        fs.append(as_filter(w))
        if len(fs[-1]) != k:
            sizes = tuple(len(np.atleast_1d(v)) for v in theta)
            raise ValueError(f"filter sizes {sizes} do not match {arch.ks}")
    return fs


def _layers(theta, arch: Architecture):
    """(filters, spans): the ``_checked_filters`` of ``theta``, layer i upsampled
    by span_i = prod(strides[:i]), a span-one layer not copied."""
    fs, spans, span = [], [], 1
    for w, s in zip(_checked_filters(theta, arch), arch.strides):
        fs.append(w if span == 1 else pi_s(w, span))
        spans.append(span)
        span *= s
    return fs, spans


def _product(fs, mul=np.convolve):
    """Product of a nonempty list of filters, multiplied left to right with
    the accumulated operand first.  A single filter is returned as is."""
    acc = fs[0]
    for f in fs[1:]:
        acc = mul(acc, f)
    return acc


def _complements(fs, mul=np.convolve, wanted=None):
    """(product, complements): complement i is the product of every filter
    but ``fs[i]``, built on the shared prefix products in ``_product``'s
    order (the empty product is [1], made by ``mul``).  With ``wanted``, only
    the complements of those indices are built and the others are None."""
    if wanted is None:
        wanted = range(len(fs))
    comps = [None] * len(fs)
    if 0 in wanted:
        comps[0] = _product(fs[1:], mul) if len(fs) > 1 else mul([1.0], [1.0])
    prefix = fs[0]
    for i in range(1, len(fs)):
        if i in wanted:
            comps[i] = _product([prefix] + fs[i + 1 :], mul)
        prefix = mul(prefix, fs[i])
    return prefix, comps


def _sum_source(terms) -> str:
    return " + ".join(["0.0", *terms])


def _list_source(items) -> str:
    return f"[{', '.join(items)}]"


def _times(x: str, y: str) -> str:
    return y if x == "1.0" else x if y == "1.0" else f"{x}*{y}"


class _Emitter:
    """Straight-line Python source on float locals, one assignment per line, with
    numpy's bits.

    numpy 2.4 sums each output of np.convolve and np.correlate as 0.0 + p0 + p1 + ...
    over the longer operand's ascending index (the first's on a tie), but its BLAS dot
    fuses multiply-adds: in a product's edge windows once the shorter operand has 3
    entries, and for kernels of 12 or more taps.  ``mul`` and ``correlate`` write the
    other sums out in that order and leave the fused ones to ``_correlate``, which
    ``_compile`` binds to the C loop behind both, numpy's ``correlate2``.  Entries are
    local names or literals; ``mul`` drops literal 1.0 factors, as x * 1.0 is x bit for
    bit, but literal 0.0 factors stay, since inf * 0.0 must still give NaN.  The source
    runs through ``_compile`` and must not rebind a name that an earlier assignment
    reads.
    """

    def __init__(self):
        self.lines = []
        self._fresh = itertools.count()
        self._held = {}  # expression -> the local already holding it

    def assign(self, exprs) -> list:
        """Locals holding ``exprs``: an expression assigned before keeps its local, the
        others get fresh ones.  A repeated product of copies of one factor is so written
        once."""
        names = []
        for e in exprs:
            if e not in self._held:
                self._held[e] = f"v{next(self._fresh)}"
                self.lines.append(f"{self._held[e]} = {e}")
            names.append(self._held[e])
        return names

    def unpack(self, call, n) -> list:
        """Fresh locals holding the ``n`` entries of the list that ``call`` returns."""
        names = [f"v{next(self._fresh)}" for _ in range(n)]
        self.lines.append(f"{_list_source(names)} = {call}")
        return names

    def mul(self, a, b) -> list:
        """Locals holding ``np.convolve(a, b)``.  A shorter operand of 3 or more entries
        goes to ``_correlate(longer, shorter reversed, 'full')`` unless its entries are
        only literal 0.0 and 1.0, whose products are exact, so that fusing changes no
        bit."""
        if len(a) < len(b):
            a, b = b, a
        if len(b) > 2 and not all(x in ("0.0", "1.0") for x in b):
            return self.unpack(f"_correlate({_list_source(a)}, {_list_source(b[::-1])}, "
                               "'full').tolist()", len(a) + len(b) - 1)
        return self.assign([_sum_source(_times(a[i], b[m - i])
                                        for i in range(max(0, m - len(b) + 1), min(m + 1, len(a))))
                            for m in range(len(a) + len(b) - 1)])

    def correlate(self, g, c, step) -> list:
        """Locals holding ``np.correlate(g, c, 'valid')[::step]``; a kernel ``c`` of 12
        or more taps goes to ``_correlate``."""
        outputs = range(0, len(g) - len(c) + 1, step)
        if len(c) > 11:
            every = f"[::{step}]" if step > 1 else ""
            return self.unpack(f"_correlate({_list_source(g)}, {_list_source(c)}, 'valid')"
                               f"{every}.tolist()", len(outputs))
        return self.assign([_sum_source(f"{g[i + j]}*{x}" for j, x in enumerate(c))
                            for i in outputs])


def _compile(source, name, **names) -> dict:
    """The namespace in which ``source``, compiled under ``name``, ran: its functions
    read ``_correlate`` and ``names`` as globals.  ``_correlate(a, v, mode)`` is
    ``correlate2``, the C loop that ``np.correlate`` calls with its arguments as they
    are, so the emitted calls skip one Python frame and keep every bit."""
    namespace = {"_correlate": correlate2, **names}
    exec(compile(source, name, "exec"), namespace)
    return namespace


def _singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


# numpy's error state without np.errstate, which builds the state anew on every
# entry.  _errstate(**flags) builds once the state that np.errstate(**flags) sets;
# _enter_errstate(state) sets it and returns a token, and _exit_errstate(token) puts
# back the caller's state, as leaving the np.errstate does.
_errstate = _make_extobj
_enter_errstate = _extobj_contextvar.set
_exit_errstate = _extobj_contextvar.reset

_QUIET = _errstate(all="ignore")  # the root finder's
_SOLVE_STATE = _errstate(call=_singular, invalid="call", over="ignore", divide="ignore",
                         under="ignore")  # np.linalg.solve's


def _solve(a, b) -> np.ndarray:
    """``np.linalg.solve(a, b)`` for a square float64 matrix ``a`` and vector ``b``,
    without its wrappers: the gufunc it calls, under the error state it opens, so a
    singular or non-finite system raises the same LinAlgError.  That state is built
    once, and every call sets it and puts back the caller's."""
    token = _enter_errstate(_SOLVE_STATE)
    try:
        return _umath_linalg.solve1(a, b, signature="dd->d")
    finally:
        _exit_errstate(token)


def _same_filter(a, b, tol: float) -> bool:
    """max|a - b| <= tol * max(||a||_inf, ||b||_inf, 1) for 1-D float arrays; filters
    of different shapes are never the same.  Decided on float lists: a NaN entry
    fails its own comparison whatever the scale, so the verdict is numpy's."""
    if a.shape != b.shape:
        return False
    x, y = a.tolist(), b.tolist()
    bound = tol * max(max(map(abs, x)), max(map(abs, y)), 1.0)
    return all(abs(p - q) <= bound for p, q in zip(x, y))


def _nearest(w, refs):
    """(index, max-norm distance) of the first closest reference of the same
    shape as ``w``, or (None, inf) when there is none."""
    best, best_dist = None, np.inf
    for i, ref in enumerate(refs):
        if ref.shape == w.shape:
            dist = float(np.max(np.abs(w - ref)))
            if dist < best_dist:
                best, best_dist = i, dist
    return best, best_dist


def end_to_end(theta, arch: Architecture):
    """End-to-end filter and stride of the full network.

    ``theta`` is the list of per-layer filters, first layer first.
    """
    fs, _ = _layers(theta, arch)
    u = _product(fs)
    return (u.copy() if arch.depth == 1 else u), arch.stride  # never alias caller memory


def pi(w) -> np.ndarray:
    """Coefficients of the homogeneous form attached to a filter (a copy)."""
    return as_filter(w).copy()


def pi_s(w, stride: int) -> np.ndarray:
    """Coefficients of the stride-lifted form: entry j moves to index j*stride.

    The resulting vector has length (k-1)*stride + 1 and represents
    w_0 x^{(k-1)s} + w_1 x^{(k-2)s} y^s + ... + w_{k-1} y^{(k-1)s}, the filter
    with ``stride - 1`` zeros between consecutive entries.  Raises ValueError
    for a stride that is not an integer of at least one.
    """
    w = as_filter(w)
    stride = _integer("stride", stride, 1)
    if stride == 1:
        return w.copy()
    out = np.zeros((len(w) - 1) * stride + 1)
    out[::stride] = w
    return out


def poly_mul(p, q) -> np.ndarray:
    """Product of two coefficient vectors (full convolution)."""
    return np.convolve(as_filter(p), as_filter(q))


def _placements(k: int, stride: int, d: int, n_out: int = None,
                cyclic: bool = False) -> np.ndarray:
    """Columns (n_out, k) of a size-k filter's placements on length d: row m
    is m*stride ... m*stride + k - 1, mod d when ``cyclic``.  ``n_out``
    defaults to the exact fit, (d - k)/stride + 1 or, cyclic, d/stride.
    Raises ValueError for a stride that is not an integer of at least one, a
    cyclic filter longer than d, an inexact fit, an ``n_out`` that is not a
    non-negative integer and an overrun."""
    stride = _integer("stride", stride, 1)
    if cyclic and k > d:
        raise ValueError(f"filter size {k} exceeds cyclic dimension {d}")
    if n_out is None:
        num = d if cyclic else d - k
        if num < 0 or num % stride:
            raise ValueError(f"length {d} does not fit filter size {k} at stride {stride}")
        n_out = num // stride if cyclic else num // stride + 1
    elif _integer("placement count", n_out, 0) and not cyclic and (n_out - 1) * stride + k > d:
        raise ValueError(f"placement {n_out - 1} overruns dimension {d} (k={k}, stride={stride})")
    idx = stride * np.arange(n_out)[:, None] + np.arange(k)
    return idx % d if cyclic else idx


def _window_matrix(w, d: int, stride: int, cyclic: bool) -> np.ndarray:
    w = as_filter(w)
    idx = _placements(len(w), stride, d, cyclic=cyclic)
    T = np.zeros((len(idx), d))
    # circulant entries are added onto zeros, so there a -0.0 tap reads 0.0
    T[np.arange(len(idx))[:, None], idx] = 0.0 + w if cyclic else w
    return T


def toeplitz_matrix(w, d_in: int, stride: int = 1) -> np.ndarray:
    """Sliding-window matrix of a filter: entry (i, j) = w[j - i*stride].

    Shape is (d_out, d_in) with d_out = (d_in - k)/stride + 1; raises
    ValueError when the division is not exact or the stride is below one.
    """
    return _window_matrix(w, d_in, stride, cyclic=False)


def circulant_matrix(w, d: int, stride: int = 1) -> np.ndarray:
    """Cyclic version of the filter matrix, (d/stride) x d: row r holds the
    filter starting at column (r*stride) mod d.  Raises ValueError when the
    filter is longer than d or the stride is below one or does not divide d."""
    return _window_matrix(w, d, stride, cyclic=True)


def network_matrices(theta, arch: Architecture, d0: int) -> list:
    """Per-layer sliding-window matrices for input length d0 (first layer first).

    Raises ValueError unless ``theta`` holds one filter of size ``ks[i]`` per
    layer, and when some layer does not divide evenly.
    """
    _checked_filters(theta, arch)
    dims = arch.layer_dims(d0)
    return [
        toeplitz_matrix(w, dims[i], arch.strides[i]) for i, w in enumerate(theta)
    ]


# --- multi-dimensional (stride-one) filters -------------------------------
#
# A D-dimensional filter is an array of shape (k^1, ..., k^D); the associated
# linear map takes inputs of shape (d^1, ..., d^D) to outputs of shape
# (d^a - k^a + 1).  Composition is full D-dimensional convolution of the
# filter arrays, and the multi-homogeneous coefficient array of a composed
# filter is the array product (convolution) of the layer coefficient arrays.


def compose_tensor_filters(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Full D-dimensional convolution: u_m = sum_{j+l=m} outer_j * inner_l."""
    outer = np.asarray(outer, dtype=float)
    inner = np.asarray(inner, dtype=float)
    if outer.ndim != inner.ndim:
        raise ValueError("filters must share the number of axes")
    out = np.zeros(tuple(a + b - 1 for a, b in zip(outer.shape, inner.shape)))
    for idx, window in _tensor_windows(inner.shape, out.shape)[1]:
        out[window] += outer[idx] * inner
    return out


def _tensor_windows(k_shape, in_shape):
    """Output shape in_shape - k_shape + 1 and, per output index i, the input
    window i ... i + k_shape - 1.  Raises ValueError for a different number
    of axes or an input smaller than the filter."""
    out_shape = tuple(d - k + 1 for d, k in zip(in_shape, k_shape))
    if len(k_shape) != len(in_shape) or min(out_shape, default=1) < 1:
        raise ValueError(f"input shape {in_shape} does not fit filter shape {k_shape}")
    return out_shape, [(i, tuple(slice(a, a + n) for a, n in zip(i, k_shape)))
                       for i in np.ndindex(out_shape)]


def materialize_conv_tensor(w: np.ndarray, in_shape) -> np.ndarray:
    """Dense tensor of the linear map: T[i..., j...] = w[j - i] (stride one).

    Output shape is out_shape + in_shape where out_shape = in_shape - k + 1.
    Raises ValueError for an input shape of non-integers or one that does not fit.
    """
    w = np.asarray(w, dtype=float)
    in_shape = _integers("input shape", in_shape)
    out_shape, windows = _tensor_windows(w.shape, in_shape)
    T = np.zeros(out_shape + in_shape)
    for i, window in windows:
        T[i][window] = w
    return T


def apply_conv_tensor(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply the D-dimensional sliding-window map directly (cross-correlation)."""
    w = np.asarray(w, dtype=float)
    x = np.asarray(x, dtype=float)
    out_shape, windows = _tensor_windows(w.shape, x.shape)
    out = np.zeros(out_shape)
    for i, window in windows:
        out[i] = float(np.sum(w * x[window]))
    return out
