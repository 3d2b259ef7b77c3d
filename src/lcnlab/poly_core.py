"""Filters, architectures, and their matrix / polynomial / tensor realizations.

A layer with filter size k and stride s maps a length-d signal to length
(d - k)/s + 1 by sliding inner products.  Everything downstream identifies a
filter (w_0, ..., w_{k-1}) with the homogeneous binary form

    w_0 x^{k-1} + w_1 x^{k-2} y + ... + w_{k-1} y^{k-1},

i.e. the stored coefficient at index j multiplies x^{k-1-j} y^j.  Composition
of layers then becomes polynomial multiplication (with a power substitution
when strides are involved), which is what makes the sparse matrix algebra
tractable.

Every composition in the package goes through ``_layers`` (check filters
against an architecture, upsample layer i by span_i = prod(strides[:i])),
``_product`` and ``_complements`` (each filter's product of all the others),
on arrays or, with ``_mul_list``, on float lists, which give numpy's bits.
``_placements`` is the one sliding-window placement rule behind every matrix
realization, signal length and fold of a 1-D layer; ``_tensor_windows`` is
its stride-one D-dimensional counterpart.
Every test of whether two filters are the same goes through ``_same_filter``
(max-norm distance within tol times the larger max-norm, floored at one), and
every nearest-reference lookup through ``_nearest``.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np


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
        ks = tuple(int(k) for k in self.ks)
        if not ks or any(k < 1 for k in ks):
            raise ValueError(f"filter sizes must be positive integers, got {self.ks}")
        strides = self.strides
        if strides is None:
            strides = (1,) * len(ks)
        strides = tuple(int(s) for s in strides)
        if len(strides) != len(ks) or any(s < 1 for s in strides):
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

        Raises ValueError when some layer does not divide evenly.
        """
        dims = [int(d0)]
        for k, s in zip(self.ks, self.strides):
            dims.append(len(_placements(k, s, dims[-1])))
        return tuple(dims)

    def min_input_size(self, d_out: int = 1) -> int:
        """Smallest input length producing output length ``d_out``."""
        d = int(d_out)
        for k, s in zip(reversed(self.ks), reversed(self.strides)):
            d = (d - 1) * s + k
        return d

    def random_theta(self, rng: np.random.Generator) -> list:
        """Independent standard-normal filters, drawn layer by layer."""
        return [rng.standard_normal(k) for k in self.ks]


def upsample(w, stride: int) -> np.ndarray:
    """Insert ``stride - 1`` zeros between consecutive filter entries."""
    w = as_filter(w)
    if stride == 1:
        return w.copy()
    out = np.zeros((len(w) - 1) * stride + 1)
    out[::stride] = w
    return out


def compose_filters(outer, stride: int, inner) -> np.ndarray:
    """Filter of (outer layer) ∘ (inner map of the given stride).

    The composed entry u_m = sum over j*stride + l = m of outer_j * inner_l,
    of size (len(outer)-1)*stride + len(inner).
    """
    return np.convolve(upsample(outer, stride), as_filter(inner))


def _layers(theta, arch: Architecture):
    """(filters, spans): layer i upsampled by span_i = prod(strides[:i]), a
    span-one layer not copied.  Raises ValueError unless ``theta`` holds one
    filter of size ``ks[i]`` per layer."""
    if len(theta) != arch.depth:
        raise ValueError(f"expected {arch.depth} filters, got {len(theta)}")
    fs, spans, span = [], [], 1
    for w, k, s in zip(theta, arch.ks, arch.strides):
        w = as_filter(w)
        if len(w) != k:
            sizes = tuple(len(np.atleast_1d(v)) for v in theta)
            raise ValueError(f"filter sizes {sizes} do not match {arch.ks}")
        fs.append(w if span == 1 else upsample(w, span))
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


def _complements(fs, mul=np.convolve):
    """(product, complements): complement i is the product of every filter
    but ``fs[i]``, built on the shared prefix products in ``_product``'s
    order (the empty product is [1], made by ``mul``)."""
    comps = [_product(fs[1:], mul) if len(fs) > 1 else mul([1.0], [1.0])]
    prefix = fs[0]
    for i in range(1, len(fs)):
        comps.append(_product([prefix] + fs[i + 1 :], mul))
        prefix = mul(prefix, fs[i])
    return prefix, comps


# numpy 2.4 sums each output of np.convolve and np.correlate as 0.0 + p0 + p1 + ... over
# the longer operand's ascending index (the first's on a tie), but its BLAS dot fuses
# multiply-adds: in a product's edge windows once the shorter operand has 3 entries, and
# for kernels of 12 or more taps.  The float-list helpers leave those cases to numpy.


def _mul_list(a, b) -> list:
    """``np.convolve(a, b).tolist()`` on float lists; Python sums shorter operands of 1 or
    2 entries."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) != 2:
        if len(b) == 1:
            b0 = b[0]
            return [0.0 + x * b0 for x in a]
        return np.convolve(a, b).tolist()
    b0, b1 = b
    x = a[0]
    out = [0.0 + x * b0]
    for y in a[1:]:
        out.append(0.0 + x * b1 + y * b0)
        x = y
    out.append(0.0 + x * b1)
    return out


def _correlate_list(g, c) -> list:
    """``np.correlate(g, c, "valid").tolist()`` on float lists, len(c) <= len(g)."""
    if len(c) > 11:
        return np.correlate(g, c, "valid").tolist()
    out = []
    for i in range(len(g) - len(c) + 1):
        s = 0.0
        for x, y in zip(g[i:], c):
            s += x * y
        out.append(s)
    return out


def _same_filter(a, b, tol: float) -> bool:
    """max|a - b| <= tol * max(||a||_inf, ||b||_inf, 1)."""
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1.0)
    return bool(np.all(np.abs(a - b) <= tol * scale))


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
    w_0 x^{(k-1)s} + w_1 x^{(k-2)s} y^s + ... + w_{k-1} y^{(k-1)s}.
    """
    return upsample(w, stride)


def poly_mul(p, q) -> np.ndarray:
    """Product of two coefficient vectors (full convolution)."""
    return np.convolve(as_filter(p), as_filter(q))


def network_poly(theta, arch: Architecture) -> np.ndarray:
    """Product of the stride-lifted layer polynomials.

    Equals ``pi(end_to_end(theta, arch)[0])`` — the multiplicativity that the
    matrix algebra below realizes.
    """
    return end_to_end(theta, arch)[0]


def _placements(k: int, stride: int, d: int, n_out: int = None,
                cyclic: bool = False) -> np.ndarray:
    """Columns (n_out, k) of a size-k filter's placements on length d: row m
    is m*stride ... m*stride + k - 1, mod d when ``cyclic``.  ``n_out``
    defaults to the exact fit, (d - k)/stride + 1 or, cyclic, d/stride.
    Raises ValueError for a stride below one, a cyclic filter longer than
    d, an inexact fit, a negative ``n_out`` and an overrun."""
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    if cyclic and k > d:
        raise ValueError(f"filter size {k} exceeds cyclic dimension {d}")
    if n_out is None:
        num = d if cyclic else d - k
        if num < 0 or num % stride:
            raise ValueError(f"length {d} does not fit filter size {k} at stride {stride}")
        n_out = num // stride if cyclic else num // stride + 1
    elif n_out < 0:
        raise ValueError(f"placement count must be nonnegative, got {n_out}")
    elif not cyclic and n_out > 0 and (n_out - 1) * stride + k > d:
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
    _layers(theta, arch)
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
    """
    w = np.asarray(w, dtype=float)
    in_shape = tuple(int(d) for d in in_shape)
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
