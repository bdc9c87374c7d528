"""Reshaping weights to 2-D matrices and carving them into subvectors.

`_AXES` is the one table of which stored axis holds which channels: conv
`(C_in, C_out, K, K)`, deconv `(C_out, C_in, K, K)`, fc `(C_in, C_out)`.
`weight_shape`, `channel_axis`, `reshape_weight` and `empty_weight` derive
from it. Every kind becomes a `(C_in*K*K, C_out)` float64 matrix whose row
block `[c*K*K, (c+1)*K*K)` of column `o` holds filter `(c, o)` flattened
row-major (K is 1 for fc). The matrix is a plain array: the kind and kernel
size that undo the reshape are the layer's own, which every caller holds in
its `LayerMeta`. Columns are then cut into length-`d` subvectors, the atomic
unit every later stage quantizes. Both steps are lossless and have exact
inverses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IndivisibleBlockSize, ShapeMismatch

# stored axes per weighted kind: i = input channels, o = output channels,
# k = kernel; the two channel axes come first
_AXES = {"conv": "iokk", "deconv": "oikk", "fc": "io"}


def _axes(kind: str) -> str:
    if kind not in _AXES:
        raise ShapeMismatch(f"no reshape rule for layer kind {kind!r}")
    return _AXES[kind]


def weight_shape(kind: str, c_in: int, c_out: int, kernel_size: int) -> tuple:
    """The stored shape of a `kind` layer's weight tensor."""
    size = {"i": c_in, "o": c_out, "k": kernel_size}
    return tuple(size[axis] for axis in _axes(kind))


def channel_axis(kind: str, side: str) -> int:
    """The axis of a stored `kind` weight holding its input (`"i"`) or output (`"o"`) channels."""
    return _axes(kind).index(side)


def _rows(tensor: np.ndarray, kind: str) -> np.ndarray:
    """The `(C_in, K*K, C_out)` view of a stored weight tensor."""
    kk = math.prod(tensor.shape[2:])
    in_axis, out_axis = channel_axis(kind, "i"), channel_axis(kind, "o")
    return tensor.reshape(*tensor.shape[:2], kk).transpose(in_axis, 2, out_axis)


def reshape_weight(weight, kind: str) -> np.ndarray:
    """Flatten a stored `kind` weight to its `(C_in*K*K, C_out)` float64 matrix, in one copy."""
    w = np.asarray(weight)
    if w.ndim != len(_axes(kind)) or len(set(w.shape[2:])) > 1:
        raise ShapeMismatch(
            f"{kind} weights must be {weight_shape(kind, 'C_in', 'C_out', 'K')}, got {w.shape}"
        )
    rows = _rows(w, kind).astype(np.float64, order="C")
    return rows.reshape(-1, rows.shape[2])


def empty_weight(kind: str, c_in: int, c_out: int, kernel_size: int, dtype, out=None) -> tuple:
    """An unfilled weight tensor in its stored layout, and its reshaped rows.

    Returns ``(tensor, rows)``: `rows` is a `(C_in, K*K, C_out)` view of
    `tensor` whose ``rows[c, s, o]`` is entry ``(c*K*K + s, o)`` of the
    matrix `reshape_weight` makes, so filling `rows` fills the tensor
    without a transpose copy. With `out`, a contiguous 1-D `dtype` buffer
    of at least the tensor's size, the tensor is a view of its leading
    elements, which keep their old values until filled; nothing is
    allocated.
    """
    shape = weight_shape(kind, c_in, c_out, kernel_size)
    if out is None:
        tensor = np.empty(shape, dtype)
    else:
        if out.dtype != dtype:
            raise ValueError(f"a {out.dtype} buffer cannot hold a {dtype} weight")
        tensor = out[: math.prod(shape)].reshape(shape)  # too small: ValueError
    return tensor, _rows(tensor, kind)


def inverse_reshape(matrix: np.ndarray, kind: str, kernel_size: int) -> np.ndarray:
    """Recover the stored `kind` weight tensor from its `(C_in*K*K, C_out)` matrix."""
    rows, c_out = matrix.shape
    c_in = rows // kernel_size**2
    tensor, view = empty_weight(kind, c_in, c_out, kernel_size, matrix.dtype)
    view[...] = matrix.reshape(view.shape)
    return tensor


@dataclass(frozen=True, eq=False)
class SubvectorMatrix:
    """All length-`d` column slices of a reshaped weight matrix.

    ``subvectors[i, j]`` is rows ``[i*d, (i+1)*d)`` of column ``j``.
    """

    subvectors: np.ndarray  # (m_hat, n, d)

    @property
    def d(self) -> int:
        return self.subvectors.shape[2]

    @property
    def m_hat(self) -> int:
        return self.subvectors.shape[0]

    @property
    def n(self) -> int:
        return self.subvectors.shape[1]


def subvector_points(subvectors) -> tuple:
    """Subvectors as `(N, d)` points, and the `(m_hat, n)` grid that holds them.

    A `SubvectorMatrix` gives its points row-major in (i, j) and its grid;
    anything else is read as an `(N, d)` float64 array, with grid None, and
    raises `DimensionMismatch` unless it is 2-D.
    """
    if isinstance(subvectors, SubvectorMatrix):
        return subvectors.subvectors.reshape(-1, subvectors.d), (subvectors.m_hat, subvectors.n)
    pts = np.asarray(subvectors, dtype=np.float64)
    if pts.ndim != 2:
        raise DimensionMismatch(f"expected an (N, d) array, got shape {pts.shape}")
    return pts, None


def is_permutation(order, n: int) -> bool:
    """Whether `order` holds each of ``0 .. n-1`` exactly once."""
    return np.array_equal(np.sort(order), np.arange(n))


def split_matrix(matrix: np.ndarray, d: int) -> np.ndarray:
    """Cut an `(m, n)` matrix into an `(m/d, n, d)` subvector array."""
    m, n = matrix.shape
    if d <= 0 or m % d != 0:
        raise IndivisibleBlockSize(f"subvector size {d} does not divide {m} rows")
    return np.ascontiguousarray(matrix.reshape(m // d, d, n).transpose(0, 2, 1))


def split_subvectors(matrix: np.ndarray, d: int) -> SubvectorMatrix:
    """Cut a reshaped weight matrix into subvectors of length `d`."""
    return SubvectorMatrix(split_matrix(matrix, d))


def merge_matrix(subvectors: np.ndarray) -> np.ndarray:
    """Inverse of :func:`split_matrix`."""
    m_hat, n, d = subvectors.shape
    return np.ascontiguousarray(subvectors.transpose(0, 2, 1).reshape(m_hat * d, n))
