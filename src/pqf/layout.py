"""Reshaping weights to 2-D matrices and carving them into subvectors.

Convolution weights `(C_in, C_out, K, K)` become `(C_in*K*K, C_out)` matrices
whose row block `[c*K*K, (c+1)*K*K)` of column `o` holds filter `(c, o)`
flattened row-major. Columns are then cut into length-`d` subvectors, the
atomic unit every later stage quantizes. Both steps are lossless and have
exact inverses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndivisibleBlockSize, ShapeMismatch


@dataclass(frozen=True, eq=False)
class ReshapedWeight:
    """A weight tensor flattened to 2-D, remembering how to undo it."""

    matrix: np.ndarray  # (rows, cols) float64
    kernel_size: int
    c_in: int
    c_out: int
    source_kind: str  # conv | deconv | fc

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]


def reshape_conv(weight) -> ReshapedWeight:
    """Flatten a `(C_in, C_out, K, K)` tensor to `(C_in*K*K, C_out)`."""
    w = np.asarray(weight, dtype=np.float64)
    if w.ndim != 4 or w.shape[2] != w.shape[3]:
        raise ShapeMismatch(f"conv weights must be (C_in, C_out, K, K), got {w.shape}")
    c_in, c_out, k, _ = w.shape
    matrix = w.transpose(0, 2, 3, 1).reshape(c_in * k * k, c_out)
    return ReshapedWeight(matrix, k, c_in, c_out, "conv")


def reshape_deconv(weight) -> ReshapedWeight:
    """Deconvolutions store `(C_out, C_in, K, K)`; swap channel axes, then reshape."""
    w = np.asarray(weight, dtype=np.float64)
    if w.ndim != 4 or w.shape[2] != w.shape[3]:
        raise ShapeMismatch(f"deconv weights must be (C_out, C_in, K, K), got {w.shape}")
    swapped = reshape_conv(w.transpose(1, 0, 2, 3))
    return ReshapedWeight(swapped.matrix, swapped.kernel_size, swapped.c_in, swapped.c_out, "deconv")


def reshape_fc(weight) -> ReshapedWeight:
    """Fully-connected weights `(m, n)` are already matrices; K is 1."""
    w = np.asarray(weight, dtype=np.float64)
    if w.ndim != 2:
        raise ShapeMismatch(f"fc weights must be 2-D, got {w.shape}")
    return ReshapedWeight(w.copy(), 1, w.shape[0], w.shape[1], "fc")


def reshape_weight(weight, kind: str) -> ReshapedWeight:
    if kind == "conv":
        return reshape_conv(weight)
    if kind == "deconv":
        return reshape_deconv(weight)
    if kind == "fc":
        return reshape_fc(weight)
    raise ShapeMismatch(f"no reshape rule for layer kind {kind!r}")


def weight_shape(kind: str, c_in: int, c_out: int, kernel_size: int) -> tuple:
    """The stored shape of a `kind` layer's weight tensor."""
    k = kernel_size
    if kind == "fc":
        return (c_in, c_out)
    if kind == "conv":
        return (c_in, c_out, k, k)
    if kind == "deconv":
        return (c_out, c_in, k, k)
    raise ShapeMismatch(f"no reshape rule for layer kind {kind!r}")


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
    k = kernel_size
    if kind == "fc":
        return tensor, tensor.reshape(c_in, 1, c_out)
    if kind == "conv":
        return tensor, tensor.reshape(c_in, c_out, k * k).transpose(0, 2, 1)
    return tensor, tensor.reshape(c_out, c_in, k * k).transpose(1, 2, 0)


def inverse_reshape(rw: ReshapedWeight) -> np.ndarray:
    """Recover the original weight tensor from a reshaped matrix."""
    tensor, rows = empty_weight(rw.source_kind, rw.c_in, rw.c_out, rw.kernel_size, rw.matrix.dtype)
    rows[...] = rw.matrix.reshape(rows.shape)
    return tensor


@dataclass(frozen=True, eq=False)
class SubvectorMatrix:
    """All length-`d` column slices of a reshaped weight matrix.

    ``subvectors[i, j]`` is rows ``[i*d, (i+1)*d)`` of column ``j``.
    """

    subvectors: np.ndarray  # (m_hat, n, d)
    kernel_size: int
    c_in: int
    c_out: int
    source_kind: str

    @property
    def d(self) -> int:
        return self.subvectors.shape[2]

    @property
    def m_hat(self) -> int:
        return self.subvectors.shape[0]

    @property
    def n(self) -> int:
        return self.subvectors.shape[1]

    @property
    def count(self) -> int:
        return self.m_hat * self.n

    def points(self) -> np.ndarray:
        """Subvectors as an `(m_hat*n, d)` array, row-major in (i, j)."""
        return self.subvectors.reshape(self.count, self.d)


def split_matrix(matrix: np.ndarray, d: int) -> np.ndarray:
    """Cut an `(m, n)` matrix into an `(m/d, n, d)` subvector array."""
    m, n = matrix.shape
    if d <= 0 or m % d != 0:
        raise IndivisibleBlockSize(f"subvector size {d} does not divide {m} rows")
    return np.ascontiguousarray(matrix.reshape(m // d, d, n).transpose(0, 2, 1))


def split_subvectors(rw: ReshapedWeight, d: int) -> SubvectorMatrix:
    """Cut a reshaped weight into subvectors of length `d`.

    For K>1 sources `d` must also be a multiple of K*K so no subvector
    straddles a filter boundary.
    """
    k = rw.kernel_size
    if k > 1 and d % (k * k) != 0:
        raise IndivisibleBlockSize(
            f"subvector size {d} must be a multiple of K^2={k * k} for K={k} layers"
        )
    return SubvectorMatrix(
        split_matrix(rw.matrix, d), rw.kernel_size, rw.c_in, rw.c_out, rw.source_kind
    )


def merge_matrix(subvectors: np.ndarray) -> np.ndarray:
    """Inverse of :func:`split_matrix`."""
    m_hat, n, d = subvectors.shape
    return np.ascontiguousarray(subvectors.transpose(0, 2, 1).reshape(m_hat * d, n))


def merge_subvectors(s: SubvectorMatrix) -> ReshapedWeight:
    """Reassemble the reshaped weight matrix from its subvectors."""
    return ReshapedWeight(
        merge_matrix(s.subvectors), s.kernel_size, s.c_in, s.c_out, s.source_kind
    )
