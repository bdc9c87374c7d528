import numpy as np
import pytest

from pqf import layout
from pqf.errors import DimensionMismatch, IndivisibleBlockSize, ShapeMismatch
from pqf.rng import make_rng


def _kernel_size(shape) -> int:
    return shape[-1] if len(shape) == 4 else 1


def test_reshape_identity_case():
    matrix = layout.reshape_weight(np.array([[[[5.0]]]]), "conv")
    assert matrix.shape == (1, 1)
    assert matrix[0, 0] == 5.0


def test_reshape_two_input_channels():
    w = np.array([[[[2.0]]], [[[7.0]]]])  # C_in=2, C_out=1, K=1
    matrix = layout.reshape_weight(w, "conv")
    assert np.array_equal(matrix, np.array([[2.0], [7.0]]))


def test_reshape_places_filters_rowmajor():
    w = make_rng(0, "reshape").standard_normal((2, 3, 3, 3))
    matrix = layout.reshape_weight(w, "conv")
    assert matrix.shape == (18, 3)
    for c in range(2):
        for o in range(3):
            got = matrix[c * 9 : (c + 1) * 9, o]
            assert np.array_equal(got, w[c, o].ravel())


@pytest.mark.parametrize("kind,shape", [("conv", (2, 3, 3, 3)), ("deconv", (3, 2, 3, 3)), ("fc", (6, 4))])
def test_reshape_round_trip(kind, shape):
    w = make_rng(1, "roundtrip", kind).standard_normal(shape)
    matrix = layout.reshape_weight(w, kind)
    assert np.array_equal(layout.inverse_reshape(matrix, kind, _kernel_size(shape)), w)


def test_split_4x1_pairs():
    matrix = layout.reshape_weight(np.array([[1.0], [2.0], [3.0], [4.0]]), "fc")
    s = layout.split_subvectors(matrix, 2)
    assert s.m_hat == 2 and s.n == 1 and s.d == 2
    assert np.array_equal(s.subvectors[0, 0], [1.0, 2.0])
    assert np.array_equal(s.subvectors[1, 0], [3.0, 4.0])


def test_split_whole_columns():
    matrix = layout.reshape_weight(make_rng(2, "split").standard_normal((4, 2)), "fc")
    s = layout.split_subvectors(matrix, 4)
    assert s.m_hat == 1 and s.n == 2
    assert np.array_equal(s.subvectors[0, 0], matrix[:, 0])
    assert np.array_equal(s.subvectors[0, 1], matrix[:, 1])


def test_split_conv_keeps_whole_filters():
    # 18x5 matrix from a K=3 conv, d=9: every subvector is one whole filter
    w = make_rng(3, "filters").standard_normal((2, 5, 3, 3))
    s = layout.split_subvectors(layout.reshape_weight(w, "conv"), 9)
    assert s.m_hat * s.n == 10
    for i in range(s.m_hat):
        for j in range(s.n):
            # index-arithmetic oracle straight into the 4-D tensor
            assert np.array_equal(s.subvectors[i, j], w[i, j].ravel())


def test_split_rejects_bad_sizes():
    matrix = layout.reshape_weight(np.zeros((6, 2)), "fc")
    with pytest.raises(IndivisibleBlockSize):
        layout.split_subvectors(matrix, 4)
    with pytest.raises(IndivisibleBlockSize):
        layout.split_subvectors(matrix, 0)


@pytest.mark.parametrize(
    "kind,shape,d",
    [("fc", (4, 1), 2), ("fc", (4, 2), 4), ("conv", (2, 5, 3, 3), 9), ("deconv", (5, 2, 3, 3), 18)],
)
def test_merge_inverts_split(kind, shape, d):
    w = make_rng(4, "merge", kind, str(d)).standard_normal(shape)
    matrix = layout.reshape_weight(w, kind)
    s = layout.split_subvectors(matrix, d)
    merged = layout.merge_matrix(s.subvectors)
    assert np.array_equal(merged, matrix)
    assert np.array_equal(layout.inverse_reshape(merged, kind, _kernel_size(shape)), w)
    # split(merge(s)) reproduces the subvectors too
    again = layout.split_subvectors(merged, d)
    assert np.array_equal(again.subvectors, s.subvectors)


def test_points_ordering():
    s = layout.split_subvectors(layout.reshape_weight(np.arange(8.0).reshape(4, 2), "fc"), 2)
    pts, grid = layout.subvector_points(s)
    assert pts.shape == (4, 2) and grid == (2, 2)
    # (i, j) row-major: (0,0), (0,1), (1,0), (1,1)
    assert np.array_equal(pts[0], s.subvectors[0, 0])
    assert np.array_equal(pts[1], s.subvectors[0, 1])
    assert np.array_equal(pts[2], s.subvectors[1, 0])
    # a plain array is read as (N, d) points of no grid, and must be 2-D
    flat, grid = layout.subvector_points(pts.astype(np.float32))
    assert flat.dtype == np.float64 and np.array_equal(flat, pts) and grid is None
    with pytest.raises(DimensionMismatch):
        layout.subvector_points(s.subvectors)


@pytest.mark.parametrize(
    "kind,shape",
    [("conv", (2, 3, 3)), ("conv", (2, 3, 3, 2)), ("deconv", (3, 2, 1, 3)), ("fc", (4, 2, 1)),
     ("fc", (4,)), ("pool", (4, 2))],
)
def test_reshape_rejects_wrong_rank_kernel_or_kind(kind, shape):
    with pytest.raises(ShapeMismatch):
        layout.reshape_weight(np.zeros(shape), kind)


@pytest.mark.parametrize("kind,k", [("conv", 3), ("deconv", 3), ("fc", 1)])
def test_channel_axes_match_the_matrix_layout(kind, k):
    """Permuting a stored weight along `channel_axis` moves K*K-row blocks or columns."""
    c_in, c_out = 4, 5
    w = make_rng(5, "axes", kind).standard_normal(layout.weight_shape(kind, c_in, c_out, k))
    matrix = layout.reshape_weight(w, kind)
    rng = make_rng(6, "axes", kind)
    p_in, p_out = rng.permutation(c_in), rng.permutation(c_out)
    moved = layout.reshape_weight(np.take(w, p_in, axis=layout.channel_axis(kind, "i")), kind)
    blocks = matrix.reshape(c_in, k * k, c_out)[p_in].reshape(c_in * k * k, c_out)
    assert np.array_equal(moved, blocks)
    moved = layout.reshape_weight(np.take(w, p_out, axis=layout.channel_axis(kind, "o")), kind)
    assert np.array_equal(moved, matrix[:, p_out])

