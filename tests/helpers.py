"""Test-only helpers: container equality for round trips, quantizer-error and centroid-gradient
oracles, a toy dataset."""

from __future__ import annotations

import numpy as np

from pqf import layout
from pqf.codec import LayerEncoding
from pqf.finetune import ToyDataset, _split
from pqf.rng import gaussian, make_rng
from pqf.tensor_io import CompressedModel, RawEntry, TensorRecord


def records_equal(a: TensorRecord, b: TensorRecord) -> bool:
    return (
        a.name == b.name
        and a.dtype == b.dtype
        and tuple(a.shape) == tuple(b.shape)
        and a.data.tobytes() == b.data.tobytes()
    )


def entries_equal(a, b) -> bool:
    """Same kind, fields and bytes; encoded entries compare their packed codes."""
    if type(a) is not type(b):
        return False
    if isinstance(a, RawEntry):
        return records_equal(a.record, b.record)
    fields = ("name", "source_kind", "kernel_size", "c_in", "c_out", "d", "k_eff", "m_hat", "n",
              "perm_block")
    return (
        all(getattr(a, f) == getattr(b, f) for f in fields)
        and a.codebook.tobytes() == b.codebook.tobytes()
        and bytes(a.packed) == bytes(b.packed)
        and np.array_equal(a.permutation, b.permutation)
    )


def compressed_models_equal(a: CompressedModel, b: CompressedModel) -> bool:
    if len(a.entries) != len(b.entries):
        return False
    if [(m.name, m.kind) for m in a.layers] != [(m.name, m.kind) for m in b.layers]:
        return False
    if list(a.edges) != list(b.edges):
        return False
    return all(entries_equal(x, y) for x, y in zip(a.entries, b.entries))


def quantization_error(weight, enc: LayerEncoding) -> float:
    """Mean squared error per subvector between P*W_r and its reconstruction."""
    rw = layout.reshape_weight(weight, enc.source_kind)
    permuted = enc.permutation.apply_rows(rw.matrix)
    approx = layout.merge_matrix(np.asarray(enc.codebook, dtype=np.float64)[enc.codes])
    m_hat = permuted.shape[0] // enc.d
    return float(np.square(approx - permuted).sum() / (m_hat * permuted.shape[1]))


def centroid_gradients_oracle(weight_grad, enc: LayerEncoding) -> np.ndarray:
    """Centroid gradients the long way: reshape, permute, cut, one `bincount` per coordinate.

    Each bin sums its weights in code-grid order, as the one `bincount` over
    index maps in `finetune.centroid_gradients` must, so the two agree bit
    for bit.
    """
    rw = layout.reshape_weight(weight_grad, enc.source_kind)
    permuted = enc.permutation.apply_rows(rw.matrix)
    pts = layout.split_matrix(permuted, enc.d).reshape(-1, enc.d)
    flat = enc.codes.ravel()
    out = np.zeros((enc.k_eff, enc.d))
    for j in range(enc.d):
        out[:, j] = np.bincount(flat, weights=pts[:, j], minlength=enc.k_eff)
    return out


def two_spirals(n_per_arm: int, seed: int, noise: float = 0.15) -> ToyDataset:
    """The classic interleaved two-spiral binary problem in 2-D."""
    rng = make_rng(seed, "spirals")
    t = np.sqrt(rng.random(n_per_arm)) * 3.0 * np.pi
    arm = np.stack([t * np.cos(t), t * np.sin(t)], axis=1) / (3.0 * np.pi)
    x = np.concatenate([arm, -arm]) + gaussian(rng, (2 * n_per_arm, 2)) * noise
    y = np.repeat(np.arange(2), n_per_arm)
    return _split(x, y, 0.25, rng)
