"""Equality of containers and their entries, for round-trip tests."""

from __future__ import annotations

import numpy as np

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
