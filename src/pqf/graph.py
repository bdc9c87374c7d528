"""Which layers must share one channel permutation, and applying/checking it.

A layer's output channels can be reordered without changing the network
function only if every consumer reorders its input channels the same way, so
permutability is an equivalence relation over per-layer channel "slots". This
module unifies slots with a union-find: edges join a producer's output slot
to the consumer's input slot; elementwise adds force all their inputs to
agree; batchnorm/relu/pool pass channels through unchanged (batchnorm's own
vectors travel with the parent side); channel-expanding reshapes join slots
while forcing contiguous blocks to move together. Slots tied to the network
input or output are fixed and their classes dropped. What remains are the
independent permutation groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BlockViolation,
    InconsistentChannelCounts,
    ShapeMismatch,
    UnsupportedLayerKind,
)
from .permsearch import Permutation
from .tensor_io import LAYER_KINDS, LayerMeta, ModelCheckpoint, WEIGHTED_KINDS

_PASS_THROUGH = frozenset({"batchnorm", "relu", "pool", "add"})


@dataclass(frozen=True)
class PermutationGroup:
    """Layers that must share one permutation over `channels` dimensions.

    Parents are permuted along their output dimension (batchnorm vectors
    included); children along their input dimension. Contiguous blocks of
    `channel_block` dimensions move together.
    """

    parents: tuple
    children: tuple
    channels: int
    channel_block: int = 1


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def resolve_groups(model) -> list:
    """Partition an architecture DAG into independent permutation groups."""
    layers = model.layers if isinstance(model, ModelCheckpoint) else list(model[0])
    edges = model.edges if isinstance(model, ModelCheckpoint) else list(model[1])

    index = {}
    for i, meta in enumerate(layers):
        if meta.kind not in LAYER_KINDS:
            raise UnsupportedLayerKind(f"{meta.name!r} has kind {meta.kind!r}")
        index[meta.name] = i

    # slot 2i = input side of layer i, slot 2i+1 = output side
    uf = _UnionFind(2 * len(layers))
    slot_channels = {}
    fixed_slots = []
    for i, meta in enumerate(layers):
        s_in, s_out = 2 * i, 2 * i + 1
        slot_channels[s_in] = meta.c_in
        slot_channels[s_out] = meta.c_out
        if meta.kind in _PASS_THROUGH or meta.kind == "reshape":
            uf.union(s_in, s_out)
        elif meta.kind == "input":
            fixed_slots.append(s_out)
        elif meta.kind == "output":
            fixed_slots.append(s_in)

    for producer, consumer in edges:
        uf.union(2 * index[producer] + 1, 2 * index[consumer])

    fixed_roots = {uf.find(s) for s in fixed_slots}

    # channel-expanding reshapes impose contiguity blocks on their class
    block_factors = {}
    for i, meta in enumerate(layers):
        if meta.kind != "reshape":
            continue
        big, small = max(meta.c_in, meta.c_out), min(meta.c_in, meta.c_out)
        if small <= 0 or big % small != 0:
            raise InconsistentChannelCounts(
                f"reshape {meta.name!r} must scale channels by an integer factor"
            )
        root = uf.find(2 * i)
        factor = big // small
        block_factors[root] = math.lcm(block_factors.get(root, 1), factor)

    drafts = {}  # root -> [parents, children, max_channels, counts]
    order = []

    def draft(root):
        if root not in drafts:
            drafts[root] = [[], [], 0, []]
            order.append(root)
        return drafts[root]

    for i, meta in enumerate(layers):
        s_in, s_out = 2 * i, 2 * i + 1
        for slot in (s_in, s_out):
            root = uf.find(slot)
            if root in fixed_roots:
                continue
            entry = draft(root)
            entry[2] = max(entry[2], slot_channels[slot])
            entry[3].append((meta.name, slot_channels[slot]))
            if meta.kind in WEIGHTED_KINDS:
                if slot == s_out:
                    entry[0].append(meta.name)
                else:
                    entry[1].append(meta.name)
            elif meta.kind == "batchnorm" and slot == s_in:
                entry[0].append(meta.name)

    groups = []
    for root in order:
        parents, children, channels, counts = drafts[root]
        if not parents or not children:
            continue
        channel_block = block_factors.get(root, 1)
        for name, count in counts:
            if count <= 0 or channels % count != 0:
                raise InconsistentChannelCounts(
                    f"slot of {name!r} has {count} channels, group spans {channels}"
                )
            if channel_block % (channels // count) != 0:
                raise InconsistentChannelCounts(
                    f"slot of {name!r} needs factor {channels // count}, "
                    f"group block is {channel_block}"
                )
        groups.append(
            PermutationGroup(
                parents=tuple(sorted(parents)),
                children=tuple(sorted(children)),
                channels=channels,
                channel_block=channel_block,
            )
        )
    return groups


def _check_block(indices: np.ndarray, block: int):
    m = indices.shape[0]
    if block <= 0 or m % block != 0:
        raise BlockViolation(f"block {block} does not divide {m} channels")
    grid = indices.reshape(m // block, block)
    if not np.array_equal(grid, grid[:, :1] + np.arange(block)):
        raise BlockViolation("permutation splits a contiguous channel block")


def _coarsen(indices: np.ndarray, factor: int) -> np.ndarray:
    if factor == 1:
        return indices
    return indices[::factor] // factor


def apply_group_permutation(ckpt: ModelCheckpoint, group: PermutationGroup, permutation):
    """Physically permute a checkpoint's tensors along one group's channels.

    Parents move their output dimension and 1-D vectors; children move their
    input dimension. Returns a new checkpoint; the original is untouched.
    """
    indices = (
        permutation.indices if isinstance(permutation, Permutation) else np.asarray(permutation)
    ).astype(np.int64)
    if indices.shape[0] != group.channels:
        raise ShapeMismatch(
            f"permutation covers {indices.shape[0]} channels, group has {group.channels}"
        )
    if not np.array_equal(np.sort(indices), np.arange(group.channels)):
        raise BlockViolation("indices are not a permutation")
    _check_block(indices, group.channel_block)

    out = ModelCheckpoint(
        tensors=[
            type(rec)(rec.name, rec.dtype, tuple(rec.shape), rec.data.copy())
            for rec in ckpt.tensors
        ],
        layers=[
            LayerMeta(m.name, m.kind, m.kernel_size, m.c_in, m.c_out, m.has_bias)
            for m in ckpt.layers
        ],
        edges=list(ckpt.edges),
    )

    def permute_tensor(name, axis, count):
        rec = out.tensor(name)
        if rec is None:
            return
        if rec.data.shape[axis] != count:
            raise ShapeMismatch(f"tensor {name!r} axis {axis} != {count} channels")
        local = _coarsen(indices, group.channels // count)
        rec.data = np.take(rec.data, local, axis=axis)

    for name in group.parents:
        meta = out.layer(name)
        if meta.kind == "batchnorm":
            permute_tensor(f"{name}.weight", 0, meta.c_out)
            permute_tensor(f"{name}.bias", 0, meta.c_out)
        elif meta.kind == "conv":
            permute_tensor(f"{name}.weight", 1, meta.c_out)
            permute_tensor(f"{name}.bias", 0, meta.c_out)
        elif meta.kind == "deconv":
            permute_tensor(f"{name}.weight", 0, meta.c_out)
            permute_tensor(f"{name}.bias", 0, meta.c_out)
        elif meta.kind == "fc":
            permute_tensor(f"{name}.weight", 1, meta.c_out)
            permute_tensor(f"{name}.bias", 0, meta.c_out)
        else:
            raise UnsupportedLayerKind(meta.kind)

    for name in group.children:
        meta = out.layer(name)
        if meta.kind == "conv":
            permute_tensor(f"{name}.weight", 0, meta.c_in)
        elif meta.kind == "deconv":
            permute_tensor(f"{name}.weight", 1, meta.c_in)
        elif meta.kind == "fc":
            permute_tensor(f"{name}.weight", 0, meta.c_in)
        else:
            raise UnsupportedLayerKind(meta.kind)
    return out


def verify_equivalence(ckpt_a: ModelCheckpoint, ckpt_b: ModelCheckpoint, probes) -> float:
    """Max absolute output difference between two checkpoints over probes."""
    from . import finetune  # deferred: finetune depends on codec

    net_a = finetune.ToyNetwork.from_checkpoint(ckpt_a)
    net_b = finetune.ToyNetwork.from_checkpoint(ckpt_b)
    x = np.asarray(probes, dtype=np.float64)
    out_a, _ = finetune.forward(net_a, x)
    out_b, _ = finetune.forward(net_b, x)
    if out_a.shape != out_b.shape:
        raise ShapeMismatch(f"outputs disagree in shape: {out_a.shape} vs {out_b.shape}")
    return float(np.max(np.abs(out_a - out_b))) if out_a.size else 0.0


def format_groups(groups) -> str:
    """Human-readable listing, one parents/children block per group."""
    lines = []
    for i, group in enumerate(groups, start=1):
        lines.append(f"group {i}: channels={group.channels} block={group.channel_block}")
        lines.append("  parents:  [" + ", ".join(group.parents) + "]")
        lines.append("  children: [" + ", ".join(group.children) + "]")
    return "\n".join(lines)


def parse_groups_text(text: str) -> list:
    """Parse :func:`format_groups` output back into group tuples."""
    groups = []
    channels = block = 0
    parents = children = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("group "):
            fields = dict(part.split("=") for part in line.split(":", 1)[1].split())
            channels, block = int(fields["channels"]), int(fields["block"])
        elif line.startswith("parents:"):
            parents = _parse_name_list(line.split(":", 1)[1])
        elif line.startswith("children:"):
            children = _parse_name_list(line.split(":", 1)[1])
            groups.append(
                PermutationGroup(tuple(parents), tuple(children), channels, block)
            )
            parents = children = None
    return groups


def _parse_name_list(blob: str) -> list:
    inner = blob.strip().strip("[]")
    return [t.strip() for t in inner.split(",") if t.strip()]
