"""Which layers must share one channel permutation, and their text listing.

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

from .errors import InconsistentChannelCounts, UnsupportedLayerKind
from .tensor_io import LAYER_KINDS, PASSTHROUGH_KINDS, WEIGHTED_KINDS, ModelCheckpoint


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


def resolve_groups(model: ModelCheckpoint) -> list:
    """Partition an architecture DAG into independent permutation groups."""
    layers, edges = model.layers, model.edges

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
        if meta.kind in PASSTHROUGH_KINDS:
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


def format_groups(groups) -> str:
    """Human-readable listing, one parents/children block per group."""
    lines = []
    for i, group in enumerate(groups, start=1):
        lines.append(f"group {i}: channels={group.channels} block={group.channel_block}")
        lines.append("  parents:  [" + ", ".join(group.parents) + "]")
        lines.append("  children: [" + ", ".join(group.children) + "]")
    return "\n".join(lines)
