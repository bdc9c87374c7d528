"""Which layers must share one channel permutation, and their text listing.

A layer's output channels can be reordered without changing the network
function only if every consumer reorders its input channels the same way, so
permutability is an equivalence relation over per-layer channel "slots". This
module unifies slots with a union-find: edges join a producer's output slot
to the consumer's input slot; elementwise adds force all their inputs to
agree; batchnorm/relu/pool pass channels through unchanged (batchnorm's own
vectors travel with the parent side); channel-expanding reshapes join slots
while forcing contiguous blocks to move together. Slots tied to the network
input or output are fixed and their classes dropped. One pass over the layers
collects each free class's slots in layer order as (layer, output side,
channels); its parents, children, channel count and per-slot checks read
that list. The classes with parents and children are the independent
permutation groups, in the order of their first slots.
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

    # slot 2i = input side of layer i, slot 2i+1 = output side
    uf = _UnionFind(2 * len(layers))
    index = {}
    for i, meta in enumerate(layers):
        if meta.kind not in LAYER_KINDS:
            raise UnsupportedLayerKind(f"{meta.name!r} has kind {meta.kind!r}")
        index[meta.name] = i
        if meta.kind in PASSTHROUGH_KINDS:
            uf.union(2 * i, 2 * i + 1)
    for producer, consumer in edges:
        uf.union(2 * index[producer] + 1, 2 * index[consumer])

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
        block_factors[root] = math.lcm(block_factors.get(root, 1), big // small)

    # the input's output side and each output's input side are fixed
    fixed = {
        uf.find(2 * i + (m.kind == "input")) for i, m in enumerate(layers) if m.kind in ("input", "output")
    }
    classes = {}  # free root -> [(layer, output side, channels)] in layer order
    for i, meta in enumerate(layers):
        for out, count in ((False, meta.c_in), (True, meta.c_out)):
            root = uf.find(2 * i + out)
            if root not in fixed:
                classes.setdefault(root, []).append((meta, out, count))

    groups = []
    for root, slots in classes.items():
        # batchnorm vectors travel with the parents' output side
        parents = sorted(
            m.name for m, out, _ in slots if (m.kind in WEIGHTED_KINDS if out else m.kind == "batchnorm")
        )
        children = sorted(m.name for m, out, _ in slots if not out and m.kind in WEIGHTED_KINDS)
        if not parents or not children:
            continue
        channels = max(0, *(count for _, _, count in slots))
        channel_block = block_factors.get(root, 1)
        for meta, _, count in slots:
            if count <= 0 or channels % count != 0:
                raise InconsistentChannelCounts(
                    f"slot of {meta.name!r} has {count} channels, group spans {channels}"
                )
            if channel_block % (channels // count) != 0:
                raise InconsistentChannelCounts(
                    f"slot of {meta.name!r} needs factor {channels // count}, "
                    f"group block is {channel_block}"
                )
        groups.append(
            PermutationGroup(
                parents=tuple(parents),
                children=tuple(children),
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
