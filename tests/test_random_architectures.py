"""Random architectures against the paper's invariant: permuting the channels two layers share
leaves the network function unchanged.

Seeded random DAGs hold convolutions (K 1 or 3, each with or without a batchnorm and a relu),
residual adds with an earlier node of equal width, and two parallel convolutions joined by an
add; then a pool or a channel-expanding reshape, then one or two fc layers. On each, every
permutation group `resolve_groups` finds takes a random order of its channel units, applied to
the checkpoint one group at a time and all together, and the outputs must not move; the groups
must not depend on the declaration order; and a compress round trip through a `.pqfc` file keeps
every tensor's shape, streaming the bytes of the in-memory decode, or ends as a typed `PQFError`.
"""

import numpy as np

from helpers import apply_group_permutation, verify_equivalence
from pqf.codec import CompressionConfig, compress_model, decompress_model, decompress_to_file
from pqf.errors import PQFError
from pqf.graph import resolve_groups
from pqf.layout import weight_shape
from pqf.permsearch import expand_channel_permutation
from pqf.rng import gaussian, make_rng
from pqf.tensor_io import (
    LayerMeta,
    ModelCheckpoint,
    load_compressed,
    save_checkpoint,
    save_compressed,
    tensor_record,
)

DAGS = 200
WIDTHS = (4, 6, 8, 12)


class _Builder:
    """Layers, edges and seeded weights of one random DAG, declared in topological order."""

    def __init__(self, rng, c_in: int):
        self.rng = rng
        self.layers = [LayerMeta("input", "input", 1, c_in, c_in)]
        self.edges = []
        self.tensors = []
        self.width = {"input": c_in}
        self.spatial = ["input"]  # nodes whose output is an image, for residual adds

    def add(self, name, kind, k, c_in, c_out, *inputs):
        weighted = kind in ("conv", "fc")
        self.layers.append(LayerMeta(name, kind, k, c_in, c_out, kind == "fc" if weighted else None))
        self.edges += [(p, name) for p in inputs]
        self.width[name] = c_out
        if weighted:
            w = gaussian(self.rng, weight_shape(kind, c_in, c_out, k)) * np.sqrt(2.0 / (c_in * k * k))
            self.tensors.append(tensor_record(f"{name}.weight", w))
            if kind == "fc":
                self.tensors.append(tensor_record(f"{name}.bias", 0.1 * gaussian(self.rng, (c_out,))))
        elif kind == "batchnorm":
            self.tensors.append(tensor_record(f"{name}.weight", 0.75 + 0.5 * self.rng.random(c_out)))
            self.tensors.append(tensor_record(f"{name}.bias", 0.1 * gaussian(self.rng, (c_out,))))
        return name

    def conv(self, prefix, source, c_out):
        """A conv of kernel 1 or 3, then maybe a batchnorm, then maybe a relu."""
        k = int(self.rng.choice([1, 3]))
        node = self.add(f"{prefix}.conv", "conv", k, self.width[source], c_out, source)
        for kind in ("batchnorm", "relu"):
            if self.rng.random() < 0.5:
                node = self.add(f"{prefix}.{kind}", kind, 1, c_out, c_out, node)
        return node

    def block(self, b, node):
        shape = int(self.rng.integers(3))
        if shape == 0:  # plain
            node = self.conv(f"b{b}", node, int(self.rng.choice(WIDTHS)))
        elif shape == 1:  # residual add with an earlier node of equal width
            node = self.conv(f"b{b}", node, int(self.rng.choice(WIDTHS)))
            same = [n for n in self.spatial if self.width[n] == self.width[node]]
            skip = same[int(self.rng.integers(len(same)))] if same else None
            if skip is not None:
                node = self.add(f"b{b}.add", "add", 1, self.width[node], self.width[node], node, skip)
        else:  # two parallel convs joined by an add
            c = int(self.rng.choice(WIDTHS))
            left, right = self.conv(f"b{b}.left", node, c), self.conv(f"b{b}.right", node, c)
            node = self.add(f"b{b}.add", "add", 1, c, c, left, right)
        self.spatial.append(node)
        return node


def random_dag(seed: int) -> tuple:
    """A random checkpoint and the ``(B, C, H, W)`` probe batch it takes."""
    rng = make_rng(seed, "random-dag")
    c_in, side = int(rng.integers(1, 4)), int(rng.integers(2, 4))
    dag = _Builder(rng, c_in)
    node = "input"
    for b in range(int(rng.integers(1, 7))):
        node = dag.block(b, node)
    c = dag.width[node]
    if rng.random() < 0.5:
        node = dag.add("pool", "pool", 1, c, c, node)
    else:  # flatten each channel's H*W pixels: blocks of H*W fc rows move together
        node = dag.add("flat", "reshape", 1, c, c * side * side, node)
    if rng.random() < 0.5:
        node = dag.add("fc0", "fc", 1, dag.width[node], int(rng.choice(WIDTHS)), node)
        node = dag.add("fc0.relu", "relu", 1, dag.width[node], dag.width[node], node)
    node = dag.add("fc", "fc", 1, dag.width[node], 3, node)
    dag.add("output", "output", 1, 3, 3, node)
    ckpt = ModelCheckpoint(tensors=dag.tensors, layers=dag.layers, edges=dag.edges)
    ckpt.validate()
    return ckpt, gaussian(make_rng(seed, "random-dag-probes"), (3, c_in, side, side))


def _unit_order(rng, group) -> np.ndarray:
    """A random order of the group's channel units, lifted to its channels."""
    units = rng.permutation(group.channels // group.channel_block)
    return expand_channel_permutation(units, group.channel_block).indices


def _as_set(groups) -> set:
    return {(g.parents, g.children, g.channels, g.channel_block) for g in groups}


def test_random_unit_orders_keep_the_function_of_random_architectures():
    worst, moved = 0.0, 0
    for seed in range(DAGS):
        ckpt, probes = random_dag(seed)
        rng = make_rng(seed, "random-dag-orders")
        everything = ckpt
        for group in resolve_groups(ckpt):
            order = _unit_order(rng, group)
            worst = max(worst, verify_equivalence(ckpt, apply_group_permutation(ckpt, group, order), probes))
            everything = apply_group_permutation(everything, group, order)
            moved += 1
        worst = max(worst, verify_equivalence(ckpt, everything, probes))
    assert worst <= 1e-9
    assert moved >= DAGS  # the DAGs expose groups to move


def test_random_architectures_group_the_same_in_any_declaration_order():
    for seed in range(DAGS):
        ckpt, _ = random_dag(seed)
        shuffled = [ckpt.layers[i] for i in make_rng(seed, "shuffle").permutation(len(ckpt.layers))]
        again = ModelCheckpoint(tensors=ckpt.tensors, layers=shuffled, edges=ckpt.edges)
        assert _as_set(resolve_groups(again)) == _as_set(resolve_groups(ckpt)), seed


def test_random_architectures_round_trip_their_shapes_or_fail_typed(tmp_path):
    # every loaded entry takes its geometry from its declared layer, reshapes included
    cfg = CompressionConfig(k=2, k_fc=2, src_iterations=2, perm_iterations=20)
    packed, streamed, in_memory = tmp_path / "m.pqfc", tmp_path / "s.pqfn", tmp_path / "m.pqfn"
    outcomes = {"kept": 0, "typed": 0}
    for seed in range(DAGS):
        ckpt, _ = random_dag(seed)
        try:
            model, _, _, _ = compress_model(ckpt, cfg, seed=seed)
        except PQFError:
            outcomes["typed"] += 1
            continue
        save_compressed(model, packed)
        loaded = load_compressed(packed)
        decompress_to_file(loaded, streamed)
        save_checkpoint(decompress_model(model), in_memory)
        assert streamed.read_bytes() == in_memory.read_bytes(), seed
        back = decompress_model(loaded)
        assert [(r.name, tuple(r.shape)) for r in back.tensors] == [
            (r.name, tuple(r.shape)) for r in ckpt.tensors
        ], seed
        outcomes["kept"] += 1
    assert outcomes["kept"] > 0 and outcomes["typed"] > 0, outcomes
