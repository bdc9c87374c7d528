"""Test-only helpers: container equality for round trips, container framing for hand edits,
a compressed model declaring its encoded layers, an encoding's row order, quantizer-error
and centroid-gradient oracles, the noise-free quantizer loop run to its last round, the
one-proposal-at-a-time swap search and its logdet and fold, the group-permutation oracles
(apply a group's permutation and its `BlockViolation`, check the function is unchanged, parse
a group listing), an all-gradients `into` for `backward`, a toy residual net, a narrowed
synthetic ResNet and a toy dataset."""

from __future__ import annotations

import importlib.resources as resources
import json
import zlib

import numpy as np

from pqf import finetune, layout, quantize, tensor_io
from pqf.codec import LayerEncoding
from pqf.errors import PQFError, ShapeMismatch, UnsupportedLayerKind
from pqf.finetune import ToyDataset, _init_checkpoint, _same, _split
from pqf.graph import PermutationGroup
from pqf.layout import channel_axis
from pqf.permsearch import _unit_rows
from pqf.rng import gaussian, make_rng
from pqf.tensor_io import (
    WEIGHTED_KINDS,
    CompressedModel,
    EncodedEntry,
    LayerMeta,
    ModelCheckpoint,
    TensorRecord,
)


def records_equal(a: TensorRecord, b: TensorRecord) -> bool:
    return (
        a.name == b.name
        and tuple(a.shape) == tuple(b.shape)
        and a.data.tobytes() == b.data.tobytes()
    )


def entries_equal(a, b) -> bool:
    """Same kind, fields and bytes; encoded entries compare their packed codes."""
    if type(a) is not type(b):
        return False
    if isinstance(a, TensorRecord):
        return records_equal(a, b)
    return (
        (a.name, a.d, a.k_eff) == (b.name, b.d, b.k_eff)
        and a.codebook.tobytes() == b.codebook.tobytes()
        and bytes(a.packed) == bytes(b.packed)
        and a.group == b.group
    )


def compressed_models_equal(a: CompressedModel, b: CompressedModel) -> bool:
    if len(a.entries) != len(b.entries):
        return False
    if [(m.name, m.kind) for m in a.layers] != [(m.name, m.kind) for m in b.layers]:
        return False
    if list(a.edges) != list(b.edges):
        return False
    if len(a.groups) != len(b.groups) or not all(map(np.array_equal, a.groups, b.groups)):
        return False
    return all(entries_equal(x, y) for x, y in zip(a.entries, b.entries))


def declared_model(entries, groups=()) -> CompressedModel:
    """A compressed model of `entries` that declares an input, each encoded entry's layer
    and an output, the fewest layers `CompressedModel.validate` accepts."""
    layers = [e.layer for e in entries if isinstance(e, EncodedEntry)]
    return CompressedModel(
        entries=list(entries),
        layers=[LayerMeta("input", "input", 1, 1, 1), *layers, LayerMeta("output", "output", 1, 1, 1)],
        groups=list(groups),
    )


def _sealed(raw: bytes) -> bool:
    """Whether a container ends in a checksum: every `.pqfc` does, no `.pqfn` does."""
    return raw[:4] == tensor_io.COMPRESSED_MAGIC


def split_container(raw: bytes) -> tuple:
    """A container's (manifest, payload bytes); a `.pqfc`'s checksum is not payload."""
    end = 16 + int.from_bytes(raw[8:16], "little")
    start = end + -end % tensor_io.ALIGN
    return json.loads(raw[16:end]), raw[start : len(raw) - 4 * _sealed(raw)]


def resealed(raw: bytes) -> bytes:
    """A `.pqfc`'s bytes with its last 4 replaced by the CRC-32 of all the others."""
    return raw[:-4] + zlib.crc32(raw[:-4]).to_bytes(4, "little")


def join_container(raw: bytes, manifest: dict, payload: bytes, reseal: bool = False) -> bytes:
    """`raw`'s magic and version framing `manifest` and `payload` again.

    The payload starts at the next multiple of `ALIGN`. A `.pqfc` ends in
    `raw`'s checksum or, with `reseal`, in its own, so that an edit made on
    purpose reaches the check it aims at rather than the checksum.
    """
    blob = json.dumps(manifest).encode()
    head = raw[:8] + len(blob).to_bytes(8, "little") + blob
    joined = head + bytes(-len(head) % tensor_io.ALIGN) + payload
    if not _sealed(raw):
        return joined
    joined += raw[-4:]
    return resealed(joined) if reseal else joined


def edit_container(path, edit_manifest=None, edit_payload=None, reseal: bool = True):
    """Rewrite a container file through `edit_manifest(manifest)` and
    `edit_payload(manifest, bytearray)`, both in place, then reseal it."""
    raw = path.read_bytes()
    manifest, payload = split_container(raw)
    payload = bytearray(payload)
    if edit_manifest is not None:
        edit_manifest(manifest)
    if edit_payload is not None:
        edit_payload(manifest, payload)
    path.write_bytes(join_container(raw, manifest, bytes(payload), reseal))


def row_order_oracle(enc: LayerEncoding) -> np.ndarray:
    """The layer-matrix row at each row of `enc`'s permuted matrix: its units' rows, in the
    order of `enc.units`, each unit a run of equally many consecutive rows."""
    rows = np.arange(enc.codes.shape[0] * enc.d)
    if enc.units is None:
        return rows
    return rows.reshape(len(enc.units), -1)[enc.units].ravel()


def quantization_error(weight, enc: LayerEncoding) -> float:
    """Mean squared error per subvector between P*W_r and its reconstruction."""
    permuted = layout.reshape_weight(weight, enc.layer.kind)[row_order_oracle(enc)]
    approx = layout.merge_matrix(np.asarray(enc.codebook, dtype=np.float64)[enc.codes])
    m_hat = permuted.shape[0] // enc.d
    return float(np.square(approx - permuted).sum() / (m_hat * permuted.shape[1]))


def noiseless_quantizer_oracle(pts, k_eff: int, iters: int, seed: int):
    """The noise-free quantizer loop, run for every one of its `iters` rounds.

    The same random start as `quantize.kmeans`, then (codebook update, code
    update) rounds with no early stop; returns ``(codes, codebook, error)``.
    """
    pts = np.asarray(pts, dtype=np.float64)
    codes = quantize._quantize_rng(seed).integers(0, k_eff, size=pts.shape[0], dtype=np.int64)
    codebook = quantize.update_codebook(pts, codes, k_eff)
    for _ in range(iters):
        codebook = quantize.update_codebook(pts, codes, k_eff)
        codes = quantize.assign_codes(pts, codebook)
    return codes, codebook, quantize.reconstruction_error(pts, codebook, codes)


def centroid_gradients_oracle(weight_grad, enc: LayerEncoding) -> np.ndarray:
    """Centroid gradients the long way: permute, cut, one `bincount` per coordinate.

    `weight_grad` is shaped like the `(C_in*K*K, C_out)` weight matrix. Each
    bin sums its weights in code-grid order, as the one `bincount` over
    index maps in `finetune.centroid_gradients` must, so the two agree bit
    for bit.
    """
    permuted = np.asarray(weight_grad)[row_order_oracle(enc)]
    pts = layout.split_matrix(permuted, enc.d).reshape(-1, enc.d)
    flat = enc.codes.ravel()
    out = np.zeros((enc.k_eff, enc.d))
    for j in range(enc.d):
        out[:, j] = np.bincount(flat, weights=pts[:, j], minlength=enc.k_eff)
    return out


def regularized_logdet_oracle(sigma: np.ndarray):
    """Logdet of ``sigma + eps*I`` through `np.linalg.cholesky`, one value per matrix of a stack.

    A stack that fails to factor is scored matrix by matrix, and a matrix
    that fails takes its eigenvalues, clipped at `eps`.
    """
    d = sigma.shape[-1]
    eps = 1e-12 * np.maximum(sigma.trace(axis1=-2, axis2=-1) / d, 1.0)
    a = sigma + eps[..., None, None] * np.eye(d)
    try:
        chol = np.linalg.cholesky(a)
        return 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
    except np.linalg.LinAlgError:
        if sigma.ndim > 2:
            return np.array([regularized_logdet_oracle(one) for one in sigma])
        eigs = np.linalg.eigvalsh(a)
        return np.log(np.clip(eigs, eps, None)).sum()


def logdets_oracle(total: np.ndarray) -> np.ndarray:
    """Regularized logdet of each child's covariance from its summed chunk moments."""
    d = total.shape[-1] - 1
    moments = total / total[..., d:, d:]
    mean = moments[..., d, :d]
    return regularized_logdet_oracle(moments[..., :d, :d] - mean[..., :, None] * mean[..., None, :])


def candidate_totals_oracle(moments, chunks, candidates) -> np.ndarray:
    """Summed chunk moments of each candidate, one candidate at a time.

    Candidate i's moments `candidates[i]` are written over the current chunks
    `chunks[i]` of a copy of `moments`, every chunk is summed, and the
    current ones are put back.
    """
    moments = moments.copy()
    totals = np.empty((len(chunks),) + moments.shape[1:])
    for i, touched in enumerate(chunks):
        saved = moments[touched]
        moments[touched] = candidates[i]
        moments.sum(axis=0, out=totals[i])
        moments[touched] = saved
    return totals


class _ScalarChunkMoments:
    """Chunk moments of children sharing one row order, kept one proposal at a time.

    The same moments as `permsearch._ChunkMoments`: `swap` recomputes the
    chunks holding two units and `undo` restores them.
    """

    def __init__(self, matrices, d: int, block: int, units: np.ndarray):
        self.d, self.block = d, block
        self.shifted = [np.vstack([matrix - matrix.mean(), np.ones(matrix.shape[1])])
                        for matrix in matrices]
        rows = _unit_rows(units, block)
        self.rows = np.hstack([rows.reshape(-1, d), np.full((rows.size // d, 1), rows.size)])
        self._slots = np.arange(rows.size) + np.arange(rows.size) // d  # row position -> rows.flat
        self.moments = self._moments(self.rows)

    def _moments(self, rows: np.ndarray) -> np.ndarray:
        out = np.empty((rows.shape[0], len(self.shifted), self.d + 1, self.d + 1))
        for c, shifted in enumerate(self.shifted):
            chunks = shifted[rows]
            np.einsum("tin,tjn->tij", chunks, chunks, out=out[:, c])
        return out

    def objectives(self) -> np.ndarray:
        d = self.d
        total = self.moments.sum(axis=0)
        moments = total / total[:, d:, d:]
        mean = moments[:, d, :d]
        return regularized_logdet_oracle(moments[:, :d, :d] - mean[:, :, None] * mean[:, None, :])

    def _swap_rows(self, a: int, b: int):
        g, flat = self.block, self.rows.reshape(-1)
        sa, sb = self._slots[a * g : (a + 1) * g], self._slots[b * g : (b + 1) * g]
        flat[sa], flat[sb] = flat[sb], flat[sa]

    def swap(self, a: int, b: int):
        g, d = self.block, self.d
        touched = sorted({*range(a * g // d, ((a + 1) * g - 1) // d + 1),
                          *range(b * g // d, ((b + 1) * g - 1) // d + 1)})
        self._saved = (a, b, touched, self.moments[touched])
        self._swap_rows(a, b)
        self.moments[touched] = self._moments(self.rows[touched])

    def undo(self):
        a, b, touched, moments = self._saved
        self._swap_rows(a, b)
        self.moments[touched] = moments


def scalar_swap_search(specs, units: np.ndarray, iters: int, seed: int) -> np.ndarray:
    """The swap search one proposal at a time: draw a pair, swap, score, undo if not lower.

    `specs` are ``(matrix, d, block)`` children; children with the same
    `(d, block)` share moments, as in `permsearch._families`. Returns a new
    unit order; `units` is left as it is.
    """
    by_shape = {}
    for matrix, d, block in specs:
        by_shape.setdefault((d, block), []).append(matrix)
    units = units.copy()
    families = [_ScalarChunkMoments(ms, d, block, units) for (d, block), ms in by_shape.items()]
    n = units.shape[0]
    if n < 2 or iters <= 0:
        return units
    current = sum(float(f.objectives().sum()) for f in families)
    rng = make_rng(seed, "perm-local-search")
    for _ in range(iters):
        a = int(rng.integers(n))
        b = int(rng.integers(n - 1))
        if b >= a:
            b += 1
        for family in families:
            family.swap(a, b)
        candidate = sum(float(f.objectives().sum()) for f in families)
        if candidate < current:
            current = candidate
            units[[a, b]] = units[[b, a]]
        else:
            for family in families:
                family.undo()
    return units


class BlockViolation(PQFError):
    """A permutation does not respect the group's contiguous channel blocks."""


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
    indices = np.asarray(permutation, dtype=np.int64)
    if indices.shape[0] != group.channels:
        raise ShapeMismatch(
            f"permutation covers {indices.shape[0]} channels, group has {group.channels}"
        )
    if not np.array_equal(np.sort(indices), np.arange(group.channels)):
        raise BlockViolation("indices are not a permutation")
    _check_block(indices, group.channel_block)

    out = ModelCheckpoint(
        tensors=[
            type(rec)(rec.name, tuple(rec.shape), rec.data.copy())
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

    def weight_axis(meta, side):
        if meta.kind not in WEIGHTED_KINDS:
            raise UnsupportedLayerKind(meta.kind)
        return channel_axis(meta.kind, side)

    for name in group.parents:
        meta = out.layer(name)
        axis = 0 if meta.kind == "batchnorm" else weight_axis(meta, "o")
        permute_tensor(f"{name}.weight", axis, meta.c_out)
        permute_tensor(f"{name}.bias", 0, meta.c_out)
    for name in group.children:
        meta = out.layer(name)
        permute_tensor(f"{name}.weight", weight_axis(meta, "i"), meta.c_in)
    return out


def verify_equivalence(ckpt_a: ModelCheckpoint, ckpt_b: ModelCheckpoint, probes) -> float:
    """Max absolute output difference between two checkpoints over probes."""
    net_a = finetune.ToyNetwork.from_checkpoint(ckpt_a)
    net_b = finetune.ToyNetwork.from_checkpoint(ckpt_b)
    x = np.asarray(probes, dtype=np.float64)
    out_a, _ = finetune.forward(net_a, x)
    out_b, _ = finetune.forward(net_b, x)
    if out_a.shape != out_b.shape:
        raise ShapeMismatch(f"outputs disagree in shape: {out_a.shape} vs {out_b.shape}")
    return float(np.max(np.abs(out_a - out_b))) if out_a.size else 0.0


def parse_groups_text(text: str) -> list:
    """Parse `graph.format_groups` output back into group tuples."""
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


def all_gradients(net: finetune.ToyNetwork) -> dict:
    """A `backward` `into` asking for every gradient: each part of every conv, deconv, fc and
    batchnorm layer, as a fresh float64 array shaped like the parameter."""
    return {
        meta.name: {part: np.empty(np.shape(array)) for part, array in net.params[meta.name].items()}
        for meta in net.layers
        if meta.kind in WEIGHTED_KINDS | {"batchnorm"}
    }


def make_residual_checkpoint(
    c_in: int = 3, width: int = 8, n_blocks: int = 2, kernel_size: int = 3, seed: int = 0
) -> ModelCheckpoint:
    """A small residual conv net: stem, add-blocks, pool, 4-class classifier."""
    w, k = width, kernel_size
    layers = [_same("input", "input", c_in), ("stem", "conv", k, c_in, w),
              _same("stem_bn", "batchnorm", w), _same("stem_relu", "relu", w)]
    for i in range(1, n_blocks + 1):
        b, skip = f"block{i}", layers[-1][0]
        layers += [(f"{b}.conv1", "conv", k, w, w), _same(f"{b}.bn1", "batchnorm", w),
                   _same(f"{b}.relu1", "relu", w), (f"{b}.conv2", "conv", k, w, w),
                   _same(f"{b}.bn2", "batchnorm", w), _same(f"{b}.add", "add", w, skip),
                   _same(f"{b}.relu2", "relu", w)]
    layers += [_same("pool", "pool", w), ("fc", "fc", 1, w, 4), _same("output", "output", 4)]
    return _init_checkpoint("residual-init", seed, layers)


def two_spirals(n_per_arm: int, seed: int, noise: float = 0.15) -> ToyDataset:
    """The classic interleaved two-spiral binary problem in 2-D."""
    rng = make_rng(seed, "spirals")
    t = np.sqrt(rng.random(n_per_arm)) * 3.0 * np.pi
    arm = np.stack([t * np.cos(t), t * np.sin(t)], axis=1) / (3.0 * np.pi)
    x = np.concatenate([arm, -arm]) + gaussian(rng, (2 * n_per_arm, 2)) * noise
    y = np.repeat(np.arange(2), n_per_arm)
    return _split(x, y, rng)


def synthetic_resnet(depth: int, divisor: int, seed: int) -> ModelCheckpoint:
    """The shipped ResNet-`depth` with every channel count but the 3 image channels divided by
    `divisor`; weights from `pqf.rng`, each input channel scaled by its own log-uniform factor."""
    arch = (resources.files("pqf") / "data" / f"resnet{depth}.arch").read_text()
    spec = tensor_io.parse_arch_spec(arch)
    layers, tensors = [], []
    for meta in spec.layers:
        c_in, c_out = (c if c == 3 else c // divisor for c in (meta.c_in, meta.c_out))
        has_bias = meta.kind == "fc" if meta.kind in WEIGHTED_KINDS else None
        layers.append(LayerMeta(meta.name, meta.kind, meta.kernel_size, c_in, c_out, has_bias))
        rng = make_rng(seed, f"r{depth}", meta.name)
        if meta.kind in WEIGHTED_KINDS:
            k = meta.kernel_size
            shape = (c_in, c_out, k, k) if meta.kind == "conv" else (c_in, c_out)
            scales = 10.0 ** (1.5 * (rng.random(c_in) - 0.5))
            weight = gaussian(rng, shape) * 0.05 * scales.reshape((c_in,) + (1,) * (len(shape) - 1))
            tensors.append(tensor_io.tensor_record(f"{meta.name}.weight", weight))
            if has_bias:
                tensors.append(tensor_io.tensor_record(f"{meta.name}.bias", gaussian(rng, (c_out,)) * 0.01))
        elif meta.kind == "batchnorm":
            tensors.append(tensor_io.tensor_record(f"{meta.name}.weight", 1.0 + 0.1 * gaussian(rng, (c_out,))))
            tensors.append(tensor_io.tensor_record(f"{meta.name}.bias", 0.1 * gaussian(rng, (c_out,))))
    return ModelCheckpoint(tensors=tensors, layers=layers, edges=list(spec.edges))
