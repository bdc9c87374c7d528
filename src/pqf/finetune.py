"""Desk-scale gradient fine-tuning of codebooks on self-contained toy nets.

The network evaluator runs directly on checkpoint metadata. It holds every
conv and fc weight as its `(C_in*K*K, C_out)` matrix, converted once when a
network is built from a checkpoint and back when one is written out, so dense
and conv layers are one matrix product, for a conv on pre-extracted patches
(stride 1, same padding). The other ops are relu, residual add, frozen
batchnorm affine, global average pooling, and channel-major flatten. A network
sorts its graph once, when it is built, into an execution plan that forward
and backward both walk; forward decodes each weighted layer once and backward
reuses that matrix. Backward passes are exact reverse-mode gradients of the
same ops, in float64 throughout, and form only the gradients their caller asks
for. One training loop serves both raw-weight training and codebook
fine-tuning. It copies every trainable tensor into one contiguous float64
vector and rebinds the network's arrays (`params` entries or codebooks) to
views of it, so each step writes all gradients into one flat gradient vector
and one fused run of in-place ufuncs is the Adam update. Fine-tuning moves
only codebook centroids: codes and permutations have no update path, so
decoded weights stay exact centroid copies. Each is one gather of its
codebook, and a weight gradient reaches the centroids through the same index
maps, all computed once per encoding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import layout
from .errors import DivergedLoss, ShapeMismatch
from .rng import gaussian, make_rng
from .tensor_io import WEIGHTED_KINDS, LayerMeta, ModelCheckpoint, tensor_record

# ---------------------------------------------------------------------------
# Toy datasets
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ToyDataset:
    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray


def _split(x, y, rng):
    """Shuffle, then hold out a quarter (at least one sample) for validation."""
    order = rng.permutation(x.shape[0])
    x, y = x[order], y[order]
    n_val = max(1, int(round(0.25 * x.shape[0])))
    return ToyDataset(x[n_val:], y[n_val:], x[:n_val], y[:n_val])


def _blobs(tag: str, center_scale: float, n_per_class: int, n_classes: int, shape, seed: int):
    """Class blobs of `shape`: seeded Gaussian centers, each with spread-0.6 samples."""
    rng = make_rng(seed, tag)
    shape = tuple(shape)
    centers = gaussian(rng, (n_classes,) + shape) * center_scale
    x = np.concatenate(
        [centers[c] + gaussian(rng, (n_per_class,) + shape) * 0.6 for c in range(n_classes)]
    )
    y = np.repeat(np.arange(n_classes), n_per_class)
    return _split(x, y, rng)


def gaussian_blobs(n_per_class: int, n_classes: int, dim: int, seed: int) -> ToyDataset:
    """Seeded Gaussian class blobs; regeneration is bit-identical."""
    return _blobs("blobs", 2.0, n_per_class, n_classes, (dim,), seed)


def blob_images(n_per_class: int, n_classes: int, shape=(2, 6, 6), seed: int = 0) -> ToyDataset:
    """Class-conditional Gaussian images for the toy conv pipeline."""
    return _blobs("blob-images", 1.5, n_per_class, n_classes, shape, seed)


# ---------------------------------------------------------------------------
# Toy networks over checkpoint metadata
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ToyNetwork:
    """Executable view of a checkpoint, with optional per-layer encodings."""

    layers: list
    edges: list
    params: dict  # layer name -> {"weight", "bias"} arrays; conv/fc weights as matrices
    encodings: dict = field(default_factory=dict)  # layer name -> LayerEncoding
    plan: list = field(init=False, repr=False)  # (meta, producer names), topological
    # layer name -> `decode_index` of its encoding; set only while
    # `finetune_codebooks` runs, when codes and permutations are frozen
    decode_indices: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        order = ModelCheckpoint([], self.layers, self.edges).topological_order()
        self.plan = [(meta, [p for p, c in self.edges if c == meta.name]) for meta in order]

    @classmethod
    def from_checkpoint(cls, ckpt: ModelCheckpoint, encodings=None) -> "ToyNetwork":
        params = {}
        for meta in ckpt.layers:
            entry = {}
            for part in ("weight", "bias"):
                rec = ckpt.tensor(f"{meta.name}.{part}")
                if rec is not None:
                    entry[part] = np.asarray(rec.data, dtype=np.float64)
            if meta.kind in WEIGHTED_KINDS and "weight" in entry:
                entry["weight"] = layout.reshape_weight(entry["weight"], meta.kind)
            if entry:
                params[meta.name] = entry
        return cls(
            layers=list(ckpt.layers),
            edges=list(ckpt.edges),
            params=params,
            encodings=dict(encodings or {}),
        )

    def to_checkpoint(self) -> ModelCheckpoint:
        """The checkpoint of the current weights, each in its stored layout and float32."""
        tensors = []
        for meta in self.layers:
            entry = self.params.get(meta.name, {})
            if meta.name in self.encodings or "weight" in entry:
                weight = self.decoded_weight(meta.name)
                if meta.kind in WEIGHTED_KINDS:
                    weight = layout.inverse_reshape(weight, meta.kind, meta.kernel_size)
                tensors.append(tensor_record(f"{meta.name}.weight", weight))
            if "bias" in entry:
                tensors.append(tensor_record(f"{meta.name}.bias", entry["bias"]))
        return ModelCheckpoint(tensors=tensors, layers=list(self.layers), edges=list(self.edges))

    def decoded_weight(self, name: str) -> np.ndarray:
        """The weight of `name`; a conv or fc weight is its `(C_in*K*K, C_out)` matrix.

        An encoded layer is one gather of its codebook, through the cached
        `decode_indices` entry while `finetune_codebooks` runs and through a
        fresh `decode_index` otherwise.
        """
        enc = self.encodings.get(name)
        if enc is None:
            return self.params[name]["weight"]
        index = self.decode_indices.get(name)
        return enc.codebook.take(decode_index(enc) if index is None else index)

    def bias(self, name: str):
        return self.params.get(name, {}).get("bias")


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """Stride-1, same-padded patches: (B*H*W, C*K*K), channel-major."""
    b, c, h, w = x.shape
    pad = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((b, h, w, c, k, k))
    for ki in range(k):
        for kj in range(k):
            cols[:, :, :, :, ki, kj] = xp[:, :, ki : ki + h, kj : kj + w].transpose(0, 2, 3, 1)
    return cols.reshape(b * h * w, c * k * k)


def _col2im(dcols: np.ndarray, x_shape, k: int) -> np.ndarray:
    b, c, h, w = x_shape
    pad = k // 2
    dxp = np.zeros((b, c, h + 2 * pad, w + 2 * pad))
    dc = dcols.reshape(b, h, w, c, k, k)
    for ki in range(k):
        for kj in range(k):
            dxp[:, :, ki : ki + h, kj : kj + w] += dc[:, :, :, :, ki, kj].transpose(0, 3, 1, 2)
    return dxp[:, :, pad : pad + h, pad : pad + w]


def forward(net: ToyNetwork, x) -> tuple:
    """Run the DAG; returns (logits, cache) with everything backward needs.

    Each fc or conv layer is one product of its input rows with its
    `(C_in*K*K, C_out)` weight matrix, read once from
    `ToyNetwork.decoded_weight`; a conv layer's rows are its `_im2col`
    patches, and its product is reshaped back to NCHW.
    """
    x = np.asarray(x, dtype=np.float64)
    values = {}
    cache = {"values": values, "weights": {}, "rows": {}}
    logits = None
    for meta, producers in net.plan:
        if meta.kind == "input":
            if x.ndim not in (2, 4) or x.shape[1] != meta.c_out:
                raise ShapeMismatch(f"input shape {x.shape} does not fit {meta.c_out} channels")
            values[meta.name] = x
            continue
        ins = [values[p] for p in producers]
        if meta.kind in ("fc", "conv"):
            (xin,) = ins
            spatial = meta.kind == "conv"
            if xin.ndim != (4 if spatial else 2) or xin.shape[1] != meta.c_in:
                dims = ", H, W" if spatial else ""
                raise ShapeMismatch(
                    f"{meta.kind} {meta.name!r} expects (B, {meta.c_in}{dims}), got {xin.shape}"
                )
            w = cache["weights"][meta.name] = net.decoded_weight(meta.name)
            rows = cache["rows"][meta.name] = _im2col(xin, meta.kernel_size) if spatial else xin
            out = rows @ w
            bias = net.bias(meta.name)
            if bias is not None:
                out += bias
            if spatial:
                b, _, h, width = xin.shape
                out = out.reshape(b, h, width, meta.c_out).transpose(0, 3, 1, 2)
            values[meta.name] = out
        elif meta.kind == "relu":
            (xin,) = ins
            values[meta.name] = np.maximum(xin, 0.0)
        elif meta.kind == "add":
            out = ins[0]
            for extra in ins[1:]:
                out = out + extra
            values[meta.name] = out
        elif meta.kind == "batchnorm":
            (xin,) = ins
            gamma = net.params[meta.name]["weight"]
            beta = net.params[meta.name]["bias"]
            shape = (1, -1) + (1,) * (xin.ndim - 2)
            values[meta.name] = xin * gamma.reshape(shape) + beta.reshape(shape)
        elif meta.kind == "pool":
            (xin,) = ins
            values[meta.name] = xin.mean(axis=(2, 3))
        elif meta.kind == "reshape":
            (xin,) = ins
            values[meta.name] = xin.reshape(xin.shape[0], -1)
        elif meta.kind == "output":
            (xin,) = ins
            values[meta.name] = xin
            logits = xin
        else:
            raise ShapeMismatch(f"evaluator does not support layer kind {meta.kind!r}")
    if logits is None:
        raise ShapeMismatch("network has no output node")
    cache["logits"] = logits
    return logits, cache


def softmax_cross_entropy(logits: np.ndarray, labels) -> tuple:
    """Mean cross-entropy and its gradient w.r.t. the logits."""
    n = logits.shape[0]
    picks = (np.arange(n), np.asarray(labels))
    probs = logits - logits.max(axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    picked = probs[picks]
    probs[picks] = picked - 1.0
    probs /= n
    picked += 1e-300
    # the sum over n is how np.mean rounds
    return float(-(np.log(picked, out=picked).sum() / n)), probs


def backward(net: ToyNetwork, cache: dict, labels, into: dict) -> tuple:
    """Softmax cross-entropy loss value plus exact parameter gradients.

    `into` is a dict of layer name -> {"weight": array, "bias": array} whose
    arrays are contiguous float64 and shaped like the parts. Backward
    computes only the gradients it names, writes each into its array and
    returns ``(loss, into)``. A value's gradient is formed only when a part
    to compute lies at or before it, so the network input gets none.
    """
    loss_value, upstream = softmax_cross_entropy(cache["logits"], labels)

    needed = set()  # values whose gradient reaches a part to compute
    for meta, producers in net.plan:
        if meta.name in into or not needed.isdisjoint(producers):
            needed.add(meta.name)

    values = cache["values"]
    dvalues = {}

    def push(name, grad):
        if name not in needed:
            return
        if name in dvalues:
            dvalues[name] = dvalues[name] + grad
        else:
            dvalues[name] = grad

    for meta, producers in reversed(net.plan):
        if meta.name not in needed:
            continue
        g = dvalues.get(meta.name)
        if meta.kind == "output":
            push(producers[0], upstream if g is None else g + upstream)
            continue
        if g is None:
            continue
        xin = values[producers[0]]
        if meta.kind in ("fc", "conv"):
            w, rows = cache["weights"][meta.name], cache["rows"][meta.name]
            if meta.kind == "conv":
                g = g.transpose(0, 2, 3, 1).reshape(-1, meta.c_out)
            asked = into.get(meta.name, {})
            dw = asked.get("weight")
            if dw is not None:
                np.matmul(rows.T, g, out=dw)
            db = asked.get("bias") if net.bias(meta.name) is not None else None
            if db is not None:
                np.add.reduce(g, 0, out=db)
            if producers[0] in needed:
                dx = g @ w.T
                if meta.kind == "conv":
                    dx = _col2im(dx, xin.shape, meta.kernel_size)
                push(producers[0], dx)
        elif meta.kind == "relu":
            push(producers[0], g * (xin > 0.0))
        elif meta.kind == "add":
            for p in producers:
                push(p, g)
        elif meta.kind == "batchnorm":
            gamma = net.params[meta.name]["weight"]
            axes = (0,) + tuple(range(2, xin.ndim))
            asked = into.get(meta.name, {})
            dgamma = asked.get("weight")
            if dgamma is not None:
                np.add.reduce(g * xin, axes, out=dgamma)
            dbeta = asked.get("bias")
            if dbeta is not None:
                np.add.reduce(g, axes, out=dbeta)
            if producers[0] in needed:
                shape = (1, -1) + (1,) * (xin.ndim - 2)
                push(producers[0], g * gamma.reshape(shape))
        elif meta.kind == "pool":
            _, _, h, w_sp = xin.shape
            push(producers[0], np.broadcast_to(g[:, :, None, None], xin.shape) / (h * w_sp))
        elif meta.kind == "reshape":
            push(producers[0], g.reshape(xin.shape))
    return loss_value, into


def centroid_maps(enc) -> tuple:
    """Index maps ``(positions, bins)`` from a weight-matrix gradient onto `enc`'s centroids.

    Both list the code grid in order, subvector by subvector and within each
    its `d` coordinates. ``positions`` holds the flat index into the
    `(C_in*K*K, C_out)` weight matrix of each coordinate: the row order
    (`enc.row_order()`) and subvector cut applied to a matrix of indices.
    ``bins`` holds ``code*d + j`` for coordinate `j`. Codes and unit orders
    are frozen in fine-tuning, so the maps are computed once per encoding.
    """
    m_hat, n = enc.codes.shape
    index = np.arange(m_hat * enc.d * n).reshape(-1, n)
    positions = layout.split_matrix(index[enc.row_order()], enc.d).ravel()
    bins = (enc.codes[:, :, None] * enc.d + np.arange(enc.d)).ravel()
    return positions, bins


def decode_index(enc, maps=None) -> np.ndarray:
    """The flat codebook index of every weight entry, in the `(C_in*K*K, C_out)` matrix shape.

    ``np.take(enc.codebook, decode_index(enc))`` holds ``codec.decode_layer(enc)``
    as that matrix, bit for bit and in the same dtype. The index inverts
    ``centroid_maps(enc)``, or `maps` when given: its positions list every
    matrix entry once, and its bins are the flat codebook entries they
    decode from.
    """
    positions, bins = centroid_maps(enc) if maps is None else maps
    index = np.empty(positions.size, np.intp)
    index[positions] = bins
    return index.reshape(-1, enc.codes.shape[1])


def centroid_gradients(weight_grad: np.ndarray, enc, maps=None) -> np.ndarray:
    """Push a weight-space gradient onto the codebook centroids.

    Centroid t accumulates the d-slices of the permuted weight-matrix
    gradient at every position assigned to t, in code-grid order; unused
    centroids get zero. One gather and one `bincount` over
    ``centroid_maps(enc)``, or over `maps` when given.
    """
    positions, bins = centroid_maps(enc) if maps is None else maps
    k_eff, d = enc.codebook.shape
    grads = np.bincount(bins, weights=np.take(weight_grad, positions), minlength=k_eff * d)
    return grads.reshape(k_eff, d)


# ---------------------------------------------------------------------------
# Adam with cosine annealing
# ---------------------------------------------------------------------------

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator guard


@dataclass(eq=False)
class OptimizerState:
    """First/second moment accumulators plus the cosine schedule endpoints."""

    lr: float = 1e-3
    lr_min: float = 1e-6
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def cosine_lr(state: OptimizerState, t: float) -> float:
    """Learning rate at schedule fraction ``t`` in [0, 1]."""
    return state.lr_min + 0.5 * (state.lr - state.lr_min) * (1.0 + np.cos(np.pi * t))


def adam_cosine_step(
    state: OptimizerState, params: np.ndarray, grad: np.ndarray, t: float
) -> np.ndarray:
    """One bias-corrected Adam update of the float64 array `params` in place at fraction `t`.

    In-place ufuncs in the order of ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + (1-b2)*g**2`` and ``params -= lr*m_hat / (sqrt(v_hat) + eps)``,
    so every element rounds as in that elementwise form.
    """
    state.step += 1
    lr = cosine_lr(state, t)
    b1, b2 = _BETA1, _BETA2
    if state.m is None:
        state.m, state.v = np.zeros_like(params), np.zeros_like(params)
    m, v = state.m, state.v
    work = np.multiply(grad, 1.0 - b1)
    m *= b1
    m += work
    np.square(grad, out=work)
    work *= 1.0 - b2
    v *= b2
    v += work
    update = np.divide(m, 1.0 - b1**state.step)  # m_hat
    np.divide(v, 1.0 - b2**state.step, out=work)  # v_hat
    np.sqrt(work, out=work)
    work += _EPS
    update *= lr
    update /= work
    params -= update
    return params


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------

def accuracy(net: ToyNetwork, x, y) -> float:
    logits, _ = forward(net, x)
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(y)))


@dataclass(eq=False)
class FinetuneTrace:
    train_loss: list
    val_acc: list
    lr: list


_FINETUNE_BATCH, _TRAIN_BATCH = 32, 64  # samples per step: codebook fine-tuning, raw training


def _epoch_batches(n: int, batch_size: int, rng) -> list:
    order = rng.permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


def _views(flat: np.ndarray, arrays: list) -> list:
    """Views of consecutive slices of `flat`, shaped like each of `arrays`."""
    ends = itertools.accumulate(a.size for a in arrays)
    return [flat[end - a.size : end].reshape(a.shape) for a, end in zip(arrays, ends)]


def _train(net, dataset, epochs, batch_size, lr, lr_min, seed, tag, tensors, bind):
    """Shuffled mini-batch Adam with cosine annealing over one flat vector.

    ``tensors`` are copied into one contiguous float64 vector and one flat
    gradient vector is kept beside it. ``bind(views, grad_views)`` gets
    views of both, shaped like ``tensors``, points the network at `views`
    and returns ``(into, pull)``: each step `backward` writes the gradients
    `into` names, then ``pull()``, unless None, carries them into
    `grad_views`. A gradient never written stays zero, which leaves its
    tensor unchanged. ``tag`` names the shuffle stream.
    """
    params = np.empty(sum(a.size for a in tensors))
    views = _views(params, tensors)
    for view, tensor in zip(views, tensors):
        view[...] = tensor
    grad = np.zeros_like(params)
    into, pull = bind(views, _views(grad, tensors))
    state = OptimizerState(lr=lr, lr_min=lr_min)
    n_train = dataset.train_x.shape[0]
    steps_total = max(1, epochs * max(1, -(-n_train // batch_size)))
    trace = FinetuneTrace([], [], [])
    step = 0
    for epoch in range(epochs):
        rng = make_rng(seed, tag, str(epoch))
        loss_sum = 0.0
        for batch in _epoch_batches(n_train, batch_size, rng):
            _, cache = forward(net, dataset.train_x[batch])
            loss = backward(net, cache, dataset.train_y[batch], into=into)[0]
            if not math.isfinite(loss):
                raise DivergedLoss(f"loss became {loss} at epoch {epoch}")
            t = step / max(1, steps_total - 1)
            if pull is not None:
                pull()
            adam_cosine_step(state, params, grad, t)
            step += 1
            loss_sum += loss * len(batch)
        trace.train_loss.append(loss_sum / n_train)
        trace.val_acc.append(accuracy(net, dataset.val_x, dataset.val_y))
        trace.lr.append(cosine_lr(state, min(1.0, step / max(1, steps_total - 1))))
    return trace


def finetune_codebooks(
    net: ToyNetwork,
    dataset: ToyDataset,
    epochs: int = 9,
    lr: float = 1e-3,
    lr_min: float = 1e-6,
    seed: int = 0,
) -> FinetuneTrace:
    """Fine-tune codebook centroids only, in batches of 32; codes and permutations are frozen.

    Since codes and permutations are frozen, each encoding's index maps are
    built once: `decode_index`, through which every forward decodes the
    layer by one gather of its codebook, and `centroid_maps`, which carry
    backward's weight gradient onto the centroids. Backward forms only the
    weight gradients of the encoded layers. There is no code update path,
    so decoded layers remain exact centroid copies throughout; the decode
    indices are dropped on return. Raises DivergedLoss if the training loss
    leaves the reals.
    """
    if not net.encodings:
        raise ValueError("network has no encoded layers to fine-tune")
    encodings = list(net.encodings.items())
    frozen_codes = {n: enc.codes.copy() for n, enc in encodings}
    frozen_units = {n: np.copy(enc.units) for n, enc in encodings}
    maps = [centroid_maps(enc) for _, enc in encodings]
    indices = {n: decode_index(enc, m) for (n, enc), m in zip(encodings, maps)}
    weight_grads = {n: {"weight": np.zeros(index.shape)} for n, index in indices.items()}

    def bind(views, grad_views):
        for (_, enc), view in zip(encodings, views):
            enc.codebook = view

        def pull():
            for (name, enc), enc_maps, view in zip(encodings, maps, grad_views):
                view[...] = centroid_gradients(weight_grads[name]["weight"], enc, enc_maps)

        return weight_grads, pull

    net.decode_indices = indices
    try:
        # a container's float32 codebook trains in float64, like a fresh one
        trace = _train(
            net, dataset, epochs, _FINETUNE_BATCH, lr, lr_min, seed, "finetune-shuffle",
            [enc.codebook for _, enc in encodings], bind,
        )
    finally:
        net.decode_indices = {}
    for name, enc in net.encodings.items():
        assert np.array_equal(enc.codes, frozen_codes[name]), "codes must stay frozen"
        assert np.array_equal(enc.units, frozen_units[name]), "unit orders must stay frozen"
    return trace


def train_network(
    net: ToyNetwork,
    dataset: ToyDataset,
    epochs: int = 100,
    seed: int = 0,
) -> FinetuneTrace:
    """Train raw dense/conv weights; a fixture step for demos and evals.

    Batches hold 64 samples and the rate anneals from 1e-2 to 1e-4.
    Backward writes the gradients straight into the flat gradient vector.
    """
    keys = [
        (meta.name, part)
        for meta in net.layers
        if meta.kind in WEIGHTED_KINDS
        for part in net.params.get(meta.name, {})
    ]

    def bind(views, grad_views):
        into = {}
        for (name, part), view, grad_view in zip(keys, views, grad_views):
            net.params[name][part] = view
            into.setdefault(name, {})[part] = grad_view
        return into, None

    return _train(
        net, dataset, epochs, _TRAIN_BATCH, 1e-2, 1e-4, seed, "train-shuffle",
        [net.params[name][part] for name, part in keys], bind,
    )


# ---------------------------------------------------------------------------
# Toy architecture builders
# ---------------------------------------------------------------------------

def _init_checkpoint(tag: str, seed: int, layers: list) -> ModelCheckpoint:
    """Wire and initialize a toy net from ``(name, kind, K, C_in, C_out, *extra_inputs)`` rows.

    Each layer reads the one declared before it, then its extra inputs, and
    the edges keep that order. The graph is checked before any draw; then,
    in declaration order, each conv and fc weight is He-initialized, each fc
    gets a zero bias, and each batchnorm draws a scale in [0.75, 1.25) and
    a shift of standard deviation 0.1.
    """
    metas = [LayerMeta(*row[:5]) for row in layers]
    edges = [(p, row[0]) for prev, row in zip(layers, layers[1:]) for p in (prev[0], *row[5:])]
    ckpt = ModelCheckpoint([], metas, edges)
    ckpt.validate()
    rng = make_rng(seed, tag)
    put = ckpt.tensors.append
    for m in metas:
        if m.kind in WEIGHTED_KINDS:
            m.has_bias = m.kind == "fc"
            w = gaussian(rng, layout.weight_shape(m.kind, m.c_in, m.c_out, m.kernel_size))
            put(tensor_record(f"{m.name}.weight", w * np.sqrt(2.0 / (m.c_in * m.kernel_size**2))))
            if m.has_bias:
                put(tensor_record(f"{m.name}.bias", np.zeros(m.c_out)))
        elif m.kind == "batchnorm":
            put(tensor_record(f"{m.name}.weight", 0.75 + 0.5 * rng.random(m.c_out)))
            put(tensor_record(f"{m.name}.bias", gaussian(rng, (m.c_out,)) * 0.1))
    return ckpt


def _same(name: str, kind: str, c: int, *extra_inputs) -> tuple:
    """A row for a layer that keeps its `c` channels."""
    return (name, kind, 1, c, c, *extra_inputs)


def make_mlp_checkpoint(sizes, seed: int = 0) -> ModelCheckpoint:
    """input -> [fc -> relu]* -> fc -> output, He-initialized.

    Raises `MalformedFile` naming the first fc layer with a width below 1.
    """
    layers = [_same("input", "input", sizes[0])]
    for i, (c_in, c_out) in enumerate(zip(sizes, sizes[1:]), 1):
        if i > 1:
            layers.append(_same(f"relu{i - 1}", "relu", c_in))
        layers.append((f"fc{i}", "fc", 1, c_in, c_out))
    return _init_checkpoint("mlp-init", seed, layers + [_same("output", "output", sizes[-1])])


def make_conv_classifier_checkpoint(
    channels=(2, 8, 8), kernel_size: int = 3, n_classes: int = 4, seed: int = 0
) -> ModelCheckpoint:
    """input -> [conv -> relu]* -> pool -> fc -> output."""
    layers = [_same("input", "input", channels[0])]
    for i, (c_in, c_out) in enumerate(zip(channels, channels[1:]), 1):
        layers += [(f"conv{i}", "conv", kernel_size, c_in, c_out), _same(f"relu{i}", "relu", c_out)]
    c = channels[-1]
    layers += [_same("pool", "pool", c), ("fc", "fc", 1, c, n_classes)]
    return _init_checkpoint("conv-init", seed, layers + [_same("output", "output", n_classes)])
