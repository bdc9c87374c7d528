"""Desk-scale gradient fine-tuning of codebooks on self-contained toy nets.

The network evaluator runs directly on checkpoint metadata: dense layers are
matrix products, convolutions are matrix products on pre-extracted patches
(stride 1, same padding), plus relu, residual add, frozen batchnorm affine,
global average pooling, and channel-major flatten. A network sorts its graph
once, when it is built, into an execution plan that forward and backward both
walk; forward decodes each weighted layer once and backward reuses that matrix.
Backward passes are exact reverse-mode gradients of the same ops, in float64
throughout. One training loop serves both raw-weight training and codebook
fine-tuning. Fine-tuning moves only codebook centroids: codes and permutations
have no update path, so decoded weights stay exact centroid copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import codec, layout
from .errors import DivergedLoss, ShapeMismatch
from .permsearch import subvector_points
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

    @property
    def n_classes(self) -> int:
        return int(max(self.train_y.max(), self.val_y.max())) + 1


def _split(x, y, val_fraction, rng):
    order = rng.permutation(x.shape[0])
    x, y = x[order], y[order]
    n_val = max(1, int(round(val_fraction * x.shape[0])))
    return ToyDataset(x[n_val:], y[n_val:], x[:n_val], y[:n_val])


def gaussian_blobs(
    n_per_class: int,
    n_classes: int,
    dim: int,
    seed: int,
    center_scale: float = 2.0,
    spread: float = 0.6,
    val_fraction: float = 0.25,
) -> ToyDataset:
    """Seeded Gaussian class blobs; regeneration is bit-identical."""
    rng = make_rng(seed, "blobs")
    centers = gaussian(rng, (n_classes, dim)) * center_scale
    x = np.concatenate(
        [centers[c] + gaussian(rng, (n_per_class, dim)) * spread for c in range(n_classes)]
    )
    y = np.repeat(np.arange(n_classes), n_per_class)
    return _split(x, y, val_fraction, rng)


def blob_images(
    n_per_class: int,
    n_classes: int,
    shape=(2, 6, 6),
    seed: int = 0,
    center_scale: float = 1.5,
    spread: float = 0.6,
    val_fraction: float = 0.25,
) -> ToyDataset:
    """Class-conditional Gaussian images for the toy conv pipeline."""
    rng = make_rng(seed, "blob-images")
    centers = gaussian(rng, (n_classes,) + tuple(shape)) * center_scale
    x = np.concatenate(
        [centers[c] + gaussian(rng, (n_per_class,) + tuple(shape)) * spread for c in range(n_classes)]
    )
    y = np.repeat(np.arange(n_classes), n_per_class)
    return _split(x, y, val_fraction, rng)


def two_spirals(n_per_arm: int, seed: int, noise: float = 0.15) -> ToyDataset:
    """The classic interleaved two-spiral binary problem in 2-D."""
    rng = make_rng(seed, "spirals")
    t = np.sqrt(rng.random(n_per_arm)) * 3.0 * np.pi
    arm = np.stack([t * np.cos(t), t * np.sin(t)], axis=1) / (3.0 * np.pi)
    x = np.concatenate([arm, -arm]) + gaussian(rng, (2 * n_per_arm, 2)) * noise
    y = np.repeat(np.arange(2), n_per_arm)
    return _split(x, y, 0.25, rng)


# ---------------------------------------------------------------------------
# Toy networks over checkpoint metadata
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ToyNetwork:
    """Executable view of a checkpoint, with optional per-layer encodings."""

    layers: list
    edges: list
    params: dict  # layer name -> {"weight": array, "bias": array}
    encodings: dict = field(default_factory=dict)  # layer name -> LayerEncoding
    plan: list = field(init=False, repr=False)  # (meta, producer names), topological

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
            if entry:
                params[meta.name] = entry
        return cls(
            layers=list(ckpt.layers),
            edges=list(ckpt.edges),
            params=params,
            encodings=dict(encodings or {}),
        )

    def to_checkpoint(self) -> ModelCheckpoint:
        tensors = []
        for meta in self.layers:
            entry = self.params.get(meta.name, {})
            if meta.name in self.encodings:
                tensors.append(
                    tensor_record(f"{meta.name}.weight", self.decoded_weight(meta.name))
                )
            elif "weight" in entry:
                tensors.append(tensor_record(f"{meta.name}.weight", entry["weight"]))
            if "bias" in entry:
                tensors.append(tensor_record(f"{meta.name}.bias", entry["bias"]))
        return ModelCheckpoint(tensors=tensors, layers=list(self.layers), edges=list(self.edges))

    def decoded_weight(self, name: str) -> np.ndarray:
        if name in self.encodings:
            return codec.decode_layer(self.encodings[name])
        return self.params[name]["weight"]

    def bias(self, name: str):
        return self.params.get(name, {}).get("bias")


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """Stride-1, same-padded patches: (B, H, W, C*K*K), channel-major."""
    b, c, h, w = x.shape
    pad = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((b, h, w, c, k, k))
    for ki in range(k):
        for kj in range(k):
            cols[:, :, :, :, ki, kj] = xp[:, :, ki : ki + h, kj : kj + w].transpose(0, 2, 3, 1)
    return cols.reshape(b, h, w, c * k * k)


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
    """Run the DAG; returns (logits, cache) with everything backward needs."""
    x = np.asarray(x, dtype=np.float64)
    values = {}
    cache = {"values": values, "weights": {}, "patches": {}}
    logits = None
    for meta, producers in net.plan:
        if meta.kind == "input":
            if x.ndim not in (2, 4) or x.shape[1] != meta.c_out:
                raise ShapeMismatch(f"input shape {x.shape} does not fit {meta.c_out} channels")
            values[meta.name] = x
            continue
        ins = [values[p] for p in producers]
        if meta.kind == "fc":
            (xin,) = ins
            if xin.ndim != 2 or xin.shape[1] != meta.c_in:
                raise ShapeMismatch(f"fc {meta.name!r} expects (B, {meta.c_in}), got {xin.shape}")
            w = cache["weights"][meta.name] = net.decoded_weight(meta.name)
            out = xin @ w
            bias = net.bias(meta.name)
            if bias is not None:
                out = out + bias
            values[meta.name] = out
        elif meta.kind in ("conv",):
            (xin,) = ins
            if xin.ndim != 4 or xin.shape[1] != meta.c_in:
                raise ShapeMismatch(
                    f"conv {meta.name!r} expects (B, {meta.c_in}, H, W), got {xin.shape}"
                )
            rw = layout.reshape_conv(net.decoded_weight(meta.name))
            cache["weights"][meta.name] = rw.matrix
            cols = _im2col(xin, meta.kernel_size)
            b, h, ww = cols.shape[0], cols.shape[1], cols.shape[2]
            out = cols.reshape(-1, rw.rows) @ rw.matrix
            bias = net.bias(meta.name)
            if bias is not None:
                out = out + bias
            values[meta.name] = out.reshape(b, h, ww, meta.c_out).transpose(0, 3, 1, 2)
            cache["patches"][meta.name] = cols
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
    labels = np.asarray(labels)
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    probs = expd / expd.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    loss = float(-np.mean(np.log(probs[np.arange(n), labels] + 1e-300)))
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def mse_loss(outputs: np.ndarray, targets) -> tuple:
    """Per-sample summed squared error, averaged over the batch."""
    targets = np.asarray(targets, dtype=np.float64)
    diff = outputs - targets
    n = outputs.shape[0]
    return float(np.square(diff).sum() / n), 2.0 * diff / n


def backward(net: ToyNetwork, cache: dict, labels, loss: str = "ce") -> tuple:
    """Loss value plus exact gradients for every parameterized layer."""
    logits = cache["logits"]
    if loss == "ce":
        loss_value, upstream = softmax_cross_entropy(logits, labels)
    elif loss == "mse":
        loss_value, upstream = mse_loss(logits, labels)
    else:
        raise ValueError(f"unknown loss {loss!r}")

    values = cache["values"]
    grads = {}
    dvalues = {}

    def push(name, grad):
        if name in dvalues:
            dvalues[name] = dvalues[name] + grad
        else:
            dvalues[name] = grad

    for meta, producers in reversed(net.plan):
        if meta.kind == "input":
            continue
        g = dvalues.get(meta.name)
        if meta.kind == "output":
            push(producers[0], upstream if g is None else g + upstream)
            continue
        if g is None:
            continue
        xin = values[producers[0]]
        if meta.kind == "fc":
            entry = {"weight": xin.T @ g}
            if net.bias(meta.name) is not None:
                entry["bias"] = g.sum(axis=0)
            grads[meta.name] = entry
            push(producers[0], g @ cache["weights"][meta.name].T)
        elif meta.kind == "conv":
            cols = cache["patches"][meta.name]
            b, h, w_sp = cols.shape[0], cols.shape[1], cols.shape[2]
            gmat = g.transpose(0, 2, 3, 1).reshape(-1, meta.c_out)
            dmatrix = cols.reshape(-1, cols.shape[3]).T @ gmat
            rw = layout.ReshapedWeight(
                dmatrix, meta.kernel_size, meta.c_in, meta.c_out, "conv"
            )
            entry = {"weight": layout.inverse_reshape(rw)}
            if net.bias(meta.name) is not None:
                entry["bias"] = gmat.sum(axis=0)
            grads[meta.name] = entry
            dcols = gmat @ cache["weights"][meta.name].T
            push(producers[0], _col2im(dcols.reshape(b, h, w_sp, -1), xin.shape, meta.kernel_size))
        elif meta.kind == "relu":
            push(producers[0], g * (xin > 0.0))
        elif meta.kind == "add":
            for p in producers:
                push(p, g)
        elif meta.kind == "batchnorm":
            gamma = net.params[meta.name]["weight"]
            axes = (0,) + tuple(range(2, xin.ndim))
            grads[meta.name] = {
                "weight": (g * xin).sum(axis=axes),
                "bias": g.sum(axis=axes),
            }
            shape = (1, -1) + (1,) * (xin.ndim - 2)
            push(producers[0], g * gamma.reshape(shape))
        elif meta.kind == "pool":
            _, _, h, w_sp = xin.shape
            push(producers[0], np.broadcast_to(g[:, :, None, None], xin.shape) / (h * w_sp))
        elif meta.kind == "reshape":
            push(producers[0], g.reshape(xin.shape))
    return loss_value, grads


def centroid_gradients(weight_grad: np.ndarray, enc) -> np.ndarray:
    """Push a weight-space gradient onto the codebook centroids.

    Centroid t accumulates the d-slices of the (reshaped, permuted) weight
    gradient at every position assigned to t; unused centroids get zero.
    """
    rw = layout.reshape_weight(weight_grad, enc.source_kind)
    permuted = enc.permutation.apply_rows(rw.matrix)
    pts = subvector_points(permuted, enc.d)
    flat = enc.codes.ravel()
    out = np.zeros((enc.k_eff, enc.d))
    for j in range(enc.d):
        out[:, j] = np.bincount(flat, weights=pts[:, j], minlength=enc.k_eff)
    return out


# ---------------------------------------------------------------------------
# Adam with cosine annealing
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class OptimizerState:
    """First/second moment accumulators plus the cosine schedule endpoints."""

    lr: float = 1e-3
    lr_min: float = 1e-6
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def cosine_lr(state: OptimizerState, t: float) -> float:
    """Learning rate at schedule fraction ``t`` in [0, 1]."""
    return state.lr_min + 0.5 * (state.lr - state.lr_min) * (1.0 + np.cos(np.pi * t))


def adam_cosine_step(state: OptimizerState, tensors: dict, grads: dict, t: float) -> dict:
    """One bias-corrected Adam update of `tensors` in place at fraction `t`."""
    state.step += 1
    lr = cosine_lr(state, t)
    b1, b2 = state.beta1, state.beta2
    for name, grad in grads.items():
        tensor = tensors[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(tensor)
            state.v[name] = np.zeros_like(tensor)
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * grad
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * np.square(grad)
        m_hat = state.m[name] / (1.0 - b1**state.step)
        v_hat = state.v[name] / (1.0 - b2**state.step)
        tensor -= lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return tensors


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


def _epoch_batches(n: int, batch_size: int, rng) -> list:
    order = rng.permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


def _train(net, dataset, epochs, batch_size, lr, lr_min, seed, tag, tensors, tensor_grads):
    """Shuffled mini-batch Adam with cosine annealing over ``tensors``.

    ``tensor_grads`` maps backward's per-layer gradients onto the keys of
    ``tensors``; ``tag`` names the shuffle stream.
    """
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
            loss, grads = backward(net, cache, dataset.train_y[batch])
            if not np.isfinite(loss):
                raise DivergedLoss(f"loss became {loss} at epoch {epoch}")
            t = step / max(1, steps_total - 1)
            adam_cosine_step(state, tensors, tensor_grads(grads), t)
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
    batch_size: int = 32,
    lr: float = 1e-3,
    lr_min: float = 1e-6,
    seed: int = 0,
) -> FinetuneTrace:
    """Fine-tune codebook centroids only; codes and permutations are frozen.

    Gradients reach centroids through the decoded weights; there is no code
    update path, so decoded layers remain exact centroid copies throughout.
    Raises DivergedLoss if the training loss leaves the reals.
    """
    if not net.encodings:
        raise ValueError("network has no encoded layers to fine-tune")
    frozen_codes = {n: enc.codes.copy() for n, enc in net.encodings.items()}
    frozen_perms = {n: enc.permutation.indices.copy() for n, enc in net.encodings.items()}

    def codebook_grads(grads):
        return {
            name: centroid_gradients(grads[name]["weight"], enc)
            for name, enc in net.encodings.items()
            if name in grads
        }

    codebooks = {n: enc.codebook for n, enc in net.encodings.items()}
    trace = _train(
        net, dataset, epochs, batch_size, lr, lr_min, seed,
        "finetune-shuffle", codebooks, codebook_grads,
    )
    for name, enc in net.encodings.items():
        assert np.array_equal(enc.codes, frozen_codes[name]), "codes must stay frozen"
        assert np.array_equal(
            enc.permutation.indices, frozen_perms[name]
        ), "permutations must stay frozen"
    return trace


def train_network(
    net: ToyNetwork,
    dataset: ToyDataset,
    epochs: int = 100,
    batch_size: int = 64,
    lr: float = 1e-2,
    lr_min: float = 1e-4,
    seed: int = 0,
) -> FinetuneTrace:
    """Train raw dense/conv weights; a fixture step for demos and evals."""
    tensors = {
        f"{meta.name}.{part}": arr
        for meta in net.layers
        if meta.kind in WEIGHTED_KINDS
        for part, arr in net.params.get(meta.name, {}).items()
    }

    def flat_grads(grads):
        return {
            f"{lname}.{part}": grad
            for lname, entry in grads.items()
            for part, grad in entry.items()
            if f"{lname}.{part}" in tensors
        }

    return _train(
        net, dataset, epochs, batch_size, lr, lr_min, seed, "train-shuffle", tensors, flat_grads
    )


# ---------------------------------------------------------------------------
# Toy architecture builders
# ---------------------------------------------------------------------------

def make_mlp_checkpoint(sizes, seed: int = 0, prefix: str = "fc") -> ModelCheckpoint:
    """input -> [fc -> relu]* -> fc -> output, He-initialized."""
    rng = make_rng(seed, "mlp-init")
    layers = [LayerMeta("input", "input", 1, sizes[0], sizes[0])]
    edges = []
    tensors = []
    prev = "input"
    for i in range(len(sizes) - 1):
        name = f"{prefix}{i + 1}"
        layers.append(LayerMeta(name, "fc", 1, sizes[i], sizes[i + 1]))
        edges.append((prev, name))
        w = gaussian(rng, (sizes[i], sizes[i + 1])) * np.sqrt(2.0 / sizes[i])
        tensors.append(tensor_record(f"{name}.weight", w))
        tensors.append(tensor_record(f"{name}.bias", np.zeros(sizes[i + 1])))
        prev = name
        if i < len(sizes) - 2:
            rname = f"relu{i + 1}"
            layers.append(LayerMeta(rname, "relu", 1, sizes[i + 1], sizes[i + 1]))
            edges.append((prev, rname))
            prev = rname
    layers.append(LayerMeta("output", "output", 1, sizes[-1], sizes[-1]))
    edges.append((prev, "output"))
    ckpt = ModelCheckpoint(tensors=tensors, layers=layers, edges=edges)
    for meta in ckpt.layers:
        if meta.kind == "fc":
            meta.has_bias = True
    return ckpt


def make_conv_classifier_checkpoint(
    channels=(2, 8, 8), kernel_size: int = 3, n_classes: int = 4, seed: int = 0
) -> ModelCheckpoint:
    """input -> [conv -> relu]* -> pool -> fc -> output."""
    rng = make_rng(seed, "conv-init")
    layers = [LayerMeta("input", "input", 1, channels[0], channels[0])]
    edges, tensors = [], []
    prev = "input"
    for i in range(len(channels) - 1):
        name = f"conv{i + 1}"
        c_in, c_out = channels[i], channels[i + 1]
        layers.append(LayerMeta(name, "conv", kernel_size, c_in, c_out))
        edges.append((prev, name))
        fan_in = c_in * kernel_size**2
        w = gaussian(rng, (c_in, c_out, kernel_size, kernel_size)) * np.sqrt(2.0 / fan_in)
        tensors.append(tensor_record(f"{name}.weight", w))
        rname = f"relu{i + 1}"
        layers.append(LayerMeta(rname, "relu", 1, c_out, c_out))
        edges.append((name, rname))
        prev = rname
    layers.append(LayerMeta("pool", "pool", 1, channels[-1], channels[-1]))
    edges.append((prev, "pool"))
    layers.append(LayerMeta("fc", "fc", 1, channels[-1], n_classes))
    edges.append(("pool", "fc"))
    w = gaussian(rng, (channels[-1], n_classes)) * np.sqrt(2.0 / channels[-1])
    tensors.append(tensor_record("fc.weight", w))
    tensors.append(tensor_record("fc.bias", np.zeros(n_classes)))
    layers.append(LayerMeta("output", "output", 1, n_classes, n_classes))
    edges.append(("fc", "output"))
    ckpt = ModelCheckpoint(tensors=tensors, layers=layers, edges=edges)
    ckpt.layer("fc").has_bias = True
    return ckpt


def make_residual_checkpoint(
    c_in: int = 3,
    width: int = 8,
    n_blocks: int = 2,
    kernel_size: int = 3,
    n_classes: int = 4,
    seed: int = 0,
    with_batchnorm: bool = True,
) -> ModelCheckpoint:
    """A small residual conv net: stem, add-blocks, pool, classifier."""
    rng = make_rng(seed, "residual-init")
    layers, edges, tensors = [], [], []

    def conv(name, ci, co, k):
        layers.append(LayerMeta(name, "conv", k, ci, co))
        fan_in = ci * k**2
        tensors.append(
            tensor_record(f"{name}.weight", gaussian(rng, (ci, co, k, k)) * np.sqrt(2.0 / fan_in))
        )

    def bn(name, c):
        layers.append(LayerMeta(name, "batchnorm", 1, c, c))
        tensors.append(tensor_record(f"{name}.weight", 0.75 + 0.5 * rng.random(c)))
        tensors.append(tensor_record(f"{name}.bias", gaussian(rng, (c,)) * 0.1))

    layers.append(LayerMeta("input", "input", 1, c_in, c_in))
    conv("stem", c_in, width, kernel_size)
    edges.append(("input", "stem"))
    prev = "stem"
    if with_batchnorm:
        bn("stem_bn", width)
        edges.append(("stem", "stem_bn"))
        prev = "stem_bn"
    layers.append(LayerMeta("stem_relu", "relu", 1, width, width))
    edges.append((prev, "stem_relu"))
    prev = "stem_relu"

    for i in range(n_blocks):
        base = f"block{i + 1}"
        conv(f"{base}.conv1", width, width, kernel_size)
        edges.append((prev, f"{base}.conv1"))
        last = f"{base}.conv1"
        if with_batchnorm:
            bn(f"{base}.bn1", width)
            edges.append((last, f"{base}.bn1"))
            last = f"{base}.bn1"
        layers.append(LayerMeta(f"{base}.relu1", "relu", 1, width, width))
        edges.append((last, f"{base}.relu1"))
        conv(f"{base}.conv2", width, width, kernel_size)
        edges.append((f"{base}.relu1", f"{base}.conv2"))
        last = f"{base}.conv2"
        if with_batchnorm:
            bn(f"{base}.bn2", width)
            edges.append((last, f"{base}.bn2"))
            last = f"{base}.bn2"
        layers.append(LayerMeta(f"{base}.add", "add", 1, width, width))
        edges.append((last, f"{base}.add"))
        edges.append((prev, f"{base}.add"))
        layers.append(LayerMeta(f"{base}.relu2", "relu", 1, width, width))
        edges.append((f"{base}.add", f"{base}.relu2"))
        prev = f"{base}.relu2"

    layers.append(LayerMeta("pool", "pool", 1, width, width))
    edges.append((prev, "pool"))
    layers.append(LayerMeta("fc", "fc", 1, width, n_classes))
    edges.append(("pool", "fc"))
    tensors.append(
        tensor_record("fc.weight", gaussian(rng, (width, n_classes)) * np.sqrt(2.0 / width))
    )
    tensors.append(tensor_record("fc.bias", np.zeros(n_classes)))
    layers.append(LayerMeta("output", "output", 1, n_classes, n_classes))
    edges.append(("fc", "output"))
    ckpt = ModelCheckpoint(tensors=tensors, layers=layers, edges=edges)
    ckpt.layer("fc").has_bias = True
    return ckpt
