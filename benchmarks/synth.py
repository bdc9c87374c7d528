"""Seeded synthetic checkpoints built from the shipped architecture specs.

Every channel count of the spec is divided by a width divisor, except the
three image channels of the network input. Weights are N(0, 0.05^2) with one
scale per input channel drawn log-uniformly over 1.5 decades, so rows differ
in variance and the permutation objective has real structure to find.
Batchnorm vectors are near (1, 0). All draws come from ``pqf.rng`` keyed by
the benchmark seed, so one seed always gives the same checkpoint bytes.
"""

from __future__ import annotations

from pathlib import Path

from pqf import rng as pqf_rng
from pqf import tensor_io

IMAGE_CHANNELS = 3
WEIGHT_STD = 0.05
SCALE_DECADES = 1.5


def arch_path(root: Path, arch: str) -> Path:
    return root / "src" / "pqf" / "data" / f"{arch}.arch"


def _narrow(c: int, divisor: int) -> int:
    if c == IMAGE_CHANNELS:
        return c
    if c % divisor:
        raise ValueError(f"width divisor {divisor} does not divide {c} channels")
    return c // divisor


def synthetic_checkpoint(arch_text: str, divisor: int, seed: int) -> tensor_io.ModelCheckpoint:
    """A checkpoint with the spec's DAG, narrowed by `divisor`, weights from `seed`."""
    spec = tensor_io.parse_arch_spec(arch_text)
    layers, tensors = [], []
    for meta in spec.layers:
        c_in, c_out = _narrow(meta.c_in, divisor), _narrow(meta.c_out, divisor)
        has_bias = meta.kind == "fc" if meta.kind in tensor_io.WEIGHTED_KINDS else None
        layers.append(
            tensor_io.LayerMeta(meta.name, meta.kind, meta.kernel_size, c_in, c_out, has_bias)
        )
        rng = pqf_rng.make_rng(seed, "bench-synth", meta.name)
        if meta.kind in tensor_io.WEIGHTED_KINDS:
            k = meta.kernel_size
            shape = (c_in, c_out, k, k) if meta.kind == "conv" else (c_in, c_out)
            scales = 10.0 ** (SCALE_DECADES * (rng.random(c_in) - 0.5))
            w = pqf_rng.gaussian(rng, shape) * WEIGHT_STD
            w *= scales.reshape((c_in,) + (1,) * (len(shape) - 1))
            tensors.append(tensor_io.tensor_record(f"{meta.name}.weight", w))
            if meta.kind == "fc":
                tensors.append(
                    tensor_io.tensor_record(f"{meta.name}.bias", pqf_rng.gaussian(rng, (c_out,)) * 0.01)
                )
        elif meta.kind == "batchnorm":
            tensors.append(
                tensor_io.tensor_record(f"{meta.name}.weight", 1.0 + 0.1 * pqf_rng.gaussian(rng, (c_out,)))
            )
            tensors.append(
                tensor_io.tensor_record(f"{meta.name}.bias", 0.1 * pqf_rng.gaussian(rng, (c_out,)))
            )
    ckpt = tensor_io.ModelCheckpoint(tensors=tensors, layers=layers, edges=list(spec.edges))
    ckpt.validate()
    return ckpt


def write_checkpoint(root: Path, arch: str, divisor: int, seed: int, out: Path) -> int:
    """Generate and save one checkpoint; returns the bytes written."""
    ckpt = synthetic_checkpoint(arch_path(root, arch).read_text(), divisor, seed)
    return tensor_io.save_checkpoint(ckpt, out)
