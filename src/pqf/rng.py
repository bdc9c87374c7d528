"""Seeded, platform-stable randomness helpers.

Every stochastic routine in the package draws from a counter-based Philox
generator keyed by a user seed plus string tags, and Gaussian variates are
produced by an explicit Box-Muller transform over Philox uniforms. This keeps
results reproducible across runs, thread counts, and platforms without
depending on the default bit generator or its normal-sampling algorithm.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _tag_entropy(tag: str) -> int:
    digest = hashlib.blake2s(tag.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def make_rng(seed: int, *tags: str) -> np.random.Generator:
    """Build a Philox generator keyed by `seed` and optional string tags."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    entropy.extend(_tag_entropy(t) for t in tags)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def derive_seed(seed: int, *tags: str) -> int:
    """Derive a stable child seed for a named subtask."""
    h = hashlib.blake2s(digest_size=8)
    h.update(int(seed).to_bytes(8, "little", signed=True))
    for t in tags:
        h.update(b"\x00")
        h.update(t.encode("utf-8"))
    return int.from_bytes(h.digest(), "little") >> 1


def gaussian(rng: np.random.Generator, shape, out=None) -> np.ndarray:
    """Standard normal samples via Box-Muller over Philox uniforms.

    The first half of the values are ``r cos(theta)`` and the rest
    ``r sin(theta)``, for ``(n + 1) // 2`` uniform pairs; an odd count drops
    the last sine. Every step writes in place into the output, which `out`
    (a contiguous float64 array of `shape`, else `ValueError`) can supply,
    plus one temporary of half its size.
    """
    shape = tuple(shape) if np.iterable(shape) else (shape,)
    n = int(np.prod(shape))
    half = (n + 1) // 2
    if out is None:
        out = np.empty(shape)
    elif out.dtype != np.float64 or not out.flags.c_contiguous or out.shape != shape:
        raise ValueError(f"{shape} normals need a contiguous float64 buffer of that shape")
    flat = out.reshape(n)  # a view: `out` is contiguous
    radius, sines = flat[:half], flat[half:]
    # 1 - U keeps the log argument in (0, 1].
    rng.random(out=radius)
    np.subtract(1.0, radius, out=radius)
    np.log(radius, out=radius)
    np.multiply(radius, -2.0, out=radius)
    np.sqrt(radius, out=radius)
    theta = rng.random(half)
    np.multiply(theta, 2.0 * np.pi, out=theta)
    np.sin(theta[: n - half], out=sines)
    np.multiply(sines, radius[: n - half], out=sines)
    np.cos(theta, out=theta)
    np.multiply(radius, theta, out=radius)
    return out
