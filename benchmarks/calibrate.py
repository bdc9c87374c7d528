"""A fixed reference kernel that measures how fast the host is right now.

On a shared host the same op runs up to 1.7x slower for seconds to minutes
at a time, and the program's CPU time rises with it (the cores are shared,
not taken away), so no statistic over op times alone removes that drift.
The benchmark times this kernel next to every op and reports op times
scaled to the speed the host had when the reference times were measured:

    op_s = median over ops of  op seconds * reference seconds / kernel seconds

where the kernel seconds are the mean of the timings just before and just
after the op. The kernel never calls the program, so a faster program
lowers ``op_s`` and a busier host does not.

The kernel is made of parts, one for each kind of work the program does;
a workload picks the parts that resemble its ops:

- ``mlp``: many small numpy calls, a tiny MLP's forward and backward pass
  (as in fine-tuning);
- ``assign``: a nearest-codeword search (as in quantization);
- ``stream``: passes over arrays larger than the CPU's private caches (as in
  reading, writing and decoding checkpoints).
"""

from __future__ import annotations

import time

import numpy as np

# Median seconds of one call of each part on a 2-vCPU x86-64 host with
# numpy 2.4 and one BLAS thread, measured while that host was quiet.
PART_REFERENCE_S = {"mlp": 0.015, "assign": 0.015, "stream": 0.013}


class Calibration:
    """Callable; each call runs every part `reps` times and returns the seconds."""

    def __init__(self, parts=tuple(PART_REFERENCE_S), reps: int = 1):
        self.parts = [getattr(self, f"_{name}") for name in parts]
        self.reps = reps
        self.reference_s = reps * sum(PART_REFERENCE_S[name] for name in parts)
        gen = np.random.default_rng(20101570)
        self.x = gen.standard_normal((120, 8))
        self.labels = gen.integers(0, 4, 120)
        self.weights = [gen.standard_normal(s) * 0.3 for s in ((8, 16), (16, 16), (16, 4))]
        self.points = gen.standard_normal((500, 8))
        self.codebook = gen.standard_normal((256, 8))
        self.big = gen.standard_normal(1 << 20)  # 8 MB
        self.buf = np.empty_like(self.big)

    def _mlp(self, steps: int = 200):
        w1, w2, w3 = (w.copy() for w in self.weights)
        rows = np.arange(len(self.labels))
        for _ in range(steps):
            h1 = np.maximum(self.x @ w1, 0.0)
            h2 = np.maximum(h1 @ w2, 0.0)
            z = h2 @ w3
            p = np.exp(z - z.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            p[rows, self.labels] -= 1.0
            d2 = (p @ w3.T) * (h2 > 0)
            d1 = (d2 @ w2.T) * (h1 > 0)
            w3 -= 1e-4 * (h2.T @ p)
            w2 -= 1e-4 * (h1.T @ d2)
            w1 -= 1e-4 * (self.x.T @ d1)

    def _assign(self, passes: int = 3):
        for _ in range(passes):
            diff = self.points[:, None, :] - self.codebook[None, :, :]  # 8 MB
            np.einsum("nkd,nkd->nk", diff, diff).argmin(axis=1)

    def _stream(self, passes: int = 4):
        for _ in range(passes):
            np.multiply(self.big, self.big, out=self.buf)
            self.buf += 1.0
            np.sqrt(self.buf, out=self.buf)
            self.buf.sum()

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(self.reps):
            for part in self.parts:
                part()
        return time.perf_counter() - t0

    def scale(self, seconds: float, before: float, after: float) -> float:
        """`seconds` at reference speed, from this kernel's seconds just before and after."""
        return seconds * self.reference_s / ((before + after) / 2)
