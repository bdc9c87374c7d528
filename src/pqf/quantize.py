"""Codebook learning: plain k-means and its annealed stochastic relaxation.

Both quantizers start from uniformly random code assignments and alternate a
codebook update (cluster means, with empty clusters re-seeded to the worst
reconstructed subvector) and a nearest-centroid code update. The annealed
variant perturbs the subvectors fed to the codebook update with zero-mean
Gaussian noise whose per-coordinate variance is the diagonal of the subvector
covariance, scaled by ``(1 - tau/I)**gamma`` so the last iteration is exactly
noiseless; code updates always see the clean subvectors. With a zero
covariance the annealed run is bit-for-bit identical to plain k-means under
the same seed.

The code update is exact. Each block of subvectors is scored in float32
against all centroids with one matrix multiply (``||c||**2 - 2 x.c``, the
norm folded in as one more column), written into one score buffer that the
call reuses for every block. A subvector keeps the winner when no other
centroid scores within a rigorous rounding margin,
``4*g_{d+4}*(||x|| + max ||c||)**2`` with ``g_n ~ n * 2**-24`` (it also covers
the cast to float32, underflow and overflow). Every other subvector is
re-scored in float64 with the plain difference form, over only the centroids
inside the margin; these subvectors are collected across blocks and
re-scored in batches of about one block. Codes are therefore the difference
form's argmin (lowest index on ties) bit for bit, whatever order or thread
count the BLAS library uses. One routine, `_nearest`, computes that
difference form: over each undecided subvector's candidates, and over all
centroids for toy-sized calls, which skip the prefilter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .layout import subvector_points
from .rng import gaussian, make_rng

DEFAULT_ITERATIONS = 1000
DEFAULT_GAMMA = 0.5


@dataclass(frozen=True)
class SRCConfig:
    """Annealed-quantizer settings: iteration count, noise exponent, seed."""

    iterations: int = DEFAULT_ITERATIONS
    gamma: float = DEFAULT_GAMMA
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0 < self.gamma < math.inf:  # nan fails too
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")


def clamp_codebook_size(k: int, num_subvectors: int) -> int:
    """Cap the codebook at a quarter of the subvector count, minimum 1."""
    if k < 1 or num_subvectors < 1:
        raise ValueError("codebook size and subvector count must be positive")
    return max(1, min(int(k), num_subvectors // 4))


def assign_codes(subvectors, codebook) -> np.ndarray:
    """Nearest centroid (squared Euclidean) per subvector; ties go low.

    Exactly the argmin of the difference form ``sum_i (x_i - c_ji)**2``: a
    float32 matrix-multiply prefilter decides every subvector whose winner
    leads all other centroids by more than a proven rounding margin, and the
    float64 difference form over the centroids within that margin decides
    the rest (see `_assign` and `_nearest`), so the codes do not depend on
    BLAS summation order or thread count.
    """
    pts, shape = subvector_points(subvectors)
    cb = np.asarray(codebook, dtype=np.float64)
    if cb.ndim != 2 or cb.shape[1] != pts.shape[1]:
        raise DimensionMismatch(
            f"codebook width {cb.shape} does not match subvector length {pts.shape[1]}"
        )
    codes = _assign(pts, cb, *_lift(pts, cb.shape[0]))
    return codes.reshape(shape) if shape is not None else codes


# A score block holds about this many float32 values (256 KB) and a
# difference block about this many float64 values (512 KB), within L2.
_BLOCK = 1 << 16
# A call with at most this many difference-form terms (n*k*d) is cheaper on
# the exact path than the prefilter's fixed cost of some thirty numpy calls:
# measured 38 against 56 us at (n, k, d) = (48, 12, 4), 59 against 54 us at
# (64, 16, 4), one BLAS thread.
_EXACT_WORK = 3072
_U32 = 2.0**-24  # float32 unit roundoff


def _layout(n: int, k: int):
    """Rows per score block, and whether a block is scored centroid-major.

    Reductions across rows as short as 32 centroids cost more per row than
    the scores they read, so with fewer centroids than rows per block each
    block is a (k, rows) array reduced down its columns instead.
    """
    rows = max(1, min(n, _BLOCK // k))
    return rows, k < rows


def _lift(pts: np.ndarray, k: int):
    """||x|| per row, and the rows as float32 with a 1 appended, for `_assign`.

    The lifted rows are stored in the order the block GEMM reads fastest:
    column-major when the blocks are scored centroid-major.
    """
    n, d = pts.shape
    order = "F" if _layout(n, k)[1] else "C"
    lifted = np.ones((n, d + 1), dtype=np.float32, order=order)
    # a cast that overflows gives inf, and that row's margin is infinite too
    with np.errstate(over="ignore"):
        lifted[:, :d] = pts
    return np.sqrt(np.einsum("ij,ij->i", pts, pts)), lifted


def _assign(pts, codebook, norms, lifted) -> np.ndarray:
    """Exact nearest centroid: a float32 GEMM prefilter, then float64 where unsure.

    The codes are by definition the argmin (lowest index on ties) of the
    float64 difference form ``delta_j = sum_i (x_i - c_ji)**2``. Each row is
    first scored in float32 with ``s_j = ||c_j||**2 - 2 x.c_j``, one GEMM per
    block of the lifted rows ``(x, 1)`` against ``(-2 c_j, ||c_j||**2)``.
    Let w be the lowest score and m the row's margin. A centroid with
    ``s_j > s_w + m`` can be neither the argmin of the difference form nor tied
    with it, so a row with one candidate ``s_j <= s_w + m`` keeps it, and
    every other row is re-scored with the difference form over its
    candidates only (`_nearest`).

    Buffers and batches. All blocks are scored into one float32 buffer the
    size of a block (at most `_BLOCK` values unless k is larger), and each
    row's winner is read, masked and restored through its flat offset in
    that buffer. The undecided rows of successive blocks, with their
    candidate masks, are held until the masks would pass `_BLOCK` entries
    and then re-scored in one float64 call (`_Undecided`).

    Margin. Let u = 2**-24, g_n = n*u/(1 - n*u), G_n the float64 analogue
    (unit 2**-53), R = ||x|| + max_j ||c_j|| and D_j = ||x - c_j||**2 <= R**2
    (exact). The float64 difference form rounds once in the subtraction
    (squared), once in the square and d - 1 times in the sum, so
    |delta_j - D_j| <= G_{d+2} R**2. A float32 rounding errs by at most u
    relative or, where it underflows, by eta = 2**-150 absolute (an addition
    that underflows is exact). For any summation order, with or without
    fused multiply-adds:
      - casting: x~_i = fl32(x_i) and b_ji = fl32(-2 c_ji) err by u|x_i| + eta
        and 2u|c_ji| + eta; q_j = fl32(fl64(||c_j||**2)) errs by
        (u + G_d)(1 + u)||c_j||**2 + eta;
      - so x~.b_j differs from -2 x.c_j by at most (2u + u**2) 2||x|| ||c_j||
        + eta (2 sqrt(d) R (1 + u) + d eta);
      - the folded dot product over d + 1 terms (the last one times an exact
        1) adds g_{d+1} times the sum of the terms' magnitudes, plus d eta
        for products that underflow.
    With 2||x|| ||c_j|| + ||c_j||**2 <= R**2 and 2 sqrt(d) R <= d + R**2, and
    g_{d+4} - g_{d+1} >= 3u absorbing the small cross terms, this gives
    |s_j - (D_j - ||x||**2)| <= E = g_{d+4} R**2 + (2d + 2) eta. If
    s_j > s_w + m then delta_j - delta_w > m - 2E - 2 G_{d+2} R**2, so
    m = 2E + 2 G_{d+2} R**2 suffices. The code uses
    m = 4 g_{d+4} R**2 + (d + 1) 2**-147 = 4E. The spare 2E covers G_{d+2}
    (below 2**-28 g_{d+4}), float64 underflow (2**-1075 per operation), the
    float64 rounding of R, m and s_w + m, and the rounding of that limit to
    float32 (at most u (R**2 + 5E) + eta < E).

    Overflow. R is scaled by 2**449 before squaring, so m is infinite for
    R >= 2**63. Below that R**2 < 2**126, and no cast, product or partial sum
    can leave float32's range (about 2**128), so the bound above holds. A row
    whose limit ``s_w + m`` is infinite or NaN takes all k centroids as
    candidates.
    """
    n, d = pts.shape
    k = codebook.shape[0]
    # the margin below needs (d + 4) u < 1
    if n * k * d <= _EXACT_WORK or (d + 4) * _U32 >= 1:
        return _nearest(pts, codebook)
    out = np.empty(n, dtype=np.int64)
    rows, centroid_major = _layout(n, k)
    buffer = np.empty(rows * k, dtype=np.float32)
    if centroid_major:
        count_index = np.stack([np.ones(k), np.arange(k)]).astype(np.float32)
    else:
        offsets = np.arange(0, rows * k, k)
    undecided = _Undecided(pts, codebook, out)
    gamma = (d + 4) * _U32 / (1 - (d + 4) * _U32)
    # overflow only makes a limit infinite or a score non-finite, which sends
    # the row to the difference form over all k
    with np.errstate(over="ignore", invalid="ignore"):
        cb_sq = np.einsum("ij,ij->i", codebook, codebook)
        radius = norms + np.sqrt(cb_sq.max())
        margin = (4.0 * gamma * 2.0**-898) * np.square(radius * 2.0**449) + (d + 1) * 2.0**-147
        # (d + 1, k), which the row-major GEMM reads about twice as fast as its transpose
        lifted_cb = np.empty((d + 1, k), dtype=np.float32)
        lifted_cb[:d] = -2.0 * codebook.T
        lifted_cb[d] = cb_sq
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            flat = buffer[: (stop - start) * k]
            if centroid_major:
                score = np.matmul(lifted_cb.T, lifted[start:stop].T, out=flat.reshape(k, -1))
                limit = (score.min(axis=0) + margin[start:stop]).astype(np.float32)
                # per row: how many candidates, and the sum of their indices
                count, best = count_index @ (score <= limit).astype(np.float32)
                sure = count == 1
                score = score.T
            else:
                score = np.matmul(lifted[start:stop], lifted_cb, out=flat.reshape(-1, k))
                at = offsets[: stop - start]
                best = np.argmin(score, axis=1)
                won = at + best
                lowest = flat[won]
                limit = (lowest + margin[start:stop]).astype(np.float32)
                flat[won] = np.inf
                # argmin, unlike min, has no per-row overhead along short rows
                sure = flat[at + np.argmin(score, axis=1)] > limit
                flat[won] = lowest
            out[start:stop] = best
            if not sure.all():
                unsure = np.flatnonzero(~sure)
                cand = score[unsure] <= limit[unsure, None]
                cand[~np.isfinite(limit[unsure])] = True
                undecided.add(start + unsure, cand)
        undecided.flush()
    return out


class _Undecided:
    """Rows the prefilter leaves undecided, scored in float64 a batch at a time.

    A batch goes to `_nearest` before its candidate masks would pass
    `_BLOCK` entries, so the float64 pass costs a call per `_BLOCK` entries
    rather than one per score block.
    """

    def __init__(self, pts, codebook, out):
        self.pts, self.codebook, self.out = pts, codebook, out
        self.rows, self.cands, self.held = [], [], 0

    def add(self, rows: np.ndarray, cand: np.ndarray):
        if self.held + cand.size > _BLOCK:
            self.flush()
        self.rows.append(rows)
        self.cands.append(cand)
        self.held += cand.size

    def flush(self):
        if self.rows:
            rows = np.concatenate(self.rows)
            cand = np.concatenate(self.cands)
            self.out[rows] = _nearest(self.pts[rows], self.codebook, cand)
            self.rows, self.cands, self.held = [], [], 0


def _nearest(pts: np.ndarray, codebook: np.ndarray, cand=None) -> np.ndarray:
    """The argmin (lowest index on ties) of the float64 difference form per row.

    Rows are scored in blocks of about `_BLOCK` float64 values. Without
    `cand` a row scores every centroid. With `cand`, an `(n, k)` mask that
    holds at least one candidate per row, a row scores its candidates only:
    the block is scored against the sorted union of the rows' candidates,
    and each non-candidate scores inf. The union is sorted, so ties still go
    to the lowest index.
    """
    cols = None if cand is None else np.flatnonzero(cand.any(axis=0))
    centroids = codebook if cols is None else codebook[cols]
    n, (k, d) = pts.shape[0], centroids.shape
    rows = max(1, _BLOCK // (k * d))
    buffer = np.empty((min(rows, n), k, d))
    out = np.empty(n, dtype=np.int64)
    for start in range(0, n, rows):
        block = pts[start : start + rows, None, :]
        # plain difference form: bit-identical to a per-point distance loop
        diff = np.subtract(block, centroids, out=buffer[: len(block)])
        dist = np.square(diff, out=diff).sum(axis=2)
        if cols is not None:
            dist[~cand[start : start + rows, cols]] = np.inf
        out[start : start + rows] = np.argmin(dist, axis=1)
    return out if cols is None else cols[out]


def update_codebook(subvectors, codes, k_eff: int) -> np.ndarray:
    """Centroids as assignment means; empty clusters re-seed greedily.

    An empty centroid is replaced by the subvector with the largest current
    reconstruction error (each such subvector used at most once), processed
    in ascending centroid order, which keeps the update deterministic.
    """
    pts, _ = subvector_points(subvectors)
    flat = np.asarray(codes, dtype=np.int64).ravel()
    return _update(pts, flat, k_eff)


def _update(pts: np.ndarray, codes: np.ndarray, k_eff: int):
    d = pts.shape[1]
    counts = np.bincount(codes, minlength=k_eff).astype(np.float64)
    sums = np.empty((k_eff, d))
    for j in range(d):
        sums[:, j] = np.bincount(codes, weights=pts[:, j], minlength=k_eff)
    nonempty = counts > 0
    codebook = np.zeros((k_eff, d))
    codebook[nonempty] = sums[nonempty] / counts[nonempty, None]
    empties = np.flatnonzero(~nonempty)
    if empties.size:
        errors = _squared_residuals(pts, codebook, codes).sum(axis=1)
        for t in empties:
            worst = int(np.argmax(errors))
            codebook[t] = pts[worst]
            errors[worst] = -1.0
    return codebook


def reconstruction_error(subvectors, codebook, codes) -> float:
    """Mean squared error per subvector (Frobenius norm over count)."""
    pts, _ = subvector_points(subvectors)
    flat = np.asarray(codes, dtype=np.int64).ravel()
    cb = np.asarray(codebook, dtype=np.float64)
    return float(_squared_residuals(pts, cb, flat).sum() / pts.shape[0])


def _squared_residuals(pts, codebook, codes) -> np.ndarray:
    """``(pts - codebook[codes]) ** 2``, squared in the gather's own buffer."""
    res = codebook[codes]
    np.subtract(pts, res, out=res)
    return np.square(res, out=res)


def _quantize_rng(seed: int) -> np.random.Generator:
    return make_rng(seed, "quantize")


def kmeans(subvectors, k_eff: int, iters: int = DEFAULT_ITERATIONS, seed: int = 0):
    """Plain k-means from random assignments.

    Runs `iters` rounds of (codebook update, code update) or stops early once
    a round keeps every code (see `_quantize`). ``iters=0``
    returns the random initial assignments with their implied codebook.
    Returns ``(codes, codebook, error)``.
    """
    return _quantize(subvectors, k_eff, iters, seed)


def src(subvectors, sigma: np.ndarray, k_eff: int, cfg: SRCConfig):
    """Annealed k-means: noisy codebook updates, clean code updates.

    The noise standard deviation per coordinate is the square root of the
    diagonal of `sigma`, the `(d, d)` subvector covariance, scaled by ``(1 - tau/I)**gamma``; the final
    iteration runs at exactly zero noise. Returns ``(codes, codebook, error)``
    after all ``cfg.iterations`` rounds; a zero covariance adds no noise, so
    that run stops at a fixed point as `kmeans` does.
    """
    return _quantize(subvectors, k_eff, cfg.iterations, cfg.seed, sigma, cfg.gamma)


def _quantize(subvectors, k_eff, iters, seed, sigma=None, gamma=DEFAULT_GAMMA):
    """Up to `iters` rounds of (codebook update, code update) from random codes.

    With `sigma`, each round's codebook update sees the points plus noise
    (see `src`); without it the run is plain k-means. A round without noise
    that keeps every code is a fixed point: `_update` is a pure function of
    the points and the codes, re-seeding included, so the next round would
    rebuild the same codebook and the same codes, and no later round draws
    from the generator. The loop stops there with the bytes a full run
    returns, even in a layer that re-seeds every round (a fully pruned one).
    """
    pts, shape = subvector_points(subvectors)
    if sigma is not None and sigma.shape[0] != pts.shape[1]:
        raise DimensionMismatch(
            f"covariance dimension {sigma.shape[0]} != subvector length {pts.shape[1]}"
        )
    if k_eff < 1:
        raise ValueError("codebook size must be >= 1")
    rng = _quantize_rng(seed)
    codes = rng.integers(0, k_eff, size=pts.shape[0], dtype=np.int64)
    if iters == 0:
        # otherwise the first iteration replaces it before anything reads it
        codebook = _update(pts, codes, k_eff)
    prefilter = _lift(pts, k_eff) if iters > 0 else None
    noise_std = None if sigma is None else np.sqrt(np.clip(np.diag(sigma), 0.0, None))
    add_noise = noise_std is not None and bool(np.any(noise_std > 0))
    # one buffer for every draw; the last iteration draws none, so one alone needs none
    noise = np.empty(pts.shape) if add_noise and iters > 1 else None
    for tau in range(1, iters + 1):
        scale = (1.0 - tau / iters) ** gamma
        if add_noise and scale > 0.0:
            noisy = gaussian(rng, pts.shape, out=noise)
            np.multiply(noisy, noise_std * scale, out=noisy)
            np.add(pts, noisy, out=noisy)
        else:
            noisy = pts
        codebook = _update(noisy, codes, k_eff)
        new_codes = _assign(pts, codebook, *prefilter)
        if not add_noise and np.array_equal(new_codes, codes):
            break
        codes = new_codes
    error = reconstruction_error(pts, codebook, codes)
    return (codes.reshape(shape) if shape is not None else codes), codebook, error
