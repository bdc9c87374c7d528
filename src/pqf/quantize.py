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

The code update is exact: each block of subvectors is scored against all
centroids with one matrix multiply (``||c||**2 - 2 x.c``), and a subvector
keeps that winner only when the runner-up trails by more than a rigorous
rounding margin, ``4*(d+2)*eps*(||x|| + max ||c||)**2``. Every other
subvector is re-scored with the plain difference form. Codes are therefore
the difference form's argmin (lowest index on ties) bit for bit, whatever
order or thread count the BLAS library uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .layout import SubvectorMatrix
from .permsearch import CovarianceStats
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
        if self.gamma <= 0:
            raise ValueError("gamma must be > 0")


def clamp_codebook_size(k: int, num_subvectors: int) -> int:
    """Cap the codebook at a quarter of the subvector count, minimum 1."""
    if k < 1 or num_subvectors < 1:
        raise ValueError("codebook size and subvector count must be positive")
    return max(1, min(int(k), num_subvectors // 4))


def _points_and_shape(subvectors):
    if isinstance(subvectors, SubvectorMatrix):
        return subvectors.points(), (subvectors.m_hat, subvectors.n)
    pts = np.asarray(subvectors, dtype=np.float64)
    if pts.ndim != 2:
        raise DimensionMismatch(f"expected an (N, d) array, got shape {pts.shape}")
    return pts, None


def assign_codes(subvectors, codebook) -> np.ndarray:
    """Nearest centroid (squared Euclidean) per subvector; ties go low.

    Exactly the argmin of the difference form ``sum_i (x_i - c_ji)**2``: a
    matrix-multiply prefilter decides every subvector whose winner leads by
    more than the rounding margin ``4*(d+2)*eps*(||x|| + max ||c||)**2`` and
    the difference form decides the rest (see `_assign`), so the codes do
    not depend on BLAS summation order or thread count.
    """
    pts, shape = _points_and_shape(subvectors)
    cb = np.asarray(codebook, dtype=np.float64)
    if cb.ndim != 2 or cb.shape[1] != pts.shape[1]:
        raise DimensionMismatch(
            f"codebook width {cb.shape} does not match subvector length {pts.shape[1]}"
        )
    codes = _assign(pts, cb, _row_norms(pts))
    return codes.reshape(shape) if shape is not None else codes


# A (rows, k) score block or (rows, k, d) difference block holds at most this
# many float64 values (8 MB).
_BLOCK = 1 << 20
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny


def _row_norms(pts: np.ndarray) -> np.ndarray:
    # ||x|| per row, for the rounding margin of `_assign`
    return np.sqrt(np.einsum("ij,ij->i", pts, pts))


def _assign(pts: np.ndarray, codebook: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Exact nearest centroid: a GEMM prefilter, then the difference form where unsure.

    The codes are by definition the argmin (lowest index on ties) of the
    difference form ``delta_j = sum_i (x_i - c_ji)**2``. Each row is first
    scored with ``a_j = ||c_j||**2 - 2 x.c_j`` (one matrix multiply per block)
    and keeps the prefilter's winner w only when every other centroid scores
    more than a rounding margin ``m`` above it; all other rows are re-scored
    with the difference form over all k.

    Margin. Let u = eps/2, gamma_n = n*u/(1 - n*u), R = ||x|| + max_j ||c_j||
    and D_j = ||x - c_j||**2 <= R**2 (exact). For any summation order:
      - difference form: one rounding for the subtraction (squared), one for
        the square, d - 1 for the sum, so |delta_j - D_j| <= gamma_{d+2} R**2;
      - prefilter: x.(-2 c_j) and ||c_j||**2 err by at most gamma_d * 2||x|| ||c_j||
        and gamma_d ||c_j||**2 (scaling by -2 is exact), and their sum adds
        u*|a_j|, so |a_j - (D_j - ||x||**2)| <= gamma_{d+1} R**2.
    If a_j > a_w + m for every j != w, then delta_j - delta_w > m -
    2*(gamma_{d+1} + gamma_{d+2}) R**2 >= m - 4*gamma_{d+2} R**2, so
    m = 4*gamma_{d+2} R**2 makes w the strict argmin of the difference form,
    whatever order BLAS sums in. The code uses m = 4*(d+2)*eps*R**2, twice
    that, which also covers the rounding of R, of m and of ``a_w + m``; the
    added ``tiny`` covers underflow, whose absolute error per operation is at
    most 2**-1075. R is squared after scaling by 2**24, so m is infinite for
    R >= 2**488, before any squared distance can overflow. A NaN or infinite
    margin fails the test, so the row takes the exact path.
    """
    n, d = pts.shape
    k = codebook.shape[0]
    out = np.empty(n, dtype=np.int64)
    unsure = []
    # overflow only makes a margin infinite or a score non-finite, which sends
    # the row to the exact path; that path keeps its own warnings
    with np.errstate(over="ignore", invalid="ignore"):
        cb_sq = np.einsum("ij,ij->i", codebook, codebook)
        radius = norms + np.sqrt(cb_sq.max())
        margin = (4.0 * (d + 2) * _EPS * 2.0**-48) * np.square(radius * 2.0**24) + _TINY
        cb_t = -2.0 * codebook.T
        rows = max(1, min(n, _BLOCK // k))
        at = np.arange(rows)
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            score = pts[start:stop] @ cb_t
            score += cb_sq
            best = np.argmin(score, axis=1)
            here = at[: stop - start]
            lowest = score[here, best]
            score[here, best] = np.inf
            out[start:stop] = best
            sure = score.min(axis=1) > lowest + margin[start:stop]
            if not sure.all():
                unsure.append(start + np.flatnonzero(~sure))
    if unsure:
        unsure = np.concatenate(unsure)
        out[unsure] = _assign_exact(pts[unsure], codebook)
    return out


def _assign_exact(pts: np.ndarray, codebook: np.ndarray) -> np.ndarray:
    k, d = codebook.shape
    rows = max(1, _BLOCK // (k * d))
    out = np.empty(pts.shape[0], dtype=np.int64)
    for start in range(0, pts.shape[0], rows):
        block = pts[start : start + rows]
        # plain difference form: bit-identical to a per-point distance loop
        dist = np.square(block[:, None, :] - codebook[None, :, :]).sum(axis=2)
        out[start : start + rows] = np.argmin(dist, axis=1)
    return out


def update_codebook(subvectors, codes, k_eff: int) -> np.ndarray:
    """Centroids as assignment means; empty clusters re-seed greedily.

    An empty centroid is replaced by the subvector with the largest current
    reconstruction error (each such subvector used at most once), processed
    in ascending centroid order, which keeps the update deterministic.
    """
    pts, _ = _points_and_shape(subvectors)
    flat = np.asarray(codes, dtype=np.int64).ravel()
    codebook, _ = _update(pts, flat, k_eff)
    return codebook


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
        errors = np.square(pts - codebook[codes]).sum(axis=1)
        for t in empties:
            worst = int(np.argmax(errors))
            codebook[t] = pts[worst]
            errors[worst] = -1.0
    return codebook, empties.size > 0


def reconstruction_error(subvectors, codebook, codes) -> float:
    """Mean squared error per subvector (Frobenius norm over count)."""
    pts, _ = _points_and_shape(subvectors)
    flat = np.asarray(codes, dtype=np.int64).ravel()
    cb = np.asarray(codebook, dtype=np.float64)
    return float(np.square(pts - cb[flat]).sum() / pts.shape[0])


def _quantize_rng(seed: int) -> np.random.Generator:
    return make_rng(seed, "quantize")


def _run(pts, k_eff, iters, rng, noise_std=None, gamma=DEFAULT_GAMMA, stop_when_stable=False):
    n = pts.shape[0]
    codes = rng.integers(0, k_eff, size=n, dtype=np.int64)
    codebook, _ = _update(pts, codes, k_eff)
    norms = _row_norms(pts)
    add_noise = noise_std is not None and bool(np.any(noise_std > 0))
    for tau in range(1, iters + 1):
        scale = (1.0 - tau / iters) ** gamma
        if add_noise and scale > 0.0:
            noisy = pts + gaussian(rng, pts.shape) * (noise_std * scale)
        else:
            noisy = pts
        codebook, reseeded = _update(noisy, codes, k_eff)
        new_codes = _assign(pts, codebook, norms)
        stable = not reseeded and np.array_equal(new_codes, codes)
        codes = new_codes
        if stop_when_stable and stable:
            break
    return codes, codebook, reconstruction_error(pts, codebook, codes)


def kmeans(subvectors, k_eff: int, iters: int = DEFAULT_ITERATIONS, seed: int = 0):
    """Plain k-means from random assignments.

    Runs `iters` rounds of (codebook update, code update) or stops early once
    assignments are stable with no empty-cluster re-seeding. ``iters=0``
    returns the random initial assignments with their implied codebook.
    Returns ``(codes, codebook, error)``.
    """
    pts, shape = _points_and_shape(subvectors)
    if k_eff < 1:
        raise ValueError("codebook size must be >= 1")
    codes, codebook, error = _run(
        pts, k_eff, iters, _quantize_rng(seed), stop_when_stable=True
    )
    return (codes.reshape(shape) if shape is not None else codes), codebook, error


def src(subvectors, stats: CovarianceStats, k_eff: int, cfg: SRCConfig):
    """Annealed k-means: noisy codebook updates, clean code updates.

    The noise standard deviation per coordinate is the square root of the
    diagonal of ``stats.sigma``, scaled by ``(1 - tau/I)**gamma``; the final
    iteration runs at exactly zero noise. Returns ``(codes, codebook, error)``
    after all ``cfg.iterations`` rounds.
    """
    pts, shape = _points_and_shape(subvectors)
    if stats.dim != pts.shape[1]:
        raise DimensionMismatch(
            f"covariance dimension {stats.dim} != subvector length {pts.shape[1]}"
        )
    if k_eff < 1:
        raise ValueError("codebook size must be >= 1")
    noise_std = np.sqrt(np.clip(np.diag(stats.sigma), 0.0, None))
    codes, codebook, error = _run(
        pts,
        k_eff,
        cfg.iterations,
        _quantize_rng(cfg.seed),
        noise_std=noise_std,
        gamma=cfg.gamma,
    )
    return (codes.reshape(shape) if shape is not None else codes), codebook, error
