"""Row-permutation search that shrinks the subvector covariance determinant.

Reordering the rows of a weight matrix changes which entries end up in the
same subvector, and the log-determinant of the subvector covariance lower-
bounds how well a fixed-size codebook can represent them. This module
estimates that covariance, scores permutations by its (regularized) log
determinant, builds a greedy bucket-balanced initial permutation, and refines
it with stochastic local search. Convolution rows move in contiguous groups
of K*K so whole filters stay together, and several layers that must share one
channel permutation can be optimized jointly on their summed objective.

The search scores every order, the identity and greedy starts included,
from raw moments per chunk (d consecutive rows of the permuted matrix): a
swap recomputes only the chunks holding the two swapped units, and the
objective sums the chunks in a fixed order, so it depends only on the
current order and needs no periodic exact recompute. `matrix_objective`
evaluates the same objective from the covariance formula; it is the
reference the search is tested against, not a second path through it.

When every swap unit of a layer holds whole subvectors (its rows per unit are
a multiple of the subvector size d, as for a 3x3 convolution with d = 9), a
swap only reorders subvectors and cannot change that layer's covariance, so
the group search leaves such layers out and skips groups made only of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndivisibleBlockSize, MismatchedChannelCounts, TooFewSubvectors
from .layout import ReshapedWeight, SubvectorMatrix
from .rng import make_rng


@dataclass(frozen=True, eq=False)
class Permutation:
    """A row permutation: ``apply(M)[i] == M[indices[i]]``.

    `block` rows move together: ``indices[b*block + r] == indices[b*block] + r``.
    """

    indices: np.ndarray
    block: int = 1

    def __post_init__(self):
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=np.int64))

    @classmethod
    def identity(cls, size: int, block: int = 1) -> "Permutation":
        return cls(np.arange(size, dtype=np.int64), block)

    @property
    def size(self) -> int:
        return self.indices.shape[0]

    def validate(self):
        idx = self.indices
        m, g = idx.shape[0], self.block
        if g <= 0 or m % g != 0:
            raise IndivisibleBlockSize(f"block {g} does not divide {m} rows")
        if not np.array_equal(np.sort(idx), np.arange(m)):
            raise IndivisibleBlockSize("indices are not a permutation")
        grid = idx.reshape(m // g, g)
        if not np.array_equal(grid, grid[:, :1] + np.arange(g)):
            raise IndivisibleBlockSize("permutation does not respect its block structure")

    def apply_rows(self, matrix: np.ndarray) -> np.ndarray:
        return matrix[self.indices]

    def invert_rows(self, matrix: np.ndarray) -> np.ndarray:
        out = np.empty_like(matrix)
        out[self.indices] = matrix
        return out

    def inverse(self) -> "Permutation":
        return Permutation(np.argsort(self.indices), self.block)


def _unit_rows(units: np.ndarray, g: int) -> np.ndarray:
    """Row indices of the contiguous `g`-row units listed in `units`, in order."""
    return (units[:, None] * g + np.arange(g)).ravel()


def expand_channel_permutation(channel_indices, rows_per_channel: int) -> Permutation:
    """Lift a channel permutation to row level, `rows_per_channel` rows each."""
    g = int(rows_per_channel)
    return Permutation(_unit_rows(np.asarray(channel_indices, dtype=np.int64), g), block=g)


@dataclass(frozen=True, eq=False)
class CovarianceStats:
    """Empirical mean/covariance of a set of subvectors."""

    sigma: np.ndarray  # (d, d), mean-centered, 1/N normalization
    count: int
    mean: np.ndarray  # (d,)

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]


def _as_points(subvectors) -> np.ndarray:
    if isinstance(subvectors, SubvectorMatrix):
        return subvectors.points()
    pts = np.asarray(subvectors, dtype=np.float64)
    if pts.ndim != 2:
        raise TooFewSubvectors(f"expected an (N, d) array, got shape {pts.shape}")
    return pts


def subvector_covariance(subvectors) -> CovarianceStats:
    """Mean-centered covariance (1/N normalization) over all subvectors."""
    pts = _as_points(subvectors)
    n = pts.shape[0]
    if n < 2:
        raise TooFewSubvectors(f"need at least 2 subvectors, got {n}")
    mean = pts.mean(axis=0)
    centered = pts - mean
    # einsum keeps the reduction off BLAS so results do not depend on thread count
    sigma = np.einsum("ni,nj->ij", centered, centered) / n
    sigma = 0.5 * (sigma + sigma.T)
    return CovarianceStats(sigma=sigma, count=n, mean=mean)


def _regularized_logdet(sigma: np.ndarray):
    """Logdet of ``sigma + eps*I``; a stack of matrices gives one value each."""
    d = sigma.shape[-1]
    eps = 1e-12 * np.maximum(sigma.trace(axis1=-2, axis2=-1) / d, 1.0)
    a = sigma + eps[..., None, None] * np.eye(d)
    try:
        chol = np.linalg.cholesky(a)
        return 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
    except np.linalg.LinAlgError:
        if sigma.ndim > 2:
            return np.array([_regularized_logdet(one) for one in sigma])
        eigs = np.linalg.eigvalsh(a)
        return np.log(np.clip(eigs, eps, None)).sum()


def logdet(stats: CovarianceStats) -> float:
    """Natural-log determinant of ``sigma + eps*I`` via a symmetric factorization."""
    return float(_regularized_logdet(stats.sigma))


def rd_lower_bound(stats: CovarianceStats, k: int, d: int | None = None) -> float:
    """Minimum expected per-subvector squared error of a size-`k` quantizer.

    Evaluates ``k**(-2/d) * d * det(sigma)**(1/d)`` with the exact
    (unregularized) determinant, so degenerate covariances give 0.
    """
    if d is None:
        d = stats.dim
    if d != stats.dim:
        raise TooFewSubvectors(f"bound dimension {d} != covariance dimension {stats.dim}")
    if k < 1:
        raise ValueError("codebook size must be >= 1")
    eigs = np.clip(np.linalg.eigvalsh(stats.sigma), 0.0, None)
    if np.any(eigs <= 0.0):
        det_root = 0.0
    else:
        det_root = float(np.exp(np.mean(np.log(eigs))))
    return float(k ** (-2.0 / d)) * d * det_root


def subvector_points(matrix: np.ndarray, d: int) -> np.ndarray:
    """Column subvectors of an `(m, n)` matrix as an `(m/d*n, d)` array."""
    m, n = matrix.shape
    if d <= 0 or m % d != 0:
        raise IndivisibleBlockSize(f"subvector size {d} does not divide {m} rows")
    return matrix.reshape(m // d, d, n).transpose(0, 2, 1).reshape(-1, d)


def matrix_objective(matrix: np.ndarray, d: int) -> float:
    """Regularized logdet of the subvector covariance of `matrix`."""
    return logdet(subvector_covariance(subvector_points(matrix, d)))


def permuted_objective(matrix: np.ndarray, d: int, indices) -> float:
    return matrix_objective(matrix[np.asarray(indices, dtype=np.int64)], d)


def _as_matrix(weight) -> np.ndarray:
    if isinstance(weight, ReshapedWeight):
        return weight.matrix
    return np.asarray(weight, dtype=np.float64)


def _group_scores(matrix: np.ndarray, block: int) -> np.ndarray:
    """Score each contiguous `block`-row group.

    For single rows the score is the population variance of the row; for
    larger blocks it is the regularized logdet of the block's own covariance
    across columns.
    """
    m, n = matrix.shape
    if block == 1:
        return matrix.var(axis=1)
    blocks = matrix.reshape(m // block, block, n)
    centered = blocks - blocks.mean(axis=2, keepdims=True)
    return _regularized_logdet(np.einsum("gin,gjn->gij", centered, centered) / n)


def greedy_init(weight, d: int, block: int = 1) -> Permutation:
    """Bucket-balancing initial permutation.

    Creates ``d/block`` buckets of capacity ``m/d`` row groups, assigns groups
    in descending score order to the non-full bucket with the smallest
    running score sum (ties to the lowest bucket index), then interlaces the
    buckets so same-bucket groups land exactly `d` rows apart.
    """
    matrix = _as_matrix(weight)
    m = matrix.shape[0]
    if block <= 0 or d <= 0 or d % block != 0 or m % d != 0:
        raise IndivisibleBlockSize(
            f"need block | d and d | rows, got rows={m}, d={d}, block={block}"
        )
    n_buckets = d // block
    capacity = m // d
    scores = _group_scores(matrix, block)
    order = np.argsort(-scores, kind="stable")  # descending, ties by original index

    buckets = [[] for _ in range(n_buckets)]
    sums = np.zeros(n_buckets)
    for g in order:
        open_idx = np.flatnonzero([len(b) < capacity for b in buckets])
        pick = open_idx[np.argmin(sums[open_idx])]
        buckets[pick].append(int(g))
        sums[pick] += scores[g]

    group_order = np.empty(m // block, dtype=np.int64)
    for b, members in enumerate(buckets):
        for slot, g in enumerate(members):
            group_order[slot * n_buckets + b] = g
    return Permutation(_unit_rows(group_order, block), block=block)


class _ChunkMoments:
    """Raw moments of the subvector chunks of children that share one row order.

    Children with the same `(d, block)` hold the same rows in the same order
    under any unit order. A chunk is a run of `d` consecutive rows of the
    permuted matrix; its `n` columns are `n` subvectors of one child. Each
    chunk keeps, per child, the second-moment matrix of its subvectors with a
    1 appended, so the last row holds their sum and count. Entries are first
    shifted by the child's overall mean: the covariance does not change under
    the shift, and the raw-moment form keeps its precision. The objective
    sums the chunk arrays in a fixed order, so it is a pure function of the
    unit order and never drifts.
    """

    def __init__(self, matrices, d: int, block: int, units: np.ndarray):
        self.d, self.block = d, block
        # row m of each shifted matrix is all ones, and every chunk gathers it
        # last: the chunk's last moment row then holds its sums and its count
        self.shifted = [np.vstack([matrix - matrix.mean(), np.ones(matrix.shape[1])])
                        for matrix in matrices]
        rows = _unit_rows(units, block)
        self.rows = np.hstack([rows.reshape(-1, d), np.full((rows.size // d, 1), rows.size)])
        self._slots = np.arange(rows.size) + np.arange(rows.size) // d  # row position -> rows.flat
        self.moments = self._moments(self.rows)

    def _moments(self, rows: np.ndarray) -> np.ndarray:
        """Augmented second moments ``(t, C, d+1, d+1)`` of the `(t, d+1)` chunk rows."""
        out = np.empty((rows.shape[0], len(self.shifted), self.d + 1, self.d + 1))
        for c, shifted in enumerate(self.shifted):
            chunks = shifted[rows]
            # einsum keeps the reduction off BLAS so results do not depend on thread count
            np.einsum("tin,tjn->tij", chunks, chunks, out=out[:, c])
        return out

    def objectives(self) -> np.ndarray:
        """Regularized logdet of each child's subvector covariance."""
        d = self.d
        total = self.moments.sum(axis=0)
        moments = total / total[:, d:, d:]
        mean = moments[:, d, :d]
        return _regularized_logdet(moments[:, :d, :d] - mean[:, :, None] * mean[:, None, :])

    def _swap_rows(self, a: int, b: int):
        g, flat = self.block, self.rows.reshape(-1)
        sa, sb = self._slots[a * g : (a + 1) * g], self._slots[b * g : (b + 1) * g]
        flat[sa], flat[sb] = flat[sb], flat[sa]

    def swap(self, a: int, b: int):
        """Swap the units at positions `a` and `b`; recompute the chunks they touch."""
        g, d = self.block, self.d
        touched = sorted({*range(a * g // d, ((a + 1) * g - 1) // d + 1),
                          *range(b * g // d, ((b + 1) * g - 1) // d + 1)})
        self._saved = (a, b, touched, self.moments[touched])
        self._swap_rows(a, b)
        self.moments[touched] = self._moments(self.rows[touched])

    def undo(self):
        """Revert the last `swap`, restoring the chunks it recomputed."""
        a, b, touched, moments = self._saved
        self._swap_rows(a, b)
        self.moments[touched] = moments


def _families(specs, units: np.ndarray) -> list:
    """`_ChunkMoments` of ``(matrix, d, block)`` children, one per `(d, block)`."""
    by_shape = {}
    for matrix, d, block in specs:
        by_shape.setdefault((d, block), []).append(matrix)
    return [_ChunkMoments(ms, d, block, units) for (d, block), ms in by_shape.items()]


def _total(families) -> float:
    """Summed objective of every child of `families`."""
    return sum(float(f.objectives().sum()) for f in families)


def _swap_search(families, units: np.ndarray, iters: int, seed: int):
    """Random pair swaps of `units`, in place, kept when they lower the objective.

    `families` are the children's `_ChunkMoments`, set up at `units`. Each
    proposal recomputes only the chunks the two units touch and restores
    them when it is rejected. Deterministic given `seed`.
    """
    n = units.shape[0]
    if n < 2 or iters <= 0:
        return units
    current = _total(families)
    rng = make_rng(seed, "perm-local-search")
    for _ in range(iters):
        a = int(rng.integers(n))
        b = int(rng.integers(n - 1))
        if b >= a:
            b += 1
        for family in families:
            family.swap(a, b)
        candidate = _total(families)
        if candidate < current:
            current = candidate
            units[[a, b]] = units[[b, a]]
        else:
            for family in families:
                family.undo()
    return units


def local_search(
    weight, d: int, block: int, init: Permutation, iters: int, seed: int
) -> Permutation:
    """Refine a permutation by random group swaps, keeping strict improvements.

    Each iteration proposes swapping two distinct `block`-row groups chosen
    uniformly at random and rescores it from per-chunk moments, recomputing
    only the chunks of `d` rows that hold the two groups; the result never
    scores worse than `init`. Deterministic given `seed`.
    """
    matrix = _as_matrix(weight)
    init.validate()
    if init.block != block or init.size != matrix.shape[0]:
        raise IndivisibleBlockSize("initial permutation does not match the matrix/block")
    if d <= 0 or matrix.shape[0] % d != 0:
        raise IndivisibleBlockSize(f"subvector size {d} does not divide {matrix.shape[0]} rows")
    units = init.indices[::block] // block
    families = _families([(matrix, d, block)], units)
    return expand_channel_permutation(_swap_search(families, units, iters, seed), block)


def optimize_group_permutation(children, iters: int = 1000, seed: int = 0) -> Permutation:
    """Find one channel permutation shared by all `children`.

    `children` is a list of ``(weight_matrix, d, block)`` tuples where `block`
    is the number of matrix rows per shared channel (K*K for convolutions).
    A child with ``block % d == 0`` holds whole subvectors in every channel,
    so a channel permutation only reorders its subvectors and cannot change
    its objective: such children are left out, and a group of nothing else
    keeps the identity without a search. The summed objective of the other
    children is optimized: the greedy initialization comes from the largest
    of them, the identity is kept instead when it scores no worse, and local
    search then swaps channels accepting strict improvements of the sum.
    Returns a channel-level permutation with ``block=1``.
    """
    specs = [(_as_matrix(weight), int(d), int(block)) for weight, d, block in children]
    if not specs:
        raise MismatchedChannelCounts("need at least one child")

    for matrix, d, block in specs:
        m = matrix.shape[0]
        if block <= 0 or m % block != 0:
            raise IndivisibleBlockSize(f"block {block} does not divide {m} rows")
        if d <= 0 or m % d != 0:
            raise IndivisibleBlockSize(f"subvector size {d} does not divide {m} rows")
    counts = sorted({matrix.shape[0] // block for matrix, _, block in specs})
    if len(counts) > 1:
        raise MismatchedChannelCounts(f"children disagree on channels: {counts}")
    channels = counts[0]

    specs = [spec for spec in specs if spec[2] % spec[1] != 0]
    starts = [np.arange(channels, dtype=np.int64)]
    if not specs:
        return Permutation(starts[0])
    # greedy initialization needs whole blocks inside each subvector
    matrix, d, block = max(specs, key=lambda s: s[0].size)
    if d % block == 0:
        starts.append(greedy_init(matrix, d, block).indices[::block] // block)
    # min keeps the first of equal scores: the identity wins a tie
    units, families = min(((u, _families(specs, u)) for u in starts), key=lambda s: _total(s[1]))
    return Permutation(_swap_search(families, units, iters, seed))
