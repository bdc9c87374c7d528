"""Channel-order search that shrinks the subvector covariance determinant.

Reordering the rows of a weight matrix changes which entries end up in the
same subvector, and the log-determinant of the subvector covariance lower-
bounds how well a fixed-size codebook can represent them. This module
estimates that covariance as a plain `(d, d)` array (`subvector_covariance`,
which `rd_lower_bound` and the annealed quantizer take as it is), scores
orders by its (regularized) log determinant, builds a greedy
bucket-balanced initial order, and refines it with stochastic local search.
Rows move in units: a unit is the contiguous block of rows of one channel
(K*K rows of a convolution, so whole filters stay together) or of several,
and every order here is an order of units, ``units[i]`` being the unit
placed at position i; `expand_channel_permutation` lifts one to rows.
Several layers that must share one channel order can be optimized jointly
on their summed objective.

The search scores every order, the identity and greedy starts included,
from raw moments per chunk (d consecutive rows of the permuted matrix): a
swap recomputes only the chunks holding the two swapped units, and the
objective sums the chunks in a fixed order, so it depends only on the
current order and needs no periodic exact recompute. `matrix_objective`
evaluates the same objective from the covariance formula; it is the
reference the search is tested against, not a second path through it.

Proposals are scored speculatively, many in one vectorized pass. The random
pairs do not depend on the decisions, and a rejected swap leaves the order
as it was, so a batch of upcoming pairs is scored against the current order
at once; the first candidate below the current objective is kept and the
next batch starts right after it. Every candidate sums its chunks in the
same fixed order, so the search keeps exactly the swaps that scoring one
proposal at a time keeps, whatever the batch sizes.

A scoring round takes a fixed number of numpy calls, whatever its batch
size. Besides the current chunk moments, each family keeps one lane per
candidate, a copy of them, and the round writes each candidate's recomputed
chunks into its lane; one sum over the chunk axis then folds every lane, and
the written chunks are put back. A sum over an axis that is not the
innermost adds the chunks one at a time in chunk order, the sequential fold
that scores the current order, so every candidate scores bit for bit what
its order scores. Folding the chunks before the first one a round touches
once, as a prefix shared by all lanes, would be exact for the same reason;
it is left out, because it costs more calls than the reads it saves at the
batch sizes the search uses. Families with the same subvector size take
their logdets in one Cholesky call.

When every swap unit of a layer holds whole subvectors (its rows per unit are
a multiple of the subvector size d, as for a 3x3 convolution with d = 9), a
swap only reorders subvectors and cannot change that layer's covariance, so
the group search leaves such layers out and skips groups made only of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import IndivisibleBlockSize, MismatchedChannelCounts, TooFewSubvectors
from .layout import SubvectorMatrix, is_permutation, split_matrix
from .rng import make_rng


@dataclass(frozen=True, eq=False)
class Permutation:
    """A row or channel order: ``matrix[indices]`` puts row ``indices[i]`` at row i.

    What `optimize_group_permutation` and `expand_channel_permutation` return;
    `benchmarks/run.py` reads their `indices`.
    """

    indices: np.ndarray


def _unit_rows(units: np.ndarray, g: int) -> np.ndarray:
    """Row indices of the contiguous `g`-row units listed in `units`, in order."""
    return (units[:, None] * g + np.arange(g)).ravel()


def expand_channel_permutation(channel_indices, rows_per_channel: int) -> Permutation:
    """Lift a channel order to the rows of a matrix, `rows_per_channel` rows each."""
    return Permutation(_unit_rows(np.asarray(channel_indices, dtype=np.int64), int(rows_per_channel)))


def _as_points(subvectors) -> np.ndarray:
    if isinstance(subvectors, SubvectorMatrix):
        return subvectors.points()
    pts = np.asarray(subvectors, dtype=np.float64)
    if pts.ndim != 2:
        raise TooFewSubvectors(f"expected an (N, d) array, got shape {pts.shape}")
    return pts


def subvector_covariance(subvectors) -> np.ndarray:
    """The `(d, d)` mean-centered covariance (1/N normalization) over all subvectors."""
    pts = _as_points(subvectors)
    n = pts.shape[0]
    if n < 2:
        raise TooFewSubvectors(f"need at least 2 subvectors, got {n}")
    mean = pts.mean(axis=0)
    centered = pts - mean
    # einsum keeps the reduction off BLAS so results do not depend on thread count
    sigma = np.einsum("ni,nj->ij", centered, centered) / n
    return 0.5 * (sigma + sigma.T)


def _diagonal(a: np.ndarray) -> np.ndarray:
    """Writable view of the diagonals of a C-contiguous stack of square matrices."""
    d = a.shape[-1]
    return a.reshape(a.shape[:-2] + (d * d,))[..., :: d + 1]


def _regularized_logdet(sigma: np.ndarray):
    """Logdet of ``sigma + eps*I``; a stack of matrices gives one value each."""
    d = sigma.shape[-1]
    a = sigma.copy()
    diagonal = _diagonal(a)
    eps = 1e-12 * np.maximum(diagonal.sum(axis=-1) / d, 1.0)
    diagonal += eps[..., None]
    try:
        # the factorization `np.linalg.cholesky` runs, without its checks and
        # wrapping; a matrix it cannot factor sets the invalid flag
        with np.errstate(all="ignore", invalid="raise"):
            chol = _umath_linalg.cholesky_lo(a, signature="d->d")
    except FloatingPointError:
        if sigma.ndim > 2:
            return np.array([_regularized_logdet(one) for one in sigma])
        eigs = np.linalg.eigvalsh(sigma + eps * np.eye(d))
        return np.log(np.clip(eigs, eps, None)).sum()
    return 2.0 * np.log(_diagonal(chol)).sum(axis=-1)


def rd_lower_bound(sigma: np.ndarray, k: int) -> float:
    """Minimum expected per-subvector squared error of a size-`k` quantizer.

    Evaluates ``k**(-2/d) * d * det(sigma)**(1/d)`` for the `(d, d)`
    subvector covariance `sigma` with the exact (unregularized) determinant,
    so degenerate covariances give 0.
    """
    if k < 1:
        raise ValueError("codebook size must be >= 1")
    d = sigma.shape[0]
    eigs = np.clip(np.linalg.eigvalsh(sigma), 0.0, None)
    if np.any(eigs <= 0.0):
        det_root = 0.0
    else:
        det_root = float(np.exp(np.mean(np.log(eigs))))
    return float(k ** (-2.0 / d)) * d * det_root


def matrix_objective(matrix: np.ndarray, d: int) -> float:
    """Regularized logdet of the subvector covariance of `matrix`."""
    sigma = subvector_covariance(split_matrix(matrix, d).reshape(-1, d))
    return float(_regularized_logdet(sigma))


def permuted_objective(matrix: np.ndarray, d: int, indices) -> float:
    return matrix_objective(matrix[np.asarray(indices, dtype=np.int64)], d)


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


def greedy_init(weight, d: int, block: int = 1) -> np.ndarray:
    """Bucket-balancing initial order of the ``m/block`` units of `block` rows.

    Creates ``d/block`` buckets of capacity ``m/d`` units, assigns units in
    descending score order to the non-full bucket with the smallest running
    score sum (ties to the lowest bucket index), then interlaces the buckets
    so same-bucket units land exactly `d` rows apart.
    """
    matrix = np.asarray(weight, dtype=np.float64)
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
    sums = [0.0] * n_buckets
    open_buckets = list(range(n_buckets))  # ascending, so `min` keeps the lowest on ties
    score_of = scores.tolist()
    for g in order.tolist():
        pick = min(open_buckets, key=sums.__getitem__)
        buckets[pick].append(g)
        sums[pick] += score_of[g]
        if len(buckets[pick]) == capacity:
            open_buckets.remove(pick)

    units = np.empty(m // block, dtype=np.int64)
    for b, members in enumerate(buckets):
        for slot, g in enumerate(members):
            units[slot * n_buckets + b] = g
    return units


def _logdets(total: np.ndarray) -> np.ndarray:
    """Regularized logdet of each child's covariance from its summed chunk moments."""
    d = total.shape[-1] - 1
    moments = total / total[..., d:, d:]
    mean = moments[..., d:, :d]
    return _regularized_logdet(moments[..., :d, :d] - mean.swapaxes(-1, -2) * mean)


# A scoring batch holds as many candidates as fit about this much work,
# counted in float64 values: a candidate's lane, which the round's fold
# reads, and its chunks' einsum products, about 1 ns each. A round costs
# some forty numpy calls on top, so speculation pays while a batch holds a
# few rounds' worth. With the fold that wrote each candidate over the one
# current copy, on full-width ResNet-18 groups at d = 18, one BLAS thread,
# 2**18, 2**20 and 2**22 took +0%, -7% and +5% search time against scoring
# one proposal at a time. A batch holds at least one candidate.
_BATCH = 1 << 20
# A batch also holds at most this many candidates. Without it, a long run of
# rejections doubles batches to hundreds of small candidates, and those
# scored after an early keep cost more than the rounds they save: in-process,
# one BLAS thread, ResNet-50 at 1/8 width took 3-4% less search time with
# it, and ResNet-18 in the large regime, whose work bound is lower, did not
# move.
_MAX_BATCH = 16
# Proposals are drawn in blocks of at most this many pairs (1 MB), so memory
# does not grow with the iteration count.
_DRAWS = 1 << 16
# ``pairs @ (g * _SWAP_SIGNS)`` is ``(g*(b-a), g*(a-b))`` for each pair ``(a, b)``
_SWAP_SIGNS = np.array([[-1, 1], [1, -1]])


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
        self.d, self.block, self.children = d, block, len(matrices)
        n = units.size
        m = n * block
        # row m of each shifted matrix is all ones, and every chunk gathers it
        # last: the chunk's last moment row then holds its sums and its count
        self.shifted = [np.vstack([matrix - matrix.mean(), np.ones(matrix.shape[1])])
                        for matrix in matrices]
        self.order = np.append(_unit_rows(units, block), m)  # the row at each position
        # chunk c holds positions c*d, ..., c*d + d-1 and, last, m: the ones row
        grid = np.hstack([np.arange(m).reshape(-1, d), np.full((m // d, 1), m)])
        # a unit starts a multiple of gcd(block, d) rows into a chunk, so it
        # touches at most `span` chunks: those of its rows d apart and its last
        span = (block + d - math.gcd(block, d) - 1) // d + 1
        probe = np.minimum(np.arange(span) * d, block - 1)
        touch = grid[(np.arange(n)[:, None] * block + probe) // d]
        # per unit, the positions of the chunks it touches and the unit each
        # position belongs to (the ones row to none: n), and those chunks
        self._swap = np.stack([touch, touch // block])
        self._chunks = touch[..., 0] // d
        self._unit_positions = np.arange(m).reshape(n, block)
        # moves the first unit's rows of a pair to the second's place, and back
        self._shift = block * _SWAP_SIGNS
        # lane 0 holds the current chunk moments, lane i the chunks candidate i of a round folds
        self._lanes = self._moments(grid)[None]
        # values one candidate touches: its lane, its chunks' einsum products
        self.work = self._lanes.size + 2 * span * (d + 1) ** 2 * sum(x.shape[1] for x in matrices)

    def _moments(self, positions: np.ndarray) -> np.ndarray:
        """Augmented second moments ``(..., C, d+1, d+1)`` of the chunks at `positions`."""
        rows = self.order[positions.reshape(-1, self.d + 1)]
        out = np.empty((rows.shape[0], self.children, self.d + 1, self.d + 1))
        for c, shifted in enumerate(self.shifted):
            chunks = shifted[rows]
            # einsum keeps the reduction off BLAS so results do not depend on thread count
            np.einsum("tin,tjn->tij", chunks, chunks, out=out[:, c])
        return out.reshape(positions.shape[:-1] + out.shape[1:])

    @property
    def moments(self) -> np.ndarray:
        """The current chunk moments ``(C, children, d+1, d+1)``."""
        return self._lanes[0]

    def objectives(self) -> np.ndarray:
        """Regularized logdet of each child's subvector covariance."""
        return _logdets(self.moments.sum(axis=0))

    def score(self, pairs: np.ndarray) -> np.ndarray:
        """Summed chunk moments ``(B, children, d+1, d+1)`` after each swap of ``pairs[i]``.

        Every candidate swaps against the current order. The chunks the two
        units touch are recomputed for all candidates at once (a chunk both
        touch, twice). Candidate i's lane holds lane 0's current chunks with
        its own written over them, and one sum over the chunk axis folds
        every lane; the current chunks are then written back. That sum adds
        the chunks one at a time in chunk order, as `objectives` does, so
        each candidate's total is bit for bit the one its order has, which
        `commit` makes current.
        """
        count = pairs.shape[0]
        # the positions of each touched chunk, then with the two units' rows exchanged
        positions, units = self._swap[:, pairs]
        moved = units[..., None] == pairs[:, None, None, None, :]
        positions += (moved @ (pairs @ self._shift)[:, None, None, :, None])[..., 0]
        chunks, moments = self._chunks[pairs], self._moments(positions)
        self._scored = (pairs, chunks, moments)
        if len(self._lanes) <= count:
            self._lanes = np.repeat(self._lanes[:1], count + 1, axis=0)
            self._lane = np.arange(1, count + 1)[:, None, None]
        lanes, lane = self._lanes, self._lane[:count]
        lanes[lane, chunks] = moments
        totals = lanes[1 : count + 1].sum(axis=1)
        lanes[lane, chunks] = lanes[0, chunks]
        return totals

    def commit(self, i: int):
        """Keep candidate `i` of the last `score`, reusing the moments it computed."""
        pairs, chunks, moments = self._scored
        self._lanes[:, chunks[i]] = moments[i]
        positions = self._unit_positions[pairs[i]]
        self.order[positions] = self.order[positions[::-1]]


def _families(specs, units: np.ndarray) -> list:
    """`_ChunkMoments` of ``(matrix, d, block)`` children, one per `(d, block)`."""
    by_shape = {}
    for matrix, d, block in specs:
        by_shape.setdefault((d, block), []).append(matrix)
    return [_ChunkMoments(ms, d, block, units) for (d, block), ms in by_shape.items()]


def _total(families) -> float:
    """Summed objective of every child of `families`."""
    return sum(float(f.objectives().sum()) for f in families)


def _score(families, pairs: np.ndarray) -> np.ndarray:
    """Summed objective of every child of `families` after each swap of ``pairs[i]``.

    Families of one `d` take their logdets in one call. Each family's children
    are summed, then the families in order, as `_total` sums them.
    """
    totals = [f.score(pairs) for f in families]
    sums = [None] * len(families)
    for d in dict.fromkeys(f.d for f in families):
        members = [i for i, f in enumerate(families) if f.d == d]
        stack = [totals[i] for i in members]
        logdets = _logdets(np.concatenate(stack, axis=1) if len(stack) > 1 else stack[0])
        end = 0
        for i in members:
            start, end = end, end + families[i].children
            sums[i] = logdets[:, start:end].sum(axis=-1)
    return sum(sums)


def _pairs(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """The next `count` unit pairs ``(count, 2)`` the search proposes, drawn at once.

    They are the draws ``integers(n)``, ``integers(n - 1)`` a loop of scalar
    calls would make: an array of bounds consumes the stream in the same
    order. The second unit skips the first, so the two differ.
    """
    pairs = rng.integers(np.tile([n, n - 1], count)).reshape(count, 2)
    pairs[:, 1] += pairs[:, 1] >= pairs[:, 0]
    return pairs


def _swap_search(families, units: np.ndarray, iters: int, seed: int):
    """Random pair swaps of `units`, in place, kept when they lower the objective.

    `families` are the children's `_ChunkMoments`, set up at `units`. The
    proposals are scored speculatively, a batch at a time against the
    current order, and the first candidate of a batch below the current
    objective is kept; the next batch starts right after it. This is exact:
    a rejected proposal leaves the order as it was and the pairs do not
    depend on the decisions, so every candidate is scored on the order a
    one-at-a-time loop would score it on, and the same proposals are kept.
    A batch starts at one pair, doubles after a batch that keeps none, holds
    twice the pairs up to the kept one after one that keeps, and holds no
    more candidates than fit `_BATCH` values of work, nor more than
    `_MAX_BATCH`; the result does not depend on these sizes. Deterministic
    given `seed`.
    """
    n = units.shape[0]
    if n < 2 or iters <= 0:
        return units
    rng = make_rng(seed, "perm-local-search")
    current = _total(families)
    cap = max(1, min(_BATCH // sum(f.work for f in families), _MAX_BATCH))
    size = 1
    for first in range(0, iters, _DRAWS):
        pairs = _pairs(rng, n, min(_DRAWS, iters - first))
        start = 0
        while start < len(pairs):
            batch = pairs[start : start + size]
            scores = _score(families, batch)
            better = (scores < current).nonzero()[0]
            if better.size == 0:
                start, size = start + len(batch), min(2 * size, cap)
                continue
            j = int(better[0])
            for family in families:
                family.commit(j)
            current = scores[j]
            start, size = start + j + 1, min(2 * (j + 1), cap)
    # every family keeps the order; unit u starts the row at position u*block
    family = families[0]
    units[:] = family.order[: -1 : family.block] // family.block
    return units


def _check_divides(m: int, d: int, block: int):
    """Raise `IndivisibleBlockSize` unless `block` and `d` both divide `m` rows."""
    if block <= 0 or m % block != 0:
        raise IndivisibleBlockSize(f"block {block} does not divide {m} rows")
    if d <= 0 or m % d != 0:
        raise IndivisibleBlockSize(f"subvector size {d} does not divide {m} rows")


def local_search(weight, d: int, block: int, init_units, iters: int, seed: int) -> np.ndarray:
    """Refine an order of the `block`-row units by random swaps, keeping strict improvements.

    Each iteration proposes swapping two distinct units chosen uniformly at
    random and rescores it from per-chunk moments, recomputing only the
    chunks of `d` rows that hold the two units; the returned order never
    scores worse than `init_units`, which is left as it is. Deterministic
    given `seed`.
    """
    matrix = np.asarray(weight, dtype=np.float64)
    m = matrix.shape[0]
    _check_divides(m, d, block)
    units = np.array(init_units, dtype=np.int64)
    if not is_permutation(units, m // block):
        raise IndivisibleBlockSize(f"initial order is not a permutation of {m // block} units")
    families = _families([(matrix, d, block)], units)
    return _swap_search(families, units, iters, seed)


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
    Returns the channel order.
    """
    specs = [(np.asarray(w, dtype=np.float64), int(d), int(block)) for w, d, block in children]
    if not specs:
        raise MismatchedChannelCounts("need at least one child")

    for matrix, d, block in specs:
        _check_divides(matrix.shape[0], d, block)
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
        starts.append(greedy_init(matrix, d, block))
    # min keeps the first of equal scores: the identity wins a tie
    units, families = min(((u, _families(specs, u)) for u in starts), key=lambda s: _total(s[1]))
    return Permutation(_swap_search(families, units, iters, seed))
