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
current order and needs no periodic exact recompute. A group sets up each
family of children once; a start adds only its order and chunk moments. `matrix_objective`
evaluates the same objective from the covariance formula; it is the
reference the search is tested against, not a second path through it.

Proposals are scored speculatively, many in one vectorized pass. The random
pairs do not depend on the decisions, and a rejected swap leaves the order
as it was, so a batch of upcoming pairs is scored against the current order
at once; the first candidate below the current objective is kept and the
next batch starts right after it. Every candidate sums its chunks in the
same fixed order, so the search keeps exactly the swaps that scoring one
proposal at a time keeps, whatever the batch sizes.

A scoring round advances every group of a wave at once. Groups are set up
in waves bounded by the float64 values their searches hold; a group's input
matrices are dropped once its chunk moments exist, and a group with nothing
to search holds nothing. Each round scores every active group's next batch
against that group's own order, takes the logdets of all their candidates
in one Cholesky call per subvector size, and keeps each group's first
strict improvement, so the round's fixed cost of numpy calls is paid once
for the wave rather than once per group. Within a group, each family keeps
one lane per candidate besides the current chunk moments, a copy of them,
and the round writes each candidate's recomputed chunks into its lane; one
sum over the chunk axis then folds every lane, and the written chunks are
put back. A sum over an axis that is not the innermost adds the chunks one
at a time in chunk order, the sequential fold that scores the current
order, and a Cholesky factor depends only on its own matrix, so every
candidate scores bit for bit what its order scores, whichever batches and
groups share its round. Folding the chunks before the first one a round
touches once, as a prefix shared by all lanes, would be exact for the same
reason; it is left out, because it costs more calls than the reads it saves
at the batch sizes the search uses. The chunks each proposal touches are
tabled once per block of draws, not once per round.

When every swap unit of a layer holds whole subvectors (its rows per unit are
a multiple of the subvector size d, as for a 3x3 convolution with d = 9), a
swap only reorders subvectors and cannot change that layer's covariance, so
the group search leaves such layers out and skips groups made only of them.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import IndivisibleBlockSize, MismatchedChannelCounts, TooFewSubvectors
from .layout import is_permutation, split_matrix, subvector_points
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


def subvector_covariance(subvectors) -> np.ndarray:
    """The `(d, d)` mean-centered covariance (1/N normalization) over all subvectors."""
    pts, _ = subvector_points(subvectors)
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
# Proposals are drawn, and their swap tables built, in blocks of at most
# this many values (the pairs, and per family the positions and chunks each
# pair touches) and at least one pair, so memory does not grow with the
# iteration count and stays small where a pair touches wide chunks.
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
    unit order and never drifts. The set-up is order-free; `at` adds an order.
    """

    def __init__(self, matrices, d: int, block: int):
        self.d, self.block, self.children = d, block, len(matrices)
        self.m = m = matrices[0].shape[0]
        n = m // block
        # row m of each shifted matrix is all ones, and every chunk gathers it
        # last: the chunk's last moment row then holds its sums and its count
        self.shifted = [np.empty((m + 1, matrix.shape[1])) for matrix in matrices]
        for matrix, shifted in zip(matrices, self.shifted):
            np.subtract(matrix, matrix.mean(), out=shifted[:m])
            shifted[m] = 1.0
        # chunk c holds positions c*d, ..., c*d + d-1 and, last, m: the ones row
        self._grid = grid = np.hstack([np.arange(m).reshape(-1, d), np.full((m // d, 1), m)])
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
        # values held: the shifted rows and one lane; a pair's swap table
        self.lane = (m // d) * self.children * (d + 1) ** 2
        self.values = sum(x.size for x in self.shifted) + self.lane
        self.table = 2 * span * (d + 2)
        # values one candidate touches: its lane, its chunks' einsum products
        self.work = self.lane + 2 * span * (d + 1) ** 2 * sum(x.shape[1] for x in matrices)

    def at(self, units: np.ndarray) -> _ChunkMoments:
        """A copy at the unit order `units` that shares the shifted rows, grid and swap tables."""
        other = copy.copy(self)
        other.order = np.append(_unit_rows(units, self.block), self.m)  # the row at each position
        # lane 0 holds the current chunk moments, lane i the chunks candidate i of a round folds
        other._lanes = other._moments(self._grid)[None]
        return other

    def _moments(self, positions: np.ndarray) -> np.ndarray:
        """Augmented second moments ``(..., C, d+1, d+1)`` of the chunks at `positions`."""
        rows = self.order[positions.reshape(-1, self.d + 1)]
        out = np.empty((rows.shape[0], self.children, self.d + 1, self.d + 1))
        for c, shifted in enumerate(self.shifted):
            chunks = shifted[rows]
            # einsum keeps the reduction off BLAS so results do not depend on thread count
            np.einsum("tin,tjn->tij", chunks, chunks, out=out[:, c])
            del chunks  # before the next child's are gathered
        return out.reshape(positions.shape[:-1] + out.shape[1:])

    @property
    def moments(self) -> np.ndarray:
        """The current chunk moments ``(C, children, d+1, d+1)``."""
        return self._lanes[0]

    def objectives(self) -> np.ndarray:
        """Regularized logdet of each child's subvector covariance."""
        return _logdets(self.moments.sum(axis=0))

    def draw(self, pairs: np.ndarray):
        """Build the swap table of a block of proposals ``pairs`` ``(P, 2)``.

        Per pair, the positions of the chunks the two units touch, with the
        two units' rows exchanged, and those chunks. They do not depend on
        the order, only on which positions the units hold, so a table serves
        every round of the block.
        """
        positions, units = self._swap[:, pairs]
        moved = units[..., None] == pairs[:, None, None, None, :]
        positions += (moved @ (pairs @ self._shift)[:, None, None, :, None])[..., 0]
        self._table = (pairs, positions, self._chunks[pairs])

    def score(self, lo: int, hi: int) -> np.ndarray:
        """Summed chunk moments ``(B, children, d+1, d+1)`` after each swap ``lo..hi-1`` of the drawn block.

        Every candidate swaps against the current order. The chunks the two
        units touch are recomputed for all candidates at once (a chunk both
        touch, twice). Candidate i's lane holds lane 0's current chunks with
        its own written over them, and one sum over the chunk axis folds
        every lane; the current chunks are then written back. That sum adds
        the chunks one at a time in chunk order, as `objectives` does, so
        each candidate's total is bit for bit the one its order has, which
        `commit` makes current.
        """
        pairs, positions, chunks = (table[lo:hi] for table in self._table)
        count = hi - lo
        moments = self._moments(positions)
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

    def units(self) -> np.ndarray:
        """The current unit order; unit u starts the row at position u*block."""
        return self.order[: -1 : self.block] // self.block


def _families(specs, units: np.ndarray) -> list:
    """`_ChunkMoments` of ``(matrix, d, block)`` children, one per `(d, block)`."""
    by_shape = {}
    for matrix, d, block in specs:
        by_shape.setdefault((d, block), []).append(matrix)
    return [_ChunkMoments(ms, d, block).at(units) for (d, block), ms in by_shape.items()]


def _total(families) -> float:
    """Summed objective of every child of `families`."""
    return sum(float(f.objectives().sum()) for f in families)


def _score(batches) -> list:
    """Summed objective after each swap of each batch: one array per batch.

    A batch is ``(families, lo, hi)``, one group's families and the
    proposals ``lo..hi-1`` of their drawn block. The logdets of every family
    of one `d`, over all batches, are taken in one call; each matrix's value
    does not depend on the others in the call. Each family's children are
    summed, then a batch's families in order, as `_total` sums them.
    """
    families = [f for fs, _, _ in batches for f in fs]
    totals = [f.score(lo, hi) for fs, lo, hi in batches for f in fs]
    sums = [None] * len(families)
    for d in dict.fromkeys(f.d for f in families):
        members = [i for i, f in enumerate(families) if f.d == d]
        stack = [totals[i].reshape(-1, d + 1, d + 1) for i in members]
        logdets = _logdets(np.concatenate(stack) if len(stack) > 1 else stack[0])
        end = 0
        for i, part in zip(members, stack):
            start, end = end, end + len(part)
            sums[i] = logdets[start:end].reshape(totals[i].shape[:2]).sum(axis=-1)
    out, end = [], 0
    for fs, _, _ in batches:
        start, end = end, end + len(fs)
        out.append(sum(sums[start:end]))
    return out


def _pairs(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """The next `count` unit pairs ``(count, 2)`` the search proposes, drawn at once.

    They are the draws ``integers(n)``, ``integers(n - 1)`` a loop of scalar
    calls would make: an array of bounds consumes the stream in the same
    order. The second unit skips the first, so the two differ.
    """
    pairs = rng.integers(np.tile([n, n - 1], count)).reshape(count, 2)
    pairs[:, 1] += pairs[:, 1] >= pairs[:, 0]
    return pairs


@dataclass(frozen=True, eq=False)
class GroupSearch:
    """One group's unit order, and how the search found it.

    A group none of whose children can change under a swap has no search:
    `start` is None and the rest is 0. Otherwise `start` is the start taken,
    ``"identity"`` or ``"greedy"``; the three objectives are the summed
    objective of those children at the identity, at the start and at the
    returned order; `proposals` counts the candidates scored (a speculative
    one scored after a kept swap counts, and is scored again), `swaps` the
    swaps kept and `rounds` the scoring rounds.
    """

    units: np.ndarray
    start: str | None = None
    identity_objective: float = 0.0
    start_objective: float = 0.0
    final_objective: float = 0.0
    proposals: int = 0
    swaps: int = 0
    rounds: int = 0


class _Search:
    """One group's random pair swaps, kept when they lower the objective.

    `families` are the children's `_ChunkMoments`, set up at the start
    order that `found` holds, with its objective. The proposals are scored
    speculatively, a batch at a time against the current order, and the
    first candidate of a batch below the current objective is kept; the
    next batch starts right after it. This is exact: a rejected proposal
    leaves the order as it was and the pairs do not depend on the
    decisions, so every candidate is scored on the order a one-at-a-time
    loop would score it on, and the same proposals are kept. A batch starts
    at one pair, doubles after a batch that keeps none, holds twice the
    pairs up to the kept one after one that keeps, and holds no more
    candidates than fit `_BATCH` values of work, nor more than `_MAX_BATCH`,
    nor more than are left of the drawn block; the result does not depend
    on these sizes. Deterministic given `seed`.
    """

    def __init__(self, families, iters: int, seed: int, found: GroupSearch):
        self.families, self.found, self.current = families, found, found.final_objective
        self.n = families[0].units().size
        self.left = max(iters, 0) if self.n >= 2 else 0  # proposals not yet drawn
        self.rng = make_rng(seed, "perm-local-search")
        self.cap = max(1, min(_BATCH // sum(f.work for f in families), _MAX_BATCH))
        table = 2 + sum(f.table for f in families)
        self.block = max(1, _DRAWS // table)
        # values held at most: shifted rows, every lane, one block's pairs and tables
        self.held = sum(f.values + self.cap * f.lane for f in families) + min(self.block, self.left) * table
        self.lo = self.hi = self.drawn = 0
        self.size = 1
        self.proposals = self.swaps = self.rounds = 0

    def next(self) -> bool:
        """Set the next batch ``lo..hi-1``; False once every proposal is decided."""
        if self.lo == self.drawn:
            if not self.left:
                return False
            self.drawn = min(self.block, self.left)
            self.left -= self.drawn
            pairs = _pairs(self.rng, self.n, self.drawn)
            for family in self.families:
                family.draw(pairs)
            self.lo = 0
        self.hi = min(self.lo + self.size, self.drawn)
        return True

    def decide(self, scores: np.ndarray):
        """Keep the first candidate of the batch below the current objective, if any."""
        self.rounds += 1
        self.proposals += len(scores)
        better = (scores < self.current).nonzero()[0]
        if better.size == 0:
            self.lo, self.size = self.hi, min(2 * self.size, self.cap)
            return
        j = int(better[0])
        for family in self.families:
            family.commit(j)
        self.current = scores[j]
        self.swaps += 1
        self.lo, self.size = self.lo + j + 1, min(2 * (j + 1), self.cap)

    def result(self) -> GroupSearch:
        # every family keeps the order
        return replace(self.found, units=self.families[0].units(), final_objective=float(self.current),
                       proposals=self.proposals, swaps=self.swaps, rounds=self.rounds)


def _run(searches):
    """Advance every search to its end, each round scoring one batch of every active search."""
    active = [s for s in searches if s.next()]
    while active:
        for search, scores in zip(active, _score([(s.families, s.lo, s.hi) for s in active])):
            search.decide(scores)
        active = [s for s in active if s.next()]


def _swap_search(families, units: np.ndarray, iters: int, seed: int) -> np.ndarray:
    """The unit order `_Search` finds from `families`, set up at `units`."""
    search = _Search(families, iters, seed, GroupSearch(units, final_objective=_total(families)))
    _run([search])
    return search.result().units


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
    return _swap_search(_families([(matrix, d, block)], units), units, iters, seed)


def _setup(children, iters: int, seed: int):
    """Check one group's children, pick its start and set up its search.

    Returns the group's `GroupSearch` when nothing is left to search, and
    its `_Search` otherwise; neither holds the children's matrices.
    """
    specs = [(np.asarray(w, dtype=np.float64), int(d), int(block)) for w, d, block in children]
    if not specs:
        raise MismatchedChannelCounts("need at least one child")

    for matrix, d, block in specs:
        _check_divides(matrix.shape[0], d, block)
    counts = sorted({matrix.shape[0] // block for matrix, _, block in specs})
    if len(counts) > 1:
        raise MismatchedChannelCounts(f"children disagree on channels: {counts}")

    specs = [spec for spec in specs if spec[2] % spec[1] != 0]
    units = np.arange(counts[0], dtype=np.int64)
    if not specs:
        return GroupSearch(units)
    families = _families(specs, units)
    identity = _total(families)
    found = GroupSearch(units, "identity", identity, identity, identity)
    # greedy initialization needs whole blocks inside each subvector
    matrix, d, block = max(specs, key=lambda s: s[0].size)
    if d % block == 0:
        units = greedy_init(matrix, d, block)
        greedy = [family.at(units) for family in families]
        total = _total(greedy)
        if total < identity:  # a tie keeps the identity
            families, found = greedy, GroupSearch(units, "greedy", identity, total, total)
    return _Search(families, iters, seed, found) if iters > 0 and units.size > 1 else found


# A wave of groups takes searches until they hold this many float64 values
# (`_Search.held`), then they advance together. On ResNet-50 at 1/8 width,
# 100 proposals, one BLAS thread, the group search took 109, 90, 86 and
# 85 ms (medians of 20) with one group per wave, 2**16 values, 2**18 and all
# 21 searches at once. After eight compress runs in one process, peak RSS
# was the per-group search's with 2**16 and 0.5 MB above it with 2**18.
_WAVE = 1 << 16


def search_groups(groups, iters: int):
    """Find one channel permutation per group; yields each group's `GroupSearch`, in order.

    `groups` yields ``(children, seed)`` for each group: `children` is a
    list of ``(weight_matrix, d, block)`` tuples where `block` is the number
    of matrix rows per shared channel (K*K for convolutions). A child with
    ``block % d == 0`` holds whole subvectors in every channel, so a channel
    permutation only reorders its subvectors and cannot change its
    objective: such children are left out after their row counts are
    checked, so their matrices may have no columns, and a group of nothing
    else keeps the identity without a search. The summed objective of the
    other children is optimized: the greedy initialization comes from the
    largest of them, the identity, scored on the same set-up of each family,
    is kept instead when it scores no worse, and `iters` proposals of random
    swaps then keep strict improvements of the sum (`_Search`, with the
    group's `seed`).

    Groups are set up in waves. A wave takes groups until their searches
    hold `_WAVE` float64 values, so it holds at most that plus one group;
    then every search of the wave advances together, one batch of each in
    every scoring round (`_run`), and the wave's results are yielded. A
    group's matrices are dropped once its chunk moments exist, and a group
    with nothing to search holds nothing. Each group's order depends only
    on its own children and seed.
    """
    wave, held = [], 0
    for children, seed in groups:
        wave.append(_setup(children, iters, seed))
        del children  # the chunk moments hold all the search needs
        if isinstance(wave[-1], _Search):
            held += wave[-1].held
        if held >= _WAVE:
            yield from _finish(wave)
            wave, held = [], 0
    yield from _finish(wave)


def _finish(wave):
    """Run the searches of `wave` together and yield every group's `GroupSearch`."""
    searches = [s for s in wave if isinstance(s, _Search)]
    _run(searches)
    for item in wave:
        yield item.result() if isinstance(item, _Search) else item


def optimize_group_permutation(children, iters: int = 1000, seed: int = 0) -> Permutation:
    """Find one channel permutation shared by all `children`; returns the channel order.

    The search of `search_groups` for one group of ``(weight_matrix, d, block)`` children.
    """
    (search,) = search_groups([(children, seed)], iters)
    return Permutation(search.units)
