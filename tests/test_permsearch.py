import itertools

import numpy as np
import pytest

from pqf import permsearch
from pqf.errors import IndivisibleBlockSize, MismatchedChannelCounts, TooFewSubvectors
from pqf.permsearch import (
    CovarianceStats,
    Permutation,
    expand_channel_permutation,
    greedy_init,
    local_search,
    logdet,
    matrix_objective,
    optimize_group_permutation,
    permuted_objective,
    rd_lower_bound,
    subvector_covariance,
)
from pqf.rng import gaussian, make_rng


# ---------------------------------------------------------------------------
# Covariance
# ---------------------------------------------------------------------------

def test_identical_subvectors_have_zero_covariance():
    pts = np.tile([1.5, -2.0, 0.25], (10, 1))
    stats = subvector_covariance(pts)
    assert np.allclose(stats.sigma, 0.0)
    assert stats.count == 10


def test_two_point_covariance_by_hand():
    stats = subvector_covariance(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert np.allclose(stats.sigma, [[1.0, 0.0], [0.0, 0.0]])


def test_covariance_matches_sampling_oracle():
    rng = make_rng(11, "cov")
    a = rng.standard_normal((4, 4))
    true_sigma = a @ a.T + 0.5 * np.eye(4)
    chol = np.linalg.cholesky(true_sigma)
    samples = gaussian(make_rng(12, "cov-samples"), (1000, 4)) @ chol.T
    stats = subvector_covariance(samples)
    rel = np.abs(stats.sigma - true_sigma) / np.abs(true_sigma).max()
    assert rel.max() < 0.10
    # PSD invariant: eigenvalues above the tolerance floor
    eigs = np.linalg.eigvalsh(stats.sigma)
    assert eigs.min() >= -1e-10 * np.trace(stats.sigma) / 4


def test_too_few_subvectors():
    with pytest.raises(TooFewSubvectors):
        subvector_covariance(np.ones((1, 3)))


# ---------------------------------------------------------------------------
# logdet and the rate-distortion bound
# ---------------------------------------------------------------------------

def test_logdet_identity_is_zero():
    stats = CovarianceStats(np.eye(2), 10, np.zeros(2))
    assert abs(logdet(stats)) < 1e-11


def test_logdet_diagonal():
    stats = CovarianceStats(np.diag([2.0, 8.0]), 10, np.zeros(2))
    assert abs(logdet(stats) - np.log(16.0)) < 1e-9


def test_logdet_matches_eigenvalue_oracle():
    rng = make_rng(13, "logdet")
    a = rng.standard_normal((6, 6))
    sigma = a @ a.T + 0.1 * np.eye(6)
    stats = CovarianceStats(sigma, 10, np.zeros(6))
    d = 6
    eps = 1e-12 * max(np.trace(sigma) / d, 1.0)
    oracle = float(np.sum(np.log(np.linalg.eigvalsh(sigma + eps * np.eye(d)))))
    assert abs(logdet(stats) - oracle) <= 1e-9 * abs(oracle)


def test_rd_bound_direct_substitutions():
    eye = CovarianceStats(np.eye(2), 10, np.zeros(2))
    assert rd_lower_bound(eye, k=4) == pytest.approx(0.5)
    zero = CovarianceStats(np.zeros((2, 2)), 10, np.zeros(2))
    assert rd_lower_bound(zero, k=4) == 0.0
    aniso = CovarianceStats(np.diag([1.0, 4.0]), 10, np.zeros(2))
    assert rd_lower_bound(aniso, k=16) == pytest.approx(0.25)


def test_logdet_survives_indefinite_input():
    # hand-built stats can be slightly indefinite; the eigenvalue fallback
    # must still return a finite, clipped value
    stats = CovarianceStats(np.diag([1.0, -0.5]), 10, np.zeros(2))
    value = logdet(stats)
    assert np.isfinite(value)
    zero = CovarianceStats(np.zeros((3, 3)), 10, np.zeros(3))
    assert np.isfinite(logdet(zero))


def test_hadamard_consistency_on_random_instances():
    rng = make_rng(14, "hadamard")
    for trial in range(20):
        pts = rng.standard_normal((50, 4)) * rng.random(4) * 3.0
        stats = subvector_covariance(pts)
        diag = np.diag(stats.sigma)
        eps = 1e-12 * max(np.trace(stats.sigma) / 4, 1.0)
        assert logdet(stats) <= float(np.sum(np.log(diag + eps))) + 1e-9


# ---------------------------------------------------------------------------
# Permutation mechanics
# ---------------------------------------------------------------------------

def test_permutation_block_validation():
    Permutation(np.array([2, 3, 0, 1]), block=2).validate()
    with pytest.raises(IndivisibleBlockSize):
        Permutation(np.array([1, 2, 3, 0]), block=2).validate()
    with pytest.raises(IndivisibleBlockSize):
        Permutation(np.array([0, 0, 1, 2]), block=1).validate()


def test_permutation_preserves_row_multiset_and_inverts():
    rng = make_rng(15, "perm")
    matrix = rng.standard_normal((12, 5))
    perm = Permutation(rng.permutation(12))
    permuted = perm.apply_rows(matrix)
    assert np.array_equal(np.sort(permuted, axis=0), np.sort(matrix, axis=0))
    assert np.array_equal(perm.invert_rows(permuted), matrix)
    assert np.array_equal(perm.inverse().apply_rows(permuted), matrix)


def test_expand_channel_permutation():
    perm = expand_channel_permutation([2, 0, 1], 3)
    assert np.array_equal(perm.indices, [6, 7, 8, 0, 1, 2, 3, 4, 5])
    assert perm.block == 3
    perm.validate()


# ---------------------------------------------------------------------------
# Greedy initialization
# ---------------------------------------------------------------------------

def test_greedy_hand_trace():
    # rows with variances 4, 3, 2, 1 (zero mean), d=2 -> buckets {4,1}, {3,2},
    # interlaced as var-4, var-3, var-1, var-2
    rows = np.array(
        [
            [2.0, -2.0],
            [np.sqrt(3.0), -np.sqrt(3.0)],
            [np.sqrt(2.0), -np.sqrt(2.0)],
            [1.0, -1.0],
        ]
    )
    perm = greedy_init(rows, d=2, block=1)
    assert np.array_equal(perm.indices, [0, 1, 3, 2])


def test_greedy_identical_rows_is_valid_and_neutral():
    matrix = np.ones((8, 6))
    perm = greedy_init(matrix, d=2, block=1)
    perm.validate()
    assert permuted_objective(matrix, 2, perm.indices) == pytest.approx(
        matrix_objective(matrix, 2)
    )


def test_greedy_single_capacity_buckets():
    matrix = make_rng(16, "greedy").standard_normal((18, 4))
    perm = greedy_init(matrix, d=18, block=9)
    perm.validate()
    assert perm.block == 9
    # capacity 1: exactly one 9-row group per bucket, so groups stay whole
    groups = perm.indices.reshape(2, 9) // 9
    assert sorted(g[0] for g in groups) == [0, 1]


def _loop_group_scores(matrix, block):
    """Per-block covariance logdets, one block at a time."""
    n = matrix.shape[1]
    scores = np.empty(matrix.shape[0] // block)
    for g in range(scores.size):
        rows = matrix[g * block : (g + 1) * block]
        centered = rows - rows.mean(axis=1, keepdims=True)
        scores[g] = permsearch._regularized_logdet(np.einsum("in,jn->ij", centered, centered) / n)
    return scores


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_batched_block_scores_equal_the_per_block_loop(seed):
    rng = make_rng(seed, "block-scores")
    for block in range(2, 10):
        rows, cols = 6 * block, int(rng.integers(2, 30))  # fewer columns than rows per block too
        scale = 10.0 ** rng.uniform(-3.0, 3.0, (rows, 1))
        matrix = rng.standard_normal((rows, cols)) * scale + rng.uniform(-5.0, 5.0)
        assert np.array_equal(permsearch._group_scores(matrix, block), _loop_group_scores(matrix, block))


def test_greedy_rejects_bad_blocks():
    with pytest.raises(IndivisibleBlockSize):
        greedy_init(np.zeros((8, 3)), d=3, block=1)
    with pytest.raises(IndivisibleBlockSize):
        greedy_init(np.zeros((8, 3)), d=4, block=3)


# ---------------------------------------------------------------------------
# Local search
# ---------------------------------------------------------------------------

def _pairing_optimum(matrix):
    """Exhaustive optimum of the d=2 subvector objective over 4 rows... or 8.

    Enumerates every way to order the rows into consecutive pairs (pair
    order is irrelevant to the pooled covariance, within-pair order is not).
    """
    m = matrix.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(m)):
        if perm[0] != min(perm[::2]):  # canonical pair order cuts duplicates
            pass
        best = min(best, permuted_objective(matrix, 2, np.array(perm)))
    return best


def test_local_search_zero_iters_returns_init():
    matrix = make_rng(17, "ls").standard_normal((8, 5))
    init = Permutation(np.arange(8))
    out = local_search(matrix, 2, 1, init, iters=0, seed=0)
    assert np.array_equal(out.indices, init.indices)


def test_local_search_rejects_subvector_size_not_dividing_rows():
    init = Permutation(np.arange(6))
    with pytest.raises(IndivisibleBlockSize):
        local_search(np.ones((6, 5)), 4, 1, init, iters=0, seed=0)


def test_local_search_never_worse_and_prefix_monotone():
    matrix = make_rng(18, "ls2").standard_normal((8, 40))
    init = greedy_init(matrix, 2, 1)
    base = permuted_objective(matrix, 2, init.indices)
    prev = base
    for iters in (5, 10, 50, 200):
        out = local_search(matrix, 2, 1, init, iters=iters, seed=5)
        obj = permuted_objective(matrix, 2, out.indices)
        assert obj <= base + 1e-12
        assert obj <= prev + 1e-12  # same seed: longer runs extend the same path
        prev = obj


def test_local_search_finds_known_pairing():
    # two perfectly correlated row pairs placed apart: optimum pairs them up
    hits = 0
    for seed in range(20):
        rng = make_rng(seed, "pairing")
        a, b = rng.standard_normal((2, 30))
        noise = 0.01 * rng.standard_normal((4, 30))
        matrix = np.stack([a, b, a * 1.05, b * 0.95]) + noise
        init = greedy_init(matrix, 2, 1)
        out = local_search(matrix, 2, 1, init, iters=1000, seed=seed)
        achieved = permuted_objective(matrix, 2, out.indices)
        if achieved <= _pairing_optimum(matrix) + 1e-9:
            hits += 1
    assert hits >= 19


def test_local_search_respects_blocks():
    matrix = make_rng(19, "ls3").standard_normal((18, 10))
    init = greedy_init(matrix, 18, 9)
    out = local_search(matrix, 18, 9, init, iters=50, seed=1)
    out.validate()
    assert out.block == 9


# ---------------------------------------------------------------------------
# Shared group permutations
# ---------------------------------------------------------------------------

def test_single_child_reduces_to_local_search():
    matrix = make_rng(20, "group1").standard_normal((12, 25))
    d, block, iters, seed = 2, 1, 120, 3
    greedy = greedy_init(matrix, d, block)
    identity = Permutation.identity(12)
    init = (
        greedy
        if permuted_objective(matrix, d, greedy.indices)
        < permuted_objective(matrix, d, identity.indices)
        else identity
    )
    expected = local_search(matrix, d, block, init, iters, seed)
    group = optimize_group_permutation([(matrix, d, block)], iters=iters, seed=seed)
    assert np.array_equal(group.indices, expected.indices)


def test_two_identical_children_match_single_child():
    matrix = make_rng(21, "group2").standard_normal((8, 30))
    solo = optimize_group_permutation([(matrix, 2, 1)], iters=150, seed=9)
    duo = optimize_group_permutation([(matrix, 2, 1), (matrix, 2, 1)], iters=150, seed=9)
    assert np.array_equal(solo.indices, duo.indices)
    solo_obj = permuted_objective(matrix, 2, solo.indices)
    assert 2 * solo_obj == pytest.approx(
        sum(permuted_objective(matrix, 2, duo.indices) for _ in range(2))
    )


def test_conflicting_children_beat_identity_and_solo_optima():
    rng = make_rng(22, "group3")
    base = rng.standard_normal((8, 40))
    child_a = base.copy()
    child_a[1] = child_a[0] * 1.01 + 0.01 * rng.standard_normal(40)  # wants (0,1) apart? no: together
    child_b = base.copy()
    child_b[4] = child_b[0] * 0.99 + 0.01 * rng.standard_normal(40)  # wants (0,4) together
    children = [(child_a, 2, 1), (child_b, 2, 1)]

    def summed(indices):
        return sum(permuted_objective(m, 2, indices) for m, _, _ in children)

    out = optimize_group_permutation(children, iters=1500, seed=5)
    achieved = summed(out.indices)
    identity = summed(np.arange(8))
    assert achieved <= identity + 1e-12
    # brute-force each child's solo optimum, then apply it to both children
    for m, _, _ in children:
        best_solo, best_obj = None, np.inf
        for perm in itertools.permutations(range(8)):
            obj = permuted_objective(m, 2, np.array(perm))
            if obj < best_obj:
                best_solo, best_obj = np.array(perm), obj
        assert achieved <= summed(best_solo) + 1e-9


def test_group_channel_count_mismatch():
    with pytest.raises(MismatchedChannelCounts):
        optimize_group_permutation(
            [(np.zeros((8, 4)), 2, 1), (np.zeros((6, 4)), 2, 1)], iters=1, seed=0
        )


def test_group_with_conv_and_fc_children():
    # conv child: 4 channels x 9 rows each; fc child: 4 rows; shared channels = 4
    rng = make_rng(23, "group4")
    conv_child = rng.standard_normal((36, 12))
    fc_child = rng.standard_normal((4, 20))
    out = optimize_group_permutation([(conv_child, 9, 9), (fc_child, 2, 1)], iters=80, seed=2)
    out.validate()
    assert out.size == 4
    rows = expand_channel_permutation(out.indices, 9)
    rows.validate()
    assert rows.block == 9
    # the conv child's objective cannot move, so it does not steer the search
    solo = optimize_group_permutation([(fc_child, 2, 1)], iters=80, seed=2)
    assert np.array_equal(out.indices, solo.indices)


@pytest.mark.parametrize("d,block", [(4, 4), (4, 8), (9, 9), (9, 18)])
def test_whole_subvector_units_leave_objective_unchanged(d, block):
    rng = make_rng(24, "invariant", str(d), str(block))
    matrix = rng.standard_normal((6 * block, 15)) * rng.random((6 * block, 1))
    rows = expand_channel_permutation(rng.permutation(6), block).indices
    base = matrix_objective(matrix, d)
    assert abs(permuted_objective(matrix, d, rows) - base) <= 1e-12 * abs(base)


@pytest.mark.parametrize(
    "children",
    [
        [((36, 12), 9, 9)],
        [((36, 12), 9, 9), ((72, 5), 9, 18), ((16, 7), 4, 4)],
        [((32, 10), 4, 8), ((8, 3), 2, 2)],
    ],
)
def test_group_of_invariant_children_keeps_identity_without_search(children, monkeypatch):
    rng = make_rng(25, "invariant-group")
    specs = [(rng.standard_normal(shape), d, block) for shape, d, block in children]
    calls = []
    original = permsearch.matrix_objective
    monkeypatch.setattr(
        permsearch, "matrix_objective", lambda *a: calls.append(a) or original(*a)
    )
    out = optimize_group_permutation(specs, iters=50, seed=3)
    assert np.array_equal(out.indices, np.arange(4))
    assert out.block == 1
    assert calls == []


# ---------------------------------------------------------------------------
# Incremental swap search
# ---------------------------------------------------------------------------

def _oracle_objective(specs, units):
    return sum(
        permuted_objective(m, d, expand_channel_permutation(units, block).indices)
        for m, d, block in specs
    )


def _oracle_swap_search(specs, units, iters, seed):
    """The swap loop that recomputes every child's whole covariance per proposal."""
    units = units.copy()
    n = units.shape[0]
    current = _oracle_objective(specs, units)
    rng = make_rng(seed, "perm-local-search")
    for _ in range(iters):
        a = int(rng.integers(n))
        b = int(rng.integers(n - 1))
        if b >= a:
            b += 1
        units[[a, b]] = units[[b, a]]
        candidate = _oracle_objective(specs, units)
        if candidate < current:
            current = candidate
        else:
            units[[a, b]] = units[[b, a]]
    return units


def _scaled_matrix(rng, rows, cols):
    return rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-1.0, 1.0, (rows, 1))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "children",
    [
        [(16, 2, 1)],
        [(16, 4, 1)],
        [(16, 4, 2)],
        [(16, 4, 3)],  # units straddle chunks
        [(8, 18, 9)],
        [(12, 4, 1), (12, 4, 3), (12, 4, 1)],  # two children share a row order
    ],
    ids=["d2b1", "d4b1", "d4b2", "d4b3", "d18b9", "mixed"],
)
def test_swap_search_matches_full_recompute(children, seed):
    rng = make_rng(seed, "swap-oracle")
    specs = [
        (_scaled_matrix(rng, channels * block, int(rng.integers(3, 40))), d, block)
        for channels, d, block in children
    ]
    start = rng.permutation(children[0][0])
    expected = _oracle_swap_search(specs, start, 200, seed)
    units = start.copy()
    got = permsearch._swap_search(permsearch._families(specs, units), units, 200, seed)
    assert np.array_equal(got, expected)
    assert not np.array_equal(got, start)  # the search moved


def test_tracked_objective_follows_every_swap_and_undo():
    rng = make_rng(26, "swap-track")
    # rows scaled over 3 decades, all far below a common offset
    offset = rng.standard_normal((24, 30)) * 10.0 ** rng.uniform(-3.0, 0.0, (24, 1)) + 1e3
    specs = [(offset, 4, 1), (_scaled_matrix(rng, 24, 7), 4, 1), (_scaled_matrix(rng, 72, 11), 4, 3)]
    units = rng.permutation(24)
    families = [
        permsearch._ChunkMoments([offset, specs[1][0]], 4, 1, units),
        permsearch._ChunkMoments([specs[2][0]], 4, 3, units),
    ]
    for _ in range(300):
        a, b = (int(x) for x in rng.choice(24, 2, replace=False))
        for family in families:
            family.swap(a, b)
        if rng.random() < 0.5:
            units[[a, b]] = units[[b, a]]
        else:
            for family in families:
                family.undo()
        tracked = sum(float(f.objectives().sum()) for f in families)
        exact = _oracle_objective(specs, units)
        assert abs(tracked - exact) <= 1e-9 * abs(exact)
    # the tracked chunks equal a fresh set-up on the final order, bit for bit
    fresh = permsearch._ChunkMoments([offset, specs[1][0]], 4, 1, units)
    assert np.array_equal(fresh.moments, families[0].moments)


def test_objective_evaluations_do_not_grow_with_iterations(monkeypatch):
    rng = make_rng(27, "swap-count")
    children = [(_scaled_matrix(rng, 32, 20), 4, 1), (_scaled_matrix(rng, 96, 9), 4, 3)]
    calls = []
    original = permsearch.matrix_objective
    monkeypatch.setattr(
        permsearch, "matrix_objective", lambda *a: calls.append(a) or original(*a)
    )

    class CountedMoments(permsearch._ChunkMoments):
        def __init__(self, *args):
            calls.append(args)
            super().__init__(*args)

    monkeypatch.setattr(permsearch, "_ChunkMoments", CountedMoments)
    counts = []
    for iters in (10, 1000):
        calls.clear()
        optimize_group_permutation(children, iters=iters, seed=4)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def _oracle_start(children):
    """Identity or greedy start, picked by the covariance formula on the live children."""
    live = [(m, d, block) for m, d, block in children if block % d != 0]
    identity = np.arange(children[0][0].shape[0] // children[0][2])
    matrix, d, block = max(live, key=lambda s: s[0].size)
    if d % block != 0:
        return identity
    greedy = greedy_init(matrix, d, block).indices[::block] // block
    return greedy if _oracle_objective(live, greedy) < _oracle_objective(live, identity) else identity


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_zero_iterations_keep_the_start_the_covariance_formula_picks(seed, monkeypatch):
    rng = make_rng(seed, "start-oracle")
    calls = []
    original = permsearch.matrix_objective
    monkeypatch.setattr(
        permsearch, "matrix_objective", lambda *a: calls.append(a) or original(*a)
    )
    picks = []
    for trial in range(6):
        # mixed groups: an invariant conv child next to live fc and conv children;
        # a near-identical row pair makes greedy worse than the identity in some trials
        fc = _scaled_matrix(rng, 8, 12)
        if trial % 2:
            fc[1] = fc[0] + 1e-3 * rng.standard_normal(12)
        children = [
            (fc, 4, 1),
            (rng.standard_normal((8 * 9, 5)), 9, 9),
            (_scaled_matrix(rng, 8 * 9, int(rng.integers(2, 6))), 18, 9),
        ]
        expected = _oracle_start(children)
        calls.clear()
        out = optimize_group_permutation(children, iters=0, seed=seed)
        assert calls == []
        assert np.array_equal(out.indices, expected)
        picks.append(np.array_equal(expected, np.arange(8)))
    assert True in picks and False in picks  # both starts occur
