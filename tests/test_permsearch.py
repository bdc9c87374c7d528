import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from pqf import permsearch
from pqf.errors import IndivisibleBlockSize, MismatchedChannelCounts, TooFewSubvectors
from pqf.permsearch import (
    expand_channel_permutation,
    greedy_init,
    local_search,
    matrix_objective,
    optimize_group_permutation,
    permuted_objective,
    rd_lower_bound,
    subvector_covariance,
)
from pqf.rng import gaussian, make_rng

from helpers import (
    candidate_totals_oracle,
    logdets_oracle,
    regularized_logdet_oracle,
    scalar_swap_search,
)


# ---------------------------------------------------------------------------
# Covariance
# ---------------------------------------------------------------------------

def logdet(sigma) -> float:
    return float(permsearch._regularized_logdet(sigma))


def test_identical_subvectors_have_zero_covariance():
    pts = np.tile([1.5, -2.0, 0.25], (10, 1))
    sigma = subvector_covariance(pts)
    assert sigma.shape == (3, 3)
    assert np.allclose(sigma, 0.0)


def test_two_point_covariance_by_hand():
    sigma = subvector_covariance(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert np.allclose(sigma, [[1.0, 0.0], [0.0, 0.0]])


def test_covariance_matches_sampling_oracle():
    rng = make_rng(11, "cov")
    a = rng.standard_normal((4, 4))
    true_sigma = a @ a.T + 0.5 * np.eye(4)
    chol = np.linalg.cholesky(true_sigma)
    samples = gaussian(make_rng(12, "cov-samples"), (1000, 4)) @ chol.T
    sigma = subvector_covariance(samples)
    rel = np.abs(sigma - true_sigma) / np.abs(true_sigma).max()
    assert rel.max() < 0.10
    # PSD invariant: eigenvalues above the tolerance floor
    eigs = np.linalg.eigvalsh(sigma)
    assert eigs.min() >= -1e-10 * np.trace(sigma) / 4


def test_too_few_subvectors():
    with pytest.raises(TooFewSubvectors):
        subvector_covariance(np.ones((1, 3)))


# ---------------------------------------------------------------------------
# logdet and the rate-distortion bound
# ---------------------------------------------------------------------------

def test_logdet_identity_is_zero():
    assert abs(logdet(np.eye(2))) < 1e-11


def test_logdet_diagonal():
    assert abs(logdet(np.diag([2.0, 8.0])) - np.log(16.0)) < 1e-9


def test_logdet_matches_eigenvalue_oracle():
    rng = make_rng(13, "logdet")
    a = rng.standard_normal((6, 6))
    sigma = a @ a.T + 0.1 * np.eye(6)
    d = 6
    eps = 1e-12 * max(np.trace(sigma) / d, 1.0)
    oracle = float(np.sum(np.log(np.linalg.eigvalsh(sigma + eps * np.eye(d)))))
    assert abs(logdet(sigma) - oracle) <= 1e-9 * abs(oracle)


def test_rd_bound_direct_substitutions():
    assert rd_lower_bound(np.eye(2), k=4) == pytest.approx(0.5)
    assert rd_lower_bound(np.zeros((2, 2)), k=4) == 0.0
    assert rd_lower_bound(np.diag([1.0, 4.0]), k=16) == pytest.approx(0.25)


def test_logdet_survives_indefinite_input():
    # a hand-built covariance can be slightly indefinite; the eigenvalue
    # fallback must still return a finite, clipped value
    assert np.isfinite(logdet(np.diag([1.0, -0.5])))
    assert np.isfinite(logdet(np.zeros((3, 3))))


def test_hadamard_consistency_on_random_instances():
    rng = make_rng(14, "hadamard")
    for trial in range(20):
        pts = rng.standard_normal((50, 4)) * rng.random(4) * 3.0
        sigma = subvector_covariance(pts)
        diag = np.diag(sigma)
        eps = 1e-12 * max(np.trace(sigma) / 4, 1.0)
        assert logdet(sigma) <= float(np.sum(np.log(diag + eps))) + 1e-9


# ---------------------------------------------------------------------------
# Unit orders
# ---------------------------------------------------------------------------

def test_expand_channel_permutation():
    perm = expand_channel_permutation([2, 0, 1], 3)
    assert np.array_equal(perm.indices, [6, 7, 8, 0, 1, 2, 3, 4, 5])


def test_expanded_unit_order_keeps_each_unit_whole_and_inverts():
    rng = make_rng(15, "perm")
    matrix = rng.standard_normal((12, 5))
    units = rng.permutation(4)
    rows = expand_channel_permutation(units, 3).indices
    permuted = matrix[rows]
    assert np.array_equal(permuted.reshape(4, 3, 5), matrix.reshape(4, 3, 5)[units])
    assert np.array_equal(permuted[np.argsort(rows)], matrix)


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
    units = greedy_init(rows, d=2, block=1)
    assert np.array_equal(units, [0, 1, 3, 2])


def test_greedy_identical_rows_is_valid_and_neutral():
    matrix = np.ones((8, 6))
    units = greedy_init(matrix, d=2, block=1)
    assert np.array_equal(np.sort(units), np.arange(8))
    assert permuted_objective(matrix, 2, units) == pytest.approx(
        matrix_objective(matrix, 2)
    )


def test_greedy_single_capacity_buckets():
    matrix = make_rng(16, "greedy").standard_normal((18, 4))
    units = greedy_init(matrix, d=18, block=9)
    # capacity 1: exactly one 9-row unit per bucket
    assert sorted(units) == [0, 1]


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
    init = np.arange(8)
    out = local_search(matrix, 2, 1, init, iters=0, seed=0)
    assert np.array_equal(out, init)


def test_local_search_rejects_subvector_size_not_dividing_rows():
    with pytest.raises(IndivisibleBlockSize):
        local_search(np.ones((6, 5)), 4, 1, np.arange(6), iters=0, seed=0)


@pytest.mark.parametrize("init", [[1, 0, 0, 2], [0, 1, 2], [0, 1, 2, 4], [[0, 1], [2, 3]]])
def test_local_search_rejects_an_initial_order_that_is_not_a_permutation_of_its_units(init):
    with pytest.raises(IndivisibleBlockSize, match="not a permutation of 4 units"):
        local_search(np.ones((8, 5)), 2, 2, init, iters=10, seed=0)


def test_local_search_leaves_its_initial_order_as_it_is():
    matrix = make_rng(17, "ls").standard_normal((8, 5))
    init = np.arange(8)[::-1].copy()
    out = local_search(matrix, 2, 1, init, iters=200, seed=0)
    assert np.array_equal(init, np.arange(8)[::-1]) and not np.array_equal(out, init)


def test_local_search_never_worse_and_prefix_monotone():
    matrix = make_rng(18, "ls2").standard_normal((8, 40))
    init = greedy_init(matrix, 2, 1)
    base = permuted_objective(matrix, 2, init)
    prev = base
    for iters in (5, 10, 50, 200):
        out = local_search(matrix, 2, 1, init, iters=iters, seed=5)
        obj = permuted_objective(matrix, 2, out)
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
        achieved = permuted_objective(matrix, 2, out)
        if achieved <= _pairing_optimum(matrix) + 1e-9:
            hits += 1
    assert hits >= 19


def test_local_search_respects_blocks():
    matrix = make_rng(19, "ls3").standard_normal((18, 10))
    init = greedy_init(matrix, 18, 9)
    out = local_search(matrix, 18, 9, init, iters=50, seed=1)
    # an order of the two 9-row units, not of rows
    assert sorted(out) == [0, 1]


# ---------------------------------------------------------------------------
# Shared group permutations
# ---------------------------------------------------------------------------

def test_single_child_reduces_to_local_search():
    matrix = make_rng(20, "group1").standard_normal((12, 25))
    d, block, iters, seed = 2, 1, 120, 3
    greedy = greedy_init(matrix, d, block)
    identity = np.arange(12)
    init = (
        greedy
        if permuted_objective(matrix, d, greedy) < permuted_objective(matrix, d, identity)
        else identity
    )
    expected = local_search(matrix, d, block, init, iters, seed)
    group = optimize_group_permutation([(matrix, d, block)], iters=iters, seed=seed)
    assert np.array_equal(group.indices, expected)


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
    assert np.array_equal(np.sort(out.indices), np.arange(4))
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
    assert np.array_equal(got, scalar_swap_search(specs, start, 200, seed))
    assert not np.array_equal(got, start)  # the search moved


def _speculative_search(specs, start, iters, seed):
    units = start.copy()
    return permsearch._swap_search(permsearch._families(specs, units), units, iters, seed)


@pytest.mark.parametrize("iters", [0, 1, 500])
@pytest.mark.parametrize(
    "children",
    [[(2, 2, 1)], [(2, 2, 3)], [(2, 4, 2), (2, 2, 1)]],
    ids=["d2b1", "d2b3", "d4b2+d2b1"],
)
def test_search_over_two_units_matches_the_one_proposal_loop(children, iters):
    rng = make_rng(iters, "two-units")
    specs = [(_scaled_matrix(rng, 2 * block, 9), d, block) for _, d, block in children]
    start = np.array([1, 0])
    assert np.array_equal(
        _speculative_search(specs, start, iters, 7), scalar_swap_search(specs, start, iters, 7)
    )


def test_search_with_a_degenerate_child_matches_the_one_proposal_loop(monkeypatch):
    shapes = []
    original = permsearch._regularized_logdet
    monkeypatch.setattr(
        permsearch, "_regularized_logdet", lambda sigma: shapes.append(sigma.shape) or original(sigma)
    )
    for seed in range(4):
        # two rows, each repeated 8 times, far apart and nearly constant: in an
        # order that keeps each row's copies in one coordinate, the raw-moment
        # variance is rounding noise and can come out negative, so Cholesky fails
        rng = make_rng(seed, "degenerate")
        pair = rng.standard_normal((2, 30)) * 1e-6 + np.array([[1e3], [-1e3]])
        specs = [(pair[np.arange(16) % 2], 2, 1), (_scaled_matrix(rng, 48, 7), 4, 3)]
        start = np.arange(16)
        got = _speculative_search(specs, start, 300, seed)
        assert np.array_equal(got, scalar_swap_search(specs, start, 300, seed))
        assert not np.array_equal(got, start)
    # some batch of several candidates fell back to scoring them one by one
    assert any(len(a) == 3 and a[0] > 1 and len(b) == 2 for a, b in zip(shapes, shapes[1:]))


@pytest.mark.parametrize("batch, draws", [(1, 1 << 16), (1 << 40, 100), (1, 1)])
def test_search_does_not_depend_on_batch_or_draw_sizes(batch, draws, monkeypatch):
    monkeypatch.setattr(permsearch, "_BATCH", batch)
    monkeypatch.setattr(permsearch, "_MAX_BATCH", batch)
    monkeypatch.setattr(permsearch, "_DRAWS", draws)
    rng = make_rng(28, "batch-sizes")
    # units in one chunk, straddling two, spanning three, and two shapes at once
    for children in ([(16, 4, 1)], [(16, 4, 3)], [(8, 4, 9)], [(12, 4, 1), (12, 4, 3)], [(8, 18, 9)]):
        specs = [(_scaled_matrix(rng, c * block, 11), d, block) for c, d, block in children]
        start = rng.permutation(children[0][0])
        assert np.array_equal(
            _speculative_search(specs, start, 300, 3), scalar_swap_search(specs, start, 300, 3)
        )


# (d, block) of live children: a unit inside one chunk, straddling two, spanning several
_LIVE_SHAPES = [(2, 1), (4, 1), (4, 2), (4, 3), (4, 9), (18, 9), (9, 6)]


def _random_groups(rng, count):
    """`count` groups of 1-3 live children of mixed shapes and widths, some with an
    invariant child, then a group of an invariant child alone; ``(children, seed)`` each."""
    groups = []
    for seed in range(count):
        n = int(rng.choice([2, 3, 4, 6, 12, 24]))
        live = [(d, block) for d, block in _LIVE_SHAPES if n * block % d == 0]
        children = []
        for _ in range(int(rng.integers(1, 4))):
            d, block = live[int(rng.integers(len(live)))]
            children.append((_scaled_matrix(rng, n * block, int(rng.integers(2, 13))), d, block))
        if rng.random() < 0.3:
            children.insert(0, (rng.standard_normal((n * 9, 5)), 9, 9))
        groups.append((children, seed))
    groups.append(([(rng.standard_normal((4 * 9, 5)), 9, 9)], count))
    return groups


def _fields(search):
    return (search.units.tobytes(), search.start, _bits(search.identity_objective),
            _bits(search.start_objective), _bits(search.final_objective),
            search.proposals, search.swaps, search.rounds)


@pytest.mark.parametrize("wave", [0, 3000, 1 << 40], ids=["one-group-waves", "mid", "one-wave"])
@pytest.mark.parametrize("iters", [0, 1, 60])
def test_groups_searched_together_equal_each_group_alone_and_the_scalar_loop(iters, wave, monkeypatch):
    # a few pairs per draw block, so 60 proposals take several blocks
    monkeypatch.setattr(permsearch, "_DRAWS", 64)
    monkeypatch.setattr(permsearch, "_WAVE", wave)
    groups = _random_groups(make_rng(31, "groups"), 12)
    together = list(permsearch.search_groups(groups, iters))
    assert len(together) == len(groups)
    for (children, seed), got in zip(groups, together):
        (alone,) = permsearch.search_groups([(children, seed)], iters)
        assert _fields(got) == _fields(alone)
        n = children[0][0].shape[0] // children[0][2]
        live = [child for child in children if child[2] % child[1]]
        if not live:
            assert got.start is None and np.array_equal(got.units, np.arange(n))
            continue
        identity = np.arange(n)
        start = identity if got.start == "identity" else greedy_init(*max(live, key=lambda c: c[0].size))
        assert np.array_equal(got.units, scalar_swap_search(live, start, iters, seed))
        for objective, units in ((got.identity_objective, identity), (got.start_objective, start),
                                 (got.final_objective, got.units)):
            assert _bits(objective) == _bits(permsearch._total(permsearch._families(live, units)))
        assert got.final_objective <= got.start_objective <= got.identity_objective
        assert got.swaps <= got.rounds <= got.proposals
        assert got.proposals >= (iters if n > 1 else 0)
    if iters > 1:
        assert sum(g.swaps for g in together) > 0
        assert {g.start for g in together} == {None, "identity", "greedy"}


@pytest.mark.parametrize("budget", [0, 2000, 20000, 1 << 40])
@pytest.mark.parametrize("iters", [0, 40])
def test_a_wave_holds_at_most_its_budget_plus_one_group(budget, iters, monkeypatch):
    waves = []
    original = permsearch._run

    def run(searches):
        waves.append([s.held for s in searches])
        return original(searches)

    monkeypatch.setattr(permsearch, "_run", run)
    monkeypatch.setattr(permsearch, "_WAVE", budget)
    groups = _random_groups(make_rng(32, "waves"), 12)
    results = list(permsearch.search_groups(groups, iters))
    if iters == 0:
        assert all(held == [] for held in waves)  # no group holds anything for a search
        return
    waves = [held for held in waves if held]
    assert sum(map(len, waves)) == sum(r.start is not None and r.units.size > 1 for r in results)
    for held in waves:
        # only the group that reached the budget goes past it
        assert len(held) == 1 or sum(held[:-1]) < budget
    assert all(sum(held) >= budget for held in waves[:-1])
    assert all(h > 0 for held in waves for h in held)


def test_a_group_drops_its_matrices_once_its_chunk_moments_exist(monkeypatch):
    refs = []
    rng = make_rng(33, "drop")

    def matrix(rows, cols):
        out = _scaled_matrix(rng, rows, cols)
        refs.append(weakref.ref(out))
        return out

    def groups():
        for seed in range(5):
            yield [(matrix(12, 7), 4, 1), (matrix(36, 5), 4, 3)], seed

    alive = []
    original = permsearch._run

    def run(searches):
        alive.append(sum(ref() is not None for ref in refs))
        return original(searches)

    monkeypatch.setattr(permsearch, "_run", run)
    monkeypatch.setattr(permsearch, "_WAVE", 1 << 40)
    assert len(list(permsearch.search_groups(groups(), 30))) == 5
    assert alive == [0] and len(refs) == 10


@pytest.mark.parametrize("n", [2, 3, 17, 1000])
def test_vectorised_pair_draws_equal_the_scalar_draws(n):
    scalar, batched = make_rng(n, "perm-local-search"), make_rng(n, "perm-local-search")
    expected = []
    for _ in range(400):
        a, b = int(scalar.integers(n)), int(scalar.integers(n - 1))
        expected.append((a, b + (b >= a)))
    # one stream, drawn in blocks of several sizes
    got = np.vstack([permsearch._pairs(batched, n, count) for count in (1, 0, 5, 194, 200)])
    assert np.array_equal(got, expected)


def _score_pairs(families, pairs):
    """One group's summed objective after each swap of `pairs`, scored in one round."""
    for family in families:
        family.draw(pairs)
    (scores,) = permsearch._score([(families, 0, len(pairs))])
    return scores


def test_tracked_objective_follows_every_score_and_commit():
    rng = make_rng(26, "swap-track")
    # rows scaled over 3 decades, all far below a common offset
    offset = rng.standard_normal((24, 30)) * 10.0 ** rng.uniform(-3.0, 0.0, (24, 1)) + 1e3
    specs = [(offset, 4, 1), (_scaled_matrix(rng, 24, 7), 4, 1), (_scaled_matrix(rng, 72, 11), 4, 3)]
    units = rng.permutation(24)
    families = [
        permsearch._ChunkMoments([offset, specs[1][0]], 4, 1).at(units),
        permsearch._ChunkMoments([specs[2][0]], 4, 3).at(units),
    ]
    for _ in range(300):
        pairs = np.array([rng.choice(24, 2, replace=False) for _ in range(int(rng.integers(1, 5)))])
        scores = _score_pairs(families, pairs)
        for (a, b), score in zip(pairs, scores):
            swapped = units.copy()
            swapped[[a, b]] = swapped[[b, a]]
            exact = _oracle_objective(specs, swapped)
            assert abs(score - exact) <= 1e-9 * abs(exact)
        if rng.random() < 0.5:
            i = int(rng.integers(len(pairs)))
            for family in families:
                family.commit(i)
            units[pairs[i]] = units[pairs[i, ::-1]]
            # a kept candidate scored exactly what the objective now reads
            assert sum(float(f.objectives().sum()) for f in families) == scores[i]
        tracked = sum(float(f.objectives().sum()) for f in families)
        exact = _oracle_objective(specs, units)
        assert abs(tracked - exact) <= 1e-9 * abs(exact)
    # the tracked chunks equal a fresh set-up on the final order, bit for bit
    fresh = permsearch._families(specs, units)
    assert [(f.d, f.block) for f in fresh] == [(f.d, f.block) for f in families]
    for new, tracked in zip(fresh, families):
        assert np.array_equal(new.moments, tracked.moments)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _covariance_stack(rng, shape, d):
    """Covariances of `d`-dimensional points scaled over six decades, one per leading index."""
    points = rng.standard_normal(shape + (3 * d, d)) * 10.0 ** rng.uniform(-3, 3, shape + (1, d))
    centered = points - points.mean(axis=-2, keepdims=True)
    return np.einsum("...ni,...nj->...ij", centered, centered) / (3 * d)


@pytest.mark.parametrize("d", [4, 9, 18])
@pytest.mark.parametrize("shape", [(6,), (3, 4)], ids=["3d", "4d"])
def test_regularized_logdet_matches_the_cholesky_oracle_bit_for_bit(d, shape):
    rng = make_rng(d, "logdet-oracle", str(len(shape)))
    stack = _covariance_stack(rng, shape, d)
    assert _bits(permsearch._regularized_logdet(stack)) == _bits(regularized_logdet_oracle(stack))
    assert _bits(permsearch._regularized_logdet(stack[(0,) * len(shape)])) == _bits(
        regularized_logdet_oracle(stack[(0,) * len(shape)])
    )
    # a negative definite member fails to factor and takes the eigenvalue fallback
    one_fails = stack.copy()
    one_fails[(1,) * len(shape)] *= -1.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(one_fails[(1,) * len(shape)])
    for bad in (one_fails, -stack):
        expected = regularized_logdet_oracle(bad)
        assert np.isfinite(expected).all()
        assert _bits(permsearch._regularized_logdet(bad)) == _bits(expected)


@pytest.mark.parametrize(
    "children",
    [[(16, 4, 1)], [(16, 4, 3)], [(8, 4, 9)], [(8, 18, 9), (8, 18, 9)], [(12, 4, 1), (12, 18, 9), (12, 4, 3)]],
    ids=["d4b1", "d4b3", "d4b9", "d18b9x2", "mixed"],
)
def test_a_round_scores_each_candidate_as_the_one_at_a_time_fold(children):
    rng = make_rng(29, "round-fold", str(len(children)))
    specs = [(_scaled_matrix(rng, c * block, int(rng.integers(3, 40))), d, block) for c, d, block in children]
    units = rng.permutation(children[0][0])
    families = permsearch._families(specs, units)
    for count in (1, 2, 5, 9, 3, 1, 16):
        pairs = permsearch._pairs(rng, units.size, count)
        current = [f.moments.copy() for f in families]
        scores = _score_pairs(families, pairs)
        family_scores = []
        for family, moments in zip(families, current):
            _, chunks, candidates = family._scored
            totals = candidate_totals_oracle(moments, chunks, candidates)
            assert _bits(family.score(0, count)) == _bits(totals)
            family_scores.append(logdets_oracle(totals).sum(axis=-1))
        assert _bits(scores) == _bits(sum(family_scores))
        # each candidate folds what a fresh set-up at its order folds
        for (a, b), score in zip(pairs, scores):
            swapped = units.copy()
            swapped[[a, b]] = swapped[[b, a]]
            assert _bits(permsearch._total(permsearch._families(specs, swapped))) == _bits(score)
        i = int(rng.integers(count))
        for family in families:
            family.commit(i)
        units[pairs[i]] = units[pairs[i, ::-1]]
    for new, tracked in zip(permsearch._families(specs, units), families):
        assert _bits(new.moments) == _bits(tracked.moments)


def test_every_group_of_a_round_shares_one_logdet_call_per_d(monkeypatch):
    shapes = []
    original = permsearch._regularized_logdet
    monkeypatch.setattr(
        permsearch, "_regularized_logdet", lambda sigma: shapes.append(sigma.shape) or original(sigma)
    )
    rng = make_rng(30, "one-call")
    # three families, (4, 1), (18, 9) and (4, 3); the two of d = 4 are not neighbours
    specs = [(_scaled_matrix(rng, 16, 9), 4, 1), (_scaled_matrix(rng, 16 * 9, 5), 18, 9),
             (_scaled_matrix(rng, 48, 7), 4, 3), (_scaled_matrix(rng, 16, 11), 4, 1)]
    families = permsearch._families(specs, rng.permutation(16))
    assert [(f.d, f.block, f.children) for f in families] == [(4, 1, 2), (18, 9, 1), (4, 3, 1)]
    # a second group of 10 units, with one family of d = 4
    other = permsearch._families([(_scaled_matrix(rng, 20, 6), 4, 2)], rng.permutation(10))
    for group, n in ((families, 16), (other, 10)):
        pairs = permsearch._pairs(rng, n, 8)
        for family in group:
            family.draw(pairs)
    batches = [(families, 2, 5), (other, 1, 6)]
    alone = [permsearch._score([batch])[0] for batch in batches]
    current = [[f.moments.copy() for f in fs] for fs, _, _ in batches]
    shapes.clear()
    scores = permsearch._score(batches)
    # 3 candidates of three children and 5 of one child at d = 4; 3 of one at d = 18
    assert shapes == [(3 * 3 + 5, 4, 4), (3, 18, 18)]
    for (group, _, _), moments, got, solo in zip(batches, current, scores, alone):
        expected = []
        for family, chunk_moments in zip(group, moments):
            _, chunks, candidates = family._scored
            totals = candidate_totals_oracle(chunk_moments, chunks, candidates)
            expected.append(logdets_oracle(totals).sum(axis=-1))
        assert _bits(got) == _bits(sum(expected)) == _bits(solo)


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


def test_the_set_up_holds_one_shifted_copy_of_each_child():
    rng = make_rng(34, "one-copy")
    # two children of one family, with a greedy start (block 1 divides d = 4)
    children = [(rng.standard_normal((256, 256)), 4, 1), (rng.standard_normal((256, 256)), 4, 1)]
    size = sum(matrix.nbytes for matrix, _, _ in children)
    tracemalloc.start()
    try:
        found = permsearch._setup(children, 0, 34)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found.start in ("identity", "greedy")
    # one shifted copy of each child is `size`; a second copy would reach
    # 2 * `size` by itself, past the one child's chunks gathered at a time
    assert size < peak < 2 * size


def _oracle_start(children):
    """Identity or greedy start, picked by the covariance formula on the live children."""
    live = [(m, d, block) for m, d, block in children if block % d != 0]
    identity = np.arange(children[0][0].shape[0] // children[0][2])
    matrix, d, block = max(live, key=lambda s: s[0].size)
    if d % block != 0:
        return identity
    greedy = greedy_init(matrix, d, block)
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
