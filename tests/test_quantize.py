import tracemalloc

import numpy as np
import pytest

from helpers import noiseless_quantizer_oracle
from pqf import layout, quantize
from pqf.errors import DimensionMismatch
from pqf.permsearch import subvector_covariance
from pqf.quantize import (
    SRCConfig,
    assign_codes,
    clamp_codebook_size,
    kmeans,
    reconstruction_error,
    src,
    update_codebook,
)
from pqf.rng import gaussian, make_rng


# ---------------------------------------------------------------------------
# assign_codes
# ---------------------------------------------------------------------------

def test_assign_exact_match():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    cb = np.array([[0.0, 0.0], [1.0, 1.0]])
    codes = assign_codes(pts, cb)
    assert np.array_equal(codes, [0, 1])
    assert reconstruction_error(pts, cb, codes) == 0.0


def test_assign_tie_goes_to_lowest_index():
    pts = np.array([[0.5, 0.0]])
    cb = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert assign_codes(pts, cb)[0] == 0


def test_assign_matches_brute_force():
    rng = make_rng(31, "assign")
    pts = rng.standard_normal((200, 3))
    cb = rng.standard_normal((8, 3))
    codes = assign_codes(pts, cb)
    for i in range(200):
        dists = [float(np.square(pts[i] - cb[t]).sum()) for t in range(8)]
        assert codes[i] == int(np.argmin(dists))


def test_assign_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        assign_codes(np.zeros((4, 3)), np.zeros((2, 2)))


def test_assign_keeps_subvector_grid_shape():
    matrix = layout.reshape_weight(make_rng(32, "grid").standard_normal((8, 5)), "fc")
    subs = layout.split_subvectors(matrix, 2)
    codes = assign_codes(subs, np.zeros((3, 2)))
    assert codes.shape == (4, 5)


def _difference_form_codes(pts, codebook):
    """The pre-prefilter assignment loop, kept as the exactness oracle."""
    n, d = pts.shape
    k = codebook.shape[0]
    chunk = max(1, (1 << 22) // max(k * d, 1))
    out = np.empty(n, dtype=np.int64)
    for start in range(0, n, chunk):
        block = pts[start : start + chunk]
        dist = np.square(block[:, None, :] - codebook[None, :, :]).sum(axis=2)
        out[start : start + chunk] = np.argmin(dist, axis=1)
    return out


def _assert_matches_oracle(pts, codebook):
    with np.errstate(over="ignore", invalid="ignore"):
        want = _difference_form_codes(pts, codebook)
        got = assign_codes(pts, codebook)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("d", [1, 4, 9])
def test_assign_matches_oracle_on_random_points(d):
    rng = make_rng(40 + d, "oracle")
    _assert_matches_oracle(rng.standard_normal((3000, d)), rng.standard_normal((64, d)))


@pytest.mark.parametrize("d", [1, 4, 9])
def test_assign_matches_oracle_with_duplicate_centroids_and_ties(d):
    rng = make_rng(50 + d, "ties")
    base = rng.standard_normal((16, d))
    codebook = np.concatenate([base, base[::-1], base[:3]])  # every centroid twice or more
    # points on centroids, and exact midpoints between pairs of centroids
    picks = rng.integers(0, 16, size=(2, 2000))
    pts = np.concatenate([base[picks[0]], (base[picks[0]] + base[picks[1]]) / 2])
    _assert_matches_oracle(pts, codebook)


@pytest.mark.parametrize("d", [1, 4, 9])
def test_assign_matches_oracle_on_integer_grid(d):
    rng = make_rng(60 + d, "grid")
    pts = rng.integers(-3, 4, size=(3000, d)).astype(np.float64)
    codebook = rng.integers(-3, 4, size=(40, d)).astype(np.float64)
    _assert_matches_oracle(pts, codebook)


@pytest.mark.parametrize("d", [1, 4, 9])
def test_assign_matches_oracle_with_huge_norm_offset(d):
    rng = make_rng(70 + d, "offset")
    # the expanded form cancels ~1e12 against ~1e12 here: many rows are unsure
    pts = rng.standard_normal((3000, d)) + 1e6
    codebook = rng.standard_normal((32, d)) + 1e6
    _assert_matches_oracle(pts, codebook)


# float64's edges (1e-310 is subnormal, 1e200 squares overflow) and float32's:
# squares are subnormal at 1e-20 and flush to zero at 1e-23, the cast gives
# subnormals at 1e-40 and zero at 1e-46, squares reach float32's range at
# 1e19 and pass it at 1e20, and the cast itself overflows at 1e39
@pytest.mark.parametrize(
    "scale",
    [1e-160, 1e-310, 1e150, 1e200, 1e-20, 1e-23, 1e-40, 1e-46, 1e19, 1e20, 1e39],
)
def test_assign_matches_oracle_at_extreme_magnitudes(scale):
    rng = make_rng(80, "extreme")
    _assert_matches_oracle(
        rng.standard_normal((500, 4)) * scale, rng.standard_normal((16, 4)) * scale
    )


def test_assign_single_centroid():
    pts = make_rng(81, "k1").standard_normal((100, 4))
    _assert_matches_oracle(pts, np.ones((1, 4)))
    assert not assign_codes(pts, np.ones((1, 4))).any()


@pytest.mark.parametrize("extra", [-1020, -1, 0, 1])
def test_assign_matches_oracle_around_a_block_boundary(extra):
    k = 16
    rows = quantize._BLOCK // k  # rows per prefilter block
    rng = make_rng(82, "boundary")
    pts = rng.standard_normal((rows + extra, 4))
    codebook = rng.standard_normal((k, 4))
    codebook[7] = codebook[3]  # a duplicate sends rows near it to the exact path
    _assert_matches_oracle(pts, codebook)


def _block_rows(k):
    # rows per prefilter block; k < rows scores centroid-major, else row-major
    return quantize._BLOCK // k


@pytest.mark.parametrize("k", [4, 32, 256, 2048])
@pytest.mark.parametrize("scale", [1e-20, 1e-23, 1e-40, 1e-46, 1e19, 1e20, 1e39])
def test_assign_matches_oracle_at_float32_limits_in_both_layouts(k, scale):
    rng = make_rng(83, "float32-limits")
    n = 2 * _block_rows(k) + 1  # two full blocks and a one-row tail
    codebook = rng.standard_normal((k, 4)) * scale
    codebook[-1] = codebook[0]  # a duplicate: rows near it tie
    _assert_matches_oracle(rng.standard_normal((n, 4)) * scale, codebook)


@pytest.mark.parametrize("k", [4, 32, 256, 2048])
def test_assign_matches_oracle_with_rows_spanning_60_decades(k):
    rng = make_rng(84, "decades")
    n = _block_rows(k) + 1
    row_scale = np.logspace(-30, 30, n)[rng.permutation(n)][:, None]
    cb_scale = np.logspace(-30, 30, k)[:, None]
    _assert_matches_oracle(
        rng.standard_normal((n, 4)) * row_scale, rng.standard_normal((k, 4)) * cb_scale
    )


def test_assign_matches_oracle_on_integer_grid_ties_at_k2048():
    rng = make_rng(85, "grid-2048")
    # 2048 centroids drawn from 7**4 grid points: hundreds of exact duplicates,
    # and grid points equidistant from several centroids
    codebook = rng.integers(-3, 4, size=(2048, 4)).astype(np.float64)
    pts = rng.integers(-3, 4, size=(2 * _block_rows(2048) + 5, 4)).astype(np.float64)
    halves = rng.integers(-6, 7, size=(500, 4)) / 2.0
    _assert_matches_oracle(np.concatenate([pts, halves]), codebook)


def test_only_small_calls_take_the_exact_path(monkeypatch):
    rows_seen = []
    nearest = quantize._nearest

    def record(pts, cb, cand=None):
        if cand is None:  # every centroid: the exact path
            rows_seen.append(len(pts))
        return nearest(pts, cb, cand)

    monkeypatch.setattr(quantize, "_nearest", record)
    rng = make_rng(86, "toy")
    _assert_matches_oracle(rng.standard_normal((16, 8)), rng.standard_normal((4, 8)))
    assert rows_seen == [16]
    _assert_matches_oracle(rng.standard_normal((1000, 4)), rng.standard_normal((16, 4)))
    assert rows_seen == [16]


def _record_fallback(monkeypatch):
    """Record (rows, candidate-mask entries) for every float64 fallback call."""
    calls = []
    nearest = quantize._nearest

    def record(pts, centroids, cand=None):
        assert cand is not None  # these calls are too large for the exact path
        calls.append((len(pts), cand.size))
        return nearest(pts, centroids, cand)

    monkeypatch.setattr(quantize, "_nearest", record)
    return calls


@pytest.mark.parametrize("k", [32, 2048])
def test_undecided_rows_of_many_blocks_share_one_fallback_call(monkeypatch, k):
    rows = _block_rows(k)
    rng = make_rng(87, "planted")
    codebook = rng.standard_normal((k, 4))
    n = 5 * rows + rows // 2  # a partial last block
    pts = rng.standard_normal((n, 4))
    # rows on a duplicated centroid, in the first, a middle and the last block
    codebook[[1, 6, 10]] = codebook[[0, 5, 9]]
    planted = [3, 2 * rows + 7, n - 2]
    pts[planted] = codebook[[0, 5, 9]]
    calls = _record_fallback(monkeypatch)
    _assert_matches_oracle(pts, codebook)
    assert len(calls) == 1 and calls[0][0] >= len(planted)


def test_the_fallback_holds_about_one_block_of_candidates(monkeypatch):
    k = 2048
    rng = make_rng(88, "all-unsure")
    base = rng.integers(-3, 4, size=(k // 2, 4)).astype(np.float64)
    codebook = np.concatenate([base, base])  # every centroid twice: no row is sure
    n = 8 * _block_rows(k) + 5
    pts = rng.integers(-3, 4, size=(n, 4)).astype(np.float64)
    calls = _record_fallback(monkeypatch)
    _assert_matches_oracle(pts, codebook)
    assert sum(r for r, _ in calls) == n
    assert len(calls) >= 8
    # the candidate masks held for one call: a row each of k entries
    assert max(entries for _, entries in calls) <= quantize._BLOCK


def _per_row_nearest(pts, codebook, cand):
    """A row at a time: the lowest-index candidate of least difference-form distance."""
    out = []
    for x, mask in zip(pts, cand):
        dists = [(float(np.square(x - codebook[j]).sum()), j) for j in np.flatnonzero(mask)]
        best = min(dist for dist, _ in dists)
        out.append(min(j for dist, j in dists if dist == best))
    return np.array(out)


@pytest.mark.parametrize("d", [1, 4, 9])
def test_nearest_over_candidate_masks_matches_a_per_row_loop(d):
    rng = make_rng(89 + d, "candidates")
    base = rng.integers(-2, 3, size=(12, d)).astype(np.float64)
    codebook = np.concatenate([base, base[:4]])  # duplicates, listed apart
    pts = np.concatenate([
        rng.integers(-2, 3, size=(150, d)).astype(np.float64),  # exact ties
        (base[rng.integers(0, 12, 50)] + base[rng.integers(0, 12, 50)]) / 2,  # midpoints
        rng.standard_normal((50, d)),
        np.full((1, d), 1e200),  # squares overflow: the row of an infinite limit
    ])
    cand = rng.random((len(pts), len(codebook))) < 0.3
    cand[np.arange(len(pts)), rng.integers(0, len(codebook), len(pts))] = True
    cand[-1] = True  # an infinite limit takes every centroid
    cand[:, 13] = False  # a centroid no row holds
    with np.errstate(over="ignore"):
        assert np.array_equal(quantize._nearest(pts, codebook, cand), _per_row_nearest(pts, codebook, cand))
        every = np.ones_like(cand)
        assert np.array_equal(quantize._nearest(pts, codebook, every), _per_row_nearest(pts, codebook, every))
        assert np.array_equal(quantize._nearest(pts, codebook), _per_row_nearest(pts, codebook, every))
    one = np.ones((len(pts), 1), dtype=bool)
    assert not quantize._nearest(pts[:-1], codebook[:1], one[:-1]).any()
    assert not quantize._nearest(pts[:-1], codebook[:1]).any()


def test_one_fallback_call_on_equal_centroids_holds_about_one_block():
    # every centroid equal, as in a fully pruned layer: every row holds all k
    k, d = 2048, 4
    rows = quantize._BLOCK // k  # the rows of one fallback call
    pts, codebook = np.zeros((rows, d)), np.zeros((k, d))
    cand = np.ones((rows, k), dtype=bool)
    tracemalloc.start()
    try:
        codes = quantize._nearest(pts, codebook, cand)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not codes.any()
    # one block of float64 differences is _BLOCK values; scoring every
    # (row, candidate) pair at once would hold rows * k * d of them, 4x that
    assert peak < 2 * quantize._BLOCK * 8


# ---------------------------------------------------------------------------
# update_codebook
# ---------------------------------------------------------------------------

def test_update_one_point_per_centroid():
    pts = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    cb = update_codebook(pts, np.array([0, 1, 2]), 3)
    assert np.array_equal(cb, pts)


def test_update_reseeds_empty_cluster_to_worst_point():
    pts = np.array([[0.0], [1.0], [10.0]])
    cb = update_codebook(pts, np.array([0, 0, 0]), 2)
    mean = pts.mean()
    assert cb[0, 0] == pytest.approx(mean)
    assert cb[1, 0] == 10.0  # farthest from the new mean


def test_update_matches_grouped_mean_oracle():
    rng = make_rng(33, "update")
    pts = rng.standard_normal((120, 4))
    codes = rng.integers(0, 6, size=120)
    cb = update_codebook(pts, codes, 6)
    for t in range(6):
        members = pts[codes == t]
        if len(members):
            assert np.max(np.abs(cb[t] - members.mean(axis=0))) < 1e-12


# ---------------------------------------------------------------------------
# kmeans
# ---------------------------------------------------------------------------

def test_kmeans_zero_error_when_k_covers_distinct_points():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    _, _, err = kmeans(pts, k_eff=3, iters=50, seed=0)
    assert err == pytest.approx(0.0, abs=1e-24)


def test_kmeans_recovers_separated_cluster_means():
    rng = make_rng(34, "clusters")
    a = rng.standard_normal((60, 2)) * 0.05 + np.array([5.0, 5.0])
    b = rng.standard_normal((60, 2)) * 0.05 - np.array([5.0, 5.0])
    pts = np.concatenate([a, b])
    codes, cb, err = kmeans(pts, k_eff=2, iters=100, seed=1)
    got = {tuple(np.round(c, 6)) for c in cb}
    want = {tuple(np.round(a.mean(axis=0), 6)), tuple(np.round(b.mean(axis=0), 6))}
    for cw, ww in zip(sorted(got), sorted(want)):
        assert np.allclose(cw, ww, atol=1e-9)


def test_kmeans_zero_iters_returns_initialization():
    pts = make_rng(35, "init").standard_normal((40, 3))
    codes, cb, err = kmeans(pts, k_eff=4, iters=0, seed=7)
    again_codes, again_cb, again_err = kmeans(pts, k_eff=4, iters=0, seed=7)
    assert np.array_equal(codes, again_codes)
    assert np.array_equal(cb, again_cb)
    assert err == pytest.approx(reconstruction_error(pts, cb, codes))
    assert codes.min() >= 0 and codes.max() < 4


def test_reconstruction_error_holds_one_copy_of_the_points():
    rng = make_rng(36, "residual-peak")
    pts = rng.standard_normal((200_000, 4))
    cb = rng.standard_normal((256, 4))
    codes = rng.integers(0, 256, size=200_000)
    want = float(np.square(pts - cb[codes]).sum() / pts.shape[0])
    tracemalloc.start()
    try:
        got = reconstruction_error(pts, cb, codes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.hex() == want.hex()
    # the gathered centroids are one copy; a difference beside them is a second
    assert peak < 1.5 * pts.nbytes


def test_kmeans_error_monotone_per_iteration():
    pts = make_rng(36, "mono").standard_normal((150, 3))
    # identical seed means each run extends the same trajectory
    errors = [kmeans(pts, k_eff=8, iters=i, seed=2)[2] for i in range(0, 14)]
    for prev, nxt in zip(errors, errors[1:]):
        assert nxt <= prev + 1e-12 * max(1.0, prev)


# ---------------------------------------------------------------------------
# SR-C
# ---------------------------------------------------------------------------

def _mixture(seed, n=1024, d=4, components=96, spread=0.1):
    rng = make_rng(seed, "mixture")
    centers = gaussian(rng, (components, d))
    picks = rng.integers(0, components, size=n)
    return centers[picks] + spread * gaussian(rng, (n, d))


def test_src_single_iteration_is_noiseless_kmeans_round():
    pts = _mixture(1)
    sigma = subvector_covariance(pts)
    k_codes, k_cb, k_err = kmeans(pts, k_eff=16, iters=1, seed=5)
    s_codes, s_cb, s_err = src(pts, sigma, k_eff=16, cfg=SRCConfig(1, 0.5, 5))
    assert np.array_equal(k_codes, s_codes)
    assert np.array_equal(k_cb, s_cb)
    assert k_err == s_err


def test_src_with_zero_covariance_is_bitwise_kmeans():
    pts = _mixture(2, n=300, d=3)
    zero = np.zeros((3, 3))
    for iters in (1, 7, 25):
        k_codes, k_cb, k_err = kmeans(pts, k_eff=12, iters=iters, seed=9)
        s_codes, s_cb, s_err = src(pts, zero, k_eff=12, cfg=SRCConfig(iters, 0.5, 9))
        assert np.array_equal(k_codes, s_codes)
        assert np.array_equal(k_cb, s_cb)
        assert k_err == s_err


def test_noiseless_run_stops_at_its_fixed_point_with_the_full_runs_bytes(monkeypatch):
    pts = _mixture(4, n=400, d=3)
    zero = np.zeros((3, 3))
    for iters in (1, 4, 30, 200):
        want_codes, want_cb, want_err = noiseless_quantizer_oracle(pts, 12, iters, seed=6)
        for codes, cb, err in (
            kmeans(pts, k_eff=12, iters=iters, seed=6),
            src(pts, zero, k_eff=12, cfg=SRCConfig(iters, 0.5, 6)),
        ):
            assert np.array_equal(codes, want_codes)
            assert cb.tobytes() == want_cb.tobytes()
            assert err == want_err
    calls = []
    update = quantize._update
    monkeypatch.setattr(quantize, "_update", lambda *a: calls.append(1) or update(*a))
    src(pts, zero, k_eff=12, cfg=SRCConfig(200, 0.5, 6))
    assert len(calls) < 200


def test_noiseless_run_stops_at_its_fixed_point_even_when_it_reseeds(monkeypatch):
    # an all-zero (fully pruned) layer re-seeds its empty clusters every round
    pts = np.zeros((400, 3))
    want_codes, want_cb, want_err = noiseless_quantizer_oracle(pts, 12, 200, seed=6)
    calls = []
    update = quantize._update
    monkeypatch.setattr(quantize, "_update", lambda *a: calls.append(1) or update(*a))
    codes, cb, err = kmeans(pts, k_eff=12, iters=200, seed=6)
    assert len(calls) <= 3
    assert np.array_equal(codes, want_codes)
    assert cb.tobytes() == want_cb.tobytes()
    assert err == want_err


def test_src_final_iteration_noise_is_zero():
    # gamma on a (1 - I/I) base: the last update must be exactly noiseless,
    # so a 2-iteration run ends at a plain kmeans step from its own codes
    pts = _mixture(3, n=200, d=3)
    sigma = subvector_covariance(pts)
    codes, cb, err = src(pts, sigma, k_eff=8, cfg=SRCConfig(2, 0.5, 3))
    # re-applying the noiseless closing round (update + assign) is a fixpoint
    # only for the codebook update half; check codes are the argmin of cb
    assert np.array_equal(codes, assign_codes(pts, cb))


def test_src_beats_kmeans_on_mixture_medians():
    k_errs, s_errs, wins = [], [], 0
    for seed in range(8):
        pts = _mixture(100 + seed)
        sigma = subvector_covariance(pts)
        _, _, k_err = kmeans(pts, k_eff=64, iters=100, seed=seed)
        _, _, s_err = src(pts, sigma, k_eff=64, cfg=SRCConfig(100, 0.5, seed))
        k_errs.append(k_err)
        s_errs.append(s_err)
        wins += s_err <= k_err
    assert np.median(s_errs) <= np.median(k_errs)
    assert wins >= 5


def test_src_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        src(np.zeros((10, 3)), np.zeros((2, 2)), 2, SRCConfig(1, 0.5, 0))


def test_src_config_validation():
    with pytest.raises(ValueError):
        SRCConfig(iterations=0)
    with pytest.raises(ValueError):
        SRCConfig(gamma=0.0)


@pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -float("inf")])
def test_src_config_rejects_a_gamma_that_is_not_finite(gamma):
    # a nan gamma made every noise scale nan, so annealing silently drew none
    with pytest.raises(ValueError, match="gamma must be finite and > 0"):
        SRCConfig(gamma=gamma)


def test_determinism_across_runs():
    pts = _mixture(4, n=256, d=4)
    sigma = subvector_covariance(pts)
    first = src(pts, sigma, 16, SRCConfig(30, 0.5, 42))
    second = src(pts, sigma, 16, SRCConfig(30, 0.5, 42))
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])
    assert first[2] == second[2]


# ---------------------------------------------------------------------------
# clamp
# ---------------------------------------------------------------------------

def test_clamp_rule():
    assert clamp_codebook_size(256, 4096) == 256
    assert clamp_codebook_size(2048, 128000) == 2048
    assert clamp_codebook_size(256, 100) == 25
    assert clamp_codebook_size(8, 2) == 1
    with pytest.raises(ValueError):
        clamp_codebook_size(0, 10)
