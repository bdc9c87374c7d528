"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import importlib.resources as resources
import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import (
    all_gradients,
    apply_group_permutation,
    make_residual_checkpoint,
    parse_groups_text,
    verify_equivalence,
)
from pqf import codec, finetune, graph, layout, permsearch, quantize, tensor_io
from pqf.cli import BENCH_METHODS, BenchConfig, run_bench, run_eval
from pqf.codec import CompressionConfig, bit_report, encode_layer
from pqf.finetune import ToyNetwork, backward, forward, make_mlp_checkpoint
from pqf.permsearch import (
    greedy_init,
    local_search,
    permuted_objective,
    rd_lower_bound,
    subvector_covariance,
)
from pqf.quantize import SRCConfig, kmeans, src
from pqf.rng import gaussian, make_rng
from pqf.tensor_io import pack_codes, unpack_codes, code_width


@contextmanager
def criterion(number: int, title: str, budget_s: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {title}")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number:2d} PASS  {title} ({elapsed:.2f}s, budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its runtime budget"


def _data_text(name: str) -> str:
    return (resources.files("pqf") / "data" / name).read_text()


# ---------------------------------------------------------------------------
# 1. Bit-accounting golden
# ---------------------------------------------------------------------------

# Reference bit allocation for ResNet-18, small blocks, k=256, fc k=2048:
# (name, shape, dtype class, bits), transcribed verbatim.
_R18_BIT_TABLE = """
conv1.weight (64,3,7,7) float32 301056
bn1.weight (64,) float32 2048
bn1.bias (64,) float32 2048
layer1.0.conv1.codebook (256,9) float16 36864
layer1.0.conv1.codes_matrix (64,64) uint8 32768
layer1.0.bn1.weight (64,) float32 2048
layer1.0.bn1.bias (64,) float32 2048
layer1.0.conv2.codebook (256,9) float16 36864
layer1.0.conv2.codes_matrix (64,64) uint8 32768
layer1.0.bn2.weight (64,) float32 2048
layer1.0.bn2.bias (64,) float32 2048
layer1.1.conv1.codebook (256,9) float16 36864
layer1.1.conv1.codes_matrix (64,64) uint8 32768
layer1.1.bn1.weight (64,) float32 2048
layer1.1.bn1.bias (64,) float32 2048
layer1.1.conv2.codebook (256,9) float16 36864
layer1.1.conv2.codes_matrix (64,64) uint8 32768
layer1.1.bn2.weight (64,) float32 2048
layer1.1.bn2.bias (64,) float32 2048
layer2.0.conv1.codebook (256,9) float16 36864
layer2.0.conv1.codes_matrix (128,64) uint8 65536
layer2.0.bn1.weight (128,) float32 4096
layer2.0.bn1.bias (128,) float32 4096
layer2.0.conv2.codebook (256,9) float16 36864
layer2.0.conv2.codes_matrix (128,128) uint8 131072
layer2.0.bn2.weight (128,) float32 4096
layer2.0.bn2.bias (128,) float32 4096
layer2.0.downsample.0.codebook (256,4) float16 16384
layer2.0.downsample.0.codes_matrix (128,16) uint8 16384
layer2.0.downsample.1.weight (128,) float32 4096
layer2.0.downsample.1.bias (128,) float32 4096
layer2.1.conv1.codebook (256,9) float16 36864
layer2.1.conv1.codes_matrix (128,128) uint8 131072
layer2.1.bn1.weight (128,) float32 4096
layer2.1.bn1.bias (128,) float32 4096
layer2.1.conv2.codebook (256,9) float16 36864
layer2.1.conv2.codes_matrix (128,128) uint8 131072
layer2.1.bn2.weight (128,) float32 4096
layer2.1.bn2.bias (128,) float32 4096
layer3.0.conv1.codebook (256,9) float16 36864
layer3.0.conv1.codes_matrix (256,128) uint8 262144
layer3.0.bn1.weight (256,) float32 8192
layer3.0.bn1.bias (256,) float32 8192
layer3.0.conv2.codebook (256,9) float16 36864
layer3.0.conv2.codes_matrix (256,256) uint8 524288
layer3.0.bn2.weight (256,) float32 8192
layer3.0.bn2.bias (256,) float32 8192
layer3.0.downsample.0.codebook (256,4) float16 16384
layer3.0.downsample.0.codes_matrix (256,32) uint8 65536
layer3.0.downsample.1.weight (256,) float32 8192
layer3.0.downsample.1.bias (256,) float32 8192
layer3.1.conv1.codebook (256,9) float16 36864
layer3.1.conv1.codes_matrix (256,256) uint8 524288
layer3.1.bn1.weight (256,) float32 8192
layer3.1.bn1.bias (256,) float32 8192
layer3.1.conv2.codebook (256,9) float16 36864
layer3.1.conv2.codes_matrix (256,256) uint8 524288
layer3.1.bn2.weight (256,) float32 8192
layer3.1.bn2.bias (256,) float32 8192
layer4.0.conv1.codebook (256,9) float16 36864
layer4.0.conv1.codes_matrix (512,256) uint8 1048576
layer4.0.bn1.weight (512,) float32 16384
layer4.0.bn1.bias (512,) float32 16384
layer4.0.conv2.codebook (256,9) float16 36864
layer4.0.conv2.codes_matrix (512,512) uint8 2097152
layer4.0.bn2.weight (512,) float32 16384
layer4.0.bn2.bias (512,) float32 16384
layer4.0.downsample.0.codebook (256,4) float16 16384
layer4.0.downsample.0.codes_matrix (512,64) uint8 262144
layer4.0.downsample.1.weight (512,) float32 16384
layer4.0.downsample.1.bias (512,) float32 16384
layer4.1.conv1.codebook (256,9) float16 36864
layer4.1.conv1.codes_matrix (512,512) uint8 2097152
layer4.1.bn1.weight (512,) float32 16384
layer4.1.bn1.bias (512,) float32 16384
layer4.1.conv2.codebook (256,9) float16 36864
layer4.1.conv2.codes_matrix (512,512) uint8 2097152
layer4.1.bn2.weight (512,) float32 16384
layer4.1.bn2.bias (512,) float32 16384
fc.bias (1000,) float32 32000
fc.codebook (2048,4) float16 131072
fc.codes_matrix (1000,128) int16 1408000
"""


def _parse_reference_table():
    rows = []
    for line in _R18_BIT_TABLE.strip().splitlines():
        name, shape, dtype, bits = line.split()
        shape = tuple(int(s) for s in shape.strip("()").split(",") if s)
        rows.append((name, shape, dtype, int(bits)))
    return rows


def test_criterion_1_bit_accounting_golden():
    with criterion(1, "bit-accounting golden (ResNet-18 small blocks, k=256)", 1.0):
        reference = _parse_reference_table()
        assert len(reference) == 82
        assert sum(r[3] for r in reference) == 12_927_232  # guards the transcription
        arch = tensor_io.parse_arch_spec(_data_text("resnet18.arch"))
        report = bit_report(arch, CompressionConfig(k=256))
        got = [(r.name, tuple(r.shape), r.dtype, r.bits) for r in report.rows]
        assert got == reference
        assert report.total_bits == 12_927_232
        assert f"{report.total_mb:.2f}" == "1.54"
        assert report.to_text().splitlines()[-1] == "total_MB 1.54"


# ---------------------------------------------------------------------------
# 2. Permutation-group golden
# ---------------------------------------------------------------------------

def test_criterion_2_permutation_group_golden():
    with criterion(2, "permutation groups: 12 for ResNet-18, 37 for ResNet-50", 1.0):
        for name, count in (("resnet18", 12), ("resnet50", 37)):
            arch = tensor_io.parse_arch_spec(_data_text(f"{name}.arch"))
            resolved = graph.resolve_groups(arch)
            expected = parse_groups_text(_data_text(f"{name}.groups"))
            assert len(resolved) == count
            to_sets = lambda gs: {(frozenset(g.parents), frozenset(g.children)) for g in gs}
            assert to_sets(resolved) == to_sets(expected)


# ---------------------------------------------------------------------------
# 3. Functional equivalence
# ---------------------------------------------------------------------------

def test_criterion_3_functional_equivalence():
    with criterion(3, "100 permuted toy nets match originals to 1e-9", 10.0):
        triples = 0
        worst = 0.0
        seed = 0
        while triples < 100:
            ckpt = make_residual_checkpoint(c_in=2, width=8, n_blocks=2, seed=seed)
            groups = graph.resolve_groups(ckpt)
            probes = gaussian(make_rng(seed, "probes"), (4, 2, 6, 6))
            rng = make_rng(seed, "perms")
            for group in groups:
                if triples >= 100:
                    break
                perm = rng.permutation(group.channels)
                permuted = apply_group_permutation(ckpt, group, perm)
                worst = max(worst, verify_equivalence(ckpt, permuted, probes))
                triples += 1
            seed += 1
        assert triples == 100
        assert worst <= 1e-9, f"worst deviation {worst}"


# ---------------------------------------------------------------------------
# 4. Permutation oracle
# ---------------------------------------------------------------------------

def _ordered_pairings(items):
    """All collections of ordered pairs covering `items` (order of pairs ignored)."""
    if not items:
        yield []
        return
    first = items[0]
    for j in range(1, len(items)):
        partner = items[j]
        rest = [x for x in items[1:] if x != partner]
        for tail in _ordered_pairings(rest):
            yield [(first, partner)] + tail
            yield [(partner, first)] + tail


def _correlated_matrix(seed: int, rows: int = 8, cols: int = 40) -> np.ndarray:
    rng = make_rng(seed, "acc4")
    mix = np.eye(rows) + 0.9 * (gaussian(rng, (rows, rows)) > 1.0)
    scales = np.exp(gaussian(rng, (rows,)))
    return (scales[:, None] * mix) @ gaussian(rng, (rows, cols))


def test_criterion_4_permutation_matches_exhaustive_search():
    with criterion(4, "greedy+ILS reaches the exhaustive optimum in >=19/20", 30.0):
        hits = 0
        for seed in range(20):
            matrix = _correlated_matrix(seed)
            init = greedy_init(matrix, d=2, block=1)
            found = local_search(matrix, 2, 1, init, iters=1000, seed=seed)
            achieved = permuted_objective(matrix, 2, found)
            best = np.inf
            for pairs in _ordered_pairings(list(range(8))):
                order = np.array([i for pair in pairs for i in pair])
                best = min(best, permuted_objective(matrix, 2, order))
            if achieved <= best + 1e-9:
                hits += 1
        assert hits >= 19, f"only {hits}/20 reached the optimum"


# ---------------------------------------------------------------------------
# 5. SR-C vs k-means
# ---------------------------------------------------------------------------

def _mixture(seed, n=1024, d=4, components=96, spread=0.1):
    rng = make_rng(seed, "acc5-mixture")
    centers = gaussian(rng, (components, d))
    picks = rng.integers(0, components, size=n)
    return centers[picks] + spread * gaussian(rng, (n, d))


def test_criterion_5_src_beats_kmeans():
    with criterion(5, "SR-C median error <= k-means, wins >= 70% of 20 pairs", 60.0):
        k_errors, s_errors, wins = [], [], 0
        for seed in range(20):
            pts = _mixture(seed)
            sigma = subvector_covariance(pts)
            _, _, ke = kmeans(pts, 64, iters=150, seed=seed)
            _, _, se = src(pts, sigma, 64, SRCConfig(150, 0.5, seed))
            k_errors.append(ke)
            s_errors.append(se)
            wins += se <= ke
        assert np.median(s_errors) <= np.median(k_errors)
        assert wins >= 14, f"SR-C won only {wins}/20 pairs"


# ---------------------------------------------------------------------------
# 6. Ablation direction
# ---------------------------------------------------------------------------

def test_criterion_6_ablation_ordering():
    with criterion(6, "median error: perm+SR-C <= SR-C <= k-means over 20 seeds", 120.0):
        cfg = BenchConfig(
            seeds=20, rows=32, cols=96, d=4, k=16, src_iterations=150, perm_iterations=300
        )
        rows = run_bench(cfg, base_seed=0)
        med = {
            m: float(np.median([r["error"] for r in rows if r["method"] == m]))
            for m in BENCH_METHODS
        }
        assert med["perm+src"] <= med["src"] <= med["kmeans"], med


# ---------------------------------------------------------------------------
# 7. Rate-distortion sanity
# ---------------------------------------------------------------------------

def test_criterion_7_rate_distortion_sanity():
    with criterion(7, "k-means distortion >= 0.9 x Gaussian lower bound", 30.0):
        for d, k in itertools.product((2, 4), (16, 64)):
            rng = make_rng(d * 1000 + k, "acc7")
            a = gaussian(rng, (d, d))
            chol = np.linalg.cholesky(a @ a.T + 0.3 * np.eye(d))
            pts = gaussian(rng, (100 * k, d)) @ chol.T
            sigma = subvector_covariance(pts)
            _, _, err = kmeans(pts, k, iters=80, seed=d + k)
            bound = rd_lower_bound(sigma, k)
            assert err >= 0.9 * bound, (d, k, err, bound)


# ---------------------------------------------------------------------------
# 8. Gradient suite
# ---------------------------------------------------------------------------

def _check_grads(net, x, labels, params, encodings=()):
    _, cache = forward(net, x)
    _, grads = backward(net, cache, labels, into=all_gradients(net))
    h = 1e-5

    def numeric_of(arr, recompute):
        out = np.zeros_like(arr)
        flat, oflat = arr.ravel(), out.ravel()
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + h
            lp = recompute()
            flat[i] = old - h
            lm = recompute()
            flat[i] = old
            oflat[i] = (lp - lm) / (2 * h)
        return out

    def loss_now():
        return backward(net, forward(net, x)[1], labels, into=all_gradients(net))[0]

    checked = 0
    for name, part in params:
        analytic = grads[name][part]
        numeric = numeric_of(net.params[name][part], loss_now)
        scale = np.maximum(np.abs(analytic), np.abs(numeric))
        assert np.all(np.abs(analytic - numeric) <= 1e-5 * scale + 1e-8), (name, part)
        checked += 1
    for name in encodings:
        enc = net.encodings[name]
        analytic = finetune.centroid_gradients(grads[name]["weight"], enc)
        numeric = numeric_of(enc.codebook, loss_now)
        scale = np.maximum(np.abs(analytic), np.abs(numeric))
        assert np.all(np.abs(analytic - numeric) <= 1e-5 * scale + 1e-8), name
        checked += 1
    return checked


def test_criterion_8_gradient_suite():
    with criterion(8, "50 random configurations pass finite-difference checks", 30.0):
        configs = 0
        for seed in range(30):  # dense nets
            rng = make_rng(seed, "acc8-mlp")
            sizes = [int(rng.integers(3, 7)) for _ in range(3)]
            ckpt = make_mlp_checkpoint(tuple(sizes), seed=seed)
            net = ToyNetwork.from_checkpoint(ckpt)
            x = gaussian(make_rng(seed, "acc8-x"), (4, sizes[0]))
            labels = make_rng(seed, "acc8-y").integers(0, sizes[-1], size=4)
            params = [(m.name, p) for m in ckpt.layers if m.kind == "fc" for p in ("weight", "bias")]
            _check_grads(net, x, labels, params)
            configs += 1
        for seed in range(12):  # residual conv nets with batchnorm
            ckpt = make_residual_checkpoint(c_in=2, width=4, n_blocks=1, seed=seed)
            net = ToyNetwork.from_checkpoint(ckpt)
            x = gaussian(make_rng(seed, "acc8-img"), (2, 2, 4, 4))
            labels = make_rng(seed, "acc8-lab").integers(0, 4, size=2)
            params = [("stem", "weight"), ("block1.conv1", "weight"), ("block1.conv2", "weight"),
                      ("block1.bn1", "weight"), ("block1.bn2", "bias"), ("fc", "weight")]
            _check_grads(net, x, labels, params)
            configs += 1
        for seed in range(8):  # encoded layers: centroid gradients
            rng = make_rng(seed, "acc8-enc")
            w = gaussian(rng, (8, 5))
            meta = tensor_io.LayerMeta("fc1", "fc", 1, 8, 5)
            cfg = CompressionConfig(
                k=3, k_fc=3, d_fc=4, src_iterations=15
            )
            enc = encode_layer(w, meta, cfg, seed=seed)
            ckpt = make_mlp_checkpoint((8, 5), seed=seed)
            ckpt.tensor("fc1.weight").data = w.astype("<f4")
            net = ToyNetwork.from_checkpoint(ckpt)
            net.encodings["fc1"] = enc
            x = gaussian(make_rng(seed, "acc8-encx"), (4, 8))
            labels = make_rng(seed, "acc8-ency").integers(0, 5, size=4)
            _check_grads(net, x, labels, [("fc1", "bias")], encodings=["fc1"])
            configs += 1
        assert configs == 50


# ---------------------------------------------------------------------------
# 9. Fine-tune recovery
# ---------------------------------------------------------------------------

def test_criterion_9_finetune_recovery():
    with criterion(9, "fine-tuning strictly recovers accuracy in >=18/20 seeds", 300.0):
        recovered = 0
        for seed in range(20):
            result = run_eval(toy="mlp", epochs=30, seed=seed)
            net = result["net"]
            for name, enc in net.encodings.items():
                decoded = codec.decode_layer(enc)
                assert decoded.shape == net.params[name]["weight"].shape
            if result["finetuned_acc"] > result["quantized_acc"]:
                recovered += 1
        assert recovered >= 18, f"recovered in only {recovered}/20 seeds"


# ---------------------------------------------------------------------------
# 10. Round-trip suite
# ---------------------------------------------------------------------------

def test_criterion_10_round_trip_suite(tmp_path):
    with criterion(10, "containers, bit packing, and error accounting round-trip", 30.0):
        # container save/load bit-exactness
        ckpt = make_mlp_checkpoint((8, 16, 4), seed=1)
        p1, p2 = tmp_path / "a.pqfn", tmp_path / "b.pqfn"
        tensor_io.save_checkpoint(ckpt, p1)
        tensor_io.save_checkpoint(tensor_io.load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

        cfg = CompressionConfig(k=4, k_fc=4, src_iterations=20, perm_iterations=40)
        model, _, _, _ = codec.compress_model(ckpt, cfg, seed=2)
        c1, c2 = tmp_path / "a.pqfc", tmp_path / "b.pqfc"
        tensor_io.save_compressed(model, c1)
        tensor_io.save_compressed(tensor_io.load_compressed(c1), c2)
        assert c1.read_bytes() == c2.read_bytes()

        # code packing exact for every codebook size in 2..4096
        rng = make_rng(3, "acc10")
        for k_eff in range(2, 4097):
            bits = code_width(k_eff)
            values = rng.integers(0, k_eff, size=101)
            assert np.array_equal(unpack_codes(pack_codes(values, bits), bits, 101), values)

        # encode/decode error equals the definition recomputation to 1e-10
        for seed in range(5):
            w = gaussian(make_rng(seed, "acc10-w"), (4, 6, 3, 3))
            meta = tensor_io.LayerMeta("c", "conv", 3, 4, 6)
            enc = encode_layer(
                w, meta, CompressionConfig(k=5, src_iterations=30), seed=seed
            )
            decoded = codec.decode_layer(enc)
            matrix = layout.reshape_weight(w, "conv")
            matrix_hat = layout.reshape_weight(decoded, "conv")
            m_hat = matrix.shape[0] // enc.d
            direct = float(np.square(matrix_hat - matrix).sum() / (m_hat * matrix.shape[1]))
            assert abs(direct - enc.error) < 1e-10
