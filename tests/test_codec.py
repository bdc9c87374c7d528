import numpy as np
import pytest

from pqf import codec, layout, permsearch, quantize, tensor_io
from pqf.codec import (
    CompressionConfig,
    bit_report,
    compress_model,
    decode_layer,
    decompress_model,
    encode_layer,
    quantization_error,
)
from pqf.errors import CodebookOverflow, IndivisibleBlockSize, NonFiniteWeight, PQFError
from pqf.finetune import make_mlp_checkpoint, make_residual_checkpoint
from pqf.permsearch import Permutation
from pqf.rng import make_rng
from pqf.tensor_io import EncodedEntry, LayerMeta, RawEntry


def _meta(kind="fc", k=1, c_in=8, c_out=4, name="layer"):
    return LayerMeta(name, kind, k, c_in, c_out)


def test_zero_error_when_codebook_covers_distinct_subvectors():
    # constant columns: 16 subvectors but only 4 distinct ones; k_eff = 16//4
    row = make_rng(41, "enc").standard_normal(4)
    w2 = np.tile(row, (16, 1))
    meta = _meta(c_in=16, c_out=4)
    cfg = CompressionConfig.small_blocks(
        k=64, k_fc=64, quantizer="kmeans", src_iterations=100
    )
    enc2 = encode_layer(w2, meta, cfg, seed=0)
    assert enc2.k_eff == 4
    assert enc2.error == pytest.approx(0.0, abs=1e-20)
    assert np.allclose(decode_layer(enc2), w2)


def test_fc_encode_matches_direct_kmeans_composition():
    w = make_rng(43, "compose").standard_normal((8, 4))
    meta = _meta()
    cfg = CompressionConfig.small_blocks(
        k=2, k_fc=2, quantizer="kmeans", src_iterations=40
    )
    seed = 77
    enc = encode_layer(w, meta, cfg, seed=seed)
    # oracle: layout + quantize composed by hand on the 8 column-halves
    subs = layout.split_subvectors(layout.reshape_fc(w), 4)
    codes, cb, err = quantize.kmeans(subs, 2, 40, seed)
    assert np.array_equal(enc.codes, codes)
    assert np.array_equal(enc.codebook, cb)
    assert enc.error == pytest.approx(err)


def test_conv_large_blocks_enforce_filter_groups():
    w = make_rng(44, "conv").standard_normal((4, 6, 3, 3))
    meta = _meta(kind="conv", k=3, c_in=4, c_out=6, name="c")
    cfg = CompressionConfig.large_blocks(k=8, src_iterations=10)
    enc = encode_layer(w, meta, cfg, seed=1)
    assert enc.d == 18
    assert enc.permutation.block == 9


def test_decode_single_centroid():
    w = make_rng(45, "single").standard_normal((8, 3))
    meta = _meta(c_in=8, c_out=3)
    cfg = CompressionConfig.small_blocks(k=1, k_fc=1, src_iterations=5)
    enc = encode_layer(w, meta, cfg, seed=0)
    assert enc.k_eff == 1
    decoded = decode_layer(enc)
    blocks = decoded.reshape(2, 4, 3)
    for j in range(3):
        assert np.allclose(blocks[0, :, j], enc.codebook[0])
        assert np.allclose(blocks[1, :, j], enc.codebook[0])


def test_reported_error_matches_definition_oracle():
    rng = make_rng(46, "err")
    w = rng.standard_normal((4, 5, 3, 3))
    meta = _meta(kind="conv", k=3, c_in=4, c_out=5, name="c")
    cfg = CompressionConfig.small_blocks(k=7, src_iterations=25)
    perm = Permutation(
        (np.array([2, 0, 3, 1])[:, None] * 9 + np.arange(9)).ravel(), block=9
    )
    enc = encode_layer(w, meta, cfg, permutation=perm, seed=3)
    # recompute from the definition via the decoded tensor
    decoded = decode_layer(enc)
    rw, rw_hat = layout.reshape_conv(w), layout.reshape_conv(decoded)
    m_hat = rw.rows // enc.d
    direct = float(np.square(rw_hat.matrix - rw.matrix).sum() / (m_hat * rw.cols))
    assert abs(direct - enc.error) < 1e-10
    assert abs(quantization_error(w, enc) - enc.error) < 1e-14


def test_error_invariant_under_permutation_in_both_spaces():
    # error in permuted space equals error of the unpermuted reconstruction
    rng = make_rng(47, "perm-err")
    w = rng.standard_normal((8, 6))
    meta = _meta(c_in=8, c_out=6)
    cfg = CompressionConfig.small_blocks(k=3, k_fc=3, src_iterations=20)
    perm = Permutation(make_rng(48, "p").permutation(8))
    enc = encode_layer(w, meta, cfg, permutation=perm, seed=5)
    decoded = decode_layer(enc)
    m_hat = 8 // enc.d
    unpermuted_err = float(np.square(decoded - w).sum() / (m_hat * 6))
    assert unpermuted_err == pytest.approx(enc.error, rel=1e-12)


def test_encode_rejects_incompatible_d():
    w = np.zeros((6, 4))
    meta = _meta(c_in=6, c_out=4)
    with pytest.raises(IndivisibleBlockSize):
        encode_layer(w, meta, CompressionConfig.small_blocks(), seed=0)


# ---------------------------------------------------------------------------
# Bit report
# ---------------------------------------------------------------------------

def test_report_arithmetic_invariants():
    arch = tensor_io.load_arch_spec("src/pqf/data/resnet18.arch")
    cfg = CompressionConfig.small_blocks(k=256)
    rep = bit_report(arch, cfg)
    assert rep.total_bits == sum(r.bits for r in rep.rows)
    assert rep.total_mb == pytest.approx(rep.total_bits / 8 / 1024**2)
    # 32-bit baseline over the standard parameter count
    assert rep.baseline_bits == 32 * 11_689_512
    assert rep.ratio == pytest.approx(32 * 11_689_512 / rep.total_bits)


def test_report_spot_rows():
    arch = tensor_io.load_arch_spec("src/pqf/data/resnet18.arch")
    rep = bit_report(arch, CompressionConfig.small_blocks(k=256))
    rows = {r.name: r for r in rep.rows}
    assert rows["conv1.weight"].bits == 301056
    assert rows["fc.codes_matrix"].bits == 1000 * 128 * 11
    assert rows["fc.codes_matrix"].dtype == "int16"
    assert rows["layer2.0.downsample.0.codes_matrix"].shape == (128, 16)
    assert rows["layer2.0.downsample.0.codes_matrix"].bits == 16384


def test_report_text_last_line_and_csv():
    arch = tensor_io.load_arch_spec("src/pqf/data/resnet18.arch")
    rep = bit_report(arch, CompressionConfig.small_blocks(k=256))
    text = rep.to_text()
    assert text.splitlines()[-1] == "total_MB 1.54"
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "name,layer_type,shape,dtype,bits"
    assert csv.splitlines()[-1] == "total_MB,,,,1.54"


# ---------------------------------------------------------------------------
# Whole-model compression
# ---------------------------------------------------------------------------

def _toy_mlp():
    return make_mlp_checkpoint((8, 16, 4), seed=5)


def test_compress_model_round_trips_and_matches_report(tmp_path):
    ckpt = _toy_mlp()
    cfg = CompressionConfig.small_blocks(
        k=8, k_fc=8, src_iterations=25, perm_iterations=50
    )
    model, report, errors = compress_model(ckpt, cfg, seed=11)
    assert set(errors) == {"fc1", "fc2"}
    path = tmp_path / "toy.pqfc"
    tensor_io.save_compressed(model, path)
    loaded = tensor_io.load_compressed(path)
    assert tensor_io.compressed_models_equal(model, loaded)
    restored = decompress_model(loaded)
    assert restored.tensor("fc1.weight").data.shape == (8, 16)
    # report totals equal the sum of entry-level costs
    names = {r.name for r in report.rows}
    assert "fc1.codebook" in names and "fc2.codes_matrix" in names
    assert report.total_bits == sum(r.bits for r in report.rows)


def test_compress_skip_all_yields_raw_entries():
    ckpt = _toy_mlp()
    cfg = CompressionConfig.small_blocks(
        k=8, skip=frozenset({"fc1", "fc2"}), use_permutation=False
    )
    model, report, errors = compress_model(ckpt, cfg, seed=0)
    assert errors == {}
    assert all(isinstance(e, RawEntry) for e in model.entries)
    for entry, rec in zip(model.entries, ckpt.tensors):
        assert tensor_io.records_equal(entry.record, rec)
    assert report.ratio == pytest.approx(1.0)


def test_compress_deterministic_and_jobs_invariant():
    ckpt = _toy_mlp()
    cfg = CompressionConfig.small_blocks(k=4, k_fc=4, src_iterations=15, perm_iterations=30)
    m1, _, e1 = compress_model(ckpt, cfg, seed=3, jobs=1)
    m2, _, e2 = compress_model(ckpt, cfg, seed=3, jobs=4)
    assert e1 == e2
    assert tensor_io.compressed_models_equal(m1, m2)


@pytest.mark.parametrize("regime", [CompressionConfig.small_blocks, CompressionConfig.large_blocks])
def test_compress_model_scores_no_order_with_the_reference_objective(regime, monkeypatch):
    ckpt = make_residual_checkpoint(c_in=2, width=8, n_blocks=2, seed=7)
    cfg = regime(k=4, k_fc=4, src_iterations=3, perm_iterations=20)
    calls = []
    original = permsearch.matrix_objective
    monkeypatch.setattr(
        permsearch, "matrix_objective", lambda *a: calls.append(a) or original(*a)
    )
    model, _, _ = compress_model(ckpt, cfg, seed=1)
    assert calls == []
    assert any(isinstance(e, EncodedEntry) and e.name == "fc" for e in model.entries)


def _anisotropic_mlp(seed):
    """An MLP whose hidden-layer rows have wildly mixed scales."""
    ckpt = make_mlp_checkpoint((12, 16, 4), seed=seed)
    rng = make_rng(seed, "aniso")
    w = np.asarray(ckpt.tensor("fc2.weight").data, dtype=np.float64)
    scales = np.logspace(0, 1.5, 16)[rng.permutation(16)]
    ckpt.tensor("fc2.weight").data = (w * scales[:, None]).astype("<f4")
    w1 = np.asarray(ckpt.tensor("fc1.weight").data, dtype=np.float64)
    scales1 = np.logspace(0, 1.5, 12)[rng.permutation(12)]
    ckpt.tensor("fc1.weight").data = (w1 * scales1[:, None]).astype("<f4")
    return ckpt


def test_permutation_does_not_hurt_summed_error():
    cfg_perm = CompressionConfig.small_blocks(
        k=4, k_fc=4, quantizer="kmeans", src_iterations=40, perm_iterations=150
    )
    cfg_id = CompressionConfig.small_blocks(
        k=4, k_fc=4, quantizer="kmeans", src_iterations=40, use_permutation=False
    )
    better = 0
    for seed in range(20):
        ckpt = _anisotropic_mlp(seed)
        _, _, with_perm = compress_model(ckpt, cfg_perm, seed=seed)
        _, _, without = compress_model(ckpt, cfg_id, seed=seed)
        if sum(with_perm.values()) <= sum(without.values()) + 1e-12:
            better += 1
    assert better >= 18


def test_deconv_encode_decode_round_trip():
    w = make_rng(50, "deconv").standard_normal((6, 4, 3, 3))  # (C_out, C_in, K, K)
    meta = _meta(kind="deconv", k=3, c_in=4, c_out=6, name="up")
    cfg = CompressionConfig.small_blocks(k=6, src_iterations=25)
    enc = encode_layer(w, meta, cfg, seed=2)
    assert enc.source_kind == "deconv"
    decoded = decode_layer(enc)
    assert decoded.shape == w.shape
    assert quantization_error(w, enc) == pytest.approx(enc.error, rel=1e-12)


def test_reshape_coupled_layer_still_gets_permutation_search():
    # conv -> flatten(x9) -> fc: the fc rows move in blocks of 9, and d=4
    # does not divide the block; search must still beat-or-match identity
    rng = make_rng(51, "reshape-perm")
    layers = [
        LayerMeta("input", "input", 1, 2, 2),
        LayerMeta("conv1", "conv", 3, 2, 4),
        LayerMeta("relu1", "relu", 1, 4, 4),
        LayerMeta("flat", "reshape", 1, 4, 36),
        LayerMeta("fc1", "fc", 1, 36, 5),
        LayerMeta("output", "output", 1, 5, 5),
    ]
    edges = [
        ("input", "conv1"),
        ("conv1", "relu1"),
        ("relu1", "flat"),
        ("flat", "fc1"),
        ("fc1", "output"),
    ]
    scales = np.repeat(np.logspace(0, 1.5, 4)[make_rng(52, "s").permutation(4)], 9)
    fc_w = make_rng(53, "w").standard_normal((36, 5)) * scales[:, None]
    ckpt = tensor_io.ModelCheckpoint(
        tensors=[
            tensor_io.tensor_record("conv1.weight", make_rng(54, "c").standard_normal((2, 4, 3, 3))),
            tensor_io.tensor_record("fc1.weight", fc_w),
        ],
        layers=layers,
        edges=edges,
    )
    base = dict(k=4, k_fc=4, quantizer="kmeans", src_iterations=40)
    with_perm = CompressionConfig.small_blocks(perm_iterations=200, **base)
    without = CompressionConfig.small_blocks(use_permutation=False, **base)
    model_p, _, err_p = compress_model(ckpt, with_perm, seed=1)
    _, _, err_i = compress_model(ckpt, without, seed=1)
    assert err_p["fc1"] <= err_i["fc1"] + 1e-12
    (entry,) = [e for e in model_p.entries if isinstance(e, tensor_io.EncodedEntry)]
    assert entry.perm_block == 9
    grid = entry.permutation.astype(np.int64).reshape(4, 9)
    assert np.array_equal(grid, grid[:, :1] + np.arange(9))  # whole blocks moved


def test_entry_encoding_round_trip_preserves_f16_codebook():
    w = make_rng(49, "f16").standard_normal((8, 4))
    meta = _meta(c_in=8, c_out=4)
    cfg = CompressionConfig.small_blocks(k=2, k_fc=2, src_iterations=10)
    enc = encode_layer(w, meta, cfg, seed=0)
    entry = codec.encoding_to_entry("layer", enc)
    assert isinstance(entry, EncodedEntry)
    back = codec.entry_to_encoding(entry)
    assert np.array_equal(back.codes, enc.codes)
    assert np.array_equal(back.permutation.indices, enc.permutation.indices)
    assert np.array_equal(back.codebook, enc.codebook.astype("<f2").astype(np.float64))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_compress_rejects_non_finite_weight(bad):
    ckpt = _toy_mlp()
    ckpt.tensor("fc2.weight").data[3, 1] = bad
    cfg = CompressionConfig.small_blocks(k=4, k_fc=4, src_iterations=5, perm_iterations=5)
    with pytest.raises(NonFiniteWeight, match="fc2"):
        compress_model(ckpt, cfg, seed=0)
    assert issubclass(NonFiniteWeight, PQFError)


def test_encode_layer_rejects_non_finite_weight():
    w = make_rng(50, "nan").standard_normal((8, 4))
    w[0, 0] = np.nan
    cfg = CompressionConfig.small_blocks(k=2, k_fc=2, src_iterations=5)
    with pytest.raises(NonFiniteWeight):
        encode_layer(w, _meta(c_in=8, c_out=4), cfg)


def test_codebook_beyond_float16_range_is_an_error():
    w = make_rng(51, "f16").standard_normal((8, 4))
    enc = encode_layer(w, _meta(c_in=8, c_out=4), CompressionConfig.small_blocks(k=2, k_fc=2))
    enc.codebook[1, 0] = 65504.0  # the largest float16 is still fine
    codec.encoding_to_entry("layer", enc)
    enc.codebook[1, 0] = -65520.0  # rounds to -inf in float16
    with pytest.raises(CodebookOverflow, match="layer"):
        codec.encoding_to_entry("layer", enc)
    assert issubclass(CodebookOverflow, PQFError)


def test_compress_rejects_weights_whose_centroids_overflow_float16():
    ckpt = _toy_mlp()
    ckpt.tensor("fc1.weight").data[:] = 1e5
    cfg = CompressionConfig.small_blocks(k=4, k_fc=4, src_iterations=5, use_permutation=False)
    with pytest.raises(CodebookOverflow, match="fc1"):
        compress_model(ckpt, cfg, seed=0)
