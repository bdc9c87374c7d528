from pathlib import Path

import numpy as np
import pytest

from helpers import (
    compressed_models_equal,
    declared_model,
    make_residual_checkpoint,
    quantization_error,
    records_equal,
    row_order_oracle,
    synthetic_resnet,
)
from pqf import cli, codec, layout, permsearch, quantize, tensor_io
from pqf.codec import (
    CompressionConfig,
    bit_report,
    compress_model,
    decode_layer,
    decompress_model,
    encode_layer,
)
from pqf.errors import (
    CodebookOverflow,
    IndivisibleBlockSize,
    NonFiniteWeight,
    PQFError,
    ShapeMismatch,
)
from pqf.finetune import make_mlp_checkpoint
from pqf.rng import make_rng
from pqf.tensor_io import EncodedEntry, LayerMeta, TensorRecord, code_width


def _meta(kind="fc", k=1, c_in=8, c_out=4, name="layer"):
    return LayerMeta(name, kind, k, c_in, c_out)


def test_zero_error_when_codebook_covers_distinct_subvectors():
    # constant columns: 16 subvectors but only 4 distinct ones; k_eff = 16//4
    row = make_rng(41, "enc").standard_normal(4)
    w2 = np.tile(row, (16, 1))
    meta = _meta(c_in=16, c_out=4)
    cfg = CompressionConfig(
        k=64, k_fc=64, quantizer="kmeans", src_iterations=100
    )
    enc2 = encode_layer(w2, meta, cfg, seed=0)
    assert enc2.k_eff == 4
    assert enc2.error == pytest.approx(0.0, abs=1e-20)
    assert np.allclose(decode_layer(enc2), w2)


def test_fc_encode_matches_direct_kmeans_composition():
    w = make_rng(43, "compose").standard_normal((8, 4))
    meta = _meta()
    cfg = CompressionConfig(
        k=2, k_fc=2, quantizer="kmeans", src_iterations=40
    )
    seed = 77
    enc = encode_layer(w, meta, cfg, seed=seed)
    # oracle: layout + quantize composed by hand on the 8 column-halves
    subs = layout.split_subvectors(layout.reshape_weight(w, "fc"), 4)
    codes, cb, err = quantize.kmeans(subs, 2, 40, seed)
    assert np.array_equal(enc.codes, codes)
    assert np.array_equal(enc.codebook, cb)
    assert enc.error == pytest.approx(err)


def test_conv_large_blocks_enforce_filter_groups():
    w = make_rng(44, "conv").standard_normal((4, 6, 3, 3))
    meta = _meta(kind="conv", k=3, c_in=4, c_out=6, name="c")
    cfg = CompressionConfig(k=8, d_conv_multiplier=2, src_iterations=10)
    enc = encode_layer(w, meta, cfg, np.array([1, 0]), seed=1)  # two units of two channels
    assert enc.d == 18
    grid = enc.row_order().reshape(4, 9)
    assert np.array_equal(grid, grid[:, :1] + np.arange(9))  # whole filters move
    assert np.array_equal(grid[:, 0], [18, 27, 0, 9])


@pytest.mark.parametrize("units", [[0, 1, 2], [0, 0, 1, 2], [1, 2, 3, 4], [], [[0, 1], [1, 0]]])
def test_encode_rejects_a_unit_order_that_is_not_a_permutation_dividing_its_channels(units):
    w = make_rng(44, "conv").standard_normal((4, 6, 3, 3))
    meta = _meta(kind="conv", k=3, c_in=4, c_out=6, name="c")
    with pytest.raises(IndivisibleBlockSize, match="layer 'c': the unit order"):
        encode_layer(w, meta, CompressionConfig(k=8, src_iterations=1), units)


def test_decode_single_centroid():
    w = make_rng(45, "single").standard_normal((8, 3))
    meta = _meta(c_in=8, c_out=3)
    cfg = CompressionConfig(k=1, k_fc=1, src_iterations=5)
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
    cfg = CompressionConfig(k=7, src_iterations=25)
    enc = encode_layer(w, meta, cfg, units=np.array([2, 0, 3, 1]), seed=3)
    # recompute from the definition via the decoded tensor
    decoded = decode_layer(enc)
    matrix = layout.reshape_weight(w, "conv")
    matrix_hat = layout.reshape_weight(decoded, "conv")
    m_hat = matrix.shape[0] // enc.d
    direct = float(np.square(matrix_hat - matrix).sum() / (m_hat * matrix.shape[1]))
    assert abs(direct - enc.error) < 1e-10
    assert abs(quantization_error(w, enc) - enc.error) < 1e-14


def test_error_invariant_under_permutation_in_both_spaces():
    # error in permuted space equals error of the unpermuted reconstruction
    rng = make_rng(47, "perm-err")
    w = rng.standard_normal((8, 6))
    meta = _meta(c_in=8, c_out=6)
    cfg = CompressionConfig(k=3, k_fc=3, src_iterations=20)
    enc = encode_layer(w, meta, cfg, units=make_rng(48, "p").permutation(8), seed=5)
    decoded = decode_layer(enc)
    m_hat = 8 // enc.d
    unpermuted_err = float(np.square(decoded - w).sum() / (m_hat * 6))
    assert unpermuted_err == pytest.approx(enc.error, rel=1e-12)


def test_encode_rejects_incompatible_d():
    w = np.zeros((6, 4))
    meta = _meta(c_in=6, c_out=4)
    with pytest.raises(IndivisibleBlockSize):
        encode_layer(w, meta, CompressionConfig(), seed=0)


@pytest.mark.parametrize(
    "shape,meta",
    [((8, 4), _meta(c_in=8, c_out=3)), ((4, 8), _meta(c_in=8, c_out=4)),
     ((2, 4, 3, 3), _meta(kind="conv", k=1, c_in=2, c_out=4)),
     ((2, 4, 3, 3), _meta(kind="conv", k=3, c_in=4, c_out=2))],
)
def test_encode_rejects_a_weight_its_layer_does_not_describe(shape, meta):
    # the layer's geometry prices the entry, so a weight of another shape cannot encode
    with pytest.raises(ShapeMismatch, match="layer 'layer'"):
        encode_layer(np.ones(shape), meta, CompressionConfig(k=2, k_fc=2), seed=0)


@pytest.mark.parametrize("regime", ["small", "large"])
def test_every_encoded_entry_matches_its_bit_report_rows(regime):
    ckpt = synthetic_resnet(18, 8, seed=5)
    cfg = CompressionConfig(k=64, k_fc=512, d_conv_multiplier=1 if regime == "small" else 2,
                            quantizer="kmeans", src_iterations=1, perm_iterations=2)
    model, report, _, _ = compress_model(ckpt, cfg, seed=5)
    rows = {r.name: r for r in report.rows}
    entries = [e for e in model.entries if isinstance(e, EncodedEntry)]
    assert len(entries) == 20  # every weighted layer but the first conv
    for e in entries:
        assert e.codebook.shape == (e.k_eff, e.d) == rows[f"{e.name}.codebook"].shape
        codes = rows[f"{e.name}.codes_matrix"]
        assert codes.shape == (e.n, e.m_hat)
        assert codes.bits == e.m_hat * e.n * code_width(e.k_eff)


# ---------------------------------------------------------------------------
# Bit report
# ---------------------------------------------------------------------------

def test_report_arithmetic_invariants():
    arch = tensor_io.parse_arch_spec(Path("src/pqf/data/resnet18.arch").read_text())
    cfg = CompressionConfig(k=256)
    rep = bit_report(arch, cfg)
    assert rep.total_bits == sum(r.bits for r in rep.rows)
    assert rep.total_mb == pytest.approx(rep.total_bits / 8 / 1024**2)
    # 32-bit baseline over the standard parameter count
    assert rep.baseline_bits == 32 * 11_689_512
    assert rep.ratio == pytest.approx(32 * 11_689_512 / rep.total_bits)


def test_report_spot_rows():
    arch = tensor_io.parse_arch_spec(Path("src/pqf/data/resnet18.arch").read_text())
    rep = bit_report(arch, CompressionConfig(k=256))
    rows = {r.name: r for r in rep.rows}
    assert rows["conv1.weight"].bits == 301056
    assert rows["fc.codes_matrix"].bits == 1000 * 128 * 11
    assert rows["fc.codes_matrix"].dtype == "int16"
    assert rows["layer2.0.downsample.0.codes_matrix"].shape == (128, 16)
    assert rows["layer2.0.downsample.0.codes_matrix"].bits == 16384


def test_report_text_last_line_and_csv():
    arch = tensor_io.parse_arch_spec(Path("src/pqf/data/resnet18.arch").read_text())
    rep = bit_report(arch, CompressionConfig(k=256))
    text = rep.to_text()
    assert text.splitlines()[-1] == "total_MB 1.54"
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "name,layer_type,shape,dtype,bits"
    assert csv.splitlines()[-1] == "total_MB,,,,1.54"


def test_a_checkpoint_built_in_code_prices_its_bias_as_its_saved_copy_does(tmp_path):
    # a raw 3x3 first conv (3 -> 8), then a 1x1 conv (8 -> 16) with a bias, and
    # no layer declaring `has_bias`: the 512-bit conv bias is priced either way
    rng = make_rng(66, "conv-bias")
    ckpt = tensor_io.ModelCheckpoint(
        tensors=[
            tensor_io.tensor_record("conv1.weight", rng.standard_normal((3, 8, 3, 3))),
            tensor_io.tensor_record("conv2.weight", rng.standard_normal((8, 16, 1, 1))),
            tensor_io.tensor_record("conv2.bias", rng.standard_normal(16)),
        ],
        layers=[
            LayerMeta("input", "input", 1, 3, 3),
            LayerMeta("conv1", "conv", 3, 3, 8),
            LayerMeta("conv2", "conv", 1, 8, 16),
            LayerMeta("output", "output", 1, 16, 16),
        ],
        edges=[("input", "conv1"), ("conv1", "conv2"), ("conv2", "output")],
    )
    assert all(meta.has_bias is None for meta in ckpt.layers)
    cfg = CompressionConfig(k=4, src_iterations=2, perm_iterations=5)
    _, report, _, _ = compress_model(ckpt, cfg, seed=0)
    path = tmp_path / "conv.pqfn"
    tensor_io.save_checkpoint(ckpt, path)
    loaded = tensor_io.load_checkpoint(path)
    # 6 912 raw conv1 bits, 512 bias bits, a 4 x 4 float16 codebook and 32 2-bit codes
    assert report.total_bits == bit_report(ckpt, cfg).total_bits == 7_744
    assert bit_report(loaded, cfg).total_bits == 7_744
    assert [r.name for r in report.rows if r.name.endswith(".bias")] == ["conv2.bias"]


# ---------------------------------------------------------------------------
# Whole-model compression
# ---------------------------------------------------------------------------

def _toy_mlp():
    return make_mlp_checkpoint((8, 16, 4), seed=5)


def test_compress_model_round_trips_and_matches_report(tmp_path):
    ckpt = _toy_mlp()
    cfg = CompressionConfig(
        k=8, k_fc=8, src_iterations=25, perm_iterations=50
    )
    model, report, errors, _ = compress_model(ckpt, cfg, seed=11)
    assert set(errors) == {"fc1", "fc2"}
    path = tmp_path / "toy.pqfc"
    tensor_io.save_compressed(model, path)
    loaded = tensor_io.load_compressed(path)
    assert compressed_models_equal(model, loaded)
    restored = decompress_model(loaded)
    assert restored.tensor("fc1.weight").data.shape == (8, 16)
    # report totals equal the sum of entry-level costs
    names = {r.name for r in report.rows}
    assert "fc1.codebook" in names and "fc2.codes_matrix" in names
    assert report.total_bits == sum(r.bits for r in report.rows)


def test_compress_skip_all_yields_raw_entries():
    ckpt = _toy_mlp()
    cfg = CompressionConfig(
        k=8, skip=frozenset({"fc1", "fc2"}), use_permutation=False
    )
    model, report, errors, _ = compress_model(ckpt, cfg, seed=0)
    assert errors == {}
    assert all(isinstance(e, TensorRecord) for e in model.entries)
    for entry, rec in zip(model.entries, ckpt.tensors):
        assert records_equal(entry, rec)
    assert report.ratio == pytest.approx(1.0)


def test_compress_deterministic_and_jobs_invariant():
    ckpt = _toy_mlp()
    cfg = CompressionConfig(k=4, k_fc=4, src_iterations=15, perm_iterations=30)
    m1, _, e1, _ = compress_model(ckpt, cfg, seed=3, jobs=1)
    m2, _, e2, _ = compress_model(ckpt, cfg, seed=3, jobs=4)
    assert e1 == e2
    assert compressed_models_equal(m1, m2)


def test_jobs_pool_keeps_the_declaration_order(tmp_path):
    ckpt = make_mlp_checkpoint((16, 32, 64, 4), seed=5)
    cfg = CompressionConfig(k=8, k_fc=8, src_iterations=5, perm_iterations=10)
    groups = codec.resolve_layer_permutations(ckpt, cfg, seed=2)
    units = {name: s.units for names, s in groups for name in names}
    assert any(not np.array_equal(order, np.arange(order.size)) for order in units.values())
    encodings = codec.encode_layers(ckpt, cfg, units, seed=2, jobs=2)
    assert list(encodings) == ["fc1", "fc2", "fc3"]

    written = []
    for jobs in (1, 2):
        model, _, _, _ = compress_model(ckpt, cfg, seed=2, jobs=jobs)
        path = tmp_path / f"jobs{jobs}.pqfc"
        tensor_io.save_compressed(model, path)
        written.append(path.read_bytes())
    assert written[0] == written[1]


def test_wave_budget_leaves_the_searches_and_bytes_unchanged(tmp_path, monkeypatch):
    ckpt = synthetic_resnet(18, 8, seed=6)
    cfg = CompressionConfig(k=8, k_fc=8, src_iterations=1, perm_iterations=30)
    waves, original = [], permsearch._run
    monkeypatch.setattr(permsearch, "_run", lambda searches: waves.append(len(searches)) or original(searches))
    written, sizes = [], []
    # one group per wave, a few per wave, and every group in one wave
    for budget in (0, 1 << 12, 1 << 40):
        monkeypatch.setattr(permsearch, "_WAVE", budget)
        waves.clear()
        model, _, _, searches = compress_model(ckpt, cfg, seed=6)
        path = tmp_path / f"{budget}.pqfc"
        tensor_io.save_compressed(model, path)
        found = [(names, s.units.tolist(), s.final_objective, s.proposals, s.swaps) for names, s in searches]
        written.append((path.read_bytes(), found))
        sizes.append(sorted(filter(None, waves)))
    assert written[0] == written[1] == written[2]
    searched = sizes[2][0]
    assert sizes[0] == [1] * searched and len(sizes[1]) > 1 and max(sizes[1]) > 1
    assert sizes[2] == [searched] and model.groups


@pytest.mark.parametrize("d_conv_multiplier", [1, 2], ids=["small_blocks", "large_blocks"])
def test_compress_model_scores_no_order_with_the_reference_objective(d_conv_multiplier, monkeypatch):
    ckpt = make_residual_checkpoint(c_in=2, width=8, n_blocks=2, seed=7)
    cfg = CompressionConfig(
        k=4, k_fc=4, d_conv_multiplier=d_conv_multiplier, src_iterations=3, perm_iterations=20
    )
    calls = []
    original = permsearch.matrix_objective
    monkeypatch.setattr(
        permsearch, "matrix_objective", lambda *a: calls.append(a) or original(*a)
    )
    model, _, _, _ = compress_model(ckpt, cfg, seed=1)
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
    cfg_perm = CompressionConfig(
        k=4, k_fc=4, quantizer="kmeans", src_iterations=40, perm_iterations=150
    )
    cfg_id = CompressionConfig(
        k=4, k_fc=4, quantizer="kmeans", src_iterations=40, use_permutation=False
    )
    better = 0
    for seed in range(20):
        ckpt = _anisotropic_mlp(seed)
        _, _, with_perm, _ = compress_model(ckpt, cfg_perm, seed=seed)
        _, _, without, _ = compress_model(ckpt, cfg_id, seed=seed)
        if sum(with_perm.values()) <= sum(without.values()) + 1e-12:
            better += 1
    assert better >= 18


def test_deconv_encode_decode_round_trip():
    w = make_rng(50, "deconv").standard_normal((6, 4, 3, 3))  # (C_out, C_in, K, K)
    meta = _meta(kind="deconv", k=3, c_in=4, c_out=6, name="up")
    cfg = CompressionConfig(k=6, src_iterations=25)
    enc = encode_layer(w, meta, cfg, seed=2)
    assert enc.layer is meta
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
    with_perm = CompressionConfig(perm_iterations=200, **base)
    without = CompressionConfig(use_permutation=False, **base)
    model_p, _, err_p, _ = compress_model(ckpt, with_perm, seed=1)
    _, _, err_i, _ = compress_model(ckpt, without, seed=1)
    assert err_p["fc1"] <= err_i["fc1"] + 1e-12
    (entry,) = [e for e in model_p.entries if isinstance(e, tensor_io.EncodedEntry)]
    assert entry.group == 0 and len(model_p.groups[0]) == 4  # 4 units of 9 channels
    rows = codec.entry_to_encoding(entry, model_p.groups).row_order()
    grid = rows.reshape(4, 9)
    assert np.array_equal(grid, grid[:, :1] + np.arange(9))  # whole blocks moved


def test_entry_encoding_round_trip_preserves_f16_codebook():
    w = make_rng(49, "f16").standard_normal((8, 4))
    meta = _meta(c_in=8, c_out=4)
    cfg = CompressionConfig(k=2, k_fc=2, src_iterations=10)
    enc = encode_layer(w, meta, cfg, seed=0)
    entry = codec.encoding_to_entry(enc)
    assert isinstance(entry, EncodedEntry) and entry.layer is meta
    back = codec.entry_to_encoding(entry)
    assert np.array_equal(back.codes, enc.codes)
    assert back.units is None and enc.units is None
    assert np.array_equal(back.codebook, enc.codebook.astype("<f2").astype(np.float64))


def test_a_permuted_encoding_round_trips_through_its_group_and_needs_one():
    w = make_rng(49, "f16").standard_normal((8, 4))
    units = make_rng(49, "units").permutation(8)
    meta = _meta(c_in=8, c_out=4)
    enc = encode_layer(w, meta, CompressionConfig(k=2, k_fc=2), units, seed=0)
    with pytest.raises(ValueError, match="layer 'layer' is permuted"):
        codec.encoding_to_entry(enc)
    back = codec.entry_to_encoding(codec.encoding_to_entry(enc, 0), [units])
    assert np.array_equal(back.units, units) and np.array_equal(back.row_order(), units)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_compress_rejects_non_finite_weight(bad):
    ckpt = _toy_mlp()
    ckpt.tensor("fc2.weight").data[3, 1] = bad
    cfg = CompressionConfig(k=4, k_fc=4, src_iterations=5, perm_iterations=5)
    with pytest.raises(NonFiniteWeight, match="fc2"):
        compress_model(ckpt, cfg, seed=0)
    assert issubclass(NonFiniteWeight, PQFError)


def test_encode_layer_rejects_non_finite_weight():
    w = make_rng(50, "nan").standard_normal((8, 4))
    w[0, 0] = np.nan
    cfg = CompressionConfig(k=2, k_fc=2, src_iterations=5)
    with pytest.raises(NonFiniteWeight):
        encode_layer(w, _meta(c_in=8, c_out=4), cfg)


def test_codebook_beyond_float16_range_is_an_error():
    w = make_rng(51, "f16").standard_normal((8, 4))
    meta = _meta(c_in=8, c_out=4)
    enc = encode_layer(w, meta, CompressionConfig(k=2, k_fc=2))
    enc.codebook[1, 0] = 65504.0  # the largest float16 is still fine
    codec.encoding_to_entry(enc)
    enc.codebook[1, 0] = -65520.0  # rounds to -inf in float16
    with pytest.raises(CodebookOverflow, match="layer"):
        codec.encoding_to_entry(enc)
    assert issubclass(CodebookOverflow, PQFError)


def test_compress_rejects_weights_whose_centroids_overflow_float16():
    ckpt = _toy_mlp()
    ckpt.tensor("fc1.weight").data[:] = 1e5
    cfg = CompressionConfig(k=4, k_fc=4, src_iterations=5, use_permutation=False)
    with pytest.raises(CodebookOverflow, match="fc1"):
        compress_model(ckpt, cfg, seed=0)


# ---------------------------------------------------------------------------
# Decode path against the float64 decoder and in-memory writer it replaced
# ---------------------------------------------------------------------------

def _decode_oracle(enc):
    """Float64 gather, merge, un-permute, un-reshape: the decoder `decode_layer` replaced."""
    subvectors = np.asarray(enc.codebook, dtype=np.float64)[enc.codes]
    m_hat, n, d = subvectors.shape
    permuted = subvectors.transpose(0, 2, 1).reshape(m_hat * d, n)
    matrix = np.empty_like(permuted)
    matrix[row_order_oracle(enc)] = permuted
    if enc.layer.kind == "fc":
        return matrix.copy()
    k = enc.layer.kernel_size
    conv = matrix.reshape(m_hat * d // k**2, k, k, n).transpose(0, 3, 1, 2)
    return (conv.transpose(1, 0, 2, 3) if enc.layer.kind == "deconv" else conv).copy()


def _pqfn_oracle(model) -> bytes:
    """`.pqfn` bytes of `model` from the oracle decoder and a bytearray-assembled writer."""
    import json

    payload, listing = bytearray(), []
    for entry in model.entries:
        if isinstance(entry, TensorRecord):
            rec = entry
        else:
            weight = _decode_oracle(codec.entry_to_encoding(entry, model.groups))
            rec = tensor_io.tensor_record(f"{entry.name}.weight", weight)
        payload.extend(bytes(-len(payload) % 64))
        listing.append({"name": rec.name, "shape": list(rec.shape), "offset": len(payload)})
        payload.extend(rec.data.tobytes())
    layers = [{"name": m.name, "kind": m.kind, "kernel_size": m.kernel_size, "c_in": m.c_in,
               "c_out": m.c_out} for m in model.layers]
    manifest = {"tensors": listing, "layers": layers, "edges": [list(e) for e in model.edges]}
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    head = b"PQFN" + (2).to_bytes(4, "little") + len(blob).to_bytes(8, "little") + blob
    return head + bytes(-len(head) % 64) + bytes(payload)


def _grouped_entry(enc, groups):
    """`enc` as a stored entry; a unit order other than the identity joins `groups`."""
    units = enc.units
    if units is None or np.array_equal(units, np.arange(units.size)):
        return codec.encoding_to_entry(enc)
    groups.append(units)
    return codec.encoding_to_entry(enc, len(groups) - 1)


# (kind, K, C_in, C_out, regime): every stored layout the decoder writes
_DECODE_LAYERS = [
    ("fc", 1, 16, 12, "small"),
    ("conv", 1, 8, 6, "small"),
    ("conv", 3, 6, 5, "small"),
    ("conv", 3, 6, 5, "large"),
    ("deconv", 3, 4, 6, "small"),
    ("deconv", 1, 8, 3, "small"),
    ("conv", 5, 4, 3, "small"),
    ("deconv", 5, 4, 3, "small"),
]


def _encode_case(kind, k, c_in, c_out, regime, order, name="layer"):
    """A random weight of one `_DECODE_LAYERS` case, its encoding, and the case's rng."""
    rng = make_rng(61, "decode-oracle", kind, str(k), regime)
    weight = rng.standard_normal(layout.weight_shape(kind, c_in, c_out, k))
    meta = _meta(kind=kind, k=k, c_in=c_in, c_out=c_out, name=name)
    cfg = CompressionConfig(k=8, k_fc=8, d_conv_multiplier=2 if regime == "large" else 1,
                            quantizer="kmeans", src_iterations=3)
    units = {
        "identity": None,
        "channels": rng.permutation(c_in),
        # reversed units of two channels, as in a group that a reshape couples
        "units": np.arange(c_in // 2)[::-1].copy(),
    }[order]
    return weight, encode_layer(weight, meta, cfg, units, seed=3), rng


@pytest.mark.parametrize("order", ["identity", "channels", "units"])
@pytest.mark.parametrize("kind, k, c_in, c_out, regime", _DECODE_LAYERS)
def test_decompressed_bytes_match_the_float64_decoder(
    tmp_path, kind, k, c_in, c_out, regime, order
):
    weight, enc, rng = _encode_case(kind, k, c_in, c_out, regime, order)
    # fine-tuning decodes float64 codebooks, and still gets float64 weights
    decoded = decode_layer(enc)
    assert decoded.dtype == np.float64 and decoded.shape == weight.shape
    assert np.array_equal(decoded, _decode_oracle(enc))
    bias = tensor_io.tensor_record("layer.bias", rng.standard_normal(c_out))
    groups = []
    model = declared_model([_grouped_entry(enc, groups), bias], groups)
    assert len(model.groups) == (order != "identity")
    packed = tmp_path / "model.pqfc"
    tensor_io.save_compressed(model, packed)
    loaded = tensor_io.load_compressed(packed)

    out = tmp_path / "model.pqfn"
    nbytes = tensor_io.save_checkpoint(decompress_model(loaded), out)
    assert out.read_bytes() == _pqfn_oracle(loaded)
    assert nbytes == out.stat().st_size


def test_entry_to_encoding_widens_to_float32_and_shares_the_codes():
    w = make_rng(62, "f32").standard_normal((8, 4))
    meta = _meta(c_in=8, c_out=4)
    enc = encode_layer(w, meta, CompressionConfig(k=2, k_fc=2))
    back = codec.entry_to_encoding(codec.encoding_to_entry(enc))
    assert back.codebook.dtype == np.float32
    assert np.array_equal(back.codes, enc.codes)
    assert decode_layer(back).dtype == np.float32


@pytest.mark.parametrize("kind, k, c_in, c_out, regime", _DECODE_LAYERS)
def test_decode_into_a_buffer_overwrites_it_and_returns_a_view(kind, k, c_in, c_out, regime):
    _, enc, _ = _encode_case(kind, k, c_in, c_out, regime, "units")
    enc.codebook = enc.codebook.astype(np.float32)
    buf = np.full(c_in * c_out * k * k + 5, np.nan, dtype=np.float32)
    decoded = decode_layer(enc, out=buf)
    assert np.shares_memory(decoded, buf)
    assert np.array_equal(decoded, decode_layer(enc))
    with pytest.raises(ValueError):
        decode_layer(enc, out=buf[:-6])
    with pytest.raises(ValueError):
        decode_layer(enc, out=buf.astype(np.float64))


@pytest.mark.parametrize("kind, k, order", [("conv", 3, "identity"), ("conv", 5, "channels"),
                                           ("deconv", 5, "channels")])
def test_decoding_one_filter_per_code_allocates_no_weight_sized_buffer(kind, k, order):
    # a take into `out` in numpy's default mode buffers the whole weight; a
    # moved layer or a deconv still puts its codes in stored channel order,
    # 8 / (4 K^2) of the weight's bytes: under 1/8 from K = 5
    import tracemalloc

    c_in, c_out = 64, 48
    rng = make_rng(65, "one-gather", kind, str(k))
    enc = codec.LayerEncoding(
        units=None if order == "identity" else rng.permutation(c_in // 2),
        codebook=rng.standard_normal((256, k * k)).astype(np.float32),
        codes=rng.integers(0, 256, (c_in, c_out)),
        layer=_meta(kind=kind, k=k, c_in=c_in, c_out=c_out),
    )
    weight_bytes = c_in * c_out * k * k * 4
    buf = np.empty(c_in * c_out * k * k, dtype=np.float32)
    decode_layer(enc, out=buf)
    tracemalloc.start()
    try:
        decoded = decode_layer(enc, out=buf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < weight_bytes / 8
    assert np.shares_memory(decoded, buf) and np.array_equal(decoded, _decode_oracle(enc))


@pytest.mark.parametrize("regime", ["small", "large"])
def test_the_search_reshapes_only_the_children_a_swap_can_change(monkeypatch, regime):
    # a child whose channels hold whole subvectors (every 3x3 conv of the small
    # regime) is dropped by the search unread, so it is never reshaped
    ckpt = synthetic_resnet(18, 8, seed=4)
    cfg = CompressionConfig(k=16, k_fc=16, d_conv_multiplier=2 if regime == "large" else 1,
                            perm_iterations=5)
    reshaped, reshape = [], layout.reshape_weight
    monkeypatch.setattr(layout, "reshape_weight",
                        lambda weight, kind: reshaped.append(weight.shape) or reshape(weight, kind))
    searches = codec.resolve_layer_permutations(ckpt, cfg, seed=4)
    meta = {m.name: m for m in ckpt.layers}
    live = [
        name
        for names, search in searches
        for name in names
        if meta[name].c_in * meta[name].kernel_size**2 // search.units.size
        % cfg.subvector_size(meta[name])
    ]
    shape = {name: ckpt.tensor(f"{name}.weight").shape for name in live}
    assert reshaped == [shape[name] for name in live]
    children = sum(len(names) for names, _ in searches)
    assert len(live) < children if regime == "small" else len(live) == children
    # a group of such children alone still gets the identity, with no search
    for names, search in searches:
        if not set(names) & set(live):
            assert search.start is None and np.array_equal(search.units, np.arange(search.units.size))


@pytest.mark.parametrize("kind, k, c_in, c_out, regime", _DECODE_LAYERS)
def test_streamed_decompress_writes_the_bytes_of_the_in_memory_decode(
    tmp_path, kind, k, c_in, c_out, regime
):
    # raw tensors sit between encoded layers, and the smaller second layer
    # decodes over what the first one left in the reused buffer
    _, enc, rng = _encode_case(kind, k, c_in, c_out, regime, "channels")
    _, small, _ = _encode_case("fc", 1, 4, 3, "small", "units", name="small")
    groups = []
    entries = [
        tensor_io.tensor_record("first", rng.standard_normal(7)),
        _grouped_entry(enc, groups),
        tensor_io.tensor_record("layer.bias", rng.standard_normal(c_out)),
        _grouped_entry(small, groups),
        tensor_io.tensor_record("last", rng.standard_normal((2, 3))),
    ]
    model = declared_model(entries, groups)
    assert len(model.groups) == 2
    packed, streamed, in_memory = tmp_path / "m.pqfc", tmp_path / "s.pqfn", tmp_path / "m.pqfn"
    tensor_io.save_compressed(model, packed)
    assert cli.main(["decompress", str(packed), "--out", str(streamed)]) == 0
    loaded = tensor_io.load_compressed(packed)
    nbytes = tensor_io.save_checkpoint(decompress_model(loaded), in_memory)
    assert streamed.read_bytes() == in_memory.read_bytes()
    assert codec.decompress_to_file(loaded, streamed) == nbytes == streamed.stat().st_size
    assert streamed.read_bytes() == in_memory.read_bytes()


def test_a_decode_failing_while_the_file_is_written_leaves_no_file(tmp_path, monkeypatch, capsys):
    w = make_rng(63, "oom").standard_normal((8, 4))
    meta = _meta(c_in=8, c_out=4)
    enc = encode_layer(w, meta, CompressionConfig(k=2, k_fc=2))
    packed, out = tmp_path / "m.pqfc", tmp_path / "m.pqfn"
    tensor_io.save_compressed(declared_model([codec.encoding_to_entry(enc)]), packed)

    def no_memory(enc, out=None):
        raise MemoryError

    monkeypatch.setattr(codec, "decode_layer", no_memory)
    assert cli.main(["decompress", str(packed), "--out", str(out)]) == 2
    assert "error kind=TensorTooLarge detail=\"tensor 'layer.weight'" in capsys.readouterr().err
    assert not out.exists()


# (name, kind, K, C_in, C_out, k): k_eff 1, 2, 1500, 3, 5 and 128, so codes of
# 0, 1, 11, 2, 3 and 7 bits, three of them with a k_eff that is not a power of two
_MIXED_WIDTHS = [
    ("zero", "fc", 1, 16, 12, 1),
    ("one", "conv", 3, 6, 5, 2),
    ("eleven", "fc", 1, 64, 375, 1500),
    ("two", "conv", 1, 8, 6, 3),
    ("three", "deconv", 3, 4, 6, 5),
    ("seven", "fc", 1, 32, 64, 128),
]


def test_streamed_decompress_of_mixed_code_widths_matches_the_in_memory_decode(tmp_path):
    # the layer with the most codes comes third, so later layers unpack over its codes
    rng = make_rng(64, "mixed-widths")
    entries = []
    for name, kind, k, c_in, c_out, k_eff in _MIXED_WIDTHS:
        weight = rng.standard_normal(layout.weight_shape(kind, c_in, c_out, k))
        cfg = CompressionConfig(k=k_eff, k_fc=k_eff, quantizer="kmeans", src_iterations=2)
        meta = _meta(kind=kind, k=k, c_in=c_in, c_out=c_out, name=name)
        enc = encode_layer(weight, meta, cfg)
        assert enc.k_eff == k_eff
        entries.append(codec.encoding_to_entry(enc))
        entries.append(tensor_io.tensor_record(f"{name}.bias", rng.standard_normal(c_out)))
    assert [e.bits for e in entries[::2]] == [0, 1, 11, 2, 3, 7]
    packed, streamed, in_memory = tmp_path / "m.pqfc", tmp_path / "s.pqfn", tmp_path / "m.pqfn"
    model = declared_model(entries)
    tensor_io.save_compressed(model, packed)
    assert cli.main(["decompress", str(packed), "--out", str(streamed)]) == 0
    tensor_io.save_checkpoint(decompress_model(tensor_io.load_compressed(packed)), in_memory)
    assert streamed.read_bytes() == in_memory.read_bytes()
    assert streamed.read_bytes() == _pqfn_oracle(model)
