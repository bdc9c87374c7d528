import hashlib

import numpy as np
import pytest

from helpers import (
    all_gradients,
    centroid_gradients_oracle,
    make_residual_checkpoint,
    two_spirals,
)
from pqf import codec, finetune, layout
from pqf.codec import CompressionConfig, encode_layer
from pqf.errors import DanglingEdge, DivergedLoss, MalformedFile, ShapeMismatch
from pqf.finetune import (
    OptimizerState,
    ToyNetwork,
    accuracy,
    adam_cosine_step,
    backward,
    blob_images,
    centroid_gradients,
    centroid_maps,
    cosine_lr,
    decode_index,
    finetune_codebooks,
    forward,
    gaussian_blobs,
    make_conv_classifier_checkpoint,
    make_mlp_checkpoint,
    softmax_cross_entropy,
    train_network,
)
from pqf.rng import gaussian, make_rng
from pqf.tensor_io import LayerMeta, ModelCheckpoint, save_checkpoint, tensor_record


def _single_layer_net(w, bias=None):
    m, n = w.shape
    layers = [
        LayerMeta("input", "input", 1, m, m),
        LayerMeta("fc1", "fc", 1, m, n),
        LayerMeta("output", "output", 1, n, n),
    ]
    edges = [("input", "fc1"), ("fc1", "output")]
    tensors = [tensor_record("fc1.weight", w)]
    if bias is not None:
        tensors.append(tensor_record("fc1.bias", bias))
    return ToyNetwork.from_checkpoint(ModelCheckpoint(tensors, layers, edges))


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------

def test_identity_dense_relu_passes_positive_input():
    ckpt = make_mlp_checkpoint((3, 3, 3), seed=0)
    ckpt.tensor("fc1.weight").data = np.eye(3, dtype="<f4")
    ckpt.tensor("fc2.weight").data = np.eye(3, dtype="<f4")
    net = ToyNetwork.from_checkpoint(ckpt)
    x = np.array([[0.5, 1.0, 2.0]])
    logits, _ = forward(net, x)
    assert np.allclose(logits, x)


def test_zero_weights_give_log_nclasses_loss():
    ckpt = make_mlp_checkpoint((4, 5, 3), seed=1)
    for name in ("fc1", "fc2"):
        ckpt.tensor(f"{name}.weight").data = np.zeros_like(ckpt.tensor(f"{name}.weight").data)
    net = ToyNetwork.from_checkpoint(ckpt)
    logits, _ = forward(net, np.ones((7, 4)))
    assert np.allclose(logits, 0.0)
    loss, _ = softmax_cross_entropy(logits, np.zeros(7, dtype=int))
    assert loss == pytest.approx(np.log(3.0))


def test_forward_matches_straight_line_oracle():
    ckpt = make_mlp_checkpoint((5, 8, 6, 3), seed=2)
    net = ToyNetwork.from_checkpoint(ckpt)
    x = gaussian(make_rng(3, "x"), (9, 5))
    logits, _ = forward(net, x)
    # independent straight-line evaluation
    w1 = np.asarray(ckpt.tensor("fc1.weight").data, dtype=np.float64)
    b1 = np.asarray(ckpt.tensor("fc1.bias").data, dtype=np.float64)
    w2 = np.asarray(ckpt.tensor("fc2.weight").data, dtype=np.float64)
    b2 = np.asarray(ckpt.tensor("fc2.bias").data, dtype=np.float64)
    w3 = np.asarray(ckpt.tensor("fc3.weight").data, dtype=np.float64)
    b3 = np.asarray(ckpt.tensor("fc3.bias").data, dtype=np.float64)
    h = np.maximum(x @ w1 + b1, 0.0)
    h = np.maximum(h @ w2 + b2, 0.0)
    want = h @ w3 + b3
    assert np.max(np.abs(logits - want)) < 1e-12


def test_forward_shape_mismatch():
    net = _single_layer_net(np.zeros((4, 2)))
    with pytest.raises(ShapeMismatch):
        forward(net, np.zeros((3, 5)))


def test_a_node_reading_more_inputs_than_its_kind_takes_is_a_shape_mismatch():
    layers = [LayerMeta("input", "input", 1, 4, 4), LayerMeta("fc1", "fc", 1, 4, 4),
              LayerMeta("relu", "relu", 1, 4, 4), LayerMeta("output", "output", 1, 4, 4)]
    edges = [("input", "fc1"), ("input", "relu"), ("fc1", "relu"), ("relu", "output")]
    ckpt = ModelCheckpoint([tensor_record("fc1.weight", np.eye(4))], layers, edges)
    net = ToyNetwork.from_checkpoint(ckpt)
    with pytest.raises(ShapeMismatch, match="relu 'relu' cannot read 2 inputs"):
        forward(net, np.ones((2, 4)))


# ---------------------------------------------------------------------------
# Backward
# ---------------------------------------------------------------------------

def test_relu_blocks_gradient_at_negative_preactivation():
    ckpt = make_mlp_checkpoint((2, 2, 2), seed=5)
    ckpt.tensor("fc1.weight").data = np.array([[-1.0, 1.0], [-1.0, 1.0]], dtype="<f4")
    ckpt.tensor("fc2.weight").data = np.eye(2, dtype="<f4")
    net = ToyNetwork.from_checkpoint(ckpt)
    x = np.array([[1.0, 1.0]])  # first hidden unit pre-activation = -2 < 0
    _, cache = forward(net, x)
    _, grads = backward(net, cache, np.array([0]), into=all_gradients(net))
    assert np.allclose(grads["fc1"]["weight"][:, 0], 0.0)
    assert not np.allclose(grads["fc1"]["weight"][:, 1], 0.0)


def _finite_difference(net, x, labels, name, part, h=1e-5):
    arr = net.params[name][part]
    grad = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        lp = backward(net, forward(net, x)[1], labels, into=all_gradients(net))[0]
        flat[i] = old - h
        lm = backward(net, forward(net, x)[1], labels, into=all_gradients(net))[0]
        flat[i] = old
        gflat[i] = (lp - lm) / (2 * h)
    return grad


def _assert_close(analytic, numeric, rtol=1e-5, atol=1e-8):
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    assert np.all(np.abs(analytic - numeric) <= rtol * scale + atol)


def test_mlp_gradients_match_finite_differences():
    ckpt = make_mlp_checkpoint((4, 6, 3), seed=6)
    net = ToyNetwork.from_checkpoint(ckpt)
    x = gaussian(make_rng(7, "fd"), (5, 4))
    labels = np.array([0, 1, 2, 1, 0])
    _, cache = forward(net, x)
    _, grads = backward(net, cache, labels, into=all_gradients(net))
    for name in ("fc1", "fc2"):
        for part in ("weight", "bias"):
            _assert_close(grads[name][part], _finite_difference(net, x, labels, name, part))


def test_residual_conv_gradients_match_finite_differences():
    ckpt = make_residual_checkpoint(c_in=2, width=4, n_blocks=1, kernel_size=3, seed=8)
    net = ToyNetwork.from_checkpoint(ckpt)
    x = gaussian(make_rng(9, "fd2"), (3, 2, 4, 4))
    labels = np.array([0, 3, 1])
    _, cache = forward(net, x)
    _, grads = backward(net, cache, labels, into=all_gradients(net))
    for name in ("stem", "block1.conv1", "block1.conv2", "fc"):
        _assert_close(grads[name]["weight"], _finite_difference(net, x, labels, name, "weight"))
    # batchnorm affine gradients too
    _assert_close(
        grads["block1.bn1"]["weight"],
        _finite_difference(net, x, labels, "block1.bn1", "weight"),
    )
    _assert_close(
        grads["block1.bn1"]["bias"],
        _finite_difference(net, x, labels, "block1.bn1", "bias"),
    )


# ---------------------------------------------------------------------------
# Centroid gradients
# ---------------------------------------------------------------------------

def _encoded_single_layer(seed=0, m=8, n=4, d=4, k=3):
    rng = make_rng(seed, "encw")
    w = rng.standard_normal((m, n))
    meta = LayerMeta("fc1", "fc", 1, m, n)
    cfg = CompressionConfig(
        k=k, k_fc=k, d_fc=d, src_iterations=20
    )
    enc = encode_layer(w, meta, cfg, seed=seed)
    net = _single_layer_net(w)
    net.encodings["fc1"] = enc
    return net, enc


def test_centroid_gradient_single_assignment_is_verbatim_slice():
    enc = codec.LayerEncoding(
        units=None,
        codebook=np.zeros((2, 2)),
        codes=np.array([[0], [1]]),
        layer=LayerMeta("fc1", "fc", 1, 4, 1),
    )
    wgrad = np.array([[1.0], [2.0], [3.0], [4.0]])
    cg = centroid_gradients(wgrad, enc)
    assert np.array_equal(cg, [[1.0, 2.0], [3.0, 4.0]])


def test_centroid_gradient_sums_shared_positions():
    enc = codec.LayerEncoding(
        units=None,
        codebook=np.zeros((2, 2)),
        codes=np.array([[0], [0]]),
        layer=LayerMeta("fc1", "fc", 1, 4, 1),
    )
    wgrad = np.array([[1.0], [2.0], [3.0], [4.0]])
    cg = centroid_gradients(wgrad, enc)
    assert np.array_equal(cg[0], [4.0, 6.0])
    assert np.array_equal(cg[1], [0.0, 0.0])


def test_centroid_gradients_match_finite_differences():
    net, enc = _encoded_single_layer(seed=10)
    x = gaussian(make_rng(11, "cfd"), (6, 8))
    labels = np.array([0, 1, 2, 3, 0, 1])
    _, cache = forward(net, x)
    _, grads = backward(net, cache, labels, into=all_gradients(net))
    analytic = centroid_gradients(grads["fc1"]["weight"], enc)

    numeric = np.zeros_like(enc.codebook)
    h = 1e-5
    for i in range(enc.codebook.size):
        flat = enc.codebook.ravel()
        old = flat[i]
        flat[i] = old + h
        lp = backward(net, forward(net, x)[1], labels, into=all_gradients(net))[0]
        flat[i] = old - h
        lm = backward(net, forward(net, x)[1], labels, into=all_gradients(net))[0]
        flat[i] = old
        numeric.ravel()[i] = (lp - lm) / (2 * h)
    _assert_close(analytic, numeric)


@pytest.mark.parametrize(
    "kind, kernel_size, c_in, c_out, units",
    [("fc", 1, 8, 6, [5, 2, 7, 0, 3, 6, 1, 4]), ("conv", 3, 6, 5, [4, 1, 5, 0, 3, 2])],
)
def test_centroid_gradients_match_the_per_column_oracle_bit_for_bit(
    kind, kernel_size, c_in, c_out, units
):
    block = kernel_size**2
    rng = make_rng(61, "cg-oracle", kind)
    meta = LayerMeta("l", kind, kernel_size, c_in, c_out)
    cfg = CompressionConfig(k=4, k_fc=4, d_fc=4, src_iterations=5)
    weight = gaussian(rng, layout.weight_shape(kind, c_in, c_out, kernel_size))
    enc = encode_layer(weight, meta, cfg, np.array(units), seed=3)
    assert enc.k_eff * enc.d < enc.codes.size * enc.d  # bins shared, so summation order matters
    maps = centroid_maps(enc)
    shape = (c_in * block, c_out)  # gradients of the weight matrix
    for _ in range(3):
        wgrad = gaussian(rng, shape) * np.exp(3.0 * gaussian(rng, shape))
        want = centroid_gradients_oracle(wgrad, enc).tobytes()
        assert centroid_gradients(wgrad, enc).tobytes() == want
        assert centroid_gradients(wgrad, enc, maps).tobytes() == want
        assert centroid_gradients(np.asfortranarray(wgrad), enc, maps).tobytes() == want


# ---------------------------------------------------------------------------
# Execution plan and decoded-weight reuse
# ---------------------------------------------------------------------------

def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_forward_backward_decodes_each_encoded_layer_once(monkeypatch):
    net, _ = _encoded_single_layer(seed=40)
    x = gaussian(make_rng(41, "dec"), (5, 8))
    calls = _count_calls(monkeypatch, finetune, "decode_index")
    _, cache = forward(net, x)
    backward(net, cache, np.array([0, 1, 2, 3, 0]), into=all_gradients(net))
    assert len(calls) == 1


def test_conv_forward_backward_decodes_each_encoded_layer_once(monkeypatch):
    ckpt = make_conv_classifier_checkpoint((2, 4, 4), 3, 4, seed=42)
    cfg = CompressionConfig(
        k=4, k_fc=4, use_permutation=False, src_iterations=5
    )
    encodings = codec.encode_layers(ckpt, cfg, {}, 43)
    assert "conv2" in encodings
    net = ToyNetwork.from_checkpoint(ckpt, encodings=encodings)
    x = gaussian(make_rng(44, "dec"), (3, 2, 6, 6))
    calls = _count_calls(monkeypatch, finetune, "decode_index")
    _, cache = forward(net, x)
    backward(net, cache, np.array([0, 1, 2]), into=all_gradients(net))
    assert len(calls) == len(encodings)


@pytest.mark.parametrize(
    "kind, kernel_size, c_in, c_out, large",
    [
        ("fc", 1, 8, 6, False),
        ("conv", 1, 8, 6, False),
        ("conv", 3, 4, 6, False),
        ("conv", 3, 4, 6, True),
        ("deconv", 3, 4, 6, False),
    ],
)
@pytest.mark.parametrize("permuted", [False, True])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_decode_index_gathers_what_decode_layer_decodes(
    kind, kernel_size, c_in, c_out, large, permuted, dtype
):
    rng = make_rng(63, "decode-index", kind, str(kernel_size))
    block = kernel_size**2
    units = rng.permutation(c_in) if permuted else np.arange(c_in)
    assert permuted != np.array_equal(units, np.arange(c_in))
    cfg = CompressionConfig(k=8, k_fc=8, d_conv_multiplier=2 if large else 1, src_iterations=5)
    meta = LayerMeta("l", kind, kernel_size, c_in, c_out)
    weight = gaussian(rng, layout.weight_shape(kind, c_in, c_out, kernel_size))
    enc = encode_layer(weight, meta, cfg, units, seed=4)
    assert enc.d == (2 * block if large else block if kernel_size > 1 else 4)
    enc.codebook = enc.codebook.astype(dtype)
    want = codec.decode_layer(enc)
    for index in (decode_index(enc), decode_index(enc, centroid_maps(enc))):
        assert index.shape == (c_in * block, c_out)
        gathered = layout.inverse_reshape(np.take(enc.codebook, index), kind, kernel_size)
        assert gathered.dtype == want.dtype and gathered.shape == want.shape
        assert gathered.tobytes() == want.tobytes()


@pytest.mark.parametrize("diverge", [False, True])
def test_finetune_decodes_by_gather_at_any_epoch_count(monkeypatch, diverge):
    calls = _count_calls(monkeypatch, finetune, "decode_index")
    counts = []
    for epochs in (1, 5):
        net, enc = _encoded_single_layer(seed=48)
        if diverge:
            enc.codebook *= np.inf
        calls.clear()
        with np.errstate(invalid="ignore"):
            try:
                finetune_codebooks(net, gaussian_blobs(20, 4, 8, seed=49), epochs=epochs, seed=0)
            except DivergedLoss:
                assert diverge
        counts.append(len(calls))
        assert net.decode_indices == {}  # no later forward can read a stale index
    assert counts[0] == counts[1]


def _residual_net_and_input():
    net = ToyNetwork.from_checkpoint(make_residual_checkpoint(c_in=2, width=4, n_blocks=1, seed=8))
    return net, gaussian(make_rng(50, "into"), (3, 2, 4, 4)), np.array([0, 3, 1])


def test_backward_writes_only_the_gradients_asked_for_bit_for_bit():
    net, x, labels = _residual_net_and_input()
    _, cache = forward(net, x)
    loss, full = backward(net, cache, labels, into=all_gradients(net))
    asked = [("stem", "weight"), ("block1.conv2", "weight"), ("block1.bn1", "bias"),
             ("fc", "bias")]
    into = {}
    for name, part in asked:
        into.setdefault(name, {})[part] = np.full(full[name][part].shape, np.nan)
    got_loss, got = backward(net, cache, labels, into=into)
    assert got_loss == loss and got is into
    assert sorted((n, p) for n, parts in into.items() for p in parts) == sorted(asked)
    for name, part in asked:
        assert into[name][part].tobytes() == full[name][part].tobytes(), (name, part)


def test_backward_forms_no_gradient_for_the_network_input(monkeypatch):
    net, x, labels = _residual_net_and_input()
    _, cache = forward(net, x)
    calls = _count_calls(monkeypatch, finetune, "_col2im")
    backward(net, cache, labels, into=all_gradients(net))
    assert len(calls) == 2  # block1.conv1 and block1.conv2; the stem reads the input
    calls.clear()
    backward(net, cache, labels, into={"fc": {"bias": np.empty(4)}})
    assert calls == []  # nothing before fc is asked for


def test_backward_forms_what_a_fresh_network_forms_as_the_requested_parts_change(monkeypatch):
    # one network asked for every part, then only the classifier weight, then
    # only one conv weight, then every part again; a fresh network answers each
    ckpt = make_residual_checkpoint(c_in=2, width=4, n_blocks=1, seed=8)
    _, x, labels = _residual_net_and_input()
    net = ToyNetwork.from_checkpoint(ckpt)
    calls = _count_calls(monkeypatch, finetune, "_col2im")

    def only(name):
        return lambda n: {name: {"weight": np.full(n.params[name]["weight"].shape, np.nan)}}

    for ask in (all_gradients, only("fc"), only("block1.conv1"), all_gradients):
        results = []
        for n in (net, ToyNetwork.from_checkpoint(ckpt)):
            calls.clear()
            into = ask(n)
            loss = backward(n, forward(n, x)[1], labels, into=into)[0]
            grads = {(name, part): a.tobytes() for name, parts in into.items() for part, a in parts.items()}
            results.append((loss, grads, len(calls)))  # `_col2im` runs once per conv input gradient
        assert results[0] == results[1]


def test_residual_training_and_finetuning_are_pinned(monkeypatch):
    # conv, batchnorm, add and fc gradients, written into the flat gradient
    # vector or carried onto permuted codebooks, all reach these bytes; batches
    # of 16 give each epoch a partial last batch
    monkeypatch.setattr(finetune, "_TRAIN_BATCH", 16)
    monkeypatch.setattr(finetune, "_FINETUNE_BATCH", 16)
    dataset = blob_images(12, 4, (2, 6, 6), seed=64)
    net = ToyNetwork.from_checkpoint(make_residual_checkpoint(c_in=2, width=4, n_blocks=1, seed=65))
    train_network(net, dataset, epochs=3, seed=66)
    trained = net.to_checkpoint()
    units = {
        "block1.conv1": np.array([2, 0, 3, 1]), "block1.conv2": np.array([3, 1, 0, 2]),
        "fc": np.array([1, 3, 0, 2]),
    }
    cfg = CompressionConfig(k=4, k_fc=4, perm_iterations=20, src_iterations=5)
    qnet = ToyNetwork.from_checkpoint(trained, encodings=codec.encode_layers(trained, cfg, units, 67))
    assert sorted(qnet.encodings) == sorted(units)
    finetune_codebooks(qnet, dataset, epochs=2, seed=68)
    h = hashlib.sha256()
    for n in (net, qnet):
        for meta in n.layers:
            for part, arr in sorted(n.params.get(meta.name, {}).items()):
                if part == "weight" and meta.kind in ("conv", "fc"):  # hashed in stored layout
                    arr = layout.inverse_reshape(arr, meta.kind, meta.kernel_size)
                h.update(arr.tobytes())
    for enc in qnet.encodings.values():
        h.update(enc.codebook.tobytes())
    assert h.hexdigest() == "4c950d4a75c3caff1544547bd88b4081a8808cffec4dd661c68dfb4da5187ab5"


def _residual_step_calls(monkeypatch, owner, name):
    """The calls to `owner.name` in three forward+backward steps of a built residual net."""
    net = ToyNetwork.from_checkpoint(make_residual_checkpoint(c_in=2, width=4, n_blocks=1, seed=45))
    x = gaussian(make_rng(46, "topo"), (2, 2, 4, 4))
    calls = _count_calls(monkeypatch, owner, name)
    for _ in range(3):
        _, cache = forward(net, x)
        backward(net, cache, np.array([0, 1]), into=all_gradients(net))
    return calls


def test_training_steps_never_resort_the_graph(monkeypatch):
    assert _residual_step_calls(monkeypatch, ModelCheckpoint, "topological_order") == []


def test_training_steps_never_reshape_a_weight(monkeypatch):
    assert _residual_step_calls(monkeypatch, layout, "reshape_weight") == []


@pytest.mark.parametrize(
    "ckpt",
    [
        make_conv_classifier_checkpoint((2, 4, 4), 3, 4, seed=42),
        make_residual_checkpoint(c_in=2, width=4, n_blocks=1, seed=8),
    ],
    ids=["conv", "residual"],
)
@pytest.mark.parametrize("encoded", [False, True])
def test_checkpoint_round_trip_keeps_every_tensor(ckpt, encoded):
    encodings = {}
    if encoded:
        cfg = CompressionConfig(
            k=4, k_fc=4, use_permutation=False, src_iterations=5
        )
        encodings = codec.encode_layers(ckpt, cfg, {}, 43)
        assert any(ckpt.layer(name).kind == "conv" for name in encodings)
    back = ToyNetwork.from_checkpoint(ckpt, encodings=encodings).to_checkpoint()
    assert [t.name for t in back.tensors] == [t.name for t in ckpt.tensors]
    for rec in ckpt.tensors:
        want = rec.data
        name, part = rec.name.rsplit(".", 1)
        if part == "weight" and name in encodings:
            want = codec.decode_layer(encodings[name]).astype(np.float32)
        got = back.tensor(rec.name).data
        assert got.dtype == want.dtype and got.shape == want.shape, rec.name
        assert got.tobytes() == want.tobytes(), rec.name


@pytest.mark.parametrize(
    "build, kwargs, digest",
    [
        (make_mlp_checkpoint, dict(sizes=(8, 16, 16, 4), seed=5),
         "b853a9b2c14a76588bcc3390fbcb0117e8e56ddad89acf981af5fcf65fc9b5c2"),
        (make_mlp_checkpoint, dict(sizes=(3, 4, 2), seed=47),
         "d08f386343ab9ec1b3a27fd4aa004348d7dc48a076be6d959339a863058d9258"),
        (make_mlp_checkpoint, dict(sizes=(8, 5), seed=1),
         "3a951ec8ece336e057e739f8877942e8ac98a2e056495a168a1ca7722b061310"),
        (make_conv_classifier_checkpoint, dict(channels=(2, 64, 64), kernel_size=3, seed=4),
         "53c2f69c69071794a83e5fc354d2803d5aa226d355af31537c17a70f5475834e"),
        (make_conv_classifier_checkpoint, dict(channels=(2, 4, 4), kernel_size=3, n_classes=4,
                                               seed=42),
         "5ab542052c99ebbce51d34fddd9db1584c0c22a305f755589ca1c67887b6c03c"),
        (make_residual_checkpoint, dict(c_in=2, width=8, n_blocks=2, seed=7),
         "f74f37301f6c03f67a1c5e869dfdc55cecfd66924fdd8f1838b5200b8ca67018"),
        (make_residual_checkpoint, dict(c_in=2, width=4, n_blocks=1, seed=8),
         "22a4c2be87a50c706b29334ccc617d5040830a4936e15267e958970206022aa2"),
    ],
)
def test_toy_checkpoint_bytes_are_pinned(tmp_path, build, kwargs, digest):
    path = tmp_path / "toy.pqfn"
    save_checkpoint(build(**kwargs), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("sizes, layer", [((8, 0, 4), "fc1"), ((0, 4), "input"), ((8, 4, 0), "fc2")])
def test_mlp_with_a_zero_width_is_malformed(sizes, layer):
    with pytest.raises(MalformedFile, match=f"'{layer}'"):
        make_mlp_checkpoint(sizes)


def test_cyclic_graph_is_rejected_when_the_network_is_built():
    ckpt = make_mlp_checkpoint((3, 4, 2), seed=47)
    ckpt.edges.append(("relu1", "fc1"))
    with pytest.raises(MalformedFile):
        ToyNetwork.from_checkpoint(ckpt)


@pytest.mark.parametrize("edge", [("ghost", "fc1"), ("fc1", "ghost")])
def test_edge_to_unknown_layer_is_rejected_when_the_network_is_built(edge):
    ckpt = make_mlp_checkpoint((3, 4, 2), seed=47)
    ckpt.edges.append(edge)
    with pytest.raises(DanglingEdge):
        ToyNetwork.from_checkpoint(ckpt)


# ---------------------------------------------------------------------------
# Adam with cosine schedule
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_keeps_tensor():
    state = OptimizerState(lr=1e-3)
    tensors = {"cb": np.ones((2, 2))}
    adam_cosine_step(state, tensors["cb"], np.zeros((2, 2)), t=0.0)
    assert np.array_equal(tensors["cb"], np.ones((2, 2)))


def test_cosine_schedule_endpoints():
    state = OptimizerState(lr=1e-3, lr_min=1e-6)
    assert cosine_lr(state, 0.0) == pytest.approx(1e-3)
    assert cosine_lr(state, 1.0) == pytest.approx(1e-6)
    assert cosine_lr(state, 0.5) == pytest.approx((1e-3 + 1e-6) / 2)


def test_adam_single_step_hand_trace():
    state = OptimizerState(lr=0.01, lr_min=0.01)  # constant lr
    g = np.array([[0.5]])
    tensors = {"cb": np.array([[1.0]])}
    adam_cosine_step(state, tensors["cb"], g, t=0.0)
    m = 0.1 * 0.5
    v = 0.001 * 0.25
    m_hat = m / (1 - 0.9)
    v_hat = v / (1 - 0.999)
    want = 1.0 - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert tensors["cb"][0, 0] == pytest.approx(want, abs=1e-12)


def test_adam_step_rounds_as_the_elementwise_form():
    rng = make_rng(62, "adam-oracle")
    params = gaussian(rng, (40,))
    want = params.copy()
    state = OptimizerState(lr=3e-2, lr_min=1e-4)
    m = v = np.zeros(40)
    for step in range(1, 6):
        g = gaussian(rng, (40,)) * np.exp(4.0 * gaussian(rng, (40,)))
        t = step / 7
        adam_cosine_step(state, params, g, t)
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * np.square(g)
        m_hat, v_hat = m / (1.0 - 0.9**step), v / (1.0 - 0.999**step)
        want = want - cosine_lr(state, t) * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert params.tobytes() == want.tobytes(), step


# ---------------------------------------------------------------------------
# Fine-tuning loop
# ---------------------------------------------------------------------------

def test_finetune_lr_zero_changes_nothing():
    net, enc = _encoded_single_layer(seed=12)
    dataset = gaussian_blobs(30, 4, 8, seed=13)
    before = enc.codebook.copy()
    trace = finetune_codebooks(net, dataset, epochs=3, lr=0.0, lr_min=0.0, seed=0)
    assert np.array_equal(enc.codebook, before)
    assert len(set(np.round(trace.train_loss, 12))) == 1  # flat loss trace


def test_finetune_keeps_codes_and_perms_and_structure():
    net, enc = _encoded_single_layer(seed=14)
    dataset = gaussian_blobs(30, 4, 8, seed=15)
    codes_before = enc.codes.copy()
    units_before = np.copy(enc.units)
    finetune_codebooks(net, dataset, epochs=4, seed=1)
    assert np.array_equal(enc.codes, codes_before)
    assert np.array_equal(enc.units, units_before)
    decoded = codec.decode_layer(enc)
    blocks = decoded.reshape(2, 4, 4).transpose(0, 2, 1).reshape(-1, 4)
    centroid_set = {tuple(c) for c in enc.codebook}
    for block in blocks:
        assert tuple(block) in centroid_set  # every block is a centroid copy


def test_trained_tensors_stay_reachable():
    dataset = gaussian_blobs(30, 4, 8, seed=40)
    ckpt = make_mlp_checkpoint((8, 6, 4), seed=41)
    net = ToyNetwork.from_checkpoint(ckpt)
    initial = {n: {p: a.copy() for p, a in entry.items()} for n, entry in net.params.items()}
    x = dataset.val_x
    train_network(net, dataset, epochs=3, seed=42)
    trained = net.to_checkpoint()
    for name in ("fc1", "fc2"):
        for part in ("weight", "bias"):
            arr = net.params[name][part]
            assert not np.array_equal(arr, initial[name][part]), (name, part)
            assert np.array_equal(trained.tensor(f"{name}.{part}").data, arr.astype(np.float32))
    rebuilt = ToyNetwork.from_checkpoint(trained)
    assert np.allclose(forward(rebuilt, x)[0], forward(net, x)[0], atol=1e-5)

    cfg = CompressionConfig(k=3, k_fc=3, d_fc=2, src_iterations=10)
    qnet = ToyNetwork.from_checkpoint(trained, encodings=codec.encode_layers(trained, cfg, {}, 43))
    before = {n: enc.codebook.copy() for n, enc in qnet.encodings.items()}
    finetune_codebooks(qnet, dataset, epochs=3, seed=44)
    tuned = qnet.to_checkpoint()
    for name, enc in qnet.encodings.items():
        assert not np.array_equal(enc.codebook, before[name]), name
        decoded = codec.decode_layer(enc)
        assert np.array_equal(tuned.tensor(f"{name}.weight").data, decoded.astype(np.float32))
    plain = ToyNetwork.from_checkpoint(tuned)
    assert np.allclose(forward(plain, x)[0], forward(qnet, x)[0], atol=1e-5)


@pytest.mark.parametrize(
    "toy, epochs, seed, digest",
    [
        ("mlp", 30, 0, "887bf9e8c9a24ad46e7647a7b7ce857426a573fb21731e9fd4e7c67f22e95408"),
        ("conv", 4, 2, "c6849a5241de1feb63936e08cbf2a5bb8bdac514f4d39ca221b7c719761baee4"),
    ],
)
def test_finetuned_float64_codebooks_are_pinned(toy, epochs, seed, digest):
    # every bit of training and fine-tuning reaches these bytes; the eval
    # CSV prints 8 digits and can miss a changed rounding
    from pqf.cli import run_eval

    net = run_eval(toy=toy, epochs=epochs, seed=seed)["net"]
    h = hashlib.sha256()
    for enc in net.encodings.values():
        h.update(enc.codebook.tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("label", [-1, 4])
def test_a_training_label_outside_the_outputs_is_a_shape_mismatch(label):
    dataset = gaussian_blobs(10, 4, 8, seed=3)
    dataset.train_y[5] = label
    net = ToyNetwork.from_checkpoint(make_mlp_checkpoint((8, 6, 4), seed=4))
    with pytest.raises(ShapeMismatch, match=r"labels must lie in \[0, 4\)"):
        train_network(net, dataset, epochs=1, seed=5)


def test_finetune_diverged_loss_raises():
    net, enc = _encoded_single_layer(seed=16)
    enc.codebook *= np.inf
    dataset = gaussian_blobs(20, 4, 8, seed=17)
    with np.errstate(invalid="ignore"), pytest.raises(DivergedLoss):
        finetune_codebooks(net, dataset, epochs=1, seed=0)


def test_training_then_quantize_then_recover_quick():
    wins = 0
    for seed in range(3):
        from pqf.cli import run_eval

        result = run_eval(toy="mlp", epochs=25, seed=seed)
        assert result["raw_acc"] >= 0.9
        assert result["quantized_acc"] < result["raw_acc"]
        wins += result["finetuned_acc"] > result["quantized_acc"]
    assert wins >= 2


def test_epoch_loss_trace_trends_down():
    from pqf.cli import run_eval

    result = run_eval(toy="mlp", epochs=20, seed=5)
    trace = result["trace"].train_loss
    assert trace[-1] <= trace[0]
    for prev, nxt in zip(trace, trace[1:]):
        assert nxt <= prev * 1.05 + 1e-9  # small transient increases allowed


def test_full_pipeline_compress_store_finetune(tmp_path):
    # train -> compress_model -> save -> load -> rehydrate -> fine-tune
    dataset = gaussian_blobs(80, 4, 8, seed=30)
    ckpt = make_mlp_checkpoint((8, 16, 16, 4), seed=31)
    net = ToyNetwork.from_checkpoint(ckpt)
    train_network(net, dataset, epochs=60, seed=32)
    trained = net.to_checkpoint()

    from pqf.codec import compress_model, entry_to_encoding
    from pqf import tensor_io as tio

    cfg = CompressionConfig(
        k=4, k_fc=4, d_fc=8,
        src_iterations=40, perm_iterations=60,
    )
    model, _, _, _ = compress_model(trained, cfg, seed=33)
    path = tmp_path / "trained.pqfc"
    tio.save_compressed(model, path)
    loaded = tio.load_compressed(path)

    encodings = {
        e.name: entry_to_encoding(e, loaded.groups)
        for e in loaded.entries
        if isinstance(e, tio.EncodedEntry)
    }
    assert set(encodings) == {"fc1", "fc2", "fc3"}
    qnet = ToyNetwork.from_checkpoint(trained, encodings=encodings)
    before = accuracy(qnet, dataset.val_x, dataset.val_y)
    finetune_codebooks(qnet, dataset, epochs=15, seed=34)
    after = accuracy(qnet, dataset.val_x, dataset.val_y)
    assert after >= before


def test_dataset_regeneration_is_bit_identical():
    a = gaussian_blobs(40, 3, 5, seed=21)
    b = gaussian_blobs(40, 3, 5, seed=21)
    assert np.array_equal(a.train_x, b.train_x)
    assert np.array_equal(a.val_y, b.val_y)
    s1, s2 = two_spirals(50, seed=3), two_spirals(50, seed=3)
    assert np.array_equal(s1.train_x, s2.train_x)


def test_train_network_learns_blobs():
    dataset = gaussian_blobs(60, 3, 6, seed=22)
    net = ToyNetwork.from_checkpoint(make_mlp_checkpoint((6, 12, 3), seed=23))
    train_network(net, dataset, epochs=40, seed=24)
    assert accuracy(net, dataset.val_x, dataset.val_y) >= 0.9
