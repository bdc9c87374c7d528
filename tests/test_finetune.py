import numpy as np
import pytest

from pqf import codec, finetune
from pqf.codec import CompressionConfig, encode_layer
from pqf.errors import DanglingEdge, DivergedLoss, MalformedFile, ShapeMismatch
from pqf.finetune import (
    OptimizerState,
    ToyNetwork,
    accuracy,
    adam_cosine_step,
    backward,
    centroid_gradients,
    cosine_lr,
    finetune_codebooks,
    forward,
    gaussian_blobs,
    make_conv_classifier_checkpoint,
    make_mlp_checkpoint,
    make_residual_checkpoint,
    softmax_cross_entropy,
    train_network,
    two_spirals,
)
from pqf.rng import gaussian, make_rng
from pqf.tensor_io import LayerMeta, ModelCheckpoint, tensor_record


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


# ---------------------------------------------------------------------------
# Backward
# ---------------------------------------------------------------------------

def test_single_linear_mse_closed_form():
    rng = make_rng(4, "closed")
    w = rng.standard_normal((3, 2))
    x = rng.standard_normal((1, 3))
    y = rng.standard_normal((1, 2))
    net = _single_layer_net(w)
    logits, cache = forward(net, x)
    loss, grads = backward(net, cache, y, loss="mse")
    want = 2.0 * x.T @ (logits - y)  # d/dW of sum((xW - y)^2)
    assert np.max(np.abs(grads["fc1"]["weight"] - want)) < 1e-12


def test_relu_blocks_gradient_at_negative_preactivation():
    ckpt = make_mlp_checkpoint((2, 2, 2), seed=5)
    ckpt.tensor("fc1.weight").data = np.array([[-1.0, 1.0], [-1.0, 1.0]], dtype="<f4")
    ckpt.tensor("fc2.weight").data = np.eye(2, dtype="<f4")
    net = ToyNetwork.from_checkpoint(ckpt)
    x = np.array([[1.0, 1.0]])  # first hidden unit pre-activation = -2 < 0
    _, cache = forward(net, x)
    _, grads = backward(net, cache, np.array([0]))
    assert np.allclose(grads["fc1"]["weight"][:, 0], 0.0)
    assert not np.allclose(grads["fc1"]["weight"][:, 1], 0.0)


def _finite_difference(net, x, labels, name, part, loss="ce", h=1e-5):
    arr = net.params[name][part]
    grad = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        lp = backward(net, forward(net, x)[1], labels, loss=loss)[0]
        flat[i] = old - h
        lm = backward(net, forward(net, x)[1], labels, loss=loss)[0]
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
    _, grads = backward(net, cache, labels)
    for name in ("fc1", "fc2"):
        for part in ("weight", "bias"):
            _assert_close(grads[name][part], _finite_difference(net, x, labels, name, part))


def test_residual_conv_gradients_match_finite_differences():
    ckpt = make_residual_checkpoint(c_in=2, width=4, n_blocks=1, kernel_size=3, seed=8)
    net = ToyNetwork.from_checkpoint(ckpt)
    x = gaussian(make_rng(9, "fd2"), (3, 2, 4, 4))
    labels = np.array([0, 3, 1])
    _, cache = forward(net, x)
    _, grads = backward(net, cache, labels)
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
    cfg = CompressionConfig.small_blocks(
        k=k, k_fc=k, overrides={"fc1": {"d": d}}, src_iterations=20
    )
    enc = encode_layer(w, meta, cfg, seed=seed)
    net = _single_layer_net(w)
    net.encodings["fc1"] = enc
    return net, enc


def test_centroid_gradient_single_assignment_is_verbatim_slice():
    from pqf.permsearch import Permutation

    enc = codec.LayerEncoding(
        permutation=Permutation.identity(4),
        codebook=np.zeros((2, 2)),
        codes=np.array([[0], [1]]),
        kernel_size=1,
        c_in=4,
        c_out=1,
        d=2,
        source_kind="fc",
    )
    wgrad = np.array([[1.0], [2.0], [3.0], [4.0]])
    cg = centroid_gradients(wgrad, enc)
    assert np.array_equal(cg, [[1.0, 2.0], [3.0, 4.0]])


def test_centroid_gradient_sums_shared_positions():
    from pqf.permsearch import Permutation

    enc = codec.LayerEncoding(
        permutation=Permutation.identity(4),
        codebook=np.zeros((2, 2)),
        codes=np.array([[0], [0]]),
        kernel_size=1,
        c_in=4,
        c_out=1,
        d=2,
        source_kind="fc",
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
    _, grads = backward(net, cache, labels)
    analytic = centroid_gradients(grads["fc1"]["weight"], enc)

    numeric = np.zeros_like(enc.codebook)
    h = 1e-5
    for i in range(enc.codebook.size):
        flat = enc.codebook.ravel()
        old = flat[i]
        flat[i] = old + h
        lp = backward(net, forward(net, x)[1], labels)[0]
        flat[i] = old - h
        lm = backward(net, forward(net, x)[1], labels)[0]
        flat[i] = old
        numeric.ravel()[i] = (lp - lm) / (2 * h)
    _assert_close(analytic, numeric)


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
    calls = _count_calls(monkeypatch, codec, "decode_layer")
    _, cache = forward(net, x)
    backward(net, cache, np.array([0, 1, 2, 3, 0]))
    assert len(calls) == 1


def test_conv_forward_backward_decodes_each_encoded_layer_once(monkeypatch):
    ckpt = make_conv_classifier_checkpoint((2, 4, 4), 3, 4, seed=42)
    cfg = CompressionConfig.small_blocks(
        k=4, k_fc=4, use_permutation=False, skip_first_conv=False, src_iterations=5
    )
    encodings = codec.encode_layers(ckpt, cfg, {}, 43)
    assert "conv2" in encodings
    net = ToyNetwork.from_checkpoint(ckpt, encodings=encodings)
    x = gaussian(make_rng(44, "dec"), (3, 2, 6, 6))
    calls = _count_calls(monkeypatch, codec, "decode_layer")
    _, cache = forward(net, x)
    backward(net, cache, np.array([0, 1, 2]))
    assert len(calls) == len(encodings)


def test_training_steps_never_resort_the_graph(monkeypatch):
    net = ToyNetwork.from_checkpoint(make_residual_checkpoint(c_in=2, width=4, n_blocks=1, seed=45))
    x = gaussian(make_rng(46, "topo"), (2, 2, 4, 4))
    calls = _count_calls(monkeypatch, ModelCheckpoint, "topological_order")
    for _ in range(3):
        _, cache = forward(net, x)
        backward(net, cache, np.array([0, 1]))
    assert calls == []


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
    adam_cosine_step(state, tensors, {"cb": np.zeros((2, 2))}, t=0.0)
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
    adam_cosine_step(state, tensors, {"cb": g}, t=0.0)
    m = 0.1 * 0.5
    v = 0.001 * 0.25
    m_hat = m / (1 - 0.9)
    v_hat = v / (1 - 0.999)
    want = 1.0 - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert tensors["cb"][0, 0] == pytest.approx(want, abs=1e-12)


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
    perm_before = enc.permutation.indices.copy()
    finetune_codebooks(net, dataset, epochs=4, seed=1)
    assert np.array_equal(enc.codes, codes_before)
    assert np.array_equal(enc.permutation.indices, perm_before)
    decoded = codec.decode_layer(enc)
    blocks = decoded.reshape(2, 4, 4).transpose(0, 2, 1).reshape(-1, 4)
    centroid_set = {tuple(c) for c in enc.codebook}
    for block in blocks:
        assert tuple(block) in centroid_set  # every block is a centroid copy


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

    cfg = CompressionConfig.small_blocks(
        k=4, k_fc=4, overrides={m.name: {"d": 8} for m in trained.layers if m.kind == "fc"},
        src_iterations=40, perm_iterations=60,
    )
    model, _, _ = compress_model(trained, cfg, seed=33)
    path = tmp_path / "trained.pqfc"
    tio.save_compressed(model, path)
    loaded = tio.load_compressed(path)

    encodings = {
        e.name: entry_to_encoding(e)
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
