import importlib.resources as resources
import runpy
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    BlockViolation,
    apply_group_permutation,
    make_residual_checkpoint,
    parse_groups_text,
    records_equal,
    verify_equivalence,
)
from pqf import cli
from pqf.errors import InconsistentChannelCounts
from pqf.finetune import make_mlp_checkpoint
from pqf.graph import PermutationGroup, format_groups, resolve_groups
from pqf.rng import gaussian, make_rng
from pqf.tensor_io import LayerMeta, ModelCheckpoint, parse_arch_spec, tensor_record


def _data_text(name: str) -> str:
    return (resources.files("pqf") / "data" / name).read_text()


def _group_sets(groups):
    return {(frozenset(g.parents), frozenset(g.children), g.channels) for g in groups}


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------

def test_minimal_chain_single_group():
    ckpt = parse_arch_spec(
        """
        input input 1 4 4
        fc1 fc 1 4 6
        relu relu 1 6 6
        fc2 fc 1 6 3
        output output 1 3 3
        edge input fc1
        edge fc1 relu
        edge relu fc2
        edge fc2 output
        """
    )
    groups = resolve_groups(ckpt)
    assert len(groups) == 1
    assert set(groups[0].parents) == {"fc1"}
    assert set(groups[0].children) == {"fc2"}
    assert groups[0].channels == 6


@pytest.mark.parametrize("name,count", [("resnet18", 12), ("resnet50", 37)])
def test_reference_group_goldens(name, count):
    arch = parse_arch_spec(_data_text(f"{name}.arch"))
    resolved = resolve_groups(arch)
    expected = parse_groups_text(_data_text(f"{name}.groups"))
    assert len(resolved) == count
    assert _group_sets(resolved) == _group_sets(expected)


def test_shipped_specs_and_goldens_are_what_their_scripts_render():
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    # a run name other than "__main__" defines the generators without writing
    arch = runpy.run_path(str(scripts / "gen_arch_specs.py"), run_name="gen_arch_specs")
    goldens = runpy.run_path(str(scripts / "gen_group_goldens.py"), run_name="gen_group_goldens")
    assert _data_text("resnet18.arch") == arch["resnet18"]()
    assert _data_text("resnet50.arch") == arch["resnet50"]()
    assert _data_text("resnet18.groups") == goldens["render"](goldens["R18"])
    assert _data_text("resnet50.groups") == goldens["render"](goldens["resnet50_groups"]())


def test_resnet18_spotcheck_block_group():
    arch = parse_arch_spec(_data_text("resnet18.arch"))
    groups = resolve_groups(arch)
    sets = _group_sets(groups)
    assert (
        frozenset({"layer1.0.conv1", "layer1.0.bn1"}),
        frozenset({"layer1.0.conv2"}),
        64,
    ) in sets
    # the stem/stage-1 residual stream, including the uncompressed first conv
    assert (
        frozenset(
            {"conv1", "bn1", "layer1.0.conv2", "layer1.0.bn2", "layer1.1.conv2", "layer1.1.bn2"}
        ),
        frozenset(
            {"layer1.0.conv1", "layer2.0.downsample.0", "layer1.1.conv1", "layer2.0.conv1"}
        ),
        64,
    ) in sets


def test_resolution_is_declaration_order_independent():
    text = _data_text("resnet18.arch")
    arch = parse_arch_spec(text)
    baseline = _group_sets(resolve_groups(arch))
    rng = make_rng(3, "shuffle")
    layer_lines = [l for l in text.splitlines() if l.strip() and not l.startswith("edge")]
    edge_lines = [l for l in text.splitlines() if l.startswith("edge")]
    for _ in range(3):
        order = rng.permutation(len(layer_lines))
        shuffled = "\n".join([layer_lines[i] for i in order] + edge_lines)
        assert _group_sets(resolve_groups(parse_arch_spec(shuffled))) == baseline


def test_every_compressible_input_slot_grouped_or_fixed():
    arch = parse_arch_spec(_data_text("resnet18.arch"))
    groups = resolve_groups(arch)
    children = {name for g in groups for name in g.children}
    for meta in arch.layers:
        if meta.kind in ("conv", "fc"):
            if meta.name == "conv1":
                assert meta.name not in children  # input side is fixed
            else:
                assert meta.name in children


def test_reshape_sets_channel_block():
    ckpt = parse_arch_spec(
        """
        input input 1 2 2
        conv1 conv 3 2 4
        relu1 relu 1 4 4
        flat reshape 1 4 36
        fc1 fc 1 36 5
        output output 1 5 5
        edge input conv1
        edge conv1 relu1
        edge relu1 flat
        edge flat fc1
        edge fc1 output
        """
    )
    groups = resolve_groups(ckpt)
    assert len(groups) == 1
    g = groups[0]
    assert set(g.parents) == {"conv1"}
    assert set(g.children) == {"fc1"}
    assert g.channels == 36
    assert g.channel_block == 9


def test_inconsistent_channels_raise():
    ckpt = parse_arch_spec(
        """
        input input 1 2 2
        fc1 fc 1 2 4
        fc2 fc 1 6 3
        output output 1 3 3
        edge input fc1
        edge fc1 fc2
        edge fc2 output
        """
    )
    with pytest.raises(InconsistentChannelCounts):
        resolve_groups(ckpt)


_CONV_INTO_RESHAPE = """
input input 1 2 2
conv1 conv 3 2 4
flat reshape 1 4 {flat}
fc1 fc 1 {flat} 5
out1 output 1 5 5
edge input conv1
edge conv1 flat
edge flat fc1
edge fc1 out1
"""


@pytest.mark.parametrize(
    "spec,detail",
    [
        (_CONV_INTO_RESHAPE.format(flat=6), "reshape 'flat' must scale channels by an integer factor"),
        (
            "input input 1 2 2\nfc1 fc 1 2 4\nfc2 fc 1 6 3\noutput output 1 3 3\n"
            "edge input fc1\nedge fc1 fc2\nedge fc2 output\n",
            "slot of 'fc1' has 4 channels, group spans 6",
        ),
        (
            # the reshape's 36 channels move in blocks of 9, but fc2 reads 18 of them
            _CONV_INTO_RESHAPE.format(flat=36)
            + "fc2 fc 1 18 5\nout2 output 1 5 5\nedge flat fc2\nedge fc2 out2\n",
            "slot of 'fc2' needs factor 2, group block is 9",
        ),
    ],
    ids=["reshape-factor", "slot-divides-group", "slot-factor-in-block"],
)
def test_every_inconsistent_channel_count_names_its_layer(spec, detail, tmp_path, capsys):
    with pytest.raises(InconsistentChannelCounts) as exc:
        resolve_groups(parse_arch_spec(spec))
    assert str(exc.value) == detail
    path = tmp_path / "bad.arch"
    path.write_text(spec)
    assert cli.main(["groups", str(path)]) == 2
    err = capsys.readouterr().err
    assert f'error kind=InconsistentChannelCounts detail="{detail}"' in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# Applying permutations + functional equivalence
# ---------------------------------------------------------------------------

def test_apply_identity_is_noop():
    ckpt = make_mlp_checkpoint((4, 6, 3), seed=1)
    (group,) = resolve_groups(ckpt)
    out = apply_group_permutation(ckpt, group, np.arange(6))
    for a, b in zip(ckpt.tensors, out.tensors):
        assert records_equal(a, b)


def test_apply_reversal_keeps_mlp_function():
    ckpt = make_mlp_checkpoint((4, 6, 3), seed=2)
    (group,) = resolve_groups(ckpt)
    rev = np.arange(6)[::-1].copy()
    permuted = apply_group_permutation(ckpt, group, rev)
    w1 = np.asarray(ckpt.tensor("fc1.weight").data)
    w1p = np.asarray(permuted.tensor("fc1.weight").data)
    assert np.array_equal(w1p, w1[:, ::-1])
    w2 = np.asarray(ckpt.tensor("fc2.weight").data)
    assert np.array_equal(np.asarray(permuted.tensor("fc2.weight").data), w2[::-1])
    probes = gaussian(make_rng(5, "probes"), (16, 4))
    assert verify_equivalence(ckpt, permuted, probes) <= 1e-9


def test_apply_rejects_block_violation():
    group = PermutationGroup(("p",), ("c",), channels=98, channel_block=49)
    ckpt = make_mlp_checkpoint((4, 6, 3), seed=0)  # tensors irrelevant: fails early
    bad = np.arange(98)
    bad[[0, 1]] = bad[[1, 0]]
    with pytest.raises(BlockViolation):
        apply_group_permutation(ckpt, group, bad)


def test_verify_equivalence_self_and_sensitivity():
    ckpt = make_residual_checkpoint(c_in=2, width=6, n_blocks=1, seed=3)
    probes = gaussian(make_rng(6, "probe-img"), (4, 2, 5, 5))
    assert verify_equivalence(ckpt, ckpt, probes) == 0.0
    bumped = apply_group_permutation(
        ckpt, PermutationGroup(("stem",), ("block1.conv1",), 6, 1), np.arange(6)
    )
    bumped.tensor("fc.weight").data = bumped.tensor("fc.weight").data.copy()
    bumped.tensor("fc.weight").data[0, 0] += np.float32(0.1)
    assert verify_equivalence(ckpt, bumped, probes) > 0.0


def test_random_group_permutations_preserve_residual_net_function():
    worst = 0.0
    for seed in range(10):
        ckpt = make_residual_checkpoint(c_in=2, width=8, n_blocks=2, seed=seed)
        groups = resolve_groups(ckpt)
        assert groups, "residual net must expose permutable groups"
        probes = gaussian(make_rng(seed, "probes"), (5, 2, 6, 6))
        rng = make_rng(seed, "choice")
        for group in groups:
            perm = rng.permutation(group.channels)
            permuted = apply_group_permutation(ckpt, group, perm)
            worst = max(worst, verify_equivalence(ckpt, permuted, probes))
    assert worst <= 1e-9


def test_reshape_group_permutation_preserves_function():
    # conv (4 ch, 3x3 spatial) -> flatten -> fc: blocks of 9 must move together
    rng = make_rng(9, "reshape-net")
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
    tensors = [
        tensor_record("conv1.weight", gaussian(rng, (2, 4, 3, 3))),
        tensor_record("fc1.weight", gaussian(rng, (36, 5))),
        tensor_record("fc1.bias", gaussian(rng, (5,))),
    ]
    ckpt = ModelCheckpoint(tensors=tensors, layers=layers, edges=edges)
    (group,) = resolve_groups(ckpt)
    chan_perm = make_rng(10, "chan").permutation(4)
    full = (chan_perm[:, None] * 9 + np.arange(9)).ravel()
    permuted = apply_group_permutation(ckpt, group, full)
    probes = gaussian(make_rng(11, "probes"), (6, 2, 3, 3))
    assert verify_equivalence(ckpt, permuted, probes) <= 1e-9


def test_unsupported_layer_kind_raises():
    from pqf.errors import UnsupportedLayerKind

    layers = [LayerMeta("input", "input", 1, 2, 2), LayerMeta("x", "lstm", 1, 2, 2)]
    ckpt = ModelCheckpoint(tensors=[], layers=layers, edges=[])
    with pytest.raises(UnsupportedLayerKind):
        resolve_groups(ckpt)


def test_deconv_parent_and_child_axes():
    # parent deconv permutes axis 0 (its C_out), child deconv permutes axis 1
    rng = make_rng(12, "deconv-axes")
    layers = [
        LayerMeta("up1", "deconv", 3, 2, 4),
        LayerMeta("up2", "deconv", 3, 4, 5),
    ]
    tensors = [
        tensor_record("up1.weight", gaussian(rng, (4, 2, 3, 3))),  # (C_out, C_in, K, K)
        tensor_record("up2.weight", gaussian(rng, (5, 4, 3, 3))),
    ]
    ckpt = ModelCheckpoint(tensors=tensors, layers=layers, edges=[])
    group = PermutationGroup(("up1",), ("up2",), channels=4, channel_block=1)
    perm = np.array([2, 0, 3, 1])
    out = apply_group_permutation(ckpt, group, perm)
    w1 = np.asarray(ckpt.tensor("up1.weight").data)
    w2 = np.asarray(ckpt.tensor("up2.weight").data)
    assert np.array_equal(np.asarray(out.tensor("up1.weight").data), w1[perm])
    assert np.array_equal(np.asarray(out.tensor("up2.weight").data), w2[:, perm])


def test_format_parse_round_trip():
    groups = [
        PermutationGroup(("a", "b"), ("c",), 16, 1),
        PermutationGroup(("d",), ("e", "f"), 32, 4),
    ]
    assert parse_groups_text(format_groups(groups)) == groups
