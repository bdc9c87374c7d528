import hashlib
import importlib.resources as resources
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import pqf
from pqf import cli, codec, finetune, graph, permsearch, tensor_io
from pqf.cli import BENCH_METHODS, BenchConfig, bench_csv, run_bench
from pqf.errors import MalformedFile
from pqf.finetune import make_mlp_checkpoint

from helpers import declared_model, edit_container, split_container, synthetic_resnet


@pytest.fixture(scope="module")
def arch_paths(tmp_path_factory):
    base = tmp_path_factory.mktemp("arch")
    for name in ("resnet18.arch", "resnet50.arch"):
        (base / name).write_text((resources.files("pqf") / "data" / name).read_text())
    return base


def test_no_arguments_is_usage_error(capsys):
    assert cli.main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "--definitely-not-a-flag"])
    assert exc.value.code == 1


def test_missing_file_is_data_error(capsys):
    assert cli.main(["report", "/nonexistent.arch"]) == 2
    assert "error kind=" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["report", "groups"])
@pytest.mark.parametrize("content", ["compressed", "raw-bytes"])
def test_non_utf8_architecture_file_is_malformed(tmp_path, capsys, command, content):
    path = tmp_path / "model.pqfc"
    if content == "compressed":
        source = tmp_path / "toy.pqfn"
        tensor_io.save_checkpoint(make_mlp_checkpoint((8, 16, 4), seed=1), source)
        argv = ["compress", str(source), "--out", str(path), "--k", "4", "--k-fc", "4",
                "--src-iters", "2", "--perm-iters", "5"]
        assert cli.main(argv) == 0
    else:
        path.write_bytes(b"\xff\xfe\x00\x80")
    capsys.readouterr()
    assert cli.main([command, str(path)]) == 2
    assert "error kind=MalformedFile" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["report", "groups"])
@pytest.mark.parametrize("source", ["checkpoint", "spec"])
def test_report_and_groups_read_a_pipe_as_they_read_the_file(tmp_path, capsys, arch_paths, command, source):
    path = tmp_path / "toy.pqfn"
    if source == "checkpoint":
        tensor_io.save_checkpoint(make_mlp_checkpoint((8, 16, 4), seed=1), path)
    else:
        path = arch_paths / "resnet18.arch"
    capsys.readouterr()
    assert cli.main([command, str(path)]) == 0
    expected = capsys.readouterr().out
    # a pipe's bytes are gone once read, so the file must be read once; the
    # path names the pipe as a shell's `<(cat toy.pqfn)` does, so a second
    # open finds the rest of the bytes rather than waiting for a writer
    read, write = os.pipe()

    def feed():
        with open(write, "wb") as fh:
            fh.write(path.read_bytes())

    writer = threading.Thread(target=feed)
    writer.start()
    code = cli.main([command, f"/dev/fd/{read}"])
    writer.join(timeout=60)
    os.close(read)
    assert not writer.is_alive()
    assert code == 0 and capsys.readouterr().out == expected


def test_module_entry_point_runs_main(tmp_path):
    src_dir = str(Path(pqf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pqf.cli", "decompress", str(tmp_path / "missing.pqfc"),
         "--out", str(tmp_path / "x")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "error kind=" in proc.stderr


def test_report_last_line_total_mb(arch_paths, capsys):
    rc = cli.main(["report", str(arch_paths / "resnet18.arch"), "--regime", "small", "--k", "256"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1] == "total_MB 1.54"


def test_report_csv_mode(arch_paths, capsys):
    rc = cli.main(["report", str(arch_paths / "resnet18.arch"), "--csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "name,layer_type,shape,dtype,bits"
    assert lines[-1] == "total_MB,,,,1.54"
    assert any(l.startswith("conv1.weight,") and l.endswith("301056") for l in lines)


def test_groups_counts(arch_paths, capsys):
    rc = cli.main(["groups", str(arch_paths / "resnet18.arch")])
    assert rc == 0
    out = capsys.readouterr().out
    assert sum(1 for l in out.splitlines() if l.startswith("group ")) == 12
    rc = cli.main(["groups", str(arch_paths / "resnet50.arch")])
    assert rc == 0
    out = capsys.readouterr().out
    assert sum(1 for l in out.splitlines() if l.startswith("group ")) == 37


def test_compress_decompress_round_trip(tmp_path, capsys):
    ckpt_path = tmp_path / "toy.pqfn"
    tensor_io.save_checkpoint(make_mlp_checkpoint((8, 16, 4), seed=1), ckpt_path)
    out_path = tmp_path / "toy.pqfc"
    manifest_path = tmp_path / "run.json"
    rc = cli.main(
        [
            "compress",
            str(ckpt_path),
            "--out",
            str(out_path),
            "--k",
            "4",
            "--k-fc",
            "4",
            "--src-iters",
            "20",
            "--perm-iters",
            "30",
            "--seed",
            "7",
            "--manifest",
            str(manifest_path),
        ]
    )
    assert rc == 0
    reported = int(capsys.readouterr().out.split("(")[1].split()[0])
    assert reported == out_path.stat().st_size
    manifest = json.loads(manifest_path.read_text())
    assert manifest["command"] == "compress"
    assert set(manifest["per_layer_error"]) == {"fc1", "fc2"}

    back_path = tmp_path / "back.pqfn"
    rc = cli.main(["decompress", str(out_path), "--out", str(back_path)])
    assert rc == 0
    restored = tensor_io.load_checkpoint(back_path)
    assert restored.tensor("fc1.weight").data.shape == (8, 16)
    assert [m.name for m in restored.layers] == ["input", "fc1", "relu1", "fc2", "output"]


def test_decompress_duplicate_permutation_index_is_data_error(tmp_path, capsys):
    ckpt_path = tmp_path / "toy.pqfn"
    tensor_io.save_checkpoint(make_mlp_checkpoint((8, 16, 4), seed=1), ckpt_path)
    packed = tmp_path / "toy.pqfc"
    argv = ["compress", str(ckpt_path), "--out", str(packed), "--k", "4", "--k-fc", "4",
            "--src-iters", "5", "--perm-iters", "5"]
    assert cli.main(argv) == 0
    _zero_group_permutation(packed)
    capsys.readouterr()
    back_path = tmp_path / "back.pqfn"
    assert cli.main(["decompress", str(packed), "--out", str(back_path)]) == 2
    assert "error kind=MalformedFile" in capsys.readouterr().err
    assert not back_path.exists()


@pytest.mark.parametrize("k_eff, error", [(8, None), (5, "out-of-range codes")])
def test_decompress_code_beyond_a_k_eff_that_is_no_power_of_two_is_data_error(
    tmp_path, capsys, k_eff, error
):
    # 8 centroids take 3-bit codes; declaring 5 keeps the width but not every code
    source, packed = tmp_path / "toy.pqfn", tmp_path / "toy.pqfc"
    tensor_io.save_checkpoint(make_mlp_checkpoint((8, 16, 4), seed=1), source)
    argv = ["compress", str(source), "--out", str(packed), "--k", "8", "--k-fc", "8",
            "--src-iters", "3", "--perm-iters", "5"]
    assert cli.main(argv) == 0
    entries = tensor_io.load_compressed(packed).entries
    (fc1,) = [e for e in entries if isinstance(e, tensor_io.EncodedEntry) and e.name == "fc1"]
    assert fc1.k_eff == 8 and fc1.unpack().max() >= 5
    _edit_manifest(packed, "entries", "fc1", k_eff=k_eff)
    back_path = tmp_path / "back.pqfn"
    capsys.readouterr()
    argv = ["decompress", str(packed), "--out", str(back_path)]
    if error is None:
        assert cli.main(argv) == 0
        return
    assert cli.main(argv) == 2
    assert f"error kind=MalformedFile detail=\"entry 'fc1' has {error}" in capsys.readouterr().err
    assert not back_path.exists()


def _edit_tensor_entry(path, name, **fields):
    """Rewrite one tensor entry's manifest fields in a PQFN/PQFC file."""
    _edit_manifest(path, None, name, **fields)


def _edit_manifest(path, listing, name, **fields):
    """Rewrite the fields of item `name` of manifest list `listing` (default: tensors)."""

    def edit(manifest):
        items = manifest[listing or ("tensors" if "tensors" in manifest else "entries")]
        (obj,) = [o for o in items if o["name"] == name]
        obj.update(fields)

    _rewrite_manifest(path, edit)


def _rewrite_manifest(path, edit):
    """Rewrite a container's JSON manifest through `edit(manifest)`."""
    edit_container(path, edit)


def _zero_group_permutation(path):
    """Overwrite the first stored group permutation with zeros, in place, and reseal the file."""

    def zero(manifest, payload):
        (group,) = manifest["groups"]
        units = group["units"]
        start, nbytes = group["offset"], (units * tensor_io.code_width(units) + 7) // 8
        payload[start : start + nbytes] = bytes(nbytes)

    edit_container(path, edit_payload=zero)


def test_a_group_permutation_that_repeats_a_unit_is_rejected_at_load_and_at_save(tmp_path):
    _, packed = _compressed_toy(tmp_path)
    model = tensor_io.load_compressed(packed)
    (fc2,) = [e for e in model.entries if isinstance(e, tensor_io.EncodedEntry) and e.name == "fc2"]
    assert fc2.group == 0
    model.groups[0][:] = 0
    again = tmp_path / "again.pqfc"
    with pytest.raises(MalformedFile, match="group 0 does not store a permutation of 16 units"):
        tensor_io.save_compressed(model, again)
    assert not again.exists()
    _zero_group_permutation(packed)
    with pytest.raises(MalformedFile, match="group 0 does not store a permutation of 16 units"):
        tensor_io.load_compressed(packed)


@pytest.mark.parametrize("version", [1, 2, 3])
def test_decompress_of_an_older_version_file_is_data_error_naming_the_version(
    tmp_path, capsys, version
):
    _, packed = _compressed_toy(tmp_path)
    raw = bytearray(packed.read_bytes())
    raw[4:8] = version.to_bytes(4, "little")
    packed.write_bytes(bytes(raw))
    back_path = tmp_path / "back.pqfn"
    capsys.readouterr()
    assert cli.main(["decompress", str(packed), "--out", str(back_path)]) == 2
    detail = f"error kind=MalformedFile detail='unsupported PQFC format version {version}"
    assert detail in capsys.readouterr().err
    assert not back_path.exists()


def _compressed_toy(tmp_path):
    ckpt_path = tmp_path / "toy.pqfn"
    tensor_io.save_checkpoint(make_mlp_checkpoint((8, 16, 4), seed=1), ckpt_path)
    packed = tmp_path / "toy.pqfc"
    argv = ["compress", str(ckpt_path), "--out", str(packed), "--k", "4", "--k-fc", "4",
            "--src-iters", "5", "--perm-iters", "5"]
    assert cli.main(argv) == 0
    return ckpt_path, packed


def test_compress_and_decompress_may_write_over_their_own_input(tmp_path):
    # the loaders read the whole file before the output opens, so a mapped file, which
    # opening the output truncates, cannot be what the program reads from
    source, packed = _compressed_toy(tmp_path)
    back = tmp_path / "back.pqfn"
    assert cli.main(["decompress", str(packed), "--out", str(back)]) == 0
    both = tmp_path / "both"
    both.write_bytes(source.read_bytes())
    argv = ["compress", str(both), "--out", str(both), "--k", "4", "--k-fc", "4",
            "--src-iters", "5", "--perm-iters", "5"]
    assert cli.main(argv) == 0
    assert both.read_bytes() == packed.read_bytes()
    assert cli.main(["decompress", str(both), "--out", str(both)]) == 0
    assert both.read_bytes() == back.read_bytes()


def _assert_malformed(argv, out_path, capsys):
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert "error kind=MalformedFile" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "listing, fields", [("entries", {"d": 0}), ("entries", {"d": 3}), ("layers", {"c_in": 9})]
)
def test_decompress_entry_with_wrong_geometry_is_data_error(tmp_path, listing, fields, capsys):
    # fc1 is 8 -> 16 with d = 4: neither 3 nor a d of 4 divides the rows of 9 input channels
    _, packed = _compressed_toy(tmp_path)
    _edit_manifest(packed, listing, "fc1", **fields)
    back_path = tmp_path / "back.pqfn"
    _assert_malformed(["decompress", str(packed), "--out", str(back_path)], back_path, capsys)


def test_decompress_short_raw_entry_is_data_error(tmp_path, capsys):
    _, packed = _compressed_toy(tmp_path)
    # the bias's 16 values would start at the payload's last aligned offset and run past its end
    end = len(split_container(packed.read_bytes())[1])
    _edit_tensor_entry(packed, "fc1.bias", offset=end // 64 * 64)
    back_path = tmp_path / "back.pqfn"
    _assert_malformed(["decompress", str(packed), "--out", str(back_path)], back_path, capsys)


def test_decompress_raw_entry_with_doubled_shape_is_data_error(tmp_path, capsys):
    _, packed = _compressed_toy(tmp_path)
    _edit_tensor_entry(packed, "fc1.bias", shape=[32])
    back_path = tmp_path / "back.pqfn"
    _assert_malformed(["decompress", str(packed), "--out", str(back_path)], back_path, capsys)


@pytest.mark.parametrize("container", ["pqfn", "pqfc"])
def test_negative_tensor_dimension_is_data_error(tmp_path, capsys, container):
    ckpt_path, packed = _compressed_toy(tmp_path)
    out_path = tmp_path / "out.bin"
    # fc2.bias holds 4 float32 values: 16 bytes, the same as a (-2, -2) shape claims
    if container == "pqfn":
        _edit_tensor_entry(ckpt_path, "fc2.bias", shape=[-2, -2])
        argv = ["compress", str(ckpt_path), "--out", str(out_path)]
    else:
        _edit_tensor_entry(packed, "fc2.bias", shape=[-2, -2])
        argv = ["decompress", str(packed), "--out", str(out_path)]
    _assert_malformed(argv, out_path, capsys)


@pytest.mark.parametrize("part", ["weight", "bias"])
def test_compress_tensor_shape_disagreeing_with_its_layer_is_data_error(tmp_path, part, capsys):
    # fc1 is declared 16 -> 32, but stores a (24, 32) weight or a (16,) bias
    ckpt_path = tmp_path / "toy.pqfn"
    if part == "weight":
        tensor_io.save_checkpoint(make_mlp_checkpoint((24, 32, 4), seed=1), ckpt_path)
        _edit_manifest(ckpt_path, "layers", "fc1", c_in=16)
    else:
        tensor_io.save_checkpoint(make_mlp_checkpoint((16, 32, 4), seed=1), ckpt_path)
        _edit_tensor_entry(ckpt_path, "fc1.bias", shape=[16], nbytes=16 * 4)
    out_path = tmp_path / "toy.pqfc"
    argv = ["compress", str(ckpt_path), "--out", str(out_path), "--k", "4", "--k-fc", "4",
            "--src-iters", "2", "--perm-iters", "5"]
    _assert_malformed(argv, out_path, capsys)


def test_decompress_layer_disagreeing_with_its_entry_is_data_error(tmp_path, capsys):
    _, packed = _compressed_toy(tmp_path)
    _edit_manifest(packed, "layers", "fc1", c_out=24)  # the entry decodes to (8, 16)
    back_path = tmp_path / "back.pqfn"
    _assert_malformed(["decompress", str(packed), "--out", str(back_path)], back_path, capsys)


def _layer_named(manifest, name):
    return next(o for o in manifest["layers"] if o["name"] == name)


# manifest edits that still parse; the first two also decode, to another model
_MANIFEST_EDITS = {
    # fc's group is the one stored, so fc decodes in the stored order
    "group-null": lambda m: next(o for o in m["entries"] if o.get("group") == 0).update(group=None),
    # conv2 is 8 -> 8, so as a deconv it decodes to the declared shape
    "conv-as-deconv": lambda m: _layer_named(m, "conv2").update(kind="deconv"),
    "c_out": lambda m: _layer_named(m, "conv2").update(c_out=9),
}


@pytest.mark.parametrize("what", sorted(_MANIFEST_EDITS))
def test_decompress_of_a_manifest_edit_without_a_new_checksum_is_data_error(tmp_path, what, capsys):
    ckpt_path, packed = tmp_path / "conv.pqfn", tmp_path / "conv.pqfc"
    tensor_io.save_checkpoint(finetune.make_conv_classifier_checkpoint((2, 8, 8), 3, 4, seed=1), ckpt_path)
    argv = ["compress", str(ckpt_path), "--out", str(packed), "--k", "4", "--k-fc", "4",
            "--src-iters", "2", "--perm-iters", "5"]
    assert cli.main(argv) == 0
    back_path, again = tmp_path / "back.pqfn", tmp_path / "again.pqfn"
    assert cli.main(["decompress", str(packed), "--out", str(back_path)]) == 0
    resealed = tmp_path / "resealed.pqfc"
    resealed.write_bytes(packed.read_bytes())
    edit_container(resealed, _MANIFEST_EDITS[what])
    if what != "c_out":
        assert cli.main(["decompress", str(resealed), "--out", str(again)]) == 0
        assert again.read_bytes() != back_path.read_bytes()
    back_path.unlink()
    edit_container(packed, _MANIFEST_EDITS[what], reseal=False)
    capsys.readouterr()
    assert cli.main(["decompress", str(packed), "--out", str(back_path)]) == 2
    err = capsys.readouterr().err
    assert "error kind=MalformedFile" in err and "checksum mismatch" in err
    assert not back_path.exists()


def test_compress_child_with_a_single_subvector(tmp_path):
    # fc2 is 4 -> 1: with d = 4 its one column is one subvector
    ckpt_path = tmp_path / "tiny.pqfn"
    tensor_io.save_checkpoint(make_mlp_checkpoint((8, 4, 1), seed=1), ckpt_path)
    out_path = tmp_path / "tiny.pqfc"
    argv = ["compress", str(ckpt_path), "--out", str(out_path), "--k", "4", "--k-fc", "4",
            "--src-iters", "5", "--perm-iters", "5"]
    assert cli.main(argv) == 0
    back_path = tmp_path / "back.pqfn"
    assert cli.main(["decompress", str(out_path), "--out", str(back_path)]) == 0
    assert tensor_io.load_checkpoint(back_path).tensor("fc2.weight").data.shape == (4, 1)


@pytest.mark.parametrize("command", ["report", "groups"])
@pytest.mark.parametrize("line", ["fc1 fc 1 3 0", "bn batchnorm 1 -4 -4", "r reshape 1 3 0", "p pool 0 3 3"])
def test_a_layer_of_any_kind_with_a_dimension_below_1_is_data_error(tmp_path, capsys, line, command):
    name = line.split()[0]
    arch = tmp_path / "bad.arch"
    arch.write_text(f"input input 1 3 3\n{line}\noutput output 1 3 3\n"
                    f"edge input {name}\nedge {name} output\n")
    capsys.readouterr()
    assert cli.main([command, str(arch)]) == 2
    err = capsys.readouterr().err
    assert "error kind=MalformedFile" in err
    assert f"layer '{name}' has a kernel size or channel count below 1" in err


def test_a_checkpoint_layer_with_a_dimension_below_1_is_data_error(tmp_path, capsys):
    path, out = tmp_path / "toy.pqfn", tmp_path / "toy.pqfc"
    tensor_io.save_checkpoint(make_mlp_checkpoint((8, 16, 4), seed=1), path)
    edit_container(path, lambda m: _layer_named(m, "relu1").update(c_in=0, c_out=0))
    for argv in (["report", str(path)], ["compress", str(path), "--out", str(out)]):
        capsys.readouterr()
        assert cli.main(argv) == 2, argv[0]
        assert "layer 'relu1' has a kernel size or channel count below 1" in capsys.readouterr().err
        assert not out.exists()


def test_compress_is_reproducible(tmp_path):
    ckpt_path = tmp_path / "toy.pqfn"
    tensor_io.save_checkpoint(make_mlp_checkpoint((8, 16, 4), seed=2), ckpt_path)
    outs = []
    for tag in ("a", "b"):
        out_path = tmp_path / f"{tag}.pqfc"
        rc = cli.main(
            [
                "compress",
                str(ckpt_path),
                "--out",
                str(out_path),
                "--k",
                "4",
                "--k-fc",
                "4",
                "--src-iters",
                "15",
                "--perm-iters",
                "20",
                "--seed",
                "9",
            ]
        )
        assert rc == 0
        outs.append(out_path.read_bytes())
    assert outs[0] == outs[1]


def test_compress_non_finite_weight_is_data_error(tmp_path, capsys):
    ckpt = make_mlp_checkpoint((8, 16, 4), seed=3)
    ckpt.tensor("fc1.weight").data[0, 0] = np.nan
    ckpt_path = tmp_path / "nan.pqfn"
    tensor_io.save_checkpoint(ckpt, ckpt_path)
    out_path = tmp_path / "nan.pqfc"
    rc = cli.main(["compress", str(ckpt_path), "--out", str(out_path), "--k", "4", "--k-fc", "4"])
    assert rc == 2
    assert "error kind=NonFiniteWeight" in capsys.readouterr().err
    assert not out_path.exists()


def test_compressed_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the large-regime 3x3 conv (64 -> 64, d = 18, k = 256) is scored in
    # float32 blocks of 256 rows x 256 centroids x 19 multiply-adds, a GEMM that
    # OpenBLAS splits across two threads; blocks with d = 4 or 9 it does not
    ckpt = finetune.make_conv_classifier_checkpoint((2, 64, 64), kernel_size=3, seed=4)
    ckpt_path = tmp_path / "conv.pqfn"
    tensor_io.save_checkpoint(ckpt, ckpt_path)
    src_dir = str(Path(pqf.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
        out_path = tmp_path / f"t{threads}.pqfc"
        argv = ["compress", str(ckpt_path), "--out", str(out_path), "--regime", "large",
                "--k", "256", "--src-iters", "4", "--perm-iters", "10", "--seed", "5"]
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from pqf.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out_path.read_bytes())
    assert outs[0] == outs[1]


def _pinned_compress_digests(tmp_path, depth: int, divisor: int, *flags) -> tuple:
    """sha256 of the `.pqfc` a compress writes, and of the `.pqfn` it decompresses to."""
    source, packed, back = tmp_path / "model.pqfn", tmp_path / "model.pqfc", tmp_path / "back.pqfn"
    tensor_io.save_checkpoint(synthetic_resnet(depth, divisor, seed=3), source)
    argv = ["compress", str(source), "--out", str(packed), "--k", "32", "--k-fc", "32",
            "--src-iters", "1", "--perm-iters", "100", "--seed", "3", *flags]
    assert cli.main(argv) == 0
    assert cli.main(["decompress", str(packed), "--out", str(back)]) == 0
    return tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (packed, back))


def test_permutation_search_bytes_are_pinned(tmp_path):
    # a ResNet-50 at 1/8 width has 21 groups that search; the hashes pin every
    # proposal the search keeps, so a refactor of the search cannot change them
    # silently. Both hashes change with the container format.
    assert _pinned_compress_digests(tmp_path, 50, 8) == (
        "71caeefef6532e221771a4485eb3c3c7b230a7a23076a9dc1cd784ced2a42348",
        "3822d5431cfde41f0eb9a5739a5260b064b77d12e546d5e6465e4fd30e0c8ed3",
    )


def test_large_regime_search_bytes_are_pinned(tmp_path):
    # a ResNet-18 at 1/4 width in the large regime searches 12 groups, 4 of them over
    # two families, with d = 18 for its 3x3 children
    assert _pinned_compress_digests(tmp_path, 18, 4, "--regime", "large") == (
        "7de97bc6a4826f19df8756f61129ca5901a0b79afd9ee11191a7cd1927e39eda",
        "2d5dc96c30c919ed8c0f183f949d24be3a4a67f823855cc92d255b056983f817",
    )


def test_compress_manifest_explains_each_searched_group(tmp_path):
    # a ResNet-18 at 1/8 width: its 3x3 children cannot change under a swap, so
    # the groups that search are those with a 1x1 or fc child
    source = tmp_path / "model.pqfn"
    ckpt = synthetic_resnet(18, 8, seed=4)
    tensor_io.save_checkpoint(ckpt, source)
    runs = []
    for i, jobs in enumerate(("1", "1", "2")):
        packed, run = tmp_path / f"{i}.pqfc", tmp_path / f"{i}.json"
        argv = ["compress", str(source), "--out", str(packed), "--k", "16", "--k-fc", "16",
                "--src-iters", "1", "--perm-iters", "20", "--seed", "4", "--jobs", jobs,
                "--manifest", str(run)]
        assert cli.main(argv) == 0
        runs.append((packed.read_bytes(), json.loads(run.read_text())["groups"]))
    assert runs[0] == runs[1] == runs[2]  # reruns and --jobs change neither
    groups = runs[0][1]
    kernel = {meta.name: meta.kernel_size for meta in ckpt.layers}
    expected = [(sorted(g.children), g.channels // g.channel_block)
                for g in graph.resolve_groups(ckpt) if any(kernel[c] == 1 for c in g.children)]
    assert [(g["children"], g["units"]) for g in groups] == expected
    for g in groups:
        assert set(g) == {"children", "units", "start", "objective", "proposals_scored",
                          "swaps_kept", "rounds"}
        assert g["start"] in ("identity", "greedy")
        objective = g["objective"]
        assert objective["final"] <= objective["start"] <= objective["identity"]
        assert g["swaps_kept"] <= g["rounds"] <= g["proposals_scored"]
        assert g["proposals_scored"] >= 20
    assert any(g["swaps_kept"] for g in groups)


def _compress_groups(tmp_path, *flags) -> list:
    """The manifest's searched groups of a seed-4 compress of the ResNet-18 at 1/8 width."""
    source, packed, run = tmp_path / "model.pqfn", tmp_path / "model.pqfc", tmp_path / "run.json"
    tensor_io.save_checkpoint(synthetic_resnet(18, 8, seed=4), source)
    argv = ["compress", str(source), "--out", str(packed), "--k", "16", "--k-fc", "16",
            "--src-iters", "1", "--seed", "4", "--jobs", "1", "--manifest", str(run), *flags]
    assert cli.main(argv) == 0
    return json.loads(run.read_text())["groups"]


@pytest.mark.parametrize("iters", ["0", "20"])
@pytest.mark.parametrize("regime", ["small", "large"])
def test_each_searched_group_sets_up_each_family_once(tmp_path, monkeypatch, regime, iters):
    # the identity and greedy starts share each family's shifted rows, grid and
    # swap tables; a start adds only its order and chunk moments
    built, families = [], []

    class CountedMoments(permsearch._ChunkMoments):
        def __init__(self, *args):
            built[-1] += 1
            super().__init__(*args)

    setup = permsearch._setup

    def counted_setup(children, iters, seed):
        families.append(len({(d, block) for _, d, block in children if block % d}))
        built.append(0)
        return setup(children, iters, seed)

    monkeypatch.setattr(permsearch, "_ChunkMoments", CountedMoments)
    monkeypatch.setattr(permsearch, "_setup", counted_setup)
    groups = _compress_groups(tmp_path, "--regime", regime, "--perm-iters", iters)
    assert built == families and sum(f > 0 for f in families) == len(groups)
    # the large regime's 3x3 children are live at d = 18, a second family;
    # every group has a greedy start, which the identity keeps out in the small regime
    assert max(families) == (2 if regime == "large" else 1)
    assert {g["start"] for g in groups} == {"greedy" if regime == "large" else "identity"}


def test_a_greedy_start_that_ties_the_identity_keeps_the_identity(tmp_path, monkeypatch):
    calls = []

    def identity_order(weight, d, block=1):
        calls.append(d)
        return np.arange(len(weight) // block)

    monkeypatch.setattr(permsearch, "greedy_init", identity_order)
    groups = _compress_groups(tmp_path, "--perm-iters", "20")
    assert len(calls) == len(groups) > 0
    for g in groups:
        assert g["start"] == "identity" and g["objective"]["start"] == g["objective"]["identity"]


def test_pqfc_size_is_its_sections_plus_framing_and_padding(tmp_path):
    # a ResNet-18 at 1/8 width: the bit table prices codebooks and codes, and the
    # run manifest the group permutations the search stored
    source, packed, run = tmp_path / "model.pqfn", tmp_path / "model.pqfc", tmp_path / "run.json"
    tensor_io.save_checkpoint(synthetic_resnet(18, 8, seed=4), source)
    argv = ["compress", str(source), "--out", str(packed), "--k", "16", "--k-fc", "16",
            "--src-iters", "1", "--perm-iters", "20", "--seed", "4", "--manifest", str(run)]
    assert cli.main(argv) == 0
    raw = packed.read_bytes()
    manifest, payload = split_container(raw)
    model = tensor_io.load_compressed(packed)
    encoded = [e for e in model.entries if isinstance(e, tensor_io.EncodedEntry)]
    assert model.groups and any(e.group is None for e in encoded)
    sections = [(g["offset"], (g["units"] * tensor_io.code_width(g["units"]) + 7) // 8)
                for g in manifest["groups"]]
    code_bytes = {e.name: len(e.packed) for e in encoded}
    for obj in manifest["entries"]:
        if "shape" in obj:
            sections.append((obj["offset"], 4 * math.prod(obj["shape"])))
        else:
            sections.append((obj["codebook_offset"], 2 * obj["k_eff"] * obj["d"]))
            sections.append((obj["codes_offset"], code_bytes[obj["name"]]))
    # after the zero gap that ends the manifest, the sections tile the payload
    # in order, each at the next multiple of 64 after zero padding; the file
    # ends in a 4-byte checksum
    head = 16 + int.from_bytes(raw[8:16], "little")
    padding = len(raw) - 4 - len(payload) - head
    end = 0
    for offset, nbytes in sorted(sections):
        assert offset == -(-end // 64) * 64 and not any(payload[end:offset])
        padding += offset - end
        end = offset + nbytes
    assert end == len(payload)
    report = codec.bit_report(tensor_io.load_checkpoint(source), _config_of(argv))
    bits = {r.name: r.bits for r in report.rows}
    raw_bytes = sum(rec.nbytes for rec in model.entries if isinstance(rec, tensor_io.TensorRecord))
    encoded_rows = (".codebook", ".codes_matrix")
    assert raw_bytes * 8 == sum(b for name, b in bits.items() if not name.endswith(encoded_rows))
    content = raw_bytes + sum(e.codebook.nbytes + len(e.packed) for e in encoded)
    assert sum(e.codebook.nbytes * 8 for e in encoded) == sum(
        b for name, b in bits.items() if name.endswith(".codebook")
    )
    assert sum(len(e.packed) for e in encoded) == sum(
        -(-b // 8) for name, b in bits.items() if name.endswith(".codes_matrix")
    )
    permutation_bits = json.loads(run.read_text())["permutation_bits"]
    assert permutation_bits == model.permutation_bits == sum(
        len(p) * tensor_io.code_width(len(p)) for p in model.groups
    )
    stored_groups = sum(-(-len(p) * tensor_io.code_width(len(p)) // 8) for p in model.groups)
    assert len(raw) - head - padding - 4 == content + stored_groups


def _config_of(argv):
    return cli._config_from_args(cli.build_parser().parse_args(argv))


def test_eval_emits_csv_trace(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    rc = cli.main(["eval", "--toy", "mlp", "--epochs", "3", "--seed", "1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "epoch,lr,train_loss,val_acc"
    assert len(lines) == 4
    stdout = capsys.readouterr().out
    assert "val_acc raw=" in stdout


@pytest.mark.parametrize(
    "flags, digest",
    [
        (("--toy", "mlp", "--epochs", "30", "--seed", "0"),
         "9e7ecc860d3549f83dd6e10c9ee3e1c5943e8cb797bae92ed4a7807a280fec75"),
        (("--toy", "mlp", "--epochs", "30", "--seed", "5"),
         "e43e33eac825afc1de109661eb86aa58d7e7540228d4e3679156eb5f95620e1e"),
        (("--toy", "conv", "--epochs", "4", "--seed", "2"),
         "5964f99d3e9c9b584413cd1d2d8cf6da293c0c6ed2079851d1d70b8065fd4efc"),
    ],
)
def test_eval_csv_bytes_are_pinned(tmp_path, capsys, flags, digest):
    out = tmp_path / "trace.csv"
    assert cli.main(["eval", *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_anisotropic_weights_need_an_even_row_count():
    with pytest.raises(ValueError, match="rows must be even, got 33"):
        cli.synthetic_weights(BenchConfig(rows=33), seed=0)
    assert cli.synthetic_weights(BenchConfig(rows=32, generator="anisotropic"), seed=0).shape == (32, 96)
    assert cli.synthetic_weights(BenchConfig(rows=33, generator="isotropic"), seed=0).shape == (33, 96)


def test_conv_eval_recovers_after_quantization():
    # the classifier stays raw; with it quantized to one centroid nothing recovers
    result = cli.run_eval(toy="conv", epochs=4, seed=0)
    assert result["finetuned_acc"] > result["quantized_acc"]
    assert "fc" not in result["net"].encodings


def test_bench_csv_and_isotropic_band(capsys):
    cfg = BenchConfig(seeds=8, rows=16, cols=48, d=4, k=8, src_iterations=40,
                      perm_iterations=60, generator="isotropic")
    rows = run_bench(cfg, base_seed=0)
    assert len(rows) == 24
    csv = bench_csv(rows)
    assert csv.splitlines()[0] == "method,seed,error,rd_bound,wall_time_s"
    med = {
        m: float(np.median([r["error"] for r in rows if r["method"] == m]))
        for m in BENCH_METHODS
    }
    # isotropic data: permutations cannot help, medians sit in one noise band
    assert abs(med["perm+src"] - med["src"]) <= 0.05 * med["src"]


def test_bench_anisotropic_ordering_smoke():
    cfg = BenchConfig(seeds=6, rows=24, cols=72, d=4, k=8, src_iterations=60,
                      perm_iterations=120)
    rows = run_bench(cfg, base_seed=3)
    med = {
        m: float(np.median([r["error"] for r in rows if r["method"] == m]))
        for m in BENCH_METHODS
    }
    assert med["perm+src"] <= med["src"] <= med["kmeans"]


def test_bench_bound_below_error_large_sample():
    # 4 subvectors per column x 26000 columns: N >= 100k samples
    cfg = BenchConfig(seeds=1, rows=8, cols=26000, d=2, k=16, src_iterations=40,
                      perm_iterations=0, generator="isotropic")
    (row,) = [r for r in run_bench(cfg, base_seed=1) if r["method"] == "kmeans"]
    assert row["rd_bound"] <= row["error"] * 1.12


def test_eval_conv_toy_smoke(capsys):
    from pqf.cli import run_eval

    result = run_eval(toy="conv", epochs=4, seed=2)
    assert 0.0 <= result["quantized_acc"] <= 1.0
    assert len(result["trace"].train_loss) == 4


def test_seed_env_fallback(tmp_path, arch_paths, capsys, monkeypatch):
    monkeypatch.setenv("PQF_SEED", "123")
    parser = cli.build_parser()
    args = parser.parse_args(["groups", str(arch_paths / "resnet18.arch")])
    assert args.seed == 123

    monkeypatch.setenv("PQF_SEED", "abc")
    args = cli.build_parser().parse_args(["groups", "x.arch", "--seed", "5"])
    assert args.seed == 5  # --seed wins, so the variable is not read
    source, packed = tmp_path / "toy.pqfn", tmp_path / "toy.pqfc"
    tensor_io.save_checkpoint(make_mlp_checkpoint((8, 16, 8), seed=1), source)
    with pytest.raises(SystemExit) as exc:
        cli.main(["compress", str(source), "--out", str(packed)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "error kind=Usage" in err and "PQF_SEED" in err and "'abc'" in err
    assert not packed.exists()


def _seeded_run(tmp_path, command):
    """A small `command` run whose output file is returned with its argv."""
    out = tmp_path / "out"
    if command == "compress":
        source = tmp_path / "toy.pqfn"
        tensor_io.save_checkpoint(make_mlp_checkpoint((8, 16, 4), seed=1), source)
        argv = ["compress", str(source), "--k", "4", "--k-fc", "4", "--src-iters", "2",
                "--perm-iters", "2"]
    elif command == "eval":
        argv = ["eval", "--epochs", "1"]
    else:
        argv = ["bench", "--seeds", "1", "--src-iters", "2", "--perm-iters", "2"]
    return argv + ["--out", str(out)], out


@pytest.mark.parametrize("command", ["compress", "eval", "bench"])
@pytest.mark.parametrize("via", ["--seed", "PQF_SEED"])
@pytest.mark.parametrize(
    "seed, ok", [(2**63 - 1, True), (-(2**63), True), (2**63, False), (-(2**63) - 1, False)]
)
def test_seed_outside_the_signed_64_bit_range_is_usage_error(
    tmp_path, capsys, monkeypatch, command, via, seed, ok
):
    argv, out = _seeded_run(tmp_path, command)
    if via == "--seed":
        argv += ["--seed", str(seed)]
    else:
        monkeypatch.setenv("PQF_SEED", str(seed))
    if ok:
        assert cli.main(argv) == 0
        assert out.exists()
        return
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "error kind=Usage" in err and f"got {seed}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv", [["decompress", "x.pqfc", "--out", "y"], ["report", "x.arch"], ["groups", "x.arch"]]
)
def test_every_command_checks_the_seed_range(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--seed", str(2**63)])
    assert exc.value.code == 1
    assert "error kind=Usage" in capsys.readouterr().err


def test_no_config_flags_build_the_default_configs(tmp_path, monkeypatch):
    built = {}

    class Built(Exception):
        pass

    def capture(command, position):
        def stop(*args, **kwargs):
            built[command] = args[position]
            raise Built

        return stop

    monkeypatch.setattr(codec, "compress_model", capture("compress", 1))
    monkeypatch.setattr(cli, "run_bench", capture("bench", 0))
    source = tmp_path / "toy.pqfn"
    tensor_io.save_checkpoint(make_mlp_checkpoint((8, 16, 4), seed=1), source)
    for argv in (["compress", str(source), "--out", str(tmp_path / "toy.pqfc")], ["bench"]):
        with pytest.raises(Built):
            cli.main(argv)
    assert built == {"compress": codec.CompressionConfig(), "bench": BenchConfig()}


def test_config_flag_mapping():
    parser = cli.build_parser()
    args = parser.parse_args(
        ["report", "x.arch", "--regime", "large", "--d-pw", "8", "--no-anneal", "--no-perm"]
    )
    cfg = cli._config_from_args(args)
    assert cfg.d_conv_multiplier == 2
    assert cfg.d_pw == 8
    assert cfg.quantizer == "kmeans"
    assert cfg.use_permutation is False
    assert cfg.k == 256 and cfg.k_fc == 2048
    assert cfg.gamma == 0.5 and cfg.src_iterations == 1000 and cfg.perm_iterations == 1000


@pytest.mark.parametrize(
    "command, flags, detail",
    [
        ("report", ["--k", "0"], "--k must be between 1 and 65536, got 0"),
        ("compress", ["--k-fc", "-1"], "--k-fc must be between 1 and 65536, got -1"),
        ("report", ["--k", "65537"], "--k must be between 1 and 65536, got 65537"),
        ("compress", ["--k-fc", "70000"], "--k-fc must be between 1 and 65536, got 70000"),
        ("compress", ["--src-iters", "0"], "--src-iters must be at least 1"),
        ("report", ["--src-iters", "-1", "--no-anneal"], "--src-iters must be at least 1"),
        ("compress", ["--gamma", "0"], "--gamma must be finite and above 0, got 0.0"),
        ("compress", ["--gamma", "-1"], "--gamma must be finite and above 0, got -1.0"),
        ("compress", ["--gamma", "nan"], "--gamma must be finite and above 0, got nan"),
        ("report", ["--gamma", "inf"], "--gamma must be finite and above 0, got inf"),
        ("compress", ["--jobs", "0"], "argument --jobs: must be at least 1, got 0"),
        ("compress", ["--jobs", "-2"], "argument --jobs: must be at least 1, got -2"),
        ("compress", ["--perm-iters", "-1"], "argument --perm-iters: must be at least 0, got -1"),
        ("compress", ["--d-pw", "0"], "argument --d-pw: must be at least 1, got 0"),
    ],
)
def test_out_of_range_config_flag_is_usage_error(
    tmp_path, arch_paths, capsys, command, flags, detail
):
    if command == "compress":
        source = tmp_path / "toy.pqfn"
        tensor_io.save_checkpoint(make_mlp_checkpoint((8, 16, 4), seed=1), source)
        argv = ["compress", str(source), "--out", str(tmp_path / "toy.pqfc"), *flags]
    else:
        argv = ["report", str(arch_paths / "resnet18.arch"), *flags]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "error kind=Usage" in err and detail in err
    assert not (tmp_path / "toy.pqfc").exists()


@pytest.mark.parametrize(
    "argv, detail",
    [
        (["eval", "--k", "0"], "argument --k: must be at least 1, got 0"),
        (["bench", "--k", "0"], "argument --k: must be at least 1, got 0"),
        (["bench", "--src-iters", "0"], "argument --src-iters: must be at least 1, got 0"),
        (["groups", "x.arch", "--jobs", "2"], "unrecognized arguments: --jobs 2"),
        (["bench", "--seeds", "0"], "argument --seeds: must be at least 1, got 0"),
        (["bench", "--perm-iters", "-1"], "argument --perm-iters: must be at least 0, got -1"),
        (["eval", "--d", "0"], "argument --d: must be at least 1, got 0"),
        (["bench", "--d", "0"], "argument --d: must be at least 1, got 0"),
        (["eval", "--epochs", "-1"], "argument --epochs: must be at least 0, got -1"),
        (["bench", "--seeds", "x"], "argument --seeds: invalid int value: 'x'"),
        (["eval", "--lr", "-1"], "argument --lr: must be finite and at least 0, got -1.0"),
        (["eval", "--lr", "nan"], "argument --lr: must be finite and at least 0, got nan"),
        (["eval", "--lr", "inf"], "argument --lr: must be finite and at least 0, got inf"),
        (["eval", "--lr-min", "-0.5"], "argument --lr-min: must be finite and at least 0, got -0.5"),
        (["eval", "--lr-min", "nan"], "argument --lr-min: must be finite and at least 0, got nan"),
        (["eval", "--lr-min", "inf"], "argument --lr-min: must be finite and at least 0, got inf"),
        (["eval", "--lr", "x"], "argument --lr: invalid float value: 'x'"),
        (["eval", "--lr", "0", "--lr-min", "0.5"],
         "--lr-min must be at most --lr, got --lr-min 0.5 above --lr 0.0"),
        (["eval", "--lr-min", "0.01"], "--lr-min must be at most --lr, got --lr-min 0.01 above --lr 0.001"),
        (["bench", "--rows", "-4"], "argument --rows: must be at least 1, got -4"),
        (["bench", "--rows", "0"], "argument --rows: must be at least 1, got 0"),
        (["bench", "--cols", "-3"], "argument --cols: must be at least 1, got -3"),
        (["bench", "--cols", "0"], "argument --cols: must be at least 1, got 0"),
        (["bench", "--rows", "33"], "--rows must be even for the anisotropic generator, got 33"),
        (["bench", "--rows", "1"], "--rows must be even for the anisotropic generator, got 1"),
        (["bench", "--rows", "6", "--d", "4"], "--rows must be a multiple of --d, got --rows 6 and --d 4"),
        (["bench", "--generator", "isotropic", "--rows", "5", "--d", "2"],
         "--rows must be a multiple of --d, got --rows 5 and --d 2"),
        (["bench", "--rows", "8", "--cols", "1", "--d", "8", "--generator", "isotropic"],
         "the matrix must hold at least 2 subvectors (--rows / --d x --cols), got 1"),
    ],
)
def test_out_of_range_eval_or_bench_flag_is_usage_error(capsys, argv, detail):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert "error kind=Usage" in err and detail in err
    assert out == ""  # no work ran


@pytest.mark.parametrize("command", ["compress", "decompress", "report", "groups", "eval", "bench"])
def test_unwritable_manifest_is_data_error(tmp_path, arch_paths, capsys, command):
    ckpt_path, packed = _compressed_toy(tmp_path)
    arch = str(arch_paths / "resnet18.arch")
    argv = {
        "compress": ["compress", str(ckpt_path), "--out", str(tmp_path / "again.pqfc"),
                     "--k", "4", "--k-fc", "4", "--src-iters", "1", "--perm-iters", "0"],
        "decompress": ["decompress", str(packed), "--out", str(tmp_path / "back.pqfn")],
        "report": ["report", arch],
        "groups": ["groups", arch],
        "eval": ["eval", "--epochs", "1"],
        "bench": ["bench", "--seeds", "1", "--rows", "8", "--cols", "16", "--src-iters", "1",
                  "--perm-iters", "0"],
    }[command]
    capsys.readouterr()
    assert cli.main([*argv, "--manifest", str(tmp_path / "missing" / "run.json")]) == 2
    err = capsys.readouterr().err
    assert "error kind=IoFailure" in err and "Traceback" not in err


def test_config_flags_at_their_limits_run(tmp_path, arch_paths, capsys):
    arch = str(arch_paths / "resnet18.arch")
    assert cli.main(["report", arch, "--k", "1", "--k-fc", "65536"]) == 0
    source, packed = tmp_path / "toy.pqfn", tmp_path / "toy.pqfc"
    tensor_io.save_checkpoint(make_mlp_checkpoint((8, 16, 4), seed=1), source)
    argv = ["compress", str(source), "--out", str(packed), "--no-anneal", "--src-iters", "0"]
    assert cli.main(argv) == 0
    assert cli.main(["eval", "--epochs", "1", "--lr", "0", "--lr-min", "0"]) == 0


def _zero_bit_toy(tmp_path):
    """The toy MLP compressed with `--k 1`, so every code is 0 bits wide."""
    source, packed = tmp_path / "toy.pqfn", tmp_path / "toy.pqfc"
    tensor_io.save_checkpoint(make_mlp_checkpoint((8, 16, 4), seed=1), source)
    argv = ["compress", str(source), "--out", str(packed), "--k", "1", "--k-fc", "1",
            "--src-iters", "2", "--perm-iters", "5"]
    assert cli.main(argv) == 0
    return packed


def _zero_bit_entry_of_a_trillion_columns(tmp_path):
    """A well-formed `--k 1` file whose fc1 entry claims 10**12 output columns of 0-bit codes.

    Its 16-value fc1 bias could not match that layer, so the file drops it;
    the bias was zero, so its bytes are zero padding.
    """
    packed = _zero_bit_toy(tmp_path)
    _edit_manifest(packed, "layers", "fc1", c_out=10**12)
    _rewrite_manifest(packed, lambda m: m["entries"].remove(
        next(o for o in m["entries"] if o["name"] == "fc1.bias")))
    return packed, "entry 'fc1': 2 x 1000000000000 codes do not fit in memory"


def test_a_raw_record_that_disagrees_with_its_declared_layer_is_malformed(tmp_path):
    source, packed = tmp_path / "toy.pqfn", tmp_path / "toy.pqfc"
    tensor_io.save_checkpoint(make_mlp_checkpoint((8, 16, 16, 4), seed=1), source)
    argv = ["compress", str(source), "--out", str(packed), "--k", "1", "--k-fc", "1", "--no-perm"]
    assert cli.main(argv) == 0
    model = tensor_io.load_compressed(packed)
    # the 0-bit codes of the encoded fc2 fit any geometry; its raw bias does not
    tensor_io.save_compressed(model, tmp_path / "again.pqfc")
    model.layers[[m.name for m in model.layers].index("fc2")].c_out = 8
    out = tmp_path / "bad.pqfc"
    want = r"layer 'fc2' bias has shape \(16,\), expected \(8,\)"
    with pytest.raises(MalformedFile, match=want):
        tensor_io.save_compressed(model, out)
    assert not out.exists()
    _edit_manifest(packed, "layers", "fc2", c_out=8)
    with pytest.raises(MalformedFile, match=want):
        tensor_io.load_compressed(packed)


def _zero_bit_entry_of_a_trillion_input_rows(tmp_path):
    """A well-formed `--k 1` file whose fc1 entry claims 10**12 input rows of 0-bit codes."""
    packed = _zero_bit_toy(tmp_path)
    _edit_manifest(packed, "layers", "fc1", c_in=10**12)
    return packed, "entry 'fc1': 250000000000 x 16 codes do not fit in memory"


def _entry_decoding_to_four_gigabytes(tmp_path):
    """A 6 MB file whose one entry decodes to 10**9 float32 values."""
    rows, cols = 10**6, 1000
    layer = tensor_io.LayerMeta("wide", "fc", 1, rows, cols)
    entry = tensor_io.EncodedEntry(layer, rows, 1, np.zeros((1, rows), dtype="<f2"), b"")
    packed = tmp_path / "wide.pqfc"
    tensor_io.save_compressed(declared_model([entry]), packed)
    return packed, "tensor 'wide.weight': 1000000000 values do not fit in memory"


def _run_pqf_in_two_gigabytes(*argv) -> subprocess.CompletedProcess:
    """`pqf argv` in a child with one BLAS thread whose address space is capped at 2 GiB."""
    import resource

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src_dir = str(Path(pqf.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    limit = 2 << 30  # the child's address space only, so the allocation fails, not the host
    return subprocess.run(
        [sys.executable, "-m", "pqf.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


@pytest.mark.parametrize("make", [_zero_bit_entry_of_a_trillion_columns,
                                  _zero_bit_entry_of_a_trillion_input_rows,
                                  _entry_decoding_to_four_gigabytes])
def test_decompress_of_an_entry_too_large_for_memory_is_data_error(tmp_path, make):
    packed, detail = make(tmp_path)
    back_path = tmp_path / "back.pqfn"
    proc = _run_pqf_in_two_gigabytes("decompress", str(packed), "--out", str(back_path))
    assert proc.returncode == 2, proc.stderr
    assert "error kind=TensorTooLarge" in proc.stderr and detail in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not back_path.exists()


def test_running_out_of_memory_in_any_command_is_data_error(tmp_path):
    # a 10**6 x 10**6 float64 weight matrix needs 7.3 TiB
    out = tmp_path / "bench.csv"
    proc = _run_pqf_in_two_gigabytes(
        "bench", "--rows", "1000000", "--cols", "1000000", "--seeds", "1", "--out", str(out)
    )
    assert proc.returncode == 2, proc.stderr
    assert "error kind=TensorTooLarge" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def _drop_group(manifest):
    (fc1,) = [o for o in manifest["entries"] if o["name"] == "fc1"]
    del fc1["group"]


@pytest.mark.parametrize(
    "edit, detail",
    [
        (_drop_group, "entry 'fc1': field 'group' is missing or not int or null"),
        (lambda m: m.update(entries=5), "manifest field 'entries' is not a list of objects"),
    ],
)
def test_decompress_hostile_entry_field_is_data_error(tmp_path, capsys, edit, detail):
    _, packed = _compressed_toy(tmp_path)
    _rewrite_manifest(packed, edit)
    back_path = tmp_path / "back.pqfn"
    capsys.readouterr()
    assert cli.main(["decompress", str(packed), "--out", str(back_path)]) == 2
    err = capsys.readouterr().err
    assert "error kind=MalformedFile" in err and detail in err
    assert not back_path.exists()


@pytest.mark.parametrize(
    "container, dropped",
    [
        ("pqfc", ("edges",)),
        ("pqfc", ("layers",)),
        ("pqfc", ("entries",)),
        ("pqfn", ("tensors",)),
        ("pqfn", ("edges",)),
        ("pqfn", ("layers",)),
    ],
)
def test_container_missing_a_manifest_array_is_data_error(tmp_path, capsys, container, dropped):
    ckpt_path, packed = _compressed_toy(tmp_path)
    out_path = tmp_path / "out.bin"
    path = ckpt_path if container == "pqfn" else packed
    _rewrite_manifest(path, lambda m: [m.pop(key) for key in dropped])
    command = "compress" if container == "pqfn" else "decompress"
    capsys.readouterr()
    assert cli.main([command, str(path), "--out", str(out_path)]) == 2
    detail = f"manifest field {dropped[0]!r} is missing"
    assert f'error kind=MalformedFile detail="{detail}"' in capsys.readouterr().err
    assert not out_path.exists()
