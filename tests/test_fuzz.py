"""Seeded mutants of both containers: `pqf decompress` of a `.pqfc`, and `pqf compress` and
`pqf report` of a `.pqfn`, exit 0 or 2 and never raise; a `.pqfc` bit flip anywhere that
does not recompute the checksum always exits 2; each fault of the shared framing is a
`MalformedFile` that names it."""

import json

import numpy as np
import pytest

from helpers import edit_container, join_container, split_container
from pqf import cli, tensor_io
from pqf.finetune import make_mlp_checkpoint
from pqf.rng import make_rng

_RETYPED = ("7", 7.5, True, [1], {"x": 1})


def _field_paths(node, path=()):
    """Every dict key path in a JSON tree, at any depth."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield (*path, key)
            yield from _field_paths(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _field_paths(value, (*path, i))


def _flip(payload: bytes, start: int, size: int, rng) -> bytes:
    """`payload` with 1-3 random bits flipped among its `size` bytes from `start`."""
    flipped = bytearray(payload)
    for bit in rng.integers(0, 8 * size, size=int(rng.integers(1, 4))):
        flipped[start + bit // 8] ^= 1 << int(bit % 8)
    return bytes(flipped)


def _mutants(raw: bytes, count: int, seed: int, tag: str):
    """`count` mutants: a manifest field deleted, nulled or retyped, or 1-3 payload bits flipped.

    A flip lands anywhere in the payload or, as often, inside one entry's
    packed codes or one group's permutation: they are too small a share of
    the payload for flips spread over all of it to reach them reliably. A
    `.pqfc` mutant recomputes the checksum, so that it reaches the checks
    behind it.
    """
    rng = make_rng(seed, tag)
    manifest, payload = split_container(raw)
    paths = list(_field_paths(manifest))
    layers = {o["name"]: o for o in manifest.get("layers", [])}
    spans = [(0, len(payload))]
    for e in manifest.get("entries", []):
        if "codes_offset" in e:  # an encoded entry: its layer's C_in*K*K*C_out / d codes
            layer = layers[e["name"]]
            codes = layer["c_in"] * layer["kernel_size"] ** 2 * layer["c_out"] // e["d"]
            spans.append((e["codes_offset"], (codes * tensor_io.code_width(e["k_eff"]) + 7) // 8))
    spans += [(g["offset"], (g["units"] * tensor_io.code_width(g["units"]) + 7) // 8)
              for g in manifest.get("groups", [])]
    for _ in range(count):
        if rng.random() < 0.25:
            start, size = spans[int(rng.integers(len(spans)))]
            yield "flip", join_container(raw, manifest, _flip(payload, start, size, rng), reseal=True)
            continue
        edited = json.loads(json.dumps(manifest))
        path = paths[int(rng.integers(len(paths)))]
        parent = edited
        for key in path[:-1]:
            parent = parent[key]
        action = ("delete", "null", "retype")[int(rng.integers(3))]
        if action == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = None if action == "null" else _RETYPED[int(rng.integers(len(_RETYPED)))]
        yield f"{action} {path}", join_container(raw, edited, payload, reseal=True)


def _compressed_toy(tmp_path) -> bytes:
    source, packed = tmp_path / "toy.pqfn", tmp_path / "toy.pqfc"
    tensor_io.save_checkpoint(make_mlp_checkpoint((8, 16, 4), seed=2), source)
    # fc1 gets 5 centroids (3-bit codes that the width does not bound), fc2 gets 4
    argv = ["compress", str(source), "--out", str(packed), "--k", "5", "--k-fc", "5",
            "--src-iters", "3", "--perm-iters", "5"]
    assert cli.main(argv) == 0
    model = tensor_io.load_compressed(packed)
    assert sorted(e.k_eff for e in model.entries if isinstance(e, tensor_io.EncodedEntry)) == [4, 5]
    assert len(model.groups) == 1
    return packed.read_bytes()


def test_decompress_of_pqfc_mutants_exits_0_or_2_and_leaves_no_file_on_2(
    tmp_path, capsys, monkeypatch
):
    raw = _compressed_toy(tmp_path)
    mutant, out = tmp_path / "mutant.pqfc", tmp_path / "out.pqfn"
    opened = []
    write_file = tensor_io._write_file
    monkeypatch.setattr(tensor_io, "_write_file", lambda *a: opened.append(a[0]) or write_file(*a))
    exits = []
    for what, data in _mutants(raw, 400, seed=11, tag="pqfc-fuzz"):
        mutant.write_bytes(data)
        opened.clear()
        capsys.readouterr()
        code = cli.main(["decompress", str(mutant), "--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 2), what
        if code == 2:
            # every check runs before the output file opens
            assert "error kind=" in err and not opened and not out.exists(), what
        out.unlink(missing_ok=True)
        exits.append(code)
    assert exits.count(0) and exits.count(2) > len(exits) // 2


def test_compress_and_report_of_pqfn_mutants_exit_0_or_2_and_leave_no_file_on_2(tmp_path, capsys):
    source = tmp_path / "toy.pqfn"
    tensor_io.save_checkpoint(make_mlp_checkpoint((8, 16, 4), seed=2), source)
    raw = source.read_bytes()
    mutant, out = tmp_path / "mutant.pqfn", tmp_path / "out.pqfc"
    compress = ["compress", str(mutant), "--out", str(out), "--k", "5", "--k-fc", "5",
                "--src-iters", "3", "--perm-iters", "5"]
    exits = []
    for what, data in _mutants(raw, 400, seed=12, tag="pqfn-fuzz"):
        mutant.write_bytes(data)
        for argv in (compress, ["report", str(mutant)]):
            capsys.readouterr()
            code = cli.main(argv)
            err = capsys.readouterr().err
            assert code in (0, 2), (argv[0], what)
            if code == 2:
                assert "error kind=" in err and not out.exists(), (argv[0], what)
            out.unlink(missing_ok=True)
            exits.append(code)
    assert exits.count(0) and exits.count(2) > len(exits) // 2


def test_decompress_of_a_bit_flip_anywhere_is_a_malformed_file(tmp_path, capsys):
    # the checksum covers every byte after the magic and version, itself included
    raw = _compressed_toy(tmp_path)
    assert len(raw) < 11_000  # CRC-32 catches every 1-3 bit error in a file this short
    rng = make_rng(13, "pqfc-flips")
    mutant, out = tmp_path / "mutant.pqfc", tmp_path / "out.pqfn"
    for i in range(200):
        flipped = _flip(raw, 0, len(raw), rng)
        mutant.write_bytes(flipped)
        capsys.readouterr()
        assert cli.main(["decompress", str(mutant), "--out", str(out)]) == 2, i
        err = capsys.readouterr().err
        assert "error kind=MalformedFile" in err, i
        first = int(np.flatnonzero(np.frombuffer(raw, "u1") != np.frombuffer(flipped, "u1"))[0])
        assert first < 8 or "checksum mismatch" in err, i
        assert not out.exists(), i


def _set_version(path, version: int):
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + version.to_bytes(4, "little") + raw[8:])


def _unpad(path):
    """Put a 1 in the zero padding that follows the manifest."""
    raw = path.read_bytes()
    end = 16 + int.from_bytes(raw[8:16], "little")
    assert end % 64
    path.write_bytes(raw[:end] + b"\1" + raw[end + 1 :])


def _soil(path, at: int):
    """Put 0xff at payload byte `at`, in the zero bytes after a section (a `.pqfc` is resealed)."""
    edit_container(path, edit_payload=lambda manifest, payload: payload.__setitem__(at, 0xFF))


def _soiled_gap_checkpoint(path):
    """A checkpoint whose 96-byte `fc1.weight` leaves a gap before `fc1.bias`, 0xff in the gap."""
    tensor_io.save_checkpoint(make_mlp_checkpoint((8, 3, 4), seed=2), path)
    _soil(path, 96)


def _share_offset(entries: str, i: int, key: str):
    """Give entry `i + 1` of `entries` the offset `key` of entry `i`."""
    return lambda m: m[entries][i + 1].update(offset=m[entries][i][key])


# (container, how the file is broken in place, what the error detail says)
_FRAMING_FAULTS = {
    "pqfn-offset": ("pqfn", lambda path: edit_container(path, lambda m: m["tensors"][1].update(offset=516)),
                    "tensor 'fc1.bias' starts at payload offset 516, not a multiple of 64"),
    "pqfn-padding": ("pqfn", _unpad, "the padding after the manifest is truncated or not zero"),
    "pqfn-v1": ("pqfn", lambda path: _set_version(path, 1),
                "unsupported PQFN format version 1; this build reads version 2"),
    "pqfn-gap": ("pqfn", _soiled_gap_checkpoint,
                 "the padding between tensor 'fc1.weight' and tensor 'fc1.bias' is not zero"),
    "pqfn-shared-offset": ("pqfn", lambda path: edit_container(path, _share_offset("tensors", 0, "offset")),
                           "tensor 'fc1.weight' overlaps tensor 'fc1.bias'"),
    # the 16-unit group permutation of `fc2` is 8 bytes, then zeros up to `fc1`'s codebook
    "pqfc-gap": ("pqfc", lambda path: _soil(path, 8), "the padding between group 0 and entry 'fc1' is not zero"),
    "pqfc-shared-offset": ("pqfc", lambda path: edit_container(path, _share_offset("entries", 0, "codes_offset")),
                           "tensor 'fc1.bias' overlaps entry 'fc1'"),
    # a tensor entry without its shape reads as an encoding, which must hold `d`
    "pqfc-neither": ("pqfc", lambda path: edit_container(path, lambda m: m["entries"][1].pop("shape")),
                     "entry 'fc1.bias': field 'd' is missing or not int"),
}


@pytest.mark.parametrize("fault", sorted(_FRAMING_FAULTS))
def test_each_framing_fault_is_a_malformed_file_that_names_it(tmp_path, capsys, fault):
    container, breaks, detail = _FRAMING_FAULTS[fault]
    source, packed = tmp_path / "toy.pqfn", tmp_path / "toy.pqfc"
    tensor_io.save_checkpoint(make_mlp_checkpoint((8, 16, 4), seed=2), source)
    assert cli.main(["compress", str(source), "--out", str(packed), "--k", "5", "--k-fc", "5",
                     "--src-iters", "3", "--perm-iters", "5"]) == 0
    broken, out = tmp_path / f"broken.{container}", tmp_path / "out"
    broken.write_bytes((source if container == "pqfn" else packed).read_bytes())
    breaks(broken)
    commands = ([["compress", str(broken), "--out", str(out)], ["report", str(broken)]]
                if container == "pqfn" else [["decompress", str(broken), "--out", str(out)]])
    for argv in commands:
        capsys.readouterr()
        assert cli.main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert "error kind=MalformedFile" in err and detail in err, argv[0]
        assert not out.exists()
