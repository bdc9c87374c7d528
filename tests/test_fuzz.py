"""Seeded mutants of both containers: `pqf decompress` of a `.pqfc`, and `pqf compress` and
`pqf report` of a `.pqfn`, exit 0 or 2 and never raise."""

import json

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


def _split(raw: bytes):
    mlen = int.from_bytes(raw[8:16], "little")
    return json.loads(raw[16 : 16 + mlen]), raw[16 + mlen :]


def _join(raw: bytes, manifest, payload: bytes) -> bytes:
    blob = json.dumps(manifest).encode()
    return raw[:8] + len(blob).to_bytes(8, "little") + blob + payload


def _mutants(raw: bytes, count: int, seed: int, tag: str):
    """`count` mutants: a manifest field deleted, nulled or retyped, or 1-3 payload bits flipped.

    A flip lands anywhere in the payload or, as often, inside one entry's
    packed codes: they are too small a share of the payload for flips spread
    over all of it to reach them reliably.
    """
    rng = make_rng(seed, tag)
    manifest, payload = _split(raw)
    paths = list(_field_paths(manifest))
    spans = [(0, len(payload))] + [
        (e["codes_offset"], e["codes_nbytes"])
        for e in manifest.get("entries", []) if e["type"] == "encoded"
    ]
    for _ in range(count):
        if rng.random() < 0.25:
            start, size = spans[int(rng.integers(len(spans)))]
            flipped = bytearray(payload)
            for bit in rng.integers(0, 8 * size, size=int(rng.integers(1, 4))):
                flipped[start + bit // 8] ^= 1 << int(bit % 8)
            yield "flip", _join(raw, manifest, bytes(flipped))
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
        yield f"{action} {path}", _join(raw, edited, payload)


def test_decompress_of_pqfc_mutants_exits_0_or_2_and_leaves_no_file_on_2(
    tmp_path, capsys, monkeypatch
):
    source, packed = tmp_path / "toy.pqfn", tmp_path / "toy.pqfc"
    tensor_io.save_checkpoint(make_mlp_checkpoint((8, 16, 4), seed=2), source)
    # fc1 gets 5 centroids (3-bit codes that the width does not bound), fc2 gets 4
    argv = ["compress", str(source), "--out", str(packed), "--k", "5", "--k-fc", "5",
            "--src-iters", "3", "--perm-iters", "5"]
    assert cli.main(argv) == 0
    assert sorted(e.k_eff for e in tensor_io.load_compressed(packed).entries
                  if isinstance(e, tensor_io.EncodedEntry)) == [4, 5]
    raw = packed.read_bytes()
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
