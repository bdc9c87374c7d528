import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    compressed_models_equal,
    declared_model,
    edit_container,
    join_container,
    records_equal,
    resealed,
    split_container,
)
from pqf import tensor_io
from pqf.errors import DanglingEdge, DuplicateTensorName, MalformedFile
from pqf.rng import make_rng
from pqf.tensor_io import (
    CompressedModel,
    EncodedEntry,
    LayerMeta,
    ModelCheckpoint,
    code_width,
    load_checkpoint,
    load_compressed,
    pack_codes,
    parse_arch_spec,
    save_checkpoint,
    save_compressed,
    tensor_record,
    unpack_codes,
)


def _mini_checkpoint():
    layers = [
        LayerMeta("input", "input", 1, 4, 4),
        LayerMeta("fc1", "fc", 1, 4, 3),
        LayerMeta("output", "output", 1, 3, 3),
    ]
    edges = [("input", "fc1"), ("fc1", "output")]
    tensors = [
        tensor_record("fc1.weight", np.arange(12, dtype=np.float64).reshape(4, 3)),
        tensor_record("fc1.bias", np.array([0.5, -0.5, 0.25])),
    ]
    return ModelCheckpoint(tensors=tensors, layers=layers, edges=edges)


@pytest.mark.parametrize("dtype", ["f16", "u8", "u16"])
def test_records_are_float32_only(tmp_path, dtype):
    # a file stores no dtype: every tensor is float32, so a record of another is not written
    path = tmp_path / "mini.pqfn"
    ckpt = _mini_checkpoint()
    rec = ckpt.tensors[1]
    rec.data = rec.data.astype({"f16": np.float16, "u8": np.uint8, "u16": np.uint16}[dtype])
    with pytest.raises(MalformedFile, match="'fc1.bias' storage dtype mismatch"):
        save_checkpoint(ckpt, path)
    assert not path.exists()
    rec.data = rec.data.astype(np.float32)
    save_checkpoint(ckpt, path)
    assert {t.data.dtype for t in load_checkpoint(path).tensors} == {np.dtype("<f4")}


def test_checkpoint_round_trip(tmp_path):
    path = tmp_path / "mini.pqfn"
    ckpt = _mini_checkpoint()
    nbytes = save_checkpoint(ckpt, path)
    assert nbytes == path.stat().st_size
    loaded = load_checkpoint(path)
    assert [rec.name for rec in loaded.tensors] == ["fc1.weight", "fc1.bias"]
    for a, b in zip(ckpt.tensors, loaded.tensors):
        assert records_equal(a, b)
    assert [(m.name, m.kind) for m in loaded.layers] == [(m.name, m.kind) for m in ckpt.layers]
    assert loaded.edges == ckpt.edges


def _owner(array):
    """The object whose buffer `array` views, through any chain of numpy views."""
    while isinstance(array, np.ndarray):
        array = array.base
    return array.obj if isinstance(array, memoryview) else array


def test_loaded_tensors_are_writable_views_of_one_buffer(tmp_path):
    path = tmp_path / "mini.pqfn"
    save_checkpoint(_mini_checkpoint(), path)
    weight, bias = (rec.data for rec in load_checkpoint(path).tensors)
    assert weight.flags.writeable and bias.flags.writeable
    assert isinstance(_owner(weight), bytearray) and _owner(weight) is _owner(bias)
    weight[0, 0] = 7.0  # a write reaches only its own tensor
    assert bias.tolist() == [0.5, -0.5, 0.25]
    save_compressed(_grouped_model(), tmp_path / "model.pqfc")
    raw, wide, filters = load_compressed(tmp_path / "model.pqfc").entries
    assert raw.data.flags.writeable and wide.codebook.flags.writeable
    assert isinstance(_owner(raw.data), bytearray)
    assert _owner(raw.data) is _owner(wide.codebook) is _owner(filters.codebook) is wide.packed.obj


def test_a_checkpoint_read_from_a_pipe_loads(tmp_path):
    # a pipe's size is not known before it is read
    path, fifo = tmp_path / "mini.pqfn", tmp_path / "fifo"
    save_checkpoint(_mini_checkpoint(), path)
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),))
    writer.start()
    loaded = load_checkpoint(fifo)
    writer.join()
    assert all(map(records_equal, loaded.tensors, _mini_checkpoint().tensors))


def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.pqfn", tmp_path / "b.pqfn"
    save_checkpoint(_mini_checkpoint(), p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_truncated_file_is_malformed(tmp_path):
    path = tmp_path / "mini.pqfn"
    save_checkpoint(_mini_checkpoint(), path)
    raw = path.read_bytes()
    clipped = tmp_path / "clipped.pqfn"
    clipped.write_bytes(raw[: len(raw) - 5])
    with pytest.raises(MalformedFile):
        load_checkpoint(clipped)


def test_bad_magic_is_malformed(tmp_path):
    path = tmp_path / "bad.pqfn"
    path.write_bytes(b"NOPE" + bytes(32))
    with pytest.raises(MalformedFile):
        load_checkpoint(path)


def test_duplicate_tensor_name_rejected():
    ckpt = _mini_checkpoint()
    ckpt.tensors.append(tensor_record("fc1.weight", np.zeros((4, 3))))
    with pytest.raises(DuplicateTensorName):
        ckpt.validate()


def test_dangling_edge_rejected():
    ckpt = _mini_checkpoint()
    ckpt.edges.append(("fc1", "x"))
    with pytest.raises(DanglingEdge):
        ckpt.validate()


def test_cycle_rejected():
    ckpt = _mini_checkpoint()
    ckpt.layers.insert(2, LayerMeta("relu1", "relu", 1, 3, 3))
    ckpt.edges.append(("fc1", "relu1"))
    ckpt.edges.append(("relu1", "fc1"))
    with pytest.raises(MalformedFile):
        ckpt.validate()


def test_arch_spec_parse_and_errors():
    ckpt = parse_arch_spec(
        """
        input input 1 2 2
        fc1 fc 1 2 3   # classifier
        output output 1 3 3
        edge input fc1
        edge fc1 output
        """
    )
    assert [m.kind for m in ckpt.layers] == ["input", "fc", "output"]
    with pytest.raises(MalformedFile):
        parse_arch_spec("a whatkind 1 2 2")
    with pytest.raises(DanglingEdge):
        parse_arch_spec("input input 1 2 2\noutput output 1 2 2\nedge input missing")


# ---------------------------------------------------------------------------
# Bit packing
# ---------------------------------------------------------------------------

def _pack_oracle(values, bits):
    """Straight-line bit packer: bit j of the stream is byte j//8, bit j%8."""
    total = len(values) * bits
    out = bytearray((total + 7) // 8)
    pos = 0
    for v in values:
        for b in range(bits):
            if (int(v) >> b) & 1:
                out[pos >> 3] |= 1 << (pos & 7)
            pos += 1
    return bytes(out)


@pytest.mark.parametrize("k_eff", [2, 3, 5, 8, 17, 256, 1000, 2048, 4096])
def test_pack_matches_bitwise_oracle(k_eff):
    rng = make_rng(99, "pack", str(k_eff))
    bits = code_width(k_eff)
    values = rng.integers(0, k_eff, size=157)
    packed = pack_codes(values, bits)
    assert packed == _pack_oracle(values, bits)
    assert np.array_equal(unpack_codes(packed, bits, len(values)), values)


def test_pack_unpack_all_widths():
    rng = make_rng(7, "pack-all")
    for k_eff in range(2, 4097, 61):
        bits = code_width(k_eff)
        values = rng.integers(0, k_eff, size=97)
        assert np.array_equal(unpack_codes(pack_codes(values, bits), bits, 97), values)


def test_eleven_bit_section_size():
    # 2048 centroids need 11 bits per code
    values = np.arange(64) % 2048
    packed = pack_codes(values, code_width(2048))
    assert len(packed) == (64 * 11 + 7) // 8
    assert np.array_equal(unpack_codes(packed, 11, 64), values)


# ---------------------------------------------------------------------------
# Compressed container
# ---------------------------------------------------------------------------

def _encoded_entry(name, k_eff, d, m_hat, n, seed=0):
    """An entry of random codes on a conv layer: 3x3 when `d` holds whole filters, else 1x1."""
    rng = make_rng(seed, "entry", name)
    k = 3 if d % 9 == 0 else 1
    return EncodedEntry(
        LayerMeta(name, "conv", k, m_hat * d // k**2, n),
        d,
        k_eff,
        codebook=rng.standard_normal((k_eff, d)).astype("<f2"),
        packed=pack_codes(rng.integers(0, k_eff, size=(m_hat, n)), code_width(k_eff)),
    )


def test_empty_model_is_header_padding_and_checksum_only(tmp_path):
    path = tmp_path / "empty.pqfc"
    nbytes = save_compressed(CompressedModel(), path)
    raw = path.read_bytes()
    assert nbytes == len(raw)
    end = 16 + int.from_bytes(raw[8:16], "little")
    assert nbytes == -(-end // 64) * 64 + 4 and raw[end:-4] == bytes(nbytes - 4 - end)  # no payload
    assert load_compressed(path).entries == []


def test_codes_section_is_4096_bytes_for_byte_wide_codes(tmp_path):
    # 64*64 codes at 8 bits each occupy exactly 4096 payload bytes
    entry = _encoded_entry("layer", k_eff=256, d=9, m_hat=64, n=64)
    path = tmp_path / "one.pqfc"
    save_compressed(declared_model([entry]), path)
    assert len(load_compressed(path).entries[0].packed) == 4096


def _grouped_model():
    """A raw tensor and two encoded entries, one of them in a stored group of 16 units."""
    wide = _encoded_entry("wide", k_eff=2048, d=4, m_hat=16, n=33, seed=3)
    wide.group = 0
    entries = [
        tensor_record("bn.weight", np.linspace(0, 1, 8)),
        wide,
        _encoded_entry("filters", k_eff=256, d=9, m_hat=8, n=10, seed=4),
    ]
    return declared_model(entries, groups=[make_rng(5, "units").permutation(16)])


def test_compressed_round_trip_k2048(tmp_path):
    model = _grouped_model()
    path = tmp_path / "model.pqfc"
    nbytes = save_compressed(model, path)
    assert nbytes == path.stat().st_size
    loaded = load_compressed(path)
    assert compressed_models_equal(model, loaded)
    # bit-exact container: re-serializing the loaded model reproduces the bytes
    path2 = tmp_path / "again.pqfc"
    save_compressed(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def _unpack_oracle(buf, bits, count):
    """The per-bit unpacker `unpack_codes` replaced: unpackbits, pad to 16, packbits."""
    if bits == 0 or count == 0:
        return np.zeros(count, dtype=np.int64)
    stream = np.unpackbits(np.frombuffer(buf, dtype="u1"), bitorder="little")
    rows = stream[: count * bits].reshape(count, bits)
    padded = np.zeros((count, 16), dtype="u1")
    padded[:, :bits] = rows
    packed = np.packbits(padded, axis=1, bitorder="little")
    return packed.view("<u2").ravel().astype(np.int64)


@pytest.mark.parametrize("bits", range(1, 17))
def test_unpack_matches_the_per_bit_oracle_for_every_width(bits):
    rng = make_rng(101, "unpack", str(bits))
    for count in [*range(18), 100_003]:
        values = rng.integers(0, 1 << bits, size=count)
        if count:
            values[0], values[-1] = (1 << bits) - 1, 0  # all-ones code at a group start
        packed = pack_codes(values, bits)
        got = unpack_codes(packed, bits, count)
        assert got.dtype == np.int64
        assert np.array_equal(got, _unpack_oracle(packed, bits, count)), (bits, count)
        assert np.array_equal(got, values), (bits, count)
        # a memoryview section, as `load_compressed` passes it, unpacks the same
        assert np.array_equal(unpack_codes(memoryview(packed), bits, count), values)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_unpack_round_trips_with_and_without_a_buffer(data):
    bits = data.draw(st.integers(0, 16), label="bits")
    values = data.draw(st.lists(st.integers(0, (1 << bits) - 1), max_size=70), label="values")
    spare = data.draw(st.integers(0, 9), label="spare")
    count = len(values)
    packed = pack_codes(np.array(values, dtype=np.int64), bits)
    got = unpack_codes(packed, bits, count)
    assert got.dtype == np.int64 and got.tolist() == values
    buf = np.full(count + spare, -7, dtype=np.int64)
    into = unpack_codes(packed, bits, count, buf)
    assert into.tolist() == values
    assert into.base is buf or count == 0  # a view of the buffer's leading elements
    assert buf[count:].tolist() == [-7] * spare


@pytest.mark.parametrize("buf", [np.zeros(7, np.int64), np.zeros(8, np.int32), np.zeros((8, 1), np.int64)])
def test_unpack_rejects_a_buffer_that_cannot_hold_the_codes(buf):
    with pytest.raises(ValueError):
        unpack_codes(pack_codes(np.arange(8), 3), 3, 8, buf)


@pytest.mark.parametrize("bits", [-1, 17, 32])
def test_unpack_rejects_a_width_the_container_never_stores(bits):
    with pytest.raises(MalformedFile, match="code width"):
        unpack_codes(bytes(64), bits, 8)


def test_unpack_rejects_a_section_of_the_wrong_length():
    with pytest.raises(MalformedFile, match="expected 11"):
        unpack_codes(bytes(12), 11, 8)


def test_save_returns_the_bytes_written_and_reports_os_errors(tmp_path):
    from pqf.errors import IoFailure

    ckpt = _mini_checkpoint()
    ckpt.tensors.append(tensor_record("empty", np.zeros((0, 3))))
    path = tmp_path / "mini.pqfn"
    assert save_checkpoint(ckpt, path) == path.stat().st_size
    assert records_equal(load_checkpoint(path).tensor("empty"), ckpt.tensor("empty"))
    with pytest.raises(IoFailure):
        save_checkpoint(ckpt, tmp_path / "missing" / "dir" / "x.pqfn")
    with pytest.raises(IoFailure):
        save_compressed(CompressedModel(), tmp_path / "missing" / "x.pqfc")


def test_declared_records_are_produced_in_file_order_and_checked(tmp_path):
    ckpt = _mini_checkpoint()
    whole = tmp_path / "whole.pqfn"
    nbytes = save_checkpoint(ckpt, whole)
    arrays = {rec.name: rec.data for rec in ckpt.tensors}
    declared = _mini_checkpoint()
    for rec in declared.tensors:
        rec.data = None
    asked = []

    def produce(rec):
        asked.append(rec.name)
        return arrays[rec.name]

    path = tmp_path / "declared.pqfn"
    assert save_checkpoint(declared, path, produce) == nbytes
    assert asked == ["fc1.weight", "fc1.bias"]
    assert path.read_bytes() == whole.read_bytes()
    # a produced array is checked against its record, and the partial file removed
    arrays["fc1.bias"] = arrays["fc1.bias"][:2]
    with pytest.raises(MalformedFile, match="'fc1.bias' shape mismatch"):
        save_checkpoint(declared, path, produce)
    assert not path.exists()


def _saved_entry(tmp_path):
    entry = _encoded_entry("layer", k_eff=16, d=4, m_hat=4, n=5, seed=6)
    path = tmp_path / "one.pqfc"
    save_compressed(declared_model([entry]), path)
    return path


_ENCODED_KEYS = ("name", "d", "k_eff", "group", "codebook_offset", "codes_offset")


def test_an_encoded_entry_stores_its_six_keys_and_the_manifest_no_checksum(tmp_path):
    manifest, _ = split_container(_saved_entry(tmp_path).read_bytes())
    assert sorted(manifest) == ["edges", "entries", "groups", "layers"]
    assert sorted(manifest["entries"][0]) == sorted(_ENCODED_KEYS)


@pytest.mark.parametrize("action", ["delete", "retype", "bool"])
@pytest.mark.parametrize("key", _ENCODED_KEYS)
def test_every_stored_field_of_an_encoded_entry_is_read(tmp_path, key, action):
    path = _saved_entry(tmp_path)

    def edit(manifest):
        (obj,) = manifest["entries"]
        if action == "delete":
            del obj[key]
        elif action == "bool":  # JSON true is not the int 1
            obj[key] = True
        else:
            obj[key] = 7 if key == "name" else "7"

    edit_container(path, edit)
    with pytest.raises(MalformedFile, match=f"field '{key}' is missing or not"):
        load_compressed(path)


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda m: m["entries"][0].update(group=1), "entry 'layer' names group 1; the file stores 0"),
        (lambda m: m.pop("groups"), "manifest field 'groups' is missing"),
        (lambda m: m.update(groups=[{"units": -3, "offset": 0}]), "group 0 permutes -3 channel units"),
        (lambda m: m.update(groups=[{"units": 4}]), "group 0: field 'offset' is missing or not int"),
        (lambda m: m["entries"][0].update(codes_offset=-1), "field 'codes_offset' is negative"),
        (lambda m: m.update(entries=5), "field 'entries' is not a list of objects"),
        (lambda m: m.update(entries=[5]), "field 'entries' is not a list of objects"),
        (lambda m: m["entries"][0].update(shape=[4]), "tensor 'layer': field 'offset' is missing"),
        (lambda m: m.update(edges=[["a"]]), "field 'edges' is not a list"),
        (lambda m: m.update(layers=[{"name": "a", "kind": "fc"}]), "layer 'a': field 'kernel_size"),
    ],
)
def test_hostile_compressed_manifest_field_is_malformed(tmp_path, edit, match):
    path = _saved_entry(tmp_path)
    edit_container(path, edit)
    with pytest.raises(MalformedFile, match=match):
        load_compressed(path)


def test_manifest_that_is_not_an_object_is_malformed(tmp_path):
    path = _saved_entry(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(join_container(raw, [1, 2], split_container(raw)[1], reseal=True))
    with pytest.raises(MalformedFile, match="not a JSON object"):
        load_compressed(path)


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda m: m["entries"][0].update(name="ghost"), "entry 'ghost' names no declared weighted layer"),
        (lambda m: m["entries"][0].update(name="input"), "entry 'input' names no declared weighted layer"),
        (lambda m: m["entries"].append(dict(m["entries"][0])), "entry 'layer' does not hold a declared"),
        (lambda m: m["layers"].append(dict(m["layers"][1])), "duplicate layer name 'layer'"),
        (lambda m: m["layers"][1].update(kind="fc"), "fc layer 'layer' has kernel size 3"),
        (lambda m: m["layers"].pop(0), "exactly one input node"),
    ],
)
def test_an_entry_must_hold_a_declared_weighted_layer_of_its_own(tmp_path, edit, match):
    # the (4, 5) code grid with d = 9 is a 3x3 conv with 4 input channels
    entry = _encoded_entry("layer", k_eff=16, d=9, m_hat=4, n=5, seed=6)
    path = tmp_path / "one.pqfc"
    save_compressed(declared_model([entry]), path)
    edit_container(path, edit)
    with pytest.raises(MalformedFile, match=match):
        load_compressed(path)


def test_save_rejects_an_entry_whose_layer_is_not_the_declared_one_or_is_held_twice(tmp_path):
    entry = _encoded_entry("layer", k_eff=16, d=9, m_hat=4, n=5, seed=6)
    path = tmp_path / "one.pqfc"
    model = declared_model([entry])
    model.layers[1] = LayerMeta("layer", "conv", 3, 4, 5)  # the same geometry, another layer
    with pytest.raises(MalformedFile, match="entry 'layer' does not hold a declared weighted layer"):
        save_compressed(model, path)
    model = declared_model([entry, entry])
    with pytest.raises(MalformedFile, match="duplicate layer name 'layer'"):
        save_compressed(model, path)
    model.layers.pop(1)
    with pytest.raises(MalformedFile, match="entry 'layer' does not hold a declared weighted layer"):
        save_compressed(model, path)
    assert not path.exists()


def test_save_rejects_an_entry_whose_code_section_is_not_its_layers_size(tmp_path):
    entry = _encoded_entry("layer", k_eff=16, d=4, m_hat=4, n=5, seed=6)
    assert entry.codes_nbytes == len(entry.packed) == 10
    path = tmp_path / "one.pqfc"
    for packed in (entry.packed[:-1], entry.packed + b"\0"):
        entry.packed = packed
        with pytest.raises(MalformedFile, match=f"has {len(packed)} bytes, expected 10"):
            save_compressed(declared_model([entry]), path)
    assert not path.exists()


@pytest.mark.parametrize("bits", range(17))
def test_unpack_reads_every_width_as_the_lane_path_does(bits):
    # 8- and 16-bit codes take the widening copy, every other width the lanes
    rng = make_rng(102, "paths", str(bits))
    for count in (0, 1, 7, 8, 9, 15, 17, 1003):
        values = rng.integers(0, 1 << bits, size=count)
        packed = pack_codes(values, bits)
        got = unpack_codes(packed, bits, count)
        assert np.array_equal(got, values), (bits, count)
        if bits and count:  # the lanes serve 1..16 bits, and unpack_codes reads no codes itself
            lanes = np.full(count, -1, dtype=np.int64)
            tensor_io._unpack_lanes(packed, bits, count, lanes)
            assert np.array_equal(lanes, got), (bits, count)


def _pack_bit_rows(values, bits):
    """The bit-by-bit route `pack_codes` takes for widths other than 8 and 16."""
    vals = np.ascontiguousarray(values, dtype="<u2").ravel()
    bit_rows = np.unpackbits(vals.view("u1").reshape(-1, 2), axis=1, bitorder="little")
    return np.packbits(bit_rows[:, :bits].ravel(), bitorder="little").tobytes()


@pytest.mark.parametrize("bits", [8, 16])
def test_whole_byte_codes_pack_as_the_bit_path_does(bits):
    rng = make_rng(103, "whole-bytes", str(bits))
    for count in (1, 2, 7, 8, 9, 1003, 200_000):
        values = rng.integers(0, 1 << bits, size=count)
        values[0], values[count // 2] = (1 << bits) - 1, 0  # the largest code and the smallest
        packed = pack_codes(values, bits)
        assert packed == _pack_bit_rows(values, bits), count
        if count < 2000:
            assert packed == _pack_oracle(values, bits), count


def test_payload_and_every_array_start_at_a_64_byte_file_offset(tmp_path):
    path = tmp_path / "model.pqfc"
    save_compressed(_grouped_model(), path)
    raw = path.read_bytes()
    manifest, payload = split_container(raw)
    start = len(raw) - len(payload) - 4  # the file ends in a 4-byte checksum
    offsets = [g["offset"] for g in manifest["groups"]]
    for obj in manifest["entries"]:
        keys = ("offset",) if "shape" in obj else ("codebook_offset", "codes_offset")
        offsets += [obj[key] for key in keys]
    assert len(offsets) == 6
    assert start % 64 == 0 and all((start + offset) % 64 == 0 for offset in offsets)
    edit_container(path, lambda m: m["entries"][1].update(codes_offset=m["entries"][1]["codes_offset"] + 1))
    with pytest.raises(MalformedFile, match="entry 'wide' starts at payload offset .*, not a multiple of 64"):
        load_compressed(path)


def test_a_bit_flip_after_the_version_fails_the_checksum(tmp_path):
    path = tmp_path / "model.pqfc"
    save_compressed(_grouped_model(), path)
    raw = path.read_bytes()
    manifest, payload = split_container(raw)
    start = len(raw) - len(payload) - 4
    # the manifest length, the manifest, the padding, the payload and the checksum
    for at in (9, 20, start - 1, start + 100, len(raw) - 1):
        flipped = bytearray(raw)
        flipped[at] ^= 0x10
        path.write_bytes(bytes(flipped))
        with pytest.raises(MalformedFile, match="checksum mismatch"):
            load_compressed(path)


def test_padding_after_the_manifest_must_be_zero(tmp_path):
    path = tmp_path / "model.pqfc"
    save_compressed(_grouped_model(), path)
    raw = bytearray(path.read_bytes())
    end = 16 + int.from_bytes(raw[8:16], "little")
    assert end % 64  # the manifest leaves a gap before the payload
    raw[end] = 1
    path.write_bytes(resealed(bytes(raw)))
    with pytest.raises(MalformedFile, match="padding after the manifest"):
        load_compressed(path)


@pytest.mark.parametrize("magic, version", [("PQFC", 1), ("PQFC", 2), ("PQFC", 3), ("PQFN", 1)])
def test_an_older_file_is_not_read_and_names_its_version(tmp_path, magic, version):
    path = tmp_path / "file"
    if magic == "PQFC":
        save_compressed(_grouped_model(), path)
        load, current = load_compressed, 4
    else:
        save_checkpoint(_mini_checkpoint(), path)
        load, current = load_checkpoint, 2
    raw = bytearray(path.read_bytes())
    assert raw[:8] == magic.encode() + current.to_bytes(4, "little")
    raw[4:8] = version.to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    detail = f"unsupported {magic} format version {version}; this build reads version {current}"
    with pytest.raises(MalformedFile, match=detail):
        load(path)


def test_a_checkpoint_is_framed_as_a_compressed_model_without_the_checksum(tmp_path):
    path = tmp_path / "mini.pqfn"
    save_checkpoint(_mini_checkpoint(), path)
    raw = path.read_bytes()
    manifest, payload = split_container(raw)
    start = len(raw) - len(payload)
    assert [sorted(obj) for obj in manifest["tensors"]] == [["name", "offset", "shape"]] * 2
    assert start % 64 == 0 and [obj["offset"] for obj in manifest["tensors"]] == [0, 64]
    # the weight's 12 values, zero padding, then the bias's 3 values end the file
    assert len(payload) == 64 + 3 * 4 and not any(payload[12 * 4 : 64])


def test_group_units_must_divide_each_member_s_input_channels(tmp_path):
    model = _grouped_model()
    model.groups = [np.arange(48)[::-1]]
    with pytest.raises(MalformedFile, match="the 48 units of group 0 do not divide its 64 input channels"):
        save_compressed(model, tmp_path / "model.pqfc")


def test_a_group_too_large_for_16_bit_packing_is_a_typed_error(tmp_path):
    from pqf.errors import PQFError

    path = tmp_path / "model.pqfc"
    widest = np.arange(1 << 16)[::-1]
    save_compressed(CompressedModel(groups=[widest]), path)
    assert np.array_equal(load_compressed(path).groups[0], widest)
    detail = "group 0 permutes 65537 channel units; the container stores 1 to 65536"
    with pytest.raises(PQFError, match=detail):
        save_compressed(CompressedModel(groups=[np.arange(65537)[::-1]]), tmp_path / "wide.pqfc")
    assert not (tmp_path / "wide.pqfc").exists()
