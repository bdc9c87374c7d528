"""Binary containers, bit-packed codes, and architecture specs.

Two little-endian container formats share one framing: a 4-byte magic, a
u32 format version, a u64 manifest length, a UTF-8 JSON manifest, and a raw
payload whose every array, like the payload itself, starts at a 64-byte file
offset after zero padding; no two arrays overlap, and the payload holds only
zeros outside them. A tensor is stored as ``{"name", "shape",
"offset"}``, its float32 values at that payload offset. ``PQFN`` files
(version 2) hold checkpoints: tensors plus layer/edge metadata. ``PQFC``
files (version 4) hold compressed models: tensors and, holding ``d`` in place
of ``shape``, per-layer encodings (a float16 codebook and bit-packed codes on
a declared layer, whose geometry they take), plus one bit-packed channel
permutation per permutation group that is not the identity; the file ends in
the CRC-32 of every byte before it. An older version is a `MalformedFile`
naming it: save the checkpoint, or compress its source, again with this
build. Loaded arrays are writable views of one buffer read from the file.
Architecture specs are plain text: one ``name kind K C_in C_out`` line per
layer followed by ``edge producer consumer`` lines.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import layout
from .errors import (
    DanglingEdge,
    DuplicateTensorName,
    IoFailure,
    MalformedFile,
    TensorTooLarge,
)

CHECKPOINT_MAGIC = b"PQFN"
COMPRESSED_MAGIC = b"PQFC"
CHECKPOINT_VERSION = 2
COMPRESSED_VERSION = 4
ALIGN = 64  # a payload and its arrays start at multiples of this file offset
_HEADER = 4 + 4 + 8  # magic + u32 version + u64 manifest length
_CRC = 4  # a compressed model ends in the u32 CRC-32 of every byte before it

_F32 = np.dtype("<f4")  # every stored tensor is little-endian float32

LAYER_KINDS = frozenset(
    {"conv", "deconv", "fc", "batchnorm", "add", "relu", "pool", "reshape", "input", "output"}
)
WEIGHTED_KINDS = frozenset({"conv", "deconv", "fc"})
PASSTHROUGH_KINDS = frozenset({"batchnorm", "add", "relu", "pool", "reshape"})


@dataclass(eq=False)
class TensorRecord:
    """One named float32 tensor: raw little-endian values in row-major order.

    A record whose `data` is None only declares its tensor; `save_checkpoint`
    asks for the array when it writes the record.
    """

    name: str
    shape: tuple
    data: np.ndarray | None

    def validate(self, data=None):
        """Check that `data` (default: the record's own, if any) has the
        declared shape and is float32."""
        data = self.data if data is None else data
        if data is None:
            return
        if tuple(data.shape) != tuple(self.shape):
            raise MalformedFile(f"tensor {self.name!r} shape mismatch")
        if data.dtype != _F32:
            raise MalformedFile(f"tensor {self.name!r} storage dtype mismatch")

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * _F32.itemsize


def tensor_record(name: str, array) -> TensorRecord:
    """Build a float32 record from any array-like."""
    arr = np.asarray(array).astype(_F32)
    return TensorRecord(name=name, shape=tuple(arr.shape), data=arr)


@dataclass
class LayerMeta:
    """Geometry of one architecture node."""

    name: str
    kind: str
    kernel_size: int = 1
    c_in: int = 0
    c_out: int = 0
    has_bias: bool | None = None


@dataclass(eq=False)
class ModelCheckpoint:
    """Named tensors plus the layer/edge DAG they belong to."""

    tensors: list = field(default_factory=list)
    layers: list = field(default_factory=list)
    edges: list = field(default_factory=list)

    def tensor(self, name: str) -> TensorRecord | None:
        for rec in self.tensors:
            if rec.name == name:
                return rec
        return None

    def layer(self, name: str) -> LayerMeta | None:
        for meta in self.layers:
            if meta.name == name:
                return meta
        return None

    def validate(self):
        by_name = {}
        for rec in self.tensors:
            rec.validate()
            if rec.name in by_name:
                raise DuplicateTensorName(rec.name)
            by_name[rec.name] = rec

        layer_names = set()
        for meta in self.layers:
            if meta.kind not in LAYER_KINDS:
                raise MalformedFile(f"unknown layer kind {meta.kind!r} for {meta.name!r}")
            if meta.name in layer_names:
                raise MalformedFile(f"duplicate layer name {meta.name!r}")
            layer_names.add(meta.name)
            if meta.kind in PASSTHROUGH_KINDS and meta.kind != "reshape":
                if meta.c_in != meta.c_out:
                    raise MalformedFile(f"{meta.kind} layer {meta.name!r} must preserve channels")
            if min(meta.kernel_size, meta.c_in, meta.c_out) < 1:
                raise MalformedFile(f"layer {meta.name!r} has a kernel size or channel count below 1")
            if meta.kind == "fc" and meta.kernel_size != 1:
                raise MalformedFile(f"fc layer {meta.name!r} has kernel size {meta.kernel_size}")

        self.topological_order()

        kinds = [m.kind for m in self.layers]
        if self.layers:
            if kinds.count("input") != 1:
                raise MalformedFile("checkpoint must declare exactly one input node")
            if kinds.count("output") < 1:
                raise MalformedFile("checkpoint must declare at least one output node")

        if self.tensors and self.layers:
            for meta in self.layers:
                if meta.kind not in WEIGHTED_KINDS:
                    continue
                if f"{meta.name}.weight" not in by_name:
                    raise MalformedFile(f"layer {meta.name!r} has no weight tensor")
                stored = layout.weight_shape(meta.kind, meta.c_in, meta.c_out, meta.kernel_size)
                for part, want in (("weight", stored), ("bias", (meta.c_out,))):
                    rec = by_name.get(f"{meta.name}.{part}")
                    if rec is not None and tuple(rec.shape) != want:
                        raise MalformedFile(
                            f"layer {meta.name!r} {part} has shape {tuple(rec.shape)}, expected {want}"
                        )

    def topological_order(self) -> list:
        """Kahn topological sort; raises on cycles and on edges to unknown layers."""
        indeg = {m.name: 0 for m in self.layers}
        out = {m.name: [] for m in self.layers}
        for producer, consumer in self.edges:
            for end in (producer, consumer):
                if end not in indeg:
                    raise DanglingEdge(end)
            indeg[consumer] += 1
            out[producer].append(consumer)
        ready = [m.name for m in self.layers if indeg[m.name] == 0]
        order = []
        while ready:
            name = ready.pop(0)
            order.append(name)
            for nxt in out[name]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
        if len(order) != len(self.layers):
            raise MalformedFile("layer graph contains a cycle")
        by_name = {m.name: m for m in self.layers}
        return [by_name[n] for n in order]


def _layer_to_dict(meta: LayerMeta) -> dict:
    return {
        "name": meta.name,
        "kind": meta.kind,
        "kernel_size": meta.kernel_size,
        "c_in": meta.c_in,
        "c_out": meta.c_out,
    }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _field(obj: dict, key: str, kind, where: str):
    """``obj[key]`` if it is a `kind` (an int is never a bool); else `MalformedFile`."""
    value = obj.get(key)
    if not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise MalformedFile(f"{where}: field {key!r} is missing or not {kind.__name__}")
    return value


def _required(manifest: dict, key: str):
    """``manifest[key]``; both writers always write it, so its absence is `MalformedFile`."""
    if key not in manifest:
        raise MalformedFile(f"manifest field {key!r} is missing")
    return manifest[key]


def _listing(manifest: dict, key: str) -> list:
    """Manifest list `key`, checked to be present and to hold JSON objects only."""
    items = _required(manifest, key)
    if not isinstance(items, list) or not all(isinstance(o, dict) for o in items):
        raise MalformedFile(f"manifest field {key!r} is not a list of objects")
    return items


def _layer_from_dict(obj: dict) -> LayerMeta:
    name = _field(obj, "name", str, "layer")
    where = f"layer {name!r}"
    return LayerMeta(
        name=name,
        kind=_field(obj, "kind", str, where),
        kernel_size=_field(obj, "kernel_size", int, where),
        c_in=_field(obj, "c_in", int, where),
        c_out=_field(obj, "c_out", int, where),
    )


def _graph_from_manifest(manifest: dict) -> tuple:
    """The checked ``(layers, edges)`` a manifest echoes."""
    edges = _required(manifest, "edges")
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e) for e in edges
    ):
        raise MalformedFile("manifest field 'edges' is not a list of [producer, consumer] names")
    layers = [_layer_from_dict(o) for o in _listing(manifest, "layers")]
    return layers, [(p, c) for p, c in edges]


def _view(data) -> memoryview:
    """The raw bytes of `data` (bytes, or an array in its own byte order), not copied."""
    if not isinstance(data, bytes):
        data = np.ascontiguousarray(data).reshape(-1).view(np.uint8)
    return memoryview(data)


class _Payload:
    """The buffers written after a manifest, in file order, and their total size.

    Each buffer starts at a multiple of `ALIGN` bytes into the payload, after
    zero bytes of padding.
    """

    def __init__(self):
        self.parts = []
        self.nbytes = 0

    def add(self, data, nbytes: int | None = None) -> int:
        """Queue `data` (bytes or an array, written as its raw bytes); returns its offset.

        `data` may instead be a function that returns the `nbytes` bytes when
        the file is written.
        """
        if not callable(data):
            data = _view(data)
            nbytes = data.nbytes
        offset = _aligned(self.nbytes)
        if offset > self.nbytes:
            self.parts.append(bytes(offset - self.nbytes))
        self.parts.append(data)
        self.nbytes = offset + nbytes
        return offset


def _aligned(offset: int) -> int:
    return -(-offset // ALIGN) * ALIGN


def _write_file(
    path, magic: bytes, version: int, manifest: dict, payload: _Payload, sealed: bool = False
) -> int:
    """Write header, manifest, then each payload buffer in place; returns the bytes written.

    Zero bytes pad the manifest so that the payload starts at a multiple of
    `ALIGN` bytes into the file. A `sealed` file, whose payload parts must
    all be bytes or arrays, ends in the CRC-32 of every byte before it. If
    any part fails, the partly written file is removed.
    """
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    head = magic + version.to_bytes(4, "little") + len(blob).to_bytes(8, "little")
    gap = bytes(_aligned(_HEADER + len(blob)) - _HEADER - len(blob))
    parts = [head, blob, gap, *payload.parts]
    if sealed:
        crc = 0
        for part in parts:
            crc = zlib.crc32(part, crc)
        parts.append(crc.to_bytes(_CRC, "little"))
    try:
        fh = open(path, "wb")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    try:
        with fh:
            for part in parts:
                fh.write(_view(part()) if callable(part) else part)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(path)
        if isinstance(exc, OSError):
            raise IoFailure(str(exc)) from exc
        raise
    return len(head) + len(blob) + len(gap) + payload.nbytes + _CRC * sealed


def _unframe(raw: bytearray, magic: bytes, version: int, sealed: bool = False) -> tuple:
    """Split a file into its manifest and a view of its payload (no copy).

    A `sealed` file's last bytes must be the CRC-32 of every byte before
    them, checked right after the magic and version. The payload starts at
    the first multiple of `ALIGN` after the manifest; the bytes between must
    be zero.
    """
    if len(raw) < _HEADER + _CRC * sealed:
        raise MalformedFile("file too short for header")
    if raw[:4] != magic:
        raise MalformedFile(f"bad magic {raw[:4]!r}, expected {magic!r}")
    found = int.from_bytes(raw[4:8], "little")
    if found != version:
        raise MalformedFile(
            f"unsupported {magic.decode()} format version {found}; this build reads version {version}"
        )
    body = memoryview(raw)[: len(raw) - _CRC * sealed]
    if sealed and zlib.crc32(body) != int.from_bytes(raw[-_CRC:], "little"):
        raise MalformedFile("checksum mismatch: the file is corrupt")
    end = _HEADER + int.from_bytes(raw[8:16], "little")
    if len(body) < end:
        raise MalformedFile("file truncated inside manifest")
    try:
        manifest = json.loads(raw[_HEADER:end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedFile(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise MalformedFile("manifest is not a JSON object")
    start = _aligned(end)
    if len(body) < start or any(raw[end:start]):
        raise MalformedFile("the padding after the manifest is truncated or not zero")
    return manifest, body[start:]


def _read_file(path) -> bytearray:
    """The whole file, read in place into one new buffer: not mapped, so the
    file may be overwritten while views of the buffer live on."""
    try:
        with open(path, "rb") as fh:
            raw = bytearray(os.fstat(fh.fileno()).st_size)
            del raw[fh.readinto(raw) :]
            raw += fh.read()  # what the size left out: a pipe's bytes, or a file that grew
            return raw
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


class _Sections:
    """A file's payload, taken section by section, then checked to hold nothing else."""

    def __init__(self, payload: memoryview):
        self.payload, self.taken = payload, []

    def take(self, offset: int, nbytes: int, what: str) -> memoryview:
        """The `nbytes` bytes at `offset`, which must lie in the payload on the `ALIGN` grid."""
        if offset < 0 or nbytes < 0 or offset + nbytes > len(self.payload):
            raise MalformedFile(f"file truncated inside {what}")
        if offset % ALIGN:
            raise MalformedFile(f"{what} starts at payload offset {offset}, not a multiple of {ALIGN}")
        self.taken.append((offset, offset + nbytes, what))
        return self.payload[offset : offset + nbytes]

    def check(self):
        """No two sections taken overlap, and every byte between them, or after the last, is zero."""
        end, before = 0, "the manifest"
        tail = (len(self.payload), len(self.payload), "the end of the payload")
        for start, stop, what in [*sorted(self.taken), tail]:
            if start < end:
                raise MalformedFile(f"{what} overlaps {before}")
            if bytes(self.payload[end:start]).strip(b"\0"):
                raise MalformedFile(f"the padding between {before} and {what} is not zero")
            end, before = stop, what


def _put_tensor(payload: _Payload, rec: TensorRecord, produce=None) -> dict:
    """Queue a record's data, or else its `produce(rec)` array; returns its manifest fields."""
    rec.validate()

    def produced():
        array = produce(rec)
        rec.validate(array)
        return array

    data = produced if rec.data is None else rec.data
    return {"name": rec.name, "shape": list(rec.shape), "offset": payload.add(data, rec.nbytes)}


def _get_tensor(payload: _Sections, obj: dict) -> TensorRecord:
    """Inverse of :func:`_put_tensor`: a writable view of the payload, checked against it."""
    name = _field(obj, "name", str, "tensor")
    where = f"tensor {name!r}"
    shape = tuple(_field(obj, "shape", list, where))
    if not all(_is_int(s) for s in shape):
        raise MalformedFile(f"{where}: field 'shape' is not a list of int")
    if any(s < 0 for s in shape):
        raise MalformedFile(f"tensor {name!r} has a negative dimension")
    raw = payload.take(_field(obj, "offset", int, where), math.prod(shape) * _F32.itemsize, where)
    return TensorRecord(name, shape, np.frombuffer(raw, _F32).reshape(shape))


def save_checkpoint(ckpt: ModelCheckpoint, path, produce=None) -> int:
    """Serialize a checkpoint; returns the byte count written.

    Offsets follow from each record's `nbytes`, so the header and manifest
    go out first and every tensor is then written straight from its array
    through a memoryview: the payload is never assembled in memory. A
    record whose `data` is None gets its array from `produce(rec)`, called
    in file order as the record is written, so the arrays can be made one
    at a time in a reused buffer; each is checked against its record before
    its bytes go out. The checkpoint is validated before the file is
    opened, and a failure while writing removes the file.
    """
    ckpt.validate()
    payload = _Payload()
    manifest = {
        "tensors": [_put_tensor(payload, rec, produce) for rec in ckpt.tensors],
        "layers": [_layer_to_dict(m) for m in ckpt.layers],
        "edges": [[p, c] for p, c in ckpt.edges],
    }
    return _write_file(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, manifest, payload)


def load_checkpoint(path) -> ModelCheckpoint:
    """Parse and fully validate a ``PQFN`` checkpoint file; its tensors are views of one buffer."""
    return parse_checkpoint(_read_file(path))


def parse_checkpoint(raw: bytearray) -> ModelCheckpoint:
    """`load_checkpoint` of a file's bytes `raw`; the tensors are views of `raw`."""
    manifest, view = _unframe(raw, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    payload = _Sections(view)
    tensors = [_get_tensor(payload, obj) for obj in _listing(manifest, "tensors")]
    layers, edges = _graph_from_manifest(manifest)
    ckpt = ModelCheckpoint(tensors=tensors, layers=layers, edges=edges)
    _fill_bias_flags(ckpt)
    ckpt.validate()
    payload.check()
    return ckpt


def _fill_bias_flags(ckpt: ModelCheckpoint):
    if not ckpt.tensors:
        return
    names = {rec.name for rec in ckpt.tensors}
    for meta in ckpt.layers:
        if meta.kind in WEIGHTED_KINDS:
            meta.has_bias = f"{meta.name}.bias" in names


# ---------------------------------------------------------------------------
# Architecture spec text files
# ---------------------------------------------------------------------------

def parse_arch_spec(text) -> ModelCheckpoint:
    """Parse architecture spec `text`, a str or UTF-8 bytes, into a tensor-less checkpoint."""
    if not isinstance(text, str):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedFile(f"architecture spec is not UTF-8 text: {exc}") from exc
    layers, edges = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "edge":
            if len(parts) != 3:
                raise MalformedFile(f"line {lineno}: edge lines need 2 layer names")
            edges.append((parts[1], parts[2]))
            continue
        if len(parts) != 5:
            raise MalformedFile(f"line {lineno}: expected 'name kind K C_in C_out'")
        name, kind, k, c_in, c_out = parts
        try:
            meta = LayerMeta(name, kind, int(k), int(c_in), int(c_out))
        except ValueError as exc:
            raise MalformedFile(f"line {lineno}: {exc}") from exc
        layers.append(meta)
    ckpt = ModelCheckpoint(tensors=[], layers=layers, edges=edges)
    ckpt.validate()
    return ckpt


# ---------------------------------------------------------------------------
# Bit-packed code arrays
# ---------------------------------------------------------------------------

def code_width(k_eff: int) -> int:
    """Bits needed per code index for a codebook of `k_eff` centroids."""
    return max(0, math.ceil(math.log2(k_eff))) if k_eff > 1 else 0


MAX_CODE_BITS = 16  # the widest code the container stores: k_eff <= 65536


def pack_codes(values, bits: int) -> bytes:
    """Pack non-negative ints to `bits` bits each, LSB-first within the stream."""
    vals = np.ascontiguousarray(values, dtype="<u2").ravel()
    if bits == 0 or vals.size == 0:
        return b""
    if bits < 0 or bits > MAX_CODE_BITS:
        raise ValueError(f"code width {bits} out of range")
    if vals.size and int(vals.max()) >= (1 << bits):
        raise ValueError("code value does not fit in the requested width")
    bit_rows = np.unpackbits(vals.view("u1").reshape(-1, 2), axis=1, bitorder="little")
    stream = bit_rows[:, :bits].ravel()
    return np.packbits(stream, bitorder="little").tobytes()


def unpack_codes(buf, bits: int, count: int, out=None) -> np.ndarray:
    """Inverse of :func:`pack_codes`; returns int64 values.

    8- and 16-bit codes are whole little-endian bytes or u16s, read by one
    widening copy. Any other width goes through :func:`_unpack_lanes`. With
    `out`, a contiguous 1-D int64 buffer of at least `count` elements, the
    codes are written over its leading elements and returned as a view of
    them. Raises `MalformedFile` for a width outside 0..16 or a section
    whose length disagrees with `count`.
    """
    if not 0 <= bits <= MAX_CODE_BITS:
        raise MalformedFile(f"code width {bits} outside 0..{MAX_CODE_BITS}")
    need = (count * bits + 7) // 8
    if len(buf) != need:
        raise MalformedFile(f"packed code section has {len(buf)} bytes, expected {need}")
    if out is None:
        out = np.empty(count, dtype=np.int64)
    elif out.dtype != np.int64 or out.ndim != 1 or out.size < count:
        raise ValueError(f"a {out.dtype} buffer of shape {out.shape} cannot hold {count} codes")
    codes = out[:count]
    if bits == 0 or count == 0:
        codes[:] = 0
    elif bits in (8, 16):
        codes[:] = np.frombuffer(buf, dtype="<u1" if bits == 8 else "<u2")
    else:
        _unpack_lanes(buf, bits, count, codes)
    return codes


def _unpack_lanes(buf, bits: int, count: int, codes: np.ndarray) -> None:
    """Unpack `count` codes of 1..16 bits from `buf` into the int64 array `codes`.

    Eight codes fill exactly `bits` bytes, so the zero-padded section reads
    as a ``(groups, bits)`` byte grid in which code ``q`` of every group
    starts at the same byte ``q*bits // 8`` and bit ``q*bits % 8``. Each of
    the 8 lanes is then one strided little-endian u32 read at that byte,
    shifted and masked in place into its own contiguous row of a u32
    ``(8, groups)`` array; a code spans at most 7 + 16 bits, so the u32
    holds it. One widening store interleaves the rows into int64.
    """
    groups = -(-count // 8)
    grid = np.zeros(groups * bits + 3, dtype=np.uint8)  # +3: the last lane's u32 read
    grid[: len(buf)] = np.frombuffer(buf, dtype=np.uint8)
    lanes = np.empty((8, groups), dtype=np.uint32)
    mask = np.uint32((1 << bits) - 1)
    for lane, row in enumerate(lanes):
        byte, shift = divmod(lane * bits, 8)
        window = np.ndarray((groups,), dtype="<u4", buffer=grid, offset=byte, strides=(bits,))
        np.right_shift(window, np.uint32(shift), out=row)
        np.bitwise_and(row, mask, out=row)
    whole, tail = divmod(count, 8)
    codes[: whole * 8].reshape(whole, 8)[...] = lanes[:, :whole].T
    if tail:
        codes[whole * 8 :] = lanes[:tail, whole]


# ---------------------------------------------------------------------------
# Compressed model container
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class EncodedEntry:
    """One layer's codebook and packed codes, and its permutation group.

    The geometry is the declared `layer`'s: its ``(C_in*K*K, C_out)`` matrix
    holds an ``(m_hat, n)`` grid of `d`-long subvectors. `packed` holds
    their ``m_hat * n`` codes, `bits` = ``code_width(k_eff)`` bits each, as
    `pack_codes` writes them (a `memoryview` into the file when loaded).
    `unpack` turns them into int64 codes when a layer is decoded. `group`
    indexes the model's `groups`, whose channel permutation the layer's rows
    were permuted by before quantization; None means the identity.
    """

    layer: LayerMeta
    d: int
    k_eff: int
    codebook: np.ndarray  # (k_eff, d) float16
    packed: bytes  # or a memoryview of them
    group: int | None = None

    @property
    def name(self) -> str:
        return self.layer.name

    @property
    def m_hat(self) -> int:
        return self.layer.c_in * self.layer.kernel_size**2 // self.d

    @property
    def n(self) -> int:
        return self.layer.c_out

    @property
    def bits(self) -> int:
        return code_width(self.k_eff)

    @property
    def codes_nbytes(self) -> int:
        """Bytes of the packed codes: ``m_hat * n`` codes of `bits` bits each."""
        return (self.m_hat * self.n * self.bits + 7) // 8

    def unpack(self, out=None) -> np.ndarray:
        """The ``(m_hat, n)`` int64 codes, over the leading elements of `out` if given."""
        try:
            codes = unpack_codes(self.packed, self.bits, self.m_hat * self.n, out)
        except MemoryError as exc:
            detail = f"entry {self.name!r}: {self.m_hat} x {self.n} codes do not fit in memory"
            raise TensorTooLarge(detail) from exc
        return codes.reshape(self.m_hat, self.n)

    def validate(self):
        """Check that `d` splits the layer's rows, then sizes and codes.

        Every code is below `k_eff`: a width of `bits` bounds every code when
        `k_eff` is a power of two; otherwise the codes are unpacked once,
        briefly, to find the largest. `CompressedModel.validate` checks the
        layer and the group.
        """
        rows = self.layer.c_in * self.layer.kernel_size**2
        if self.d < 1 or rows % self.d:
            raise MalformedFile(f"entry {self.name!r}: subvector size {self.d} does not divide {rows} rows")
        if self.codebook.shape != (self.k_eff, self.d):
            raise MalformedFile(f"entry {self.name!r} codebook shape mismatch")
        if len(self.packed) != self.codes_nbytes:
            raise MalformedFile(
                f"entry {self.name!r}: packed code section has {len(self.packed)} bytes, "
                f"expected {self.codes_nbytes}"
            )
        if self.m_hat * self.n and self.k_eff < (1 << self.bits):
            if self.k_eff == 0 or self.unpack().max() >= self.k_eff:
                raise MalformedFile(f"entry {self.name!r} has out-of-range codes")


# The int fields of an encoded entry's manifest object, besides its `name`
# and its `group` (an index or null); the offsets find its codebook and codes
# in the payload.
_ENCODED_INTS = ("d", "k_eff", "codebook_offset", "codes_offset")


@dataclass(eq=False)
class CompressedModel:
    """Ordered entries, each a `TensorRecord` stored verbatim or an `EncodedEntry`
    holding one of the declared `layers`, the channel permutation of each
    permutation group that is not the identity (int arrays, one value per
    channel unit of the group), and an echo of the architecture DAG."""

    entries: list = field(default_factory=list)
    layers: list = field(default_factory=list)
    edges: list = field(default_factory=list)
    groups: list = field(default_factory=list)

    @property
    def permutation_bits(self) -> int:
        """Bits of the stored group permutations: ``code_width(units)`` per unit."""
        return sum(len(perm) * code_width(len(perm)) for perm in self.groups)

    def validate(self):
        """Check the declared graph by `ModelCheckpoint`'s rules, each group once (a
        permutation of its units that `pack_codes` can store, whose units divide
        each member's input channels), and every entry. Each encoded entry holds
        a declared weighted layer that no other entry holds."""
        ModelCheckpoint(layers=self.layers, edges=self.edges).validate()
        for i, perm in enumerate(self.groups):
            units = _check_units(len(perm), i)
            if not layout.is_permutation(perm, units):
                raise MalformedFile(f"group {i} does not store a permutation of {units} units")
        weighted = {m.name: m for m in self.layers if m.kind in WEIGHTED_KINDS}
        for entry in self.entries:
            if isinstance(entry, EncodedEntry) and weighted.pop(entry.name, None) is not entry.layer:
                detail = "does not hold a declared weighted layer of its own"
                raise MalformedFile(f"entry {entry.name!r} {detail}")
            entry.validate()
            if isinstance(entry, TensorRecord) or entry.group is None:
                continue
            if not 0 <= entry.group < len(self.groups):
                raise MalformedFile(
                    f"entry {entry.name!r} names group {entry.group}; the file stores {len(self.groups)}"
                )
            units = len(self.groups[entry.group])
            if entry.layer.c_in % units:
                raise MalformedFile(
                    f"entry {entry.name!r}: the {units} units of group {entry.group} "
                    f"do not divide its {entry.layer.c_in} input channels"
                )


def save_compressed(model: CompressedModel, path) -> int:
    """Serialize a compressed model; returns the byte count written.

    The model is validated before the file is opened. The file ends in the
    CRC-32 of every byte before it. An encoded entry stores its layer's
    name, not its geometry.
    """
    model.validate()
    payload = _Payload()
    groups = [
        {"units": len(perm), "offset": payload.add(pack_codes(perm, code_width(len(perm))))}
        for perm in model.groups
    ]
    entries = []
    for entry in model.entries:
        if isinstance(entry, TensorRecord):
            entries.append(_put_tensor(payload, entry))
            continue
        entries.append(
            {
                "name": entry.name,
                "d": entry.d,
                "k_eff": entry.k_eff,
                "group": entry.group,
                "codebook_offset": payload.add(entry.codebook.astype("<f2", copy=False)),
                "codes_offset": payload.add(entry.packed),
            }
        )
    manifest = {
        "entries": entries,
        "groups": groups,
        "layers": [_layer_to_dict(m) for m in model.layers],
        "edges": [[p, c] for p, c in model.edges],
    }
    return _write_file(path, COMPRESSED_MAGIC, COMPRESSED_VERSION, manifest, payload, True)


def _check_units(units: int, i: int) -> int:
    """`units` if `pack_codes` can store a permutation of that many; else `MalformedFile`."""
    if not 1 <= units <= 1 << MAX_CODE_BITS:
        raise MalformedFile(
            f"group {i} permutes {units} channel units; the container stores 1 to {1 << MAX_CODE_BITS}"
        )
    return units


def _get_group(payload: _Sections, obj: dict, i: int) -> np.ndarray:
    """One stored group permutation, unpacked; `CompressedModel.validate` checks it."""
    where = f"group {i}"
    units = _check_units(_field(obj, "units", int, where), i)
    bits = code_width(units)
    raw = payload.take(_field(obj, "offset", int, where), (units * bits + 7) // 8, where)
    return unpack_codes(raw, bits, units)


def _get_encoded(payload: _Sections, obj: dict, weighted: dict) -> EncodedEntry:
    """Rebuild one encoded entry on its layer in `weighted` (name -> `LayerMeta`),
    checking every field's presence, type and sign."""
    name = _field(obj, "name", str, "encoded entry")
    where = f"entry {name!r}"
    f = {key: _field(obj, key, int, where) for key in _ENCODED_INTS}
    for key, value in f.items():
        if value < 0:
            raise MalformedFile(f"{where}: field {key!r} is negative")
    if "group" not in obj or not (obj["group"] is None or _is_int(obj["group"])):
        raise MalformedFile(f"{where}: field 'group' is missing or not int or null")
    if name not in weighted:
        raise MalformedFile(f"{where} names no declared weighted layer")
    k_eff, d = f["k_eff"], f["d"]
    cb_raw = payload.take(f["codebook_offset"], k_eff * d * 2, where)
    codebook = np.frombuffer(cb_raw, dtype="<f2").reshape(k_eff, d)
    entry = EncodedEntry(weighted[name], d, k_eff, codebook, b"", obj["group"])
    # the codes are sized from the entry's layer; `validate` rejects d = 0, which leaves no grid
    entry.packed = payload.take(f["codes_offset"], entry.codes_nbytes if d else 0, where)
    return entry


def load_compressed(path) -> CompressedModel:
    """Parse a ``PQFC`` compressed model file.

    The file must end in the CRC-32 of its other bytes, checked before the
    manifest is read. An entry with a ``shape`` is a tensor; any other is an
    encoding, which must hold ``d``. A missing, mistyped or negative manifest
    field raises `MalformedFile` naming the entry and the field, and so does
    an encoded entry that names no declared weighted layer. Tensors and
    codebooks are views of the file's bytes, and encoded entries keep their
    codes packed, as slices of them; the model is checked as a
    whole (`CompressedModel.validate`), so a section of the wrong length, an
    out-of-range code or a group permutation that repeats a unit is a
    `MalformedFile` here, before any decoding. So are sections that overlap
    and non-zero bytes between them (`_Sections.check`).
    """
    manifest, view = _unframe(_read_file(path), COMPRESSED_MAGIC, COMPRESSED_VERSION, sealed=True)
    payload = _Sections(view)
    layers, edges = _graph_from_manifest(manifest)
    weighted = {m.name: m for m in layers if m.kind in WEIGHTED_KINDS}
    entries = [
        _get_tensor(payload, obj) if "shape" in obj else _get_encoded(payload, obj, weighted)
        for obj in _listing(manifest, "entries")
    ]
    groups = [_get_group(payload, obj, i) for i, obj in enumerate(_listing(manifest, "groups"))]
    model = CompressedModel(entries=entries, layers=layers, edges=edges, groups=groups)
    model.validate()
    payload.check()
    return model
