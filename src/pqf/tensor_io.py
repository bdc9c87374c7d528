"""Binary containers, bit-packed codes, and architecture specs.

Two little-endian container formats share one framing: a 4-byte magic, a
u32 format version, a u64 manifest length, a UTF-8 JSON manifest, and a raw
payload section. ``PQFN`` files hold uncompressed checkpoints (named tensors
plus layer/edge metadata); ``PQFC`` files hold compressed models whose
entries are either raw tensors or per-layer encodings with float16 codebooks
and bit-packed codes. Architecture specs are plain text: one
``name kind K C_in C_out`` line per layer followed by
``edge producer consumer`` lines.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DanglingEdge,
    DuplicateTensorName,
    IoFailure,
    MalformedFile,
)

CHECKPOINT_MAGIC = b"PQFN"
COMPRESSED_MAGIC = b"PQFC"
FORMAT_VERSION = 1
_HEADER = 4 + 4 + 8  # magic + u32 version + u64 manifest length

DTYPES = {
    "f32": np.dtype("<f4"),
    "f16": np.dtype("<f2"),
    "u8": np.dtype("u1"),
    "u16": np.dtype("<u2"),
}

LAYER_KINDS = frozenset(
    {"conv", "deconv", "fc", "batchnorm", "add", "relu", "pool", "reshape", "input", "output"}
)
WEIGHTED_KINDS = frozenset({"conv", "deconv", "fc"})
PASSTHROUGH_KINDS = frozenset({"batchnorm", "add", "relu", "pool", "reshape"})


@dataclass(eq=False)
class TensorRecord:
    """One named tensor: raw little-endian values in row-major order."""

    name: str
    dtype: str
    shape: tuple
    data: np.ndarray

    def validate(self):
        if self.dtype not in DTYPES:
            raise MalformedFile(f"unknown dtype {self.dtype!r} for tensor {self.name!r}")
        if tuple(self.data.shape) != tuple(self.shape):
            raise MalformedFile(f"tensor {self.name!r} shape mismatch")
        if self.data.dtype != DTYPES[self.dtype]:
            raise MalformedFile(f"tensor {self.name!r} storage dtype mismatch")

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * DTYPES[self.dtype].itemsize


def tensor_record(name: str, array, dtype: str = "f32") -> TensorRecord:
    """Build a record from any array-like, casting to the storage dtype."""
    arr = np.asarray(array).astype(DTYPES[dtype])
    return TensorRecord(name=name, dtype=dtype, shape=tuple(arr.shape), data=arr)


def records_equal(a: TensorRecord, b: TensorRecord) -> bool:
    return (
        a.name == b.name
        and a.dtype == b.dtype
        and tuple(a.shape) == tuple(b.shape)
        and a.data.tobytes() == b.data.tobytes()
    )


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
            if meta.kind in WEIGHTED_KINDS and min(meta.kernel_size, meta.c_in, meta.c_out) < 1:
                raise MalformedFile(f"layer {meta.name!r} has an empty dimension")

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
                k, i, o = meta.kernel_size, meta.c_in, meta.c_out
                stored = {"conv": (i, o, k, k), "deconv": (o, i, k, k), "fc": (i, o)}[meta.kind]
                for part, want in (("weight", stored), ("bias", (o,))):
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


def _layer_from_dict(obj: dict) -> LayerMeta:
    return LayerMeta(
        name=obj["name"],
        kind=obj["kind"],
        kernel_size=int(obj["kernel_size"]),
        c_in=int(obj["c_in"]),
        c_out=int(obj["c_out"]),
    )


def _frame(magic: bytes, manifest: dict, payload: bytes) -> bytes:
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    head = magic + FORMAT_VERSION.to_bytes(4, "little") + len(blob).to_bytes(8, "little")
    return head + blob + payload


def _unframe(raw: bytes, magic: bytes) -> tuple:
    if len(raw) < _HEADER:
        raise MalformedFile("file too short for header")
    if raw[:4] != magic:
        raise MalformedFile(f"bad magic {raw[:4]!r}, expected {magic!r}")
    version = int.from_bytes(raw[4:8], "little")
    if version != FORMAT_VERSION:
        raise MalformedFile(f"unsupported format version {version}")
    mlen = int.from_bytes(raw[8:16], "little")
    if len(raw) < _HEADER + mlen:
        raise MalformedFile("file truncated inside manifest")
    try:
        manifest = json.loads(raw[_HEADER : _HEADER + mlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedFile(f"manifest is not valid JSON: {exc}") from exc
    return manifest, raw[_HEADER + mlen :]


def _read_file(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def _write_file(path, raw: bytes) -> int:
    try:
        with open(path, "wb") as fh:
            fh.write(raw)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    return len(raw)


def _take(payload: bytes, offset: int, nbytes: int, what: str) -> bytes:
    if offset < 0 or nbytes < 0 or offset + nbytes > len(payload):
        raise MalformedFile(f"file truncated inside {what}")
    return payload[offset : offset + nbytes]


def _put_tensor(payload: bytearray, rec: TensorRecord) -> dict:
    """Append a record's bytes to `payload`; returns its manifest fields."""
    rec.validate()
    offset = len(payload)
    payload.extend(rec.data.astype(DTYPES[rec.dtype], copy=False).tobytes())
    return {
        "name": rec.name,
        "dtype": rec.dtype,
        "shape": list(rec.shape),
        "offset": offset,
        "nbytes": rec.nbytes,
    }


def _get_tensor(payload: bytes, obj: dict) -> TensorRecord:
    """Inverse of :func:`_put_tensor`, checking the fields against the payload."""
    name, dtype = obj["name"], obj["dtype"]
    if dtype not in DTYPES:
        raise MalformedFile(f"unknown dtype {dtype!r}")
    shape = tuple(int(s) for s in obj["shape"])
    if any(s < 0 for s in shape):
        raise MalformedFile(f"tensor {name!r} has a negative dimension")
    nbytes = math.prod(shape) * DTYPES[dtype].itemsize
    if nbytes != int(obj["nbytes"]):
        raise MalformedFile(f"tensor {name!r} byte length mismatch")
    raw = _take(payload, int(obj["offset"]), nbytes, f"tensor {name!r}")
    return TensorRecord(name, dtype, shape, np.frombuffer(raw, DTYPES[dtype]).reshape(shape).copy())


def save_checkpoint(ckpt: ModelCheckpoint, path) -> int:
    """Serialize a checkpoint; returns the byte count written."""
    ckpt.validate()
    payload = bytearray()
    manifest = {
        "tensors": [_put_tensor(payload, rec) for rec in ckpt.tensors],
        "layers": [_layer_to_dict(m) for m in ckpt.layers],
        "edges": [[p, c] for p, c in ckpt.edges],
    }
    return _write_file(path, _frame(CHECKPOINT_MAGIC, manifest, bytes(payload)))


def load_checkpoint(path) -> ModelCheckpoint:
    """Parse and fully validate a ``PQFN`` checkpoint file."""
    manifest, payload = _unframe(_read_file(path), CHECKPOINT_MAGIC)
    tensors = [_get_tensor(payload, obj) for obj in manifest.get("tensors", [])]
    layers = [_layer_from_dict(o) for o in manifest.get("layers", [])]
    edges = [(p, c) for p, c in manifest.get("edges", [])]
    ckpt = ModelCheckpoint(tensors=tensors, layers=layers, edges=edges)
    _fill_bias_flags(ckpt)
    ckpt.validate()
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

def load_arch_spec(path) -> ModelCheckpoint:
    """Parse a text architecture spec into a tensor-less checkpoint."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    return parse_arch_spec(text)


def parse_arch_spec(text: str) -> ModelCheckpoint:
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


def pack_codes(values, bits: int) -> bytes:
    """Pack non-negative ints to `bits` bits each, LSB-first within the stream."""
    vals = np.ascontiguousarray(values, dtype="<u2").ravel()
    if bits == 0 or vals.size == 0:
        return b""
    if bits < 0 or bits > 16:
        raise ValueError(f"code width {bits} out of range")
    if vals.size and int(vals.max()) >= (1 << bits):
        raise ValueError("code value does not fit in the requested width")
    bit_rows = np.unpackbits(vals.view("u1").reshape(-1, 2), axis=1, bitorder="little")
    stream = bit_rows[:, :bits].ravel()
    return np.packbits(stream, bitorder="little").tobytes()


def unpack_codes(buf: bytes, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_codes`; returns int64 values."""
    if bits == 0 or count == 0:
        return np.zeros(count, dtype=np.int64)
    need = (count * bits + 7) // 8
    if len(buf) != need:
        raise MalformedFile(f"packed code section has {len(buf)} bytes, expected {need}")
    stream = np.unpackbits(np.frombuffer(buf, dtype="u1"), bitorder="little")
    rows = stream[: count * bits].reshape(count, bits)
    padded = np.zeros((count, 16), dtype="u1")
    padded[:, :bits] = rows
    packed = np.packbits(padded, axis=1, bitorder="little")
    return packed.view("<u2").ravel().astype(np.int64)


# ---------------------------------------------------------------------------
# Compressed model container
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class RawEntry:
    """A tensor stored verbatim in the compressed container."""

    record: TensorRecord


@dataclass(eq=False)
class EncodedEntry:
    """One layer's codebook/codes/permutation plus its geometry."""

    name: str
    source_kind: str
    kernel_size: int
    c_in: int
    c_out: int
    d: int
    k_eff: int
    codebook: np.ndarray  # (k_eff, d) float16
    codes: np.ndarray  # (m_hat, n) int64
    permutation: np.ndarray  # (rows,) uint32
    perm_block: int = 1

    def validate(self):
        m_hat, n = self.codes.shape
        if self.d < 1:
            raise MalformedFile(f"entry {self.name!r} has subvector size {self.d}")
        if m_hat * self.d != self.c_in * self.kernel_size**2 or n != self.c_out:
            raise MalformedFile(f"entry {self.name!r} codes do not match its layer geometry")
        if self.codebook.shape != (self.k_eff, self.d):
            raise MalformedFile(f"entry {self.name!r} codebook shape mismatch")
        if self.codes.size and (self.codes.min() < 0 or self.codes.max() >= self.k_eff):
            raise MalformedFile(f"entry {self.name!r} has out-of-range codes")
        if self.permutation.shape != (m_hat * self.d,):
            raise MalformedFile(f"entry {self.name!r} permutation length mismatch")


def entries_equal(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, RawEntry):
        return records_equal(a.record, b.record)
    return (
        (a.name, a.source_kind, a.kernel_size, a.c_in, a.c_out, a.d, a.k_eff, a.perm_block)
        == (b.name, b.source_kind, b.kernel_size, b.c_in, b.c_out, b.d, b.k_eff, b.perm_block)
        and a.codebook.tobytes() == b.codebook.tobytes()
        and np.array_equal(a.codes, b.codes)
        and np.array_equal(a.permutation, b.permutation)
    )


@dataclass(eq=False)
class CompressedModel:
    """Ordered per-layer entries plus an echo of the architecture DAG."""

    entries: list = field(default_factory=list)
    layers: list = field(default_factory=list)
    edges: list = field(default_factory=list)


def compressed_models_equal(a: CompressedModel, b: CompressedModel) -> bool:
    if len(a.entries) != len(b.entries):
        return False
    if [(m.name, m.kind) for m in a.layers] != [(m.name, m.kind) for m in b.layers]:
        return False
    if list(a.edges) != list(b.edges):
        return False
    return all(entries_equal(x, y) for x, y in zip(a.entries, b.entries))


def save_compressed(model: CompressedModel, path) -> int:
    """Serialize a compressed model; returns the byte count written."""
    payload = bytearray()
    entries = []
    for entry in model.entries:
        if isinstance(entry, RawEntry):
            entries.append({"type": "raw", **_put_tensor(payload, entry.record)})
            continue
        entry.validate()
        m_hat, n = entry.codes.shape
        bits = code_width(entry.k_eff)
        cb_off = len(payload)
        payload.extend(entry.codebook.astype("<f2", copy=False).tobytes())
        codes_off = len(payload)
        codes_blob = pack_codes(entry.codes, bits)
        payload.extend(codes_blob)
        perm_off = len(payload)
        payload.extend(entry.permutation.astype("<u4", copy=False).tobytes())
        entries.append(
            {
                "type": "encoded",
                "name": entry.name,
                "source_kind": entry.source_kind,
                "kernel_size": entry.kernel_size,
                "c_in": entry.c_in,
                "c_out": entry.c_out,
                "d": entry.d,
                "k_eff": entry.k_eff,
                "m_hat": m_hat,
                "n": n,
                "codebook_offset": cb_off,
                "codes_offset": codes_off,
                "codes_nbytes": len(codes_blob),
                "perm_offset": perm_off,
                "perm_block": entry.perm_block,
            }
        )
    manifest = {
        "entry_count": len(entries),
        "entries": entries,
        "layers": [_layer_to_dict(m) for m in model.layers],
        "edges": [[p, c] for p, c in model.edges],
    }
    return _write_file(path, _frame(COMPRESSED_MAGIC, manifest, bytes(payload)))


def load_compressed(path) -> CompressedModel:
    """Parse a ``PQFC`` compressed model file."""
    manifest, payload = _unframe(_read_file(path), COMPRESSED_MAGIC)
    listed = manifest.get("entries", [])
    if int(manifest.get("entry_count", len(listed))) != len(listed):
        raise MalformedFile("entry count disagrees with the entry list")
    entries = []
    for obj in listed:
        if obj["type"] == "raw":
            entries.append(RawEntry(_get_tensor(payload, obj)))
            continue
        if obj["type"] != "encoded":
            raise MalformedFile(f"unknown entry type {obj['type']!r}")
        k_eff, d = int(obj["k_eff"]), int(obj["d"])
        m_hat, n = int(obj["m_hat"]), int(obj["n"])
        bits = code_width(k_eff)
        cb_raw = _take(payload, int(obj["codebook_offset"]), k_eff * d * 2, obj["name"])
        codebook = np.frombuffer(cb_raw, dtype="<f2").reshape(k_eff, d).copy()
        codes_raw = _take(payload, int(obj["codes_offset"]), int(obj["codes_nbytes"]), obj["name"])
        codes = unpack_codes(codes_raw, bits, m_hat * n).reshape(m_hat, n)
        rows = m_hat * d
        perm_raw = _take(payload, int(obj["perm_offset"]), rows * 4, obj["name"])
        perm = np.frombuffer(perm_raw, dtype="<u4").copy()
        entry = EncodedEntry(
            name=obj["name"],
            source_kind=obj["source_kind"],
            kernel_size=int(obj["kernel_size"]),
            c_in=int(obj["c_in"]),
            c_out=int(obj["c_out"]),
            d=d,
            k_eff=k_eff,
            codebook=codebook,
            codes=codes,
            permutation=perm,
            perm_block=int(obj["perm_block"]),
        )
        entry.validate()
        entries.append(entry)
    layers = [_layer_from_dict(o) for o in manifest.get("layers", [])]
    edges = [(p, c) for p, c in manifest.get("edges", [])]
    return CompressedModel(entries=entries, layers=layers, edges=edges)
