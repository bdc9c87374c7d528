"""Per-layer encodings, decoding, exact bit accounting, and orchestration.

A layer encoding is its permutation group's channel-unit order, a codebook,
and a code grid; decoding rebuilds the permuted matrix from centroids,
undoes the order (lifted to the layer's rows), and undoes the reshape. A
compressed model stores each group's unit order once, and every member's
entry names it. Bit accounting prices a whole architecture without
touching weights: uncompressed tensors at 32 bits per parameter, codebooks at
16 bits per entry, codes at ``ceil(log2(k_eff))`` bits each. The first
convolution, biases, and batchnorm vectors stay uncompressed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import graph as graph_mod
from . import layout, permsearch, quantize, tensor_io
from .errors import (
    CodebookOverflow,
    IndivisibleBlockSize,
    NonFiniteWeight,
    ShapeMismatch,
    TensorTooLarge,
    UnknownLayerKind,
)
from .rng import derive_seed
from .tensor_io import (
    CompressedModel,
    EncodedEntry,
    LayerMeta,
    ModelCheckpoint,
    TensorRecord,
    WEIGHTED_KINDS,
    code_width,
)


@dataclass(frozen=True)
class CompressionConfig:
    """Subvector sizes, codebook sizes, and skip rules for one run.

    ``d_conv_multiplier`` selects K*K (1, the small-blocks regime) or 2*K*K
    (2, large blocks) subvectors for K>1 convolutions; pointwise convolutions
    use ``d_pw`` and fully-connected layers ``d_fc``. Classifier fc layers get
    their own codebook size ``k_fc`` regardless of the convolutional ``k``.
    The first convolution is always kept raw; ``skip`` names more layers to
    keep raw.
    """

    k: int = 256
    k_fc: int = 2048
    d_conv_multiplier: int = 1
    d_pw: int = 4
    d_fc: int = 4
    skip: frozenset = frozenset()
    quantizer: str = "src"  # src | kmeans
    src_iterations: int = quantize.DEFAULT_ITERATIONS
    gamma: float = quantize.DEFAULT_GAMMA
    use_permutation: bool = True
    perm_iterations: int = 1000

    def subvector_size(self, meta: LayerMeta) -> int:
        if meta.kind in ("conv", "deconv"):
            if meta.kernel_size > 1:
                return self.d_conv_multiplier * meta.kernel_size**2
            return self.d_pw
        if meta.kind == "fc":
            return self.d_fc
        raise UnknownLayerKind(meta.kind)

    def requested_codebook_size(self, meta: LayerMeta) -> int:
        return self.k_fc if meta.kind == "fc" else self.k


def first_conv_name(layers) -> str | None:
    """First convolutional layer in declaration order; exempt from compression."""
    for meta in layers:
        if meta.kind in ("conv", "deconv"):
            return meta.name
    return None


def is_compressible(meta: LayerMeta, cfg: CompressionConfig, first_conv: str | None) -> bool:
    if meta.kind not in WEIGHTED_KINDS:
        return False
    return meta.name not in cfg.skip and meta.name != first_conv


@dataclass(eq=False)
class LayerEncoding:
    """Unit order + codebook + codes for one `layer`, and what they decode to.

    `layer` owns the geometry: its ``(C_in*K*K, C_out)`` matrix has
    ``m_hat * d`` rows and ``n`` columns, for the ``(m_hat, n)`` codes and the
    ``(k_eff, d)`` codebook. `units` is the order of its group's channel
    units, each ``C_in / len(units)`` input channels, that the rows were put
    in before quantization; None keeps the stored order.
    """

    units: np.ndarray | None
    codebook: np.ndarray  # (k_eff, d) float64, or float32 when read from a container
    codes: np.ndarray  # (m_hat, n) int64
    layer: LayerMeta
    error: float = 0.0

    @property
    def k_eff(self) -> int:
        return self.codebook.shape[0]

    @property
    def d(self) -> int:
        return self.codebook.shape[1]

    def row_order(self) -> np.ndarray:
        """The layer matrix's row at each row of the permuted matrix the codes encode."""
        rows = self.codes.shape[0] * self.d
        if self.units is None:
            return np.arange(rows)
        return permsearch.expand_channel_permutation(self.units, rows // len(self.units)).indices


def _require_finite(name: str, weight) -> None:
    """Raise `NonFiniteWeight` unless every entry of the weight is finite."""
    if not np.isfinite(weight).all():
        raise NonFiniteWeight(f"layer {name!r} has a NaN or infinite weight")


def encode_layer(
    weight,
    meta: LayerMeta,
    cfg: CompressionConfig,
    units=None,
    seed: int = 0,
) -> LayerEncoding:
    """Reshape, permute, split, and quantize one layer's weights.

    The geometry is `meta`'s, priced by the rule `bit_report` uses; a weight
    of another shape raises `ShapeMismatch` naming the layer. `units`, an
    order of channel units (None: the stored order), must be a permutation
    whose length divides ``meta.c_in``, or `IndivisibleBlockSize` is raised.
    """
    _require_finite(meta.name, weight)
    shape = layout.weight_shape(meta.kind, meta.c_in, meta.c_out, meta.kernel_size)
    if np.shape(weight) != shape:
        raise ShapeMismatch(
            f"layer {meta.name!r}: weight has shape {np.shape(weight)}, its layer needs {shape}"
        )
    d, m_hat, n, k_eff = _layer_geometry(meta, cfg)
    matrix = layout.reshape_weight(weight, meta.kind)
    if units is not None:
        units = np.asarray(units, dtype=np.int64)
        if not units.size or meta.c_in % units.size or not layout.is_permutation(units, units.size):
            raise IndivisibleBlockSize(
                f"layer {meta.name!r}: the unit order is not a permutation of units "
                f"that divide its {meta.c_in} input channels"
            )
        matrix = matrix[permsearch.expand_channel_permutation(units, len(matrix) // units.size).indices]
    subs = layout.split_subvectors(matrix, d)
    if cfg.quantizer == "kmeans":
        codes, codebook, error = quantize.kmeans(subs, k_eff, cfg.src_iterations, seed)
    else:
        sigma = permsearch.subvector_covariance(subs) if m_hat * n >= 2 else np.zeros((d, d))
        codes, codebook, error = quantize.src(
            subs, sigma, k_eff, quantize.SRCConfig(cfg.src_iterations, cfg.gamma, seed)
        )
    return LayerEncoding(units=units, codebook=codebook, codes=codes, layer=meta, error=error)


def _stored_order(enc: LayerEncoding, out=None) -> LayerEncoding:
    """`enc`, one code per stored filter (``d == K*K``), with `units` None and the same decode.

    A unit order moves whole rows of the code grid, so putting each grid
    row at its channel's row undoes it. The codes are laid out as the
    stored weight's two channel axes take them (a deconv's are the
    transpose of a contiguous ``(n, m_hat)`` array); `enc` is returned as
    it is when already so. Otherwise they go over the leading elements of
    `out`, a contiguous int64 buffer of at least ``m_hat * n``, or into a
    new array.
    """
    codes, transposed = enc.codes, _transposed(enc.layer.kind)
    if enc.units is None and (codes.T if transposed else codes).flags.c_contiguous:
        return enc
    m_hat, n = codes.shape
    shape = (n, m_hat) if transposed else (m_hat, n)
    grid = np.empty(shape, np.int64) if out is None else out[: m_hat * n].reshape(shape)
    stored = grid.T if transposed else grid
    rows = slice(None)
    if enc.units is not None:
        rows = permsearch.expand_channel_permutation(enc.units, m_hat // enc.units.size).indices
    stored[rows] = codes  # a scatter: unlike `np.take(..., out=)`, it allocates nothing
    return replace(enc, units=None, codes=stored)


def _transposed(kind: str) -> bool:
    """Whether a stored `kind` weight puts its output channels first."""
    return layout.channel_axis(kind, "o") == 0


def decode_layer(enc: LayerEncoding, out=None) -> np.ndarray:
    """Rebuild the weight tensor approximation in the shape of `enc.layer`.

    The centroids are gathered in the codebook's own dtype (float32 from a
    container, float64 once fine-tuned) straight into the stored layout
    (`layout.empty_weight`). When ``d == K*K`` each code is one stored
    filter, so that is one pass over the weight: a `np.take` of the
    codebook rows, by the codes in stored channel order (`_stored_order`),
    into the ``(C_in, C_out, K*K)`` view of a conv (``(C_out, C_in, K*K)``
    of a deconv). It uses ``mode="clip"``, because numpy buffers a `take`
    into `out` in its default mode; no code is clipped, since
    `encode_layer` makes codes below `k_eff` and `load_compressed` bounds
    every stored code (`EncodedEntry.validate`). Other layers (pointwise,
    fc, large blocks) take two passes: gather the subvectors, then scatter
    each one's rows to their unpermuted place. With `out`, a contiguous 1-D
    buffer of the codebook's dtype and at least the weight's size, the
    weight is written over its leading elements and returned as a view of
    them, so one buffer can serve every layer of a model in turn.
    """
    meta = enc.layer
    kk = meta.kernel_size**2
    weight, rows = layout.empty_weight(
        meta.kind, meta.c_in, meta.c_out, meta.kernel_size, enc.codebook.dtype, out
    )
    if enc.d == kk:
        codes = _stored_order(enc).codes
        filters = weight.reshape(*weight.shape[:2], kk)
        index = codes.T if _transposed(meta.kind) else codes
        np.take(enc.codebook, index, axis=0, out=filters, mode="clip")
        return weight
    subvectors = np.take(enc.codebook, enc.codes, axis=0)  # (m_hat, n, d)
    # row i*d + t of the permuted matrix is row dest[i, t] of the layer's own
    dest = enc.row_order().reshape(-1, enc.d)
    rows[dest // kk, dest % kk] = subvectors.transpose(0, 2, 1)
    return weight


# ---------------------------------------------------------------------------
# Bit accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReportRow:
    name: str
    layer_type: str
    shape: tuple
    dtype: str
    bits: int


@dataclass(eq=False)
class CompressionReport:
    """Exact per-entry bit counts plus the 32-bit-baseline comparison."""

    rows: list
    baseline_bits: int

    @property
    def total_bits(self) -> int:
        return sum(r.bits for r in self.rows)

    @property
    def total_bytes(self) -> float:
        return self.total_bits / 8

    @property
    def total_kb(self) -> float:
        return self.total_bits / 8 / 1024

    @property
    def total_mb(self) -> float:
        return self.total_bits / 8 / 1024**2

    @property
    def ratio(self) -> float:
        return self.baseline_bits / self.total_bits if self.total_bits else float("inf")

    def to_text(self) -> str:
        header = ("name", "layer_type", "shape", "dtype", "bits")
        table = [header]
        for r in self.rows:
            shape = "(" + ", ".join(str(s) for s in r.shape) + ("," if len(r.shape) == 1 else "") + ")"
            table.append((r.name, r.layer_type, shape, r.dtype, str(r.bits)))
        widths = [max(len(row[i]) for row in table) for i in range(5)]
        lines = ["  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)) for row in table]
        lines.append(f"ratio_vs_float32 {self.ratio:.2f}")
        lines.append(f"total_bits {self.total_bits}")
        lines.append(f"total_bytes {self.total_bytes:.0f}")
        lines.append(f"total_KB {self.total_kb:.2f}")
        lines.append(f"total_MB {self.total_mb:.2f}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        lines = ["name,layer_type,shape,dtype,bits"]
        for r in self.rows:
            shape = "x".join(str(s) for s in r.shape)
            lines.append(f"{r.name},{r.layer_type},{shape},{r.dtype},{r.bits}")
        lines.append(f"total_bits,,,,{self.total_bits}")
        lines.append(f"total_MB,,,,{self.total_mb:.2f}")
        return "\n".join(lines)


_TYPE_LABEL = {"conv": "Conv2d", "deconv": "ConvTranspose2d", "fc": "Linear", "batchnorm": "BatchNorm2d"}


def _display_weight_shape(meta: LayerMeta) -> tuple:
    # reported output-major, matching common framework state-dict layouts
    k = meta.kernel_size
    if meta.kind in ("conv", "deconv"):
        return (meta.c_out, meta.c_in, k, k)
    return (meta.c_out, meta.c_in)


def _layer_geometry(meta: LayerMeta, cfg: CompressionConfig):
    d = cfg.subvector_size(meta)
    rows = meta.c_in * meta.kernel_size**2
    n = meta.c_out
    if rows % d != 0 or (meta.kernel_size > 1 and d % meta.kernel_size**2 != 0):
        raise IndivisibleBlockSize(
            f"layer {meta.name!r}: subvector size {d} incompatible with {rows} rows"
        )
    m_hat = rows // d
    k_eff = quantize.clamp_codebook_size(cfg.requested_codebook_size(meta), m_hat * n)
    return d, m_hat, n, k_eff


def bit_report(model: ModelCheckpoint, cfg: CompressionConfig) -> CompressionReport:
    """Price every stored entry of an architecture, weights not required.

    A weighted layer stores a bias when the checkpoint holds its
    ``<name>.bias`` tensor; an architecture with no tensors (a spec) gives
    one to every fc layer.
    """
    first_conv = first_conv_name(model.layers)
    names = {rec.name for rec in model.tensors}
    rows = []
    baseline = 0
    for meta in model.layers:
        if meta.kind == "batchnorm":
            c = meta.c_out
            baseline += 2 * c
            rows.append(ReportRow(f"{meta.name}.weight", "BatchNorm2d", (c,), "float32", 32 * c))
            rows.append(ReportRow(f"{meta.name}.bias", "BatchNorm2d", (c,), "float32", 32 * c))
            continue
        if meta.kind not in WEIGHTED_KINDS:
            continue  # stores no tensor
        label = _TYPE_LABEL[meta.kind]
        wshape = _display_weight_shape(meta)
        n_params = int(np.prod(wshape))
        has_bias = f"{meta.name}.bias" in names if names else meta.kind == "fc"
        baseline += n_params + (meta.c_out if has_bias else 0)
        bias_row = ReportRow(f"{meta.name}.bias", label, (meta.c_out,), "float32", 32 * meta.c_out)
        bias = [bias_row] if has_bias else []
        if not is_compressible(meta, cfg, first_conv):
            rows.append(ReportRow(f"{meta.name}.weight", label, wshape, "float32", 32 * n_params))
            rows += bias
            continue
        d, m_hat, n, k_eff = _layer_geometry(meta, cfg)
        bits = code_width(k_eff)
        rows += bias
        rows.append(
            ReportRow(f"{meta.name}.codebook", label, (k_eff, d), "float16", 16 * k_eff * d)
        )
        code_dtype = "uint8" if bits <= 8 else "int16"
        rows.append(
            ReportRow(f"{meta.name}.codes_matrix", label, (n, m_hat), code_dtype, m_hat * n * bits)
        )
    return CompressionReport(rows=rows, baseline_bits=32 * baseline)


# ---------------------------------------------------------------------------
# Whole-model orchestration
# ---------------------------------------------------------------------------

def _compressed_layers(ckpt: ModelCheckpoint, cfg: CompressionConfig) -> list:
    """Layers whose weights `cfg` compresses, in declaration order."""
    first_conv = first_conv_name(ckpt.layers)
    return [
        meta
        for meta in ckpt.layers
        if is_compressible(meta, cfg, first_conv)
        and ckpt.tensor(f"{meta.name}.weight") is not None
    ]


def resolve_layer_permutations(ckpt: ModelCheckpoint, cfg: CompressionConfig, seed: int = 0) -> list:
    """Search one shared channel permutation per group.

    Returns ``(names, search)`` for each group with a child that `cfg`
    compresses, in the order of `resolve_groups`: those children, in sorted
    order, and the `permsearch.GroupSearch` of the order of the group's
    channel units (blocks of `channel_block` channels), which each child's
    encoding takes as it is. `resolve_groups` proves that the units divide
    each child's input channels, and `validate` that each weight has its
    layer's shape. Each group's float64 matrices are made only when the
    search sets that group up (`permsearch.search_groups`), and only for
    the children a swap can change: the search drops the others unread, so
    each of them is passed as its rows with no columns.
    """
    if not cfg.use_permutation:
        return []
    compressed = {meta.name: meta for meta in _compressed_layers(ckpt, cfg)}
    named = []
    for group in graph_mod.resolve_groups(ckpt):
        # `names` keeps the sorted order of `group.children`
        names = tuple(name for name in group.children if name in compressed)
        if names:
            named.append((names, group.channels // group.channel_block))

    def child(meta, units):
        rows, d = meta.c_in * meta.kernel_size**2, cfg.subvector_size(meta)
        block = rows // units
        if block % d == 0:  # a swap cannot change it, so the search reads only its rows
            return np.empty((rows, 0)), d, block
        return layout.reshape_weight(ckpt.tensor(f"{meta.name}.weight").data, meta.kind), d, block

    def children():
        for names, units in named:
            yield [child(compressed[name], units) for name in names], derive_seed(seed, "perm", *names)

    searches = permsearch.search_groups(children(), cfg.perm_iterations)
    return [(names, search) for (names, _), search in zip(named, searches)]


def encode_layers(
    ckpt: ModelCheckpoint, cfg: CompressionConfig, units: dict, seed: int, jobs: int = 1
) -> dict:
    """Encode every compressible layer; returns name -> `LayerEncoding`.

    `units` maps a layer to its group's unit order; layers missing from it
    keep their stored order. Seeds are derived
    per layer, so `jobs` worker threads change nothing but wall time;
    results stay in declaration order.
    """

    def encode_one(meta):
        return meta.name, encode_layer(
            ckpt.tensor(f"{meta.name}.weight").data,
            meta,
            cfg,
            units=units.get(meta.name),
            seed=derive_seed(seed, "quantize", meta.name),
        )

    layers = _compressed_layers(ckpt, cfg)
    if jobs > 1 and len(layers) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return dict(pool.map(encode_one, layers))
    return dict(map(encode_one, layers))


def compress_model(ckpt: ModelCheckpoint, cfg: CompressionConfig, seed: int = 0, jobs: int = 1):
    """Permute, quantize, and package a checkpoint.

    Returns ``(CompressedModel, CompressionReport, per_layer_errors,
    searches)``, `searches` as `resolve_layer_permutations` returns them.
    Deterministic given the seed; layers and groups are independent, so a
    thread pool of `jobs` workers changes nothing but wall time.
    """
    ckpt.validate()
    # fail before the permutation search, not after it
    for meta in _compressed_layers(ckpt, cfg):
        _require_finite(meta.name, ckpt.tensor(f"{meta.name}.weight").data)
    searches = resolve_layer_permutations(ckpt, cfg, seed)
    groups = [
        (names, s.units) for names, s in searches if not np.array_equal(s.units, np.arange(s.units.size))
    ]
    group_of = {name: i for i, (names, _) in enumerate(groups) for name in names}
    units_of = {name: units for names, units in groups for name in names}
    encodings = encode_layers(ckpt, cfg, units_of, seed, jobs)

    entries = []
    for rec in ckpt.tensors:
        layer_name = rec.name[: -len(".weight")] if rec.name.endswith(".weight") else None
        if layer_name in encodings:
            entries.append(encoding_to_entry(encodings[layer_name], group_of.get(layer_name)))
        else:
            entries.append(rec)
    model = CompressedModel(
        entries=entries,
        layers=list(ckpt.layers),
        edges=list(ckpt.edges),
        groups=[units for _, units in groups],
    )
    report = bit_report(ckpt, cfg)
    errors = {name: enc.error for name, enc in encodings.items()}
    return model, report, errors, searches


def encoding_to_entry(enc: LayerEncoding, group: int | None = None) -> EncodedEntry:
    """Convert an encoding to its storage form (float16 codebook, packed codes).

    The entry holds the encoding's `layer`, which gives its geometry, and
    stores no unit order: `group` indexes the model's stored order that
    equals `enc.units`, and None stands for the stored order, so a permuted
    encoding without a group raises ValueError. Raises `CodebookOverflow` if
    a finite centroid coordinate would round to infinity in float16
    (magnitude 65520 or more).
    """
    layer, units = enc.layer, enc.units
    if group is None and units is not None and not np.array_equal(units, np.arange(units.size)):
        raise ValueError(f"layer {layer.name!r} is permuted, so its entry must name its group")
    with np.errstate(over="ignore"):
        codebook = enc.codebook.astype("<f2")
    if not np.isfinite(codebook).all():
        raise CodebookOverflow(f"layer {layer.name!r}: a centroid exceeds the float16 range (max 65504)")
    packed = tensor_io.pack_codes(enc.codes, code_width(enc.k_eff))
    return EncodedEntry(layer, enc.d, enc.k_eff, codebook, packed, group)


def entry_to_encoding(entry: EncodedEntry, groups=(), codes=None) -> LayerEncoding:
    """Rehydrate a storage entry; the codebook keeps its float16 rounding.

    The encoding holds the entry's `layer`. `groups` is the model's list of
    stored unit orders, which the entry's `group` indexes. The codebook
    widens to float32, which holds every float16 exactly, and the codes are
    unpacked into a new int64 array. With `codes`, the entry's int64
    ``(m_hat, n)`` codes already unpacked, the encoding takes them as its
    code grid as they are. `CompressedModel.validate` has checked the unit
    order against the entry.
    """
    return LayerEncoding(
        units=None if entry.group is None else groups[entry.group],
        codebook=entry.codebook.astype(np.float32),
        codes=entry.unpack() if codes is None else codes,
        layer=entry.layer,
    )


def _decoded_checkpoint(model: CompressedModel, decode) -> ModelCheckpoint:
    """`model` as a checkpoint whose encoded weights hold ``decode(name, entry)``."""
    tensors = []
    for entry in model.entries:
        if isinstance(entry, TensorRecord):
            tensors.append(entry)
            continue
        name, meta = f"{entry.name}.weight", entry.layer
        shape = layout.weight_shape(meta.kind, meta.c_in, meta.c_out, meta.kernel_size)
        tensors.append(TensorRecord(name, shape, decode(name, entry)))
    return ModelCheckpoint(tensors=tensors, layers=list(model.layers), edges=list(model.edges))


def decompress_model(model: CompressedModel) -> ModelCheckpoint:
    """Decode every entry back into a plain checkpoint (float32 tensors)."""
    return _decoded_checkpoint(
        model, lambda name, entry: decode_layer(entry_to_encoding(entry, model.groups))
    )


def decompress_to_file(model: CompressedModel, path) -> int:
    """Decode `model` into a checkpoint file one layer at a time; returns the bytes written.

    The bytes equal those of ``save_checkpoint(decompress_model(model), path)``,
    but only one layer's codes and decoded weight are held at a time. The
    manifest follows from the declared layers, so `save_checkpoint` writes
    it first. Then each layer is decoded through buffers that serve every
    layer in turn:

    - `codes`, int64, sized for the layer with the most codes: each encoded
      layer's packed codes are unpacked into it;
    - `grid`, int64, sized for the largest layer whose every code is one
      filter (``d == K*K``): a moved one's or a deconv's codes are put in
      stored channel order there (`_stored_order`);
    - `buf`, float32, sized for the largest weight: each layer is decoded
      into it and written.

    Every buffer is allocated and every declared shape is checked before
    the file is opened, so a hostile entry leaves no file; `load_compressed`
    has already checked the model whole, its codes and group permutations
    included.
    """
    entries = {}

    def declare(name, entry):
        entries[name] = entry
        return None  # the record declares the tensor; `produce` decodes it

    def allocate(sizes, dtype, detail):
        largest = max(sizes, key=sizes.get, default=None)
        try:
            return np.empty(sizes.get(largest, 0), dtype=dtype)
        except MemoryError as exc:
            raise TensorTooLarge(detail(largest)) from exc

    def too_many_codes(name):
        e = entries[name]
        return f"entry {e.name!r}: {e.m_hat} x {e.n} codes do not fit in memory"

    ckpt = _decoded_checkpoint(model, declare)
    counts = {name: e.m_hat * e.n for name, e in entries.items()}
    filters = {name: counts[name] for name, e in entries.items() if e.d == e.layer.kernel_size**2}
    sizes = {name: count * entries[name].d for name, count in counts.items()}
    codes = allocate(counts, np.int64, too_many_codes)
    grid = allocate(filters, np.int64, too_many_codes)
    buf = allocate(
        sizes, np.float32, lambda name: f"tensor {name!r}: {sizes[name]} values do not fit in memory"
    )

    def produce(rec):
        try:
            entry = entries[rec.name]
            enc = entry_to_encoding(entry, model.groups, entry.unpack(out=codes))
            return decode_layer(_stored_order(enc, grid) if rec.name in filters else enc, out=buf)
        except MemoryError as exc:
            raise TensorTooLarge(f"tensor {rec.name!r} does not fit in memory") from exc

    return tensor_io.save_checkpoint(ckpt, path, produce)
