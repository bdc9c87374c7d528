"""Per-layer encodings, decoding, exact bit accounting, and orchestration.

A layer encoding is a row permutation, a codebook, and a code grid; decoding
rebuilds the permuted matrix from centroids, undoes the permutation, and
undoes the reshape. Bit accounting prices a whole architecture without
touching weights: uncompressed tensors at 32 bits per parameter, codebooks at
16 bits per entry, codes at ``ceil(log2(k_eff))`` bits each. The first
convolution, biases, and batchnorm vectors stay uncompressed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import graph as graph_mod
from . import layout, permsearch, quantize, tensor_io
from .errors import (
    CodebookOverflow,
    IndivisibleBlockSize,
    MalformedFile,
    NonFiniteWeight,
    UnknownLayerKind,
)
from .permsearch import Permutation
from .rng import derive_seed
from .tensor_io import (
    CompressedModel,
    EncodedEntry,
    LayerMeta,
    ModelCheckpoint,
    RawEntry,
    WEIGHTED_KINDS,
    code_width,
)


@dataclass(frozen=True)
class CompressionConfig:
    """Subvector sizes, codebook sizes, and skip rules for one run.

    ``d_conv_multiplier`` selects K*K (1, the small-blocks regime) or 2*K*K
    (2, large blocks) subvectors for K>1 convolutions; pointwise convolutions
    use ``d_pw`` and fully-connected layers ``D_FC``. Classifier fc layers get
    their own codebook size ``k_fc`` regardless of the convolutional ``k``.
    Per-layer ``overrides`` take precedence over all of these.
    """

    D_FC = 4  # not a field: no run sets another fc subvector size

    k: int = 256
    k_fc: int = 2048
    d_conv_multiplier: int = 1
    d_pw: int = 4
    skip_first_conv: bool = True
    skip: frozenset = frozenset()
    overrides: dict = field(default_factory=dict)  # name -> {"k": int, "d": int}
    quantizer: str = "src"  # src | kmeans
    src_iterations: int = quantize.DEFAULT_ITERATIONS
    gamma: float = quantize.DEFAULT_GAMMA
    use_permutation: bool = True
    perm_iterations: int = 1000

    @property
    def regime(self) -> str:
        return "large" if self.d_conv_multiplier == 2 else "small"

    @classmethod
    def small_blocks(cls, k: int = 256, **kwargs) -> "CompressionConfig":
        return cls(k=k, d_conv_multiplier=1, d_pw=4, **kwargs)

    @classmethod
    def large_blocks(cls, k: int = 256, d_pw: int = 4, **kwargs) -> "CompressionConfig":
        return cls(k=k, d_conv_multiplier=2, d_pw=d_pw, **kwargs)

    def subvector_size(self, meta: LayerMeta) -> int:
        override = self.overrides.get(meta.name, {})
        if "d" in override:
            return int(override["d"])
        if meta.kind in ("conv", "deconv"):
            if meta.kernel_size > 1:
                return self.d_conv_multiplier * meta.kernel_size**2
            return self.d_pw
        if meta.kind == "fc":
            return self.D_FC
        raise UnknownLayerKind(meta.kind)

    def requested_codebook_size(self, meta: LayerMeta) -> int:
        override = self.overrides.get(meta.name, {})
        if "k" in override:
            return int(override["k"])
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
    if meta.name in cfg.skip:
        return False
    if cfg.skip_first_conv and meta.name == first_conv:
        return False
    return True


@dataclass(eq=False)
class LayerEncoding:
    """Permutation + codebook + codes for one layer, and what they decode to."""

    permutation: Permutation
    codebook: np.ndarray  # (k_eff, d) float64
    codes: np.ndarray  # (m_hat, n) int64
    kernel_size: int
    c_in: int
    c_out: int
    d: int
    source_kind: str
    error: float = 0.0

    @property
    def k_eff(self) -> int:
        return self.codebook.shape[0]


def _require_finite(name: str, weight) -> None:
    """Raise `NonFiniteWeight` unless every entry of the weight is finite."""
    if not np.isfinite(weight).all():
        raise NonFiniteWeight(f"layer {name!r} has a NaN or infinite weight")


def encode_layer(
    weight,
    meta: LayerMeta,
    cfg: CompressionConfig,
    permutation: Permutation | None = None,
    seed: int = 0,
) -> LayerEncoding:
    """Reshape, permute, split, and quantize one layer's weights."""
    _require_finite(meta.name, weight)
    rw = layout.reshape_weight(weight, meta.kind)
    block = rw.kernel_size**2
    if permutation is None:
        permutation = Permutation.identity(rw.rows, block=block)
    permutation.validate()
    if permutation.size != rw.rows:
        raise IndivisibleBlockSize(
            f"permutation covers {permutation.size} rows, layer has {rw.rows}"
        )
    d = cfg.subvector_size(meta)
    permuted = layout.ReshapedWeight(
        permutation.apply_rows(rw.matrix), rw.kernel_size, rw.c_in, rw.c_out, rw.source_kind
    )
    subs = layout.split_subvectors(permuted, d)
    k_eff = quantize.clamp_codebook_size(cfg.requested_codebook_size(meta), subs.count)
    if cfg.quantizer == "kmeans":
        codes, codebook, error = quantize.kmeans(subs, k_eff, cfg.src_iterations, seed)
    else:
        if subs.count >= 2:
            stats = permsearch.subvector_covariance(subs)
        else:
            stats = permsearch.CovarianceStats(np.zeros((d, d)), subs.count, np.zeros(d))
        codes, codebook, error = quantize.src(
            subs, stats, k_eff, quantize.SRCConfig(cfg.src_iterations, cfg.gamma, seed)
        )
    return LayerEncoding(
        permutation=permutation,
        codebook=codebook,
        codes=codes,
        kernel_size=rw.kernel_size,
        c_in=rw.c_in,
        c_out=rw.c_out,
        d=d,
        source_kind=rw.source_kind,
        error=error,
    )


def decode_layer(enc: LayerEncoding) -> np.ndarray:
    """Rebuild the weight tensor approximation in its original shape."""
    subvectors = np.asarray(enc.codebook, dtype=np.float64)[enc.codes]
    permuted = layout.merge_matrix(subvectors)
    matrix = enc.permutation.invert_rows(permuted)
    rw = layout.ReshapedWeight(matrix, enc.kernel_size, enc.c_in, enc.c_out, enc.source_kind)
    return layout.inverse_reshape(rw)


def quantization_error(weight, enc: LayerEncoding) -> float:
    """Mean squared error per subvector between P*W_r and its reconstruction."""
    rw = layout.reshape_weight(weight, enc.source_kind)
    permuted = enc.permutation.apply_rows(rw.matrix)
    approx = layout.merge_matrix(np.asarray(enc.codebook, dtype=np.float64)[enc.codes])
    m_hat = permuted.shape[0] // enc.d
    return float(np.square(approx - permuted).sum() / (m_hat * permuted.shape[1]))


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


def _has_bias(meta: LayerMeta) -> bool:
    if meta.has_bias is not None:
        return meta.has_bias
    return meta.kind == "fc"


def bit_report(model, cfg: CompressionConfig) -> CompressionReport:
    """Price every stored entry of an architecture, weights not required."""
    layers = model.layers if isinstance(model, ModelCheckpoint) else list(model)
    first_conv = first_conv_name(layers)
    rows = []
    baseline = 0
    for meta in layers:
        if meta.kind in ("input", "output", "relu", "pool", "add", "reshape"):
            continue
        if meta.kind == "batchnorm":
            c = meta.c_out
            baseline += 2 * c
            rows.append(ReportRow(f"{meta.name}.weight", "BatchNorm2d", (c,), "float32", 32 * c))
            rows.append(ReportRow(f"{meta.name}.bias", "BatchNorm2d", (c,), "float32", 32 * c))
            continue
        if meta.kind not in WEIGHTED_KINDS:
            raise UnknownLayerKind(meta.kind)
        label = _TYPE_LABEL[meta.kind]
        wshape = _display_weight_shape(meta)
        n_params = int(np.prod(wshape))
        baseline += n_params + (meta.c_out if _has_bias(meta) else 0)
        if not is_compressible(meta, cfg, first_conv):
            rows.append(ReportRow(f"{meta.name}.weight", label, wshape, "float32", 32 * n_params))
            if _has_bias(meta):
                rows.append(
                    ReportRow(f"{meta.name}.bias", label, (meta.c_out,), "float32", 32 * meta.c_out)
                )
            continue
        d, m_hat, n, k_eff = _layer_geometry(meta, cfg)
        bits = code_width(k_eff)
        if _has_bias(meta):
            rows.append(
                ReportRow(f"{meta.name}.bias", label, (meta.c_out,), "float32", 32 * meta.c_out)
            )
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


def resolve_layer_permutations(ckpt: ModelCheckpoint, cfg: CompressionConfig, seed: int = 0):
    """Optimize one shared permutation per group; returns name -> row Permutation.

    A group's children are its layers that `cfg` compresses. `resolve_groups`
    proves that the group's units divide each child's input channels, and
    `validate` that each weight has its layer's shape.
    """
    if not cfg.use_permutation:
        return {}
    compressed = {meta.name: meta for meta in _compressed_layers(ckpt, cfg)}
    result = {}
    for group in graph_mod.resolve_groups(ckpt):
        names = [name for name in group.children if name in compressed]
        if not names:
            continue
        units = group.channels // group.channel_block
        specs = []
        for name in names:
            meta = compressed[name]
            weight = np.asarray(ckpt.tensor(f"{name}.weight").data, dtype=np.float64)
            rw = layout.reshape_weight(weight, meta.kind)
            specs.append((rw.matrix, cfg.subvector_size(meta), rw.rows // units))
        # `names` keeps the sorted order of `group.children`
        unit_perm = permsearch.optimize_group_permutation(
            specs, iters=cfg.perm_iterations, seed=derive_seed(seed, "perm", *names)
        )
        for name, (_, _, rows_per_unit) in zip(names, specs):
            result[name] = permsearch.expand_channel_permutation(
                unit_perm.indices, rows_per_unit
            )
    return result


def encode_layers(
    ckpt: ModelCheckpoint, cfg: CompressionConfig, permutations: dict, seed: int, jobs: int = 1
) -> dict:
    """Encode every compressible layer; returns name -> `LayerEncoding`.

    Layers missing from `permutations` keep the identity. Seeds are derived
    per layer, so `jobs` worker threads change nothing but wall time.
    """

    def encode_one(meta):
        rec = ckpt.tensor(f"{meta.name}.weight")
        return meta.name, encode_layer(
            np.asarray(rec.data, dtype=np.float64),
            meta,
            cfg,
            permutation=permutations.get(meta.name),
            seed=derive_seed(seed, "quantize", meta.name),
        )

    layers = _compressed_layers(ckpt, cfg)
    if jobs > 1 and len(layers) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return dict(pool.map(encode_one, layers))
    return dict(encode_one(meta) for meta in layers)


def compress_model(ckpt: ModelCheckpoint, cfg: CompressionConfig, seed: int = 0, jobs: int = 1):
    """Permute, quantize, and package a checkpoint.

    Returns ``(CompressedModel, CompressionReport, per_layer_errors)``.
    Deterministic given the seed; layers and groups are independent, so a
    thread pool of `jobs` workers changes nothing but wall time.
    """
    ckpt.validate()
    # fail before the permutation search, not after it
    for meta in _compressed_layers(ckpt, cfg):
        _require_finite(meta.name, ckpt.tensor(f"{meta.name}.weight").data)
    permutations = resolve_layer_permutations(ckpt, cfg, seed)
    encodings = encode_layers(ckpt, cfg, permutations, seed, jobs)

    entries = []
    for rec in ckpt.tensors:
        layer_name = rec.name[: -len(".weight")] if rec.name.endswith(".weight") else None
        if layer_name in encodings:
            enc = encodings[layer_name]
            entries.append(encoding_to_entry(layer_name, enc))
        else:
            entries.append(RawEntry(rec))
    model = CompressedModel(entries=entries, layers=list(ckpt.layers), edges=list(ckpt.edges))
    report = bit_report(ckpt, cfg)
    errors = {name: enc.error for name, enc in encodings.items()}
    return model, report, errors


def encoding_to_entry(name: str, enc: LayerEncoding) -> EncodedEntry:
    """Convert an in-memory encoding to its storage form (float16 codebook).

    Raises `CodebookOverflow` if a finite centroid coordinate would round to
    infinity in float16 (magnitude 65520 or more).
    """
    with np.errstate(over="ignore"):
        codebook = enc.codebook.astype("<f2")
    if not np.isfinite(codebook).all():
        raise CodebookOverflow(
            f"layer {name!r}: a centroid exceeds the float16 range (max 65504)"
        )
    return EncodedEntry(
        name=name,
        source_kind=enc.source_kind,
        kernel_size=enc.kernel_size,
        c_in=enc.c_in,
        c_out=enc.c_out,
        d=enc.d,
        k_eff=enc.k_eff,
        codebook=codebook,
        codes=enc.codes.astype(np.int64),
        permutation=enc.permutation.indices.astype("<u4"),
        perm_block=enc.permutation.block,
    )


def entry_to_encoding(entry: EncodedEntry) -> LayerEncoding:
    """Rehydrate a storage entry; the codebook keeps its float16 rounding.

    Raises `MalformedFile` naming the entry if the stored permutation repeats
    or skips a row, or breaks its `perm_block` structure.
    """
    permutation = Permutation(entry.permutation.astype(np.int64), block=entry.perm_block)
    try:
        permutation.validate()
    except IndivisibleBlockSize as exc:
        raise MalformedFile(f"entry {entry.name!r} stores an invalid permutation: {exc}") from exc
    return LayerEncoding(
        permutation=permutation,
        codebook=entry.codebook.astype(np.float64),
        codes=entry.codes.astype(np.int64),
        kernel_size=entry.kernel_size,
        c_in=entry.c_in,
        c_out=entry.c_out,
        d=entry.d,
        source_kind=entry.source_kind,
    )


def decompress_model(model: CompressedModel) -> ModelCheckpoint:
    """Decode every entry back into a plain checkpoint (float32 tensors)."""
    tensors = []
    for entry in model.entries:
        if isinstance(entry, RawEntry):
            tensors.append(entry.record)
        else:
            weight = decode_layer(entry_to_encoding(entry))
            tensors.append(tensor_io.tensor_record(f"{entry.name}.weight", weight, "f32"))
    ckpt = ModelCheckpoint(tensors=tensors, layers=list(model.layers), edges=list(model.edges))
    tensor_io._fill_bias_flags(ckpt)
    return ckpt
