"""Command-line entry point: compress, decompress, report, groups, eval, bench.

Exit codes: 0 success, 1 usage error, 2 data error. Every run emits one JSON
manifest (to ``--manifest`` or as a single line on the diagnostic stream)
echoing the configuration, seeds, per-layer errors, and timing, so reruns are
reproducible. All tabular output has an aligned-text and a CSV form.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import codec, finetune, graph, permsearch, quantize, tensor_io
from .errors import PQFError
from .rng import derive_seed, gaussian, make_rng

TOOL_VERSION = "0.1.0"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error kind=Usage detail={message!r}", file=sys.stderr)
        raise SystemExit(1)


def _env_seed() -> int:
    try:
        return int(os.environ.get("PQF_SEED", "0"))
    except ValueError:
        return 0


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=_env_seed(), help="master seed")
    parser.add_argument("--manifest", default=None, help="write the run manifest here")
    parser.add_argument("--jobs", type=int, default=1, help="parallel groups/layers")


def build_parser() -> _Parser:
    parser = _Parser(prog="pqf", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("compress", parents=[], help="compress a checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    _add_common(p)

    p = sub.add_parser("decompress", help="decode a compressed model")
    p.add_argument("model")
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("report", help="exact bit accounting for an architecture")
    p.add_argument("arch")
    _add_config_flags(p)
    p.add_argument("--csv", action="store_true", help="emit CSV instead of aligned text")
    _add_common(p)

    p = sub.add_parser("groups", help="print shared-permutation groups")
    p.add_argument("arch")
    _add_common(p)

    p = sub.add_parser("eval", help="toy fine-tuning recovery run")
    p.add_argument("--toy", choices=("mlp", "conv"), default="mlp")
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--lr-min", type=float, default=1e-6)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--out", default=None, help="CSV trace path (default: stdout)")
    _add_common(p)

    p = sub.add_parser("bench", help="quantizer ablation on synthetic weights")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--rows", type=int, default=32)
    p.add_argument("--cols", type=int, default=96)
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--k", type=int, default=16)
    p.add_argument("--src-iters", type=int, default=150)
    p.add_argument("--perm-iters", type=int, default=300)
    p.add_argument("--generator", choices=("anisotropic", "isotropic"), default="anisotropic")
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    _add_common(p)
    return parser


def _add_config_flags(parser):
    parser.add_argument("--regime", choices=("small", "large"), default="small")
    parser.add_argument("--k", type=int, default=256)
    parser.add_argument("--k-fc", type=int, default=2048)
    parser.add_argument("--d-pw", type=int, default=4)
    parser.add_argument("--src-iters", type=int, default=1000)
    parser.add_argument("--gamma", type=float, default=0.5)
    parser.add_argument("--no-anneal", action="store_true", help="plain k-means codebooks")
    parser.add_argument("--perm-iters", type=int, default=1000)
    parser.add_argument("--no-perm", action="store_true", help="identity permutations")


def _config_from_args(args) -> codec.CompressionConfig:
    return codec.CompressionConfig(
        k=args.k,
        k_fc=args.k_fc,
        d_conv_multiplier=2 if args.regime == "large" else 1,
        d_pw=args.d_pw,
        quantizer="kmeans" if args.no_anneal else "src",
        src_iterations=args.src_iters,
        gamma=args.gamma,
        use_permutation=not args.no_perm,
        perm_iterations=args.perm_iters,
    )


def _load_model_description(path) -> tensor_io.ModelCheckpoint:
    """Accept either a binary checkpoint or a text architecture spec."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == tensor_io.CHECKPOINT_MAGIC:
        return tensor_io.load_checkpoint(path)
    return tensor_io.load_arch_spec(path)


def _emit_manifest(args, payload: dict):
    manifest = {
        "tool": "pqf",
        "version": TOOL_VERSION,
        "command": args.command,
        "config": {
            k: v for k, v in vars(args).items() if k not in ("command", "manifest") and v is not None
        },
        **payload,
    }
    blob = json.dumps(manifest, sort_keys=True)
    if args.manifest:
        with open(args.manifest, "w", encoding="utf-8") as fh:
            fh.write(blob + "\n")
    else:
        print(f"manifest {blob}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_compress(args) -> int:
    started = time.perf_counter()
    ckpt = tensor_io.load_checkpoint(args.checkpoint)
    cfg = _config_from_args(args)
    model, report, errors = codec.compress_model(ckpt, cfg, seed=args.seed, jobs=args.jobs)
    nbytes = tensor_io.save_compressed(model, args.out)
    print(f"wrote {args.out} ({nbytes} bytes)")
    print(f"total_bits {report.total_bits}")
    print(f"ratio_vs_float32 {report.ratio:.2f}")
    _emit_manifest(
        args,
        {
            "seeds": {"master": args.seed},
            "per_layer_error": {k: float(v) for k, v in sorted(errors.items())},
            "bytes_written": nbytes,
            "elapsed_s": round(time.perf_counter() - started, 6),
        },
    )
    return 0


def _cmd_decompress(args) -> int:
    started = time.perf_counter()
    model = tensor_io.load_compressed(args.model)
    ckpt = codec.decompress_model(model)
    nbytes = tensor_io.save_checkpoint(ckpt, args.out)
    print(f"wrote {args.out} ({nbytes} bytes)")
    _emit_manifest(args, {"bytes_written": nbytes, "elapsed_s": round(time.perf_counter() - started, 6)})
    return 0


def _cmd_report(args) -> int:
    started = time.perf_counter()
    model = _load_model_description(args.arch)
    cfg = _config_from_args(args)
    report = codec.bit_report(model, cfg)
    print(report.to_csv() if args.csv else report.to_text())
    _emit_manifest(
        args,
        {
            "total_bits": report.total_bits,
            "elapsed_s": round(time.perf_counter() - started, 6),
        },
    )
    return 0


def _cmd_groups(args) -> int:
    started = time.perf_counter()
    model = _load_model_description(args.arch)
    groups = graph.resolve_groups(model)
    print(graph.format_groups(groups))
    _emit_manifest(
        args,
        {"group_count": len(groups), "elapsed_s": round(time.perf_counter() - started, 6)},
    )
    return 0


def _cmd_eval(args) -> int:
    started = time.perf_counter()
    result = run_eval(
        toy=args.toy,
        epochs=args.epochs,
        lr=args.lr,
        lr_min=args.lr_min,
        k=args.k,
        d=args.d,
        seed=args.seed,
    )
    lines = ["epoch,lr,train_loss,val_acc"]
    for i, (lr, loss, acc) in enumerate(
        zip(result["trace"].lr, result["trace"].train_loss, result["trace"].val_acc), start=1
    ):
        lines.append(f"{i},{lr:.8g},{loss:.8g},{acc:.6g}")
    csv = "\n".join(lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv + "\n")
    else:
        print(csv)
    print(
        f"val_acc raw={result['raw_acc']:.4f} quantized={result['quantized_acc']:.4f} "
        f"finetuned={result['finetuned_acc']:.4f}",
        file=sys.stderr if not args.out else sys.stdout,
    )
    _emit_manifest(
        args,
        {
            "raw_acc": result["raw_acc"],
            "quantized_acc": result["quantized_acc"],
            "finetuned_acc": result["finetuned_acc"],
            "elapsed_s": round(time.perf_counter() - started, 6),
        },
    )
    return 0


def run_eval(toy="mlp", epochs=30, lr=1e-3, lr_min=1e-6, k=4, d=8, seed=0) -> dict:
    """Train a toy classifier, damage it with aggressive quantization, recover."""
    if toy == "mlp":
        dataset = finetune.gaussian_blobs(120, 4, 8, seed=derive_seed(seed, "data"))
        ckpt = finetune.make_mlp_checkpoint((8, 16, 16, 4), seed=derive_seed(seed, "init"))
        train_epochs = 80
    else:
        dataset = finetune.blob_images(80, 4, (2, 6, 6), seed=derive_seed(seed, "data"))
        ckpt = finetune.make_conv_classifier_checkpoint(
            (2, 8, 8), 3, 4, seed=derive_seed(seed, "init")
        )
        train_epochs = 60
    net = finetune.ToyNetwork.from_checkpoint(ckpt)
    finetune.train_network(net, dataset, epochs=train_epochs, seed=derive_seed(seed, "train"))
    raw_acc = finetune.accuracy(net, dataset.val_x, dataset.val_y)

    trained = net.to_checkpoint()
    cfg = codec.CompressionConfig.small_blocks(
        k=k,
        k_fc=k,
        overrides={meta.name: {"d": d} for meta in trained.layers if meta.kind == "fc"},
        skip_first_conv=(toy == "conv"),
        use_permutation=False,
        src_iterations=50,
    )
    encodings = codec.encode_layers(trained, cfg, {}, seed)
    qnet = finetune.ToyNetwork.from_checkpoint(trained, encodings=encodings)
    quantized_acc = finetune.accuracy(qnet, dataset.val_x, dataset.val_y)
    trace = finetune.finetune_codebooks(
        qnet,
        dataset,
        epochs=epochs,
        lr=lr,
        lr_min=lr_min,
        seed=derive_seed(seed, "finetune"),
    )
    finetuned_acc = finetune.accuracy(qnet, dataset.val_x, dataset.val_y)
    return {
        "raw_acc": raw_acc,
        "quantized_acc": quantized_acc,
        "finetuned_acc": finetuned_acc,
        "trace": trace,
        "net": qnet,
    }


# ---------------------------------------------------------------------------
# Bench harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchConfig:
    seeds: int = 20
    rows: int = 32
    cols: int = 96
    d: int = 4
    k: int = 16
    src_iterations: int = 150
    perm_iterations: int = 300
    generator: str = "anisotropic"  # anisotropic | isotropic
    methods: tuple = ("kmeans", "src", "perm+src")


def synthetic_weights(cfg: BenchConfig, seed: int) -> np.ndarray:
    """Synthetic weight matrix for the ablation harness.

    The anisotropic generator spreads correlated row pairs far apart and
    scales them over two decades, so reordering rows before carving
    subvectors genuinely pays off; columns cluster around a few prototypes
    so the subvector distribution is mixture-like. The isotropic generator
    is plain white Gaussian noise, where no permutation can help.
    """
    rng = make_rng(seed, "bench-weights")
    m, n = cfg.rows, cfg.cols
    if cfg.generator == "isotropic":
        return gaussian(rng, (m, n))
    half = m // 2
    prototypes = gaussian(rng, (max(4, n // 12), half))
    picks = rng.integers(0, prototypes.shape[0], size=n)
    latent = prototypes[picks].T + 0.25 * gaussian(rng, (half, n))
    scales = np.logspace(0.0, 1.5, half)[rng.permutation(half)]
    top = latent * scales[:, None]
    bottom = (latent + 0.1 * gaussian(rng, (half, n))) * scales[:, None]
    return np.concatenate([top, bottom], axis=0)


def _bench_one(matrix: np.ndarray, cfg: BenchConfig, method: str, seed: int):
    d = cfg.d
    if method == "perm+src":
        init = permsearch.greedy_init(matrix, d, 1)
        perm = permsearch.local_search(
            matrix, d, 1, init, cfg.perm_iterations, derive_seed(seed, "bench-perm")
        )
        work = perm.apply_rows(matrix)
    else:
        work = matrix
    pts = permsearch.subvector_points(work, d)
    stats = permsearch.subvector_covariance(pts)
    k_eff = quantize.clamp_codebook_size(cfg.k, pts.shape[0])
    if method == "kmeans":
        _, _, err = quantize.kmeans(pts, k_eff, cfg.src_iterations, derive_seed(seed, "bench-q"))
    else:
        _, _, err = quantize.src(
            pts,
            stats,
            k_eff,
            quantize.SRCConfig(cfg.src_iterations, 0.5, derive_seed(seed, "bench-q")),
        )
    bound = permsearch.rd_lower_bound(stats, k_eff)
    return err, bound


def run_bench(cfg: BenchConfig, base_seed: int = 0) -> list:
    """Rows of (method, seed, error, rd_bound, wall_time_s), deterministic."""
    rows = []
    for s in range(cfg.seeds):
        matrix = synthetic_weights(cfg, derive_seed(base_seed, "bench-data", str(s)))
        for method in cfg.methods:
            t0 = time.perf_counter()
            err, bound = _bench_one(matrix, cfg, method, derive_seed(base_seed, method, str(s)))
            rows.append(
                {
                    "method": method,
                    "seed": s,
                    "error": err,
                    "rd_bound": bound,
                    "wall_time_s": time.perf_counter() - t0,
                }
            )
    return rows


def bench_csv(rows) -> str:
    lines = ["method,seed,error,rd_bound,wall_time_s"]
    for r in rows:
        lines.append(
            f"{r['method']},{r['seed']},{r['error']:.10g},{r['rd_bound']:.10g},{r['wall_time_s']:.6f}"
        )
    return "\n".join(lines)


def _cmd_bench(args) -> int:
    started = time.perf_counter()
    cfg = BenchConfig(
        seeds=args.seeds,
        rows=args.rows,
        cols=args.cols,
        d=args.d,
        k=args.k,
        src_iterations=args.src_iters,
        perm_iterations=args.perm_iters,
        generator=args.generator,
    )
    rows = run_bench(cfg, base_seed=args.seed)
    csv = bench_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv + "\n")
    else:
        print(csv)
    medians = {
        m: float(np.median([r["error"] for r in rows if r["method"] == m]))
        for m in cfg.methods
    }
    for method, med in medians.items():
        print(f"median_error {method} {med:.8g}", file=sys.stderr)
    _emit_manifest(
        args, {"medians": medians, "elapsed_s": round(time.perf_counter() - started, 6)}
    )
    return 0


_COMMANDS = {
    "compress": _cmd_compress,
    "decompress": _cmd_decompress,
    "report": _cmd_report,
    "groups": _cmd_groups,
    "eval": _cmd_eval,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 1
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except PQFError as exc:
        print(f"error kind={type(exc).__name__} detail={str(exc)!r}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error kind=IoFailure detail={str(exc)!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
