"""Command-line entry point: compress, decompress, report, groups, eval, bench.

Exit codes: 0 success, 1 usage error, 2 data error. Every run emits one JSON
manifest (to ``--manifest`` or as a single line on the diagnostic stream)
echoing the configuration, seeds, per-layer errors, and timing, so reruns are
reproducible. All tabular output has an aligned-text and a CSV form.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import codec, finetune, graph, layout, permsearch, tensor_io
from .errors import PQFError
from .rng import derive_seed, gaussian, make_rng

TOOL_VERSION = "0.1.0"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error kind=Usage detail={message!r}", file=sys.stderr)
        raise SystemExit(1)


_SEED_RANGE = range(-(1 << 63), 1 << 63)  # the signed 64-bit ints a seed is hashed as


def _seed(text: str) -> int:
    """`--seed`; its default is PQF_SEED's text, which argparse parses only without --seed."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"PQF_SEED or --seed is not an integer: {text!r}")
    if value not in _SEED_RANGE:
        raise argparse.ArgumentTypeError(
            f"PQF_SEED or --seed must be between {_SEED_RANGE[0]} and {_SEED_RANGE[-1]}, got {value}"
        )
    return value


def _at_least(low: int):
    """An argparse type: an int of at least `low`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


_at_least_one, _non_negative = _at_least(1), _at_least(0)


def _rate(text: str) -> float:
    """An argparse type: a finite float of at least 0, for a learning rate."""
    value = float(text)
    if not 0.0 <= value < math.inf:  # nan fails too
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {value}")
    return value


_rate.__name__ = "float"  # argparse names it in "invalid float value"


def _add_common(parser):
    default = os.environ.get("PQF_SEED", "0")
    parser.add_argument("--seed", type=_seed, default=default, help="master seed")
    parser.add_argument("--manifest", default=None, help="write the run manifest here")


def build_parser() -> _Parser:
    parser = _Parser(prog="pqf", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("compress", parents=[], help="compress a checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.add_argument("--jobs", type=_at_least_one, default=1, help="parallel layers")
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
    p.add_argument("--epochs", type=_non_negative, default=30)
    p.add_argument("--lr", type=_rate, default=1e-3)
    p.add_argument("--lr-min", type=_rate, default=1e-6)
    p.add_argument("--k", type=_at_least_one, default=4)
    p.add_argument("--d", type=_at_least_one, default=8)
    p.add_argument("--out", default=None, help="CSV trace path (default: stdout)")
    _add_common(p)

    p = sub.add_parser("bench", help="quantizer ablation on synthetic weights")
    p.add_argument("--seeds", type=_at_least_one, default=BenchConfig.seeds)
    p.add_argument("--rows", type=_at_least_one, default=BenchConfig.rows)
    p.add_argument("--cols", type=_at_least_one, default=BenchConfig.cols)
    p.add_argument("--d", type=_at_least_one, default=BenchConfig.d)
    p.add_argument("--k", type=_at_least_one, default=BenchConfig.k)
    p.add_argument("--src-iters", type=_at_least_one, default=BenchConfig.src_iterations)
    p.add_argument("--perm-iters", type=_non_negative, default=BenchConfig.perm_iterations)
    p.add_argument("--generator", choices=("anisotropic", "isotropic"), default=BenchConfig.generator)
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    _add_common(p)
    return parser


def _add_config_flags(parser):
    defaults = codec.CompressionConfig
    parser.add_argument("--regime", choices=("small", "large"), default="small")
    parser.add_argument("--k", type=int, default=defaults.k)
    parser.add_argument("--k-fc", type=int, default=defaults.k_fc)
    parser.add_argument("--d-pw", type=_at_least_one, default=defaults.d_pw)
    parser.add_argument("--src-iters", type=int, default=defaults.src_iterations)
    parser.add_argument("--gamma", type=float, default=defaults.gamma)
    parser.add_argument("--no-anneal", action="store_true", help="plain k-means codebooks")
    parser.add_argument("--perm-iters", type=_non_negative, default=defaults.perm_iterations)
    parser.add_argument("--no-perm", action="store_true", help="identity permutations")


def _check_config_flags(parser, args):
    """Reject config values no run can use, as usage errors, before any work."""
    widest = 1 << tensor_io.MAX_CODE_BITS  # larger codebooks need codes wider than stored
    for flag, value in (("--k", args.k), ("--k-fc", args.k_fc)):
        if not 1 <= value <= widest:
            parser.error(f"{flag} must be between 1 and {widest}, got {value}")
    if not 0 < args.gamma < math.inf:
        parser.error(f"--gamma must be finite and above 0, got {args.gamma}")
    if args.src_iters < (0 if args.no_anneal else 1):
        parser.error(
            f"--src-iters must be at least 1 (0 only with --no-anneal), got {args.src_iters}"
        )


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
    """Accept either a binary checkpoint or a text architecture spec, reading the file once
    (so it may be a pipe)."""
    raw = tensor_io._read_file(path)
    if raw[:4] == tensor_io.CHECKPOINT_MAGIC:
        return tensor_io.parse_checkpoint(raw)
    return tensor_io.parse_arch_spec(raw)


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
# Subcommands: each prints its output and returns its manifest fields
# ---------------------------------------------------------------------------

def _write_csv(path, text: str):
    """Write CSV `text` to `path`, or print it when no path is given."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_compress(args) -> dict:
    ckpt = tensor_io.load_checkpoint(args.checkpoint)
    cfg = _config_from_args(args)
    model, report, errors, searches = codec.compress_model(ckpt, cfg, seed=args.seed, jobs=args.jobs)
    nbytes = tensor_io.save_compressed(model, args.out)
    print(f"wrote {args.out} ({nbytes} bytes)")
    print(f"total_bits {report.total_bits}")
    print(f"ratio_vs_float32 {report.ratio:.2f}")
    return {
        "seeds": {"master": args.seed},
        "per_layer_error": {k: float(v) for k, v in sorted(errors.items())},
        "permutation_bits": model.permutation_bits,
        "groups": [
            {
                "children": list(names),
                "units": int(s.units.size),
                "start": s.start,
                "objective": {
                    "identity": s.identity_objective,
                    "start": s.start_objective,
                    "final": s.final_objective,
                },
                "proposals_scored": s.proposals,
                "swaps_kept": s.swaps,
                "rounds": s.rounds,
            }
            for names, s in searches
            if s.start is not None
        ],
        "bytes_written": nbytes,
    }


def _cmd_decompress(args) -> dict:
    model = tensor_io.load_compressed(args.model)
    nbytes = codec.decompress_to_file(model, args.out)
    print(f"wrote {args.out} ({nbytes} bytes)")
    return {"bytes_written": nbytes}


def _cmd_report(args) -> dict:
    model = _load_model_description(args.arch)
    cfg = _config_from_args(args)
    report = codec.bit_report(model, cfg)
    print(report.to_csv() if args.csv else report.to_text())
    return {"total_bits": report.total_bits}


def _cmd_groups(args) -> dict:
    model = _load_model_description(args.arch)
    groups = graph.resolve_groups(model)
    print(graph.format_groups(groups))
    return {"group_count": len(groups)}


def _cmd_eval(args) -> dict:
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
    _write_csv(args.out, "\n".join(lines))
    print(
        f"val_acc raw={result['raw_acc']:.4f} quantized={result['quantized_acc']:.4f} "
        f"finetuned={result['finetuned_acc']:.4f}",
        file=sys.stderr if not args.out else sys.stdout,
    )
    return {key: result[key] for key in ("raw_acc", "quantized_acc", "finetuned_acc")}


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
    cfg = codec.CompressionConfig(
        k=k,
        k_fc=k,
        d_fc=d,
        # the conv toy's 8 -> 4 classifier has 4 subvectors, too few for a
        # codebook of more than one centroid, so it stays raw
        skip=frozenset({"fc"} if toy == "conv" else ()),
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

BENCH_METHODS = ("kmeans", "src", "perm+src")


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


def synthetic_weights(cfg: BenchConfig, seed: int) -> np.ndarray:
    """Synthetic weight matrix for the ablation harness.

    The anisotropic generator spreads correlated row pairs far apart and
    scales them over two decades, so reordering rows before carving
    subvectors genuinely pays off; columns cluster around a few prototypes
    so the subvector distribution is mixture-like. The isotropic generator
    is plain white Gaussian noise, where no permutation can help. Raises
    ValueError for an anisotropic matrix of an odd row count, which has no
    pairing.
    """
    rng = make_rng(seed, "bench-weights")
    m, n = cfg.rows, cfg.cols
    if cfg.generator == "isotropic":
        return gaussian(rng, (m, n))
    if m % 2:
        raise ValueError(f"the anisotropic generator pairs rows, so rows must be even, got {m}")
    half = m // 2
    prototypes = gaussian(rng, (max(4, n // 12), half))
    picks = rng.integers(0, prototypes.shape[0], size=n)
    latent = prototypes[picks].T + 0.25 * gaussian(rng, (half, n))
    scales = np.logspace(0.0, 1.5, half)[rng.permutation(half)]
    top = latent * scales[:, None]
    bottom = (latent + 0.1 * gaussian(rng, (half, n))) * scales[:, None]
    return np.concatenate([top, bottom], axis=0)


def _bench_one(matrix: np.ndarray, cfg: BenchConfig, method: str, seed: int):
    """`matrix` quantized as one fc layer: its error and its rate-distortion bound."""
    d, rows = cfg.d, None
    if method == "perm+src":
        init = permsearch.greedy_init(matrix, d, 1)
        rows = permsearch.local_search(
            matrix, d, 1, init, cfg.perm_iterations, derive_seed(seed, "bench-perm")
        )
    layer = tensor_io.LayerMeta("bench", "fc", c_in=cfg.rows, c_out=cfg.cols)
    quantizer = "kmeans" if method == "kmeans" else "src"
    layer_cfg = codec.CompressionConfig(
        k_fc=cfg.k, d_fc=d, quantizer=quantizer, src_iterations=cfg.src_iterations
    )
    enc = codec.encode_layer(matrix, layer, layer_cfg, rows, derive_seed(seed, "bench-q"))
    work = matrix if rows is None else matrix[rows]
    sigma = permsearch.subvector_covariance(layout.split_subvectors(work, d))
    return enc.error, permsearch.rd_lower_bound(sigma, enc.k_eff)


def run_bench(cfg: BenchConfig, base_seed: int = 0) -> list:
    """Rows of (method, seed, error, rd_bound, wall_time_s), deterministic."""
    rows = []
    for s in range(cfg.seeds):
        matrix = synthetic_weights(cfg, derive_seed(base_seed, "bench-data", str(s)))
        for method in BENCH_METHODS:
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


def _cmd_bench(args) -> dict:
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
    _write_csv(args.out, bench_csv(rows))
    medians = {
        m: float(np.median([r["error"] for r in rows if r["method"] == m]))
        for m in BENCH_METHODS
    }
    for method, med in medians.items():
        print(f"median_error {method} {med:.8g}", file=sys.stderr)
    return {"medians": medians}


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
    if args.command in ("compress", "report"):
        _check_config_flags(parser, args)
    if args.command == "eval" and args.lr_min > args.lr:
        # the rate anneals from --lr down to --lr-min; the other way it would rise
        parser.error(f"--lr-min must be at most --lr, got --lr-min {args.lr_min} above --lr {args.lr}")
    if args.command == "bench" and args.generator == "anisotropic" and args.rows % 2:
        parser.error(f"--rows must be even for the anisotropic generator, got {args.rows}")
    if args.command == "bench" and args.rows % args.d:
        # the quantizer cuts each column into subvectors of --d rows
        parser.error(f"--rows must be a multiple of --d, got --rows {args.rows} and --d {args.d}")
    if args.command == "bench" and args.rows // args.d * args.cols < 2:
        # the covariance the quantizer and the bound use needs two subvectors
        count = args.rows // args.d * args.cols
        parser.error(f"the matrix must hold at least 2 subvectors (--rows / --d x --cols), got {count}")
    started = time.perf_counter()
    try:
        fields = _COMMANDS[args.command](args)
        # inside the try: an unwritable --manifest is an I/O failure like any other
        _emit_manifest(args, {**fields, "elapsed_s": round(time.perf_counter() - started, 6)})
    except PQFError as exc:
        print(f"error kind={type(exc).__name__} detail={str(exc)!r}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error kind=IoFailure detail={str(exc)!r}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # an array a run needs does not fit, whichever command asked for it
        print(f"error kind=TensorTooLarge detail={str(exc)!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
