#!/usr/bin/env python3
"""Paper-default clock: what one SRC iteration of a ResNet-18 compress costs.

    python3 scripts/paper_clock.py [--divisor 1] [--seed 1] [--pairs 5]
                                   [--baseline DIR] [--out PATH]

Each tree builds the synthetic ResNet-18 of its ``benchmarks/synth.py``
(channel counts divided by ``--divisor``, weights from ``--seed``) in its own
checkpoint format. Then each pair runs ``pqf compress`` with the paper's
defaults, once at 1 and once at N = 11 SRC iterations, each in its own child
process with one BLAS thread. The pair's per-iteration cost is
``(t_N - t_1) / (N - 1)``, and its paper-default estimate is ``t_1 + 999``
such iterations. With ``--baseline DIR``, another
checkout of pqf runs the same pair too, and the two trees alternate which
goes first.

The result goes to ``BENCH_paper-default.json`` in ``.bench_work/`` of this
checkout (``--out`` to change), and the checkpoints and ``.pqfc`` files to
``paper_clock/`` beside it. The JSON holds, per tree, the per-iteration
median and quartiles, the estimate, every run's wall seconds, peak RSS,
``.pqfc`` sha256, the decoded digest, and the host. The decoded digest is the
sha256 of each tensor's name, shape and float32 bytes, in file order, of the
``.pqfn`` that ``.pqfc`` decompresses to, read back by the same tree. It does
not depend on either container format, so it shows whether two trees that
write different bytes still store the same model.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
PAPER_ITERATIONS = 1000
LONG_ITERATIONS = 11
COMPRESS_FLAGS = ("--k", "256", "--k-fc", "2048", "--perm-iters", "1000", "--jobs", "1")
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# argv: model.pqfc, decoded.pqfn; prints the decoded digest last
DECODE_AND_DIGEST = """
import hashlib, json, os, sys
from pqf import cli, tensor_io
model, decoded = sys.argv[1:]
if cli.main(["decompress", model, "--out", decoded, "--manifest", os.devnull]):
    sys.exit(1)
digest = hashlib.sha256()
for rec in tensor_io.load_checkpoint(decoded).tensors:  # float32, checked at load
    digest.update(rec.name.encode() + json.dumps(list(rec.shape)).encode() + rec.data.tobytes())
print(digest.hexdigest())
"""


def build_checkpoint(tree: Path, divisor: int, seed: int, out: Path) -> None:
    """Write the synthetic ResNet-18 with `tree`'s own pqf, in a child process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(tree / d) for d in ("src", "benchmarks")))
    code = ("import sys, pathlib, synth; "
            f"synth.write_checkpoint(pathlib.Path(sys.argv[1]), 'resnet18', {divisor}, {seed}, sys.argv[2])")
    subprocess.run([sys.executable, "-c", code, str(tree), str(out)], env=env, check=True)


def run_compress(tree: Path, checkpoint: Path, iters: int, seed: int, out: Path) -> dict:
    """One `pqf compress` in a child process: wall seconds, peak RSS, output hash.

    A second child then decompresses the output with the same tree, untimed,
    and prints the decoded digest of the checkpoint it decodes to.
    """
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.update({name: "1" for name in BLAS_VARIABLES})
    pqf = [sys.executable, "-m", "pqf.cli"]
    command = [*pqf, "compress", str(checkpoint), "--out", str(out), "--src-iters", str(iters),
               "--seed", str(seed), "--manifest", os.devnull, *COMPRESS_FLAGS]
    start = time.perf_counter()
    child = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)
    # wait4, unlike wait, reports this child's own peak RSS
    _, status, usage = os.wait4(child.pid, 0)
    seconds = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise SystemExit(f"compress in {tree} exited {child.returncode}")
    command = [sys.executable, "-c", DECODE_AND_DIGEST, str(out), str(out.with_suffix(".pqfn"))]
    decoded = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True)
    if decoded.returncode:
        raise SystemExit(f"decompress in {tree} failed")
    return {
        "iters": iters,
        "seconds": seconds,
        "peak_rss_mb": usage.ru_maxrss / 1024,  # kilobytes on Linux
        "sha256": hashlib.sha256(out.read_bytes()).hexdigest(),
        "decoded_sha256": decoded.stdout.split()[-1],
    }


def quartiles(values: list) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list) -> dict:
    """Per-iteration cost and paper-default estimate over the pairs of one tree."""
    one = [r for r in runs if r["iters"] == 1]
    many = [r for r in runs if r["iters"] == LONG_ITERATIONS]
    per_iter = [(b["seconds"] - a["seconds"]) / (LONG_ITERATIONS - 1) for a, b in zip(one, many)]
    estimate = [(a["seconds"] + (PAPER_ITERATIONS - 1) * p) / 60 for a, p in zip(one, per_iter)]
    return {
        "per_iteration_s": quartiles(per_iter),
        "paper_default_min": quartiles(estimate),
        **{key: {str(n): sorted({r[key] for r in runs if r["iters"] == n}) for n in (1, LONG_ITERATIONS)}
           for key in ("sha256", "decoded_sha256")},
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "runs": runs,
    }


def host() -> dict:
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "simd": config.get("SIMD Extensions", {}).get("found", []),
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "blas_threads": 1,
        "environment": {k: os.environ.get(k, "") for k in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--divisor", type=int, default=1, help="channel-count divisor (1: full width)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--baseline", type=Path, default=None, help="another pqf checkout to alternate with")
    parser.add_argument("--out", type=Path, default=WORK / "BENCH_paper-default.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"change": ROOT}
    if args.baseline is not None:
        trees["baseline"] = args.baseline.resolve()
    scratch = args.out.parent / "paper_clock"
    scratch.mkdir(parents=True, exist_ok=True)
    checkpoints = {name: scratch / f"{name}_resnet18_w{args.divisor}_s{args.seed}.pqfn" for name in trees}
    for name, tree in trees.items():
        build_checkpoint(tree, args.divisor, args.seed, checkpoints[name])
    runs = {name: [] for name in trees}
    for pair in range(args.pairs):
        order = list(trees) if pair % 2 == 0 else list(trees)[::-1]
        for name in order:
            for iters in (1, LONG_ITERATIONS):
                out = scratch / f"{name}_{iters}.pqfc"
                runs[name].append(run_compress(trees[name], checkpoints[name], iters, args.seed, out))
                print(f"pair {pair + 1}/{args.pairs} {name} iters={iters} "
                      f"{runs[name][-1]['seconds']:.2f} s", file=sys.stderr)
    result = {
        "config": {
            "divisor": args.divisor,
            "seed": args.seed,
            "pairs": args.pairs,
            "compress_flags": list(COMPRESS_FLAGS),
            "trees": {name: str(path) for name, path in trees.items()},
        },
        "host": host(),
        "trees": {name: summarize(tree_runs) for name, tree_runs in runs.items()},
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    for name, summary in result["trees"].items():
        per_iter, estimate = summary["per_iteration_s"], summary["paper_default_min"]
        print(f"{name}: {per_iter['median']:.3f} s per iteration "
              f"(IQR {per_iter['q1']:.3f}-{per_iter['q3']:.3f}), "
              f"paper default {estimate['median']:.1f} min")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
