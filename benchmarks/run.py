#!/usr/bin/env python3
"""pqf benchmark: times what a user runs, checks its outputs, traces its layers.

    python3 benchmarks/run.py --workload r18-quantize --seed 1 --seconds 25 --trace 0

Run from anywhere; the program is imported from ``src/`` of the checkout
that holds this file, and all scratch files go to ``.bench_work/`` there.
Each operation calls ``pqf.cli.main([...])`` in this process, exactly as the
``pqf`` command would. Inputs are synthetic checkpoints made from the
shipped architecture specs and the seed; the program only sees the files.
Op and set-up times are reported at reference speed: a fixed kernel timed
around each op corrects for the shared host's load (see ``calibrate.py``).

With ``--trace 0`` the last stdout line is the end-to-end result. With
``--trace 1`` the run times some operations untraced, then the same
operations with every layer's public functions wrapped (see ``tracer.py``),
then kernel probes, and the last line holds the per-layer metrics. A JSON
record of each run (machine, checks, hashes, spans) is written to
``.bench_work/results/``. The exit code is 0 whenever a result was printed;
``correct`` says whether every check passed.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads: --jobs is the only source of parallelism.
BLAS_THREADS = 1
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

COMPRESS_FLAGS = ("--regime", "small", "--src-iters", "2", "--jobs", "1")
DECOMPRESS_SETUP_FLAGS = ("--no-anneal", "--src-iters", "0", "--perm-iters", "0", "--jobs", "1")
EVAL_FLAGS = ("--toy", "mlp", "--epochs", "30")
EVAL_POOL = 32  # toy problems; quality is their mean, so it carries no seed noise


@dataclass(frozen=True)
class Workload:
    command: str  # compress | decompress | eval
    arch: str = ""
    divisor: int = 1
    flags: tuple = ()  # for decompress, the flags of the set-up compress
    setup_reps: int = 3
    kernel: tuple = ("mlp", "assign", "stream")  # calibration parts (see calibrate.py)
    kernel_reps: int = 1


WORKLOADS = {
    "r18-quantize": Workload(
        "compress", "resnet18", 4, COMPRESS_FLAGS + ("--k", "256", "--k-fc", "2048", "--perm-iters", "20"), 9,
        kernel_reps=3,
    ),
    # small codebooks keep the quantizer cheap, so the search dominates; the
    # search is many small numpy calls, which the MLP part tracks best
    "r50-permute": Workload(
        "compress", "resnet50", 8, COMPRESS_FLAGS + ("--k", "32", "--k-fc", "32", "--perm-iters", "100"), 9,
        kernel=("mlp",), kernel_reps=2,
    ),
    "r50-decompress": Workload("decompress", "resnet50", 1, DECOMPRESS_SETUP_FLAGS, 3, kernel_reps=2),
    # the op is all small numpy calls, like the MLP part
    "toy-eval": Workload("eval", flags=EVAL_FLAGS, setup_reps=9, kernel=("mlp",)),
}

# ---------------------------------------------------------------------------
# Metrics (BENCHMARK.json mirrors these lists; a test keeps them in step)
# ---------------------------------------------------------------------------

END_TO_END = (
    # name, unit, better, bound
    ("setup_s", "s", "lower", 0.25),
    ("op_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("quality_loss", "ratio", "lower", 0.12),
    ("output_bytes", "bytes", "lower", 0.01),
    ("success_ratio", "ratio", "higher", 0.01),
)

# name -> (span, field): per-op sums over the traced spans of that name
SPAN_METRICS = {
    "cli.main.s": ("cli.main", "s"),
    "cli.main.self_s": ("cli.main", "self_s"),
    "codec.compress_model.s": ("codec.compress_model", "s"),
    "quantize.src.s": ("quantize.src", "s"),
    "quantize.src.self_s": ("quantize.src", "self_s"),
    "quantize.src.calls": ("quantize.src", "calls"),
    "rng.gaussian.s": ("rng.gaussian", "s"),
    "permsearch.subvector_covariance.s": ("permsearch.subvector_covariance", "s"),
    "codec.encode_layer.s": ("codec.encode_layer", "s"),
    "codec.encode_layer.self_s": ("codec.encode_layer", "self_s"),
    "codec.resolve_layer_permutations.s": ("codec.resolve_layer_permutations", "s"),
    "permsearch.optimize_group_permutation.s": ("permsearch.optimize_group_permutation", "s"),
    "permsearch.optimize_group_permutation.self_s": ("permsearch.optimize_group_permutation", "self_s"),
    "permsearch.greedy_init.s": ("permsearch.greedy_init", "s"),
    "permsearch.matrix_objective.s": ("permsearch.matrix_objective", "s"),
    "permsearch.matrix_objective.calls": ("permsearch.matrix_objective", "calls"),
    "graph.resolve_groups.s": ("graph.resolve_groups", "s"),
    "layout.reshape_weight.s": ("layout.reshape_weight", "s"),
    "layout.split_subvectors.s": ("layout.split_subvectors", "s"),
    "layout.merge_matrix.s": ("layout.merge_matrix", "s"),
    "tensor_io.load_checkpoint.s": ("tensor_io.load_checkpoint", "s"),
    "tensor_io.save_checkpoint.s": ("tensor_io.save_checkpoint", "s"),
    "tensor_io.load_compressed.s": ("tensor_io.load_compressed", "s"),
    "tensor_io.load_compressed.self_s": ("tensor_io.load_compressed", "self_s"),
    "tensor_io.save_compressed.s": ("tensor_io.save_compressed", "s"),
    "tensor_io.pack_codes.s": ("tensor_io.pack_codes", "s"),
    "tensor_io.unpack_codes.s": ("tensor_io.unpack_codes", "s"),
    "codec.decompress_model.s": ("codec.decompress_model", "s"),
    "codec.decode_layer.s": ("codec.decode_layer", "s"),
    "codec.decode_layer.calls": ("codec.decode_layer", "calls"),
    "finetune.train_network.s": ("finetune.train_network", "s"),
    "finetune.finetune_codebooks.s": ("finetune.finetune_codebooks", "s"),
    "finetune.forward.s": ("finetune.forward", "s"),
    "finetune.forward.calls": ("finetune.forward", "calls"),
    "finetune.backward.s": ("finetune.backward", "s"),
    "finetune.backward.calls": ("finetune.backward", "calls"),
    "finetune.centroid_gradients.s": ("finetune.centroid_gradients", "s"),
    "finetune.adam_cosine_step.s": ("finetune.adam_cosine_step", "s"),
}

# Figures computed per traced op from the hooks in install_tracer.
OP_FIGURES = {
    "quantize.iterations": ("count", "lower"),
    "quantize.error_over_bound": ("ratio", "lower"),
    "graph.groups": ("count", "higher"),
    "permsearch.noop_groups": ("count", "lower"),
    "permsearch.objective_drop": ("nats", "higher"),
    "permsearch.objective_drop_per_1k_evals": ("nats", "higher"),
    "tensor_io.bytes_read": ("bytes", "lower"),
    "tensor_io.bytes_written": ("bytes", "lower"),
    "trace.spans": ("count", "lower"),
}

# Figures of the whole traced run, and the kernel probes.
RUN_FIGURES = {
    "finetune.gain": ("ratio", "higher"),
    "finetune.finetuned_acc": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
    "trace.self_sum_gap_s": ("s", "lower"),
    "kernel.probe_rows": ("count", "higher"),
    "kernel.assign_codes.s": ("s", "lower"),
    "kernel.assign_codes.flops": ("flops", "lower"),
    "kernel.assign_codes.bytes": ("bytes", "lower"),
    "kernel.update_codebook.s": ("s", "lower"),
    "kernel.gaussian.s": ("s", "lower"),
    "kernel.matrix_objective.s": ("s", "lower"),
    "kernel.pack_codes.s": ("s", "lower"),
    "kernel.unpack_codes.s": ("s", "lower"),
    "kernel.assign_codes.base_128000x2048x4.ratio": ("ratio", "lower"),
    "kernel.assign_codes.base_262144x256x9.ratio": ("ratio", "lower"),
    "kernel.assign_codes.base_32768x256x4.ratio": ("ratio", "lower"),
}

# name -> (unit, better) for everything the traced run reports
PER_LAYER = {
    **{
        name: ("count", "lower") if field == "calls" else ("s", "lower")
        for name, (_, field) in SPAN_METRICS.items()
    },
    **OP_FIGURES,
    **RUN_FIGURES,
}

# Kernel probes: at most this many multiply-adds per assign_codes call.
PROBE_WORK = 1 << 26
# assign_codes seconds per call in ROADMAP.md's baseline table (2-core x86-64, numpy 2.4).
ASSIGN_BASELINES = (((128000, 2048, 4), 13.8), ((262144, 256, 9), 5.7), ((32768, 256, 4), 0.49))


class BenchError(Exception):
    """The benchmark cannot run here (missing program, failed set-up)."""


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def import_program():
    """Import pqf from this checkout's src/ and nowhere else."""
    if not (SRC / "pqf" / "__init__.py").is_file():
        raise BenchError(f"program source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import pqf

    if Path(pqf.__file__).resolve().parent != (SRC / "pqf").resolve():
        raise BenchError(f"imported pqf from {pqf.__file__}, not from {SRC}")
    return pqf


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def timing_summary(values) -> dict:
    """Count, mean, median, and the highest of p75/p90/p95/p99 with >= 10 samples beyond it."""
    out = {"n": len(values), "mean": statistics.fmean(values), "median": statistics.median(values)}
    ordered = sorted(values)
    for p in (99, 95, 90, 75):
        cut = ordered[min(len(ordered) - 1, math.ceil(p / 100 * len(ordered)) - 1)]
        if sum(v > cut for v in ordered) >= 10:
            out[f"p{p}"] = cut
            break
    return out


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def call_cli(argv) -> tuple:
    """Run ``pqf.cli.main(argv)`` quietly; returns (exit code, seconds)."""
    from pqf import cli

    sink, crash = io.StringIO(), None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception:  # a traceback is a failed op, not a crashed run
            crash, code = traceback.format_exc(), -1
        elapsed = time.perf_counter() - t0
    if crash:
        print(crash, file=sys.stderr)
    return code, elapsed


# ---------------------------------------------------------------------------
# Set-up (runs in a child process so its memory does not count as the ops')
# ---------------------------------------------------------------------------

def eval_seeds(seed: int) -> list:
    """The fixed toy-problem pool, rotated to start at an offset from `seed`."""
    start = seed % EVAL_POOL
    return [(start + i) % EVAL_POOL for i in range(EVAL_POOL)]


def paths(rundir: Path) -> dict:
    return {
        "input": rundir / "input.pqfn",
        "model": rundir / "model.pqfc",
        "out": rundir / "out.bin",
        "manifest": rundir / "manifest.json",
        "setup_manifest": rundir / "setup-manifest.json",
    }


def setup_once(wl: Workload, seed: int, rundir: Path) -> dict:
    import synth

    p = paths(rundir)
    info = {}
    if wl.command in ("compress", "decompress"):
        synth.write_checkpoint(ROOT, wl.arch, wl.divisor, seed, p["input"])
    if wl.command == "decompress":
        argv = ["compress", str(p["input"]), "--out", str(p["model"]), *wl.flags,
                "--seed", str(seed), "--manifest", str(p["setup_manifest"])]
        code, _ = call_cli(argv)
        if code != 0:
            raise BenchError(f"set-up compress exited {code}")
    if wl.command == "eval":
        # a reference run in a separate process; the ops must reproduce its bytes
        first = eval_seeds(seed)[0]
        code, _ = call_cli(["eval", *wl.flags, "--seed", str(first), "--out", str(p["out"]),
                            "--manifest", str(p["setup_manifest"])])
        if code != 0:
            raise BenchError(f"set-up eval exited {code}")
        info["reference"] = {"seed": first, "sha256": sha256(p["out"])}
    return info


def setup_child(wl: Workload, seed: int, rundir: Path):
    import_program()
    kernel = calibrate.Calibration(wl.kernel, wl.kernel_reps)
    times, scaled, info = [], [], {}
    before = kernel()
    for _ in range(wl.setup_reps):
        t0 = time.perf_counter()
        info = setup_once(wl, seed, rundir)
        times.append(time.perf_counter() - t0)
        after = kernel()
        scaled.append(kernel.scale(times[-1], before, after))
        before = after
    print(json.dumps({"setup_s": times, "setup_scaled_s": scaled, **info}))


def run_setup(name: str, seed: int, rundir: Path) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child", "--workload", name,
           "--seed", str(seed), "--rundir", str(rundir)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("set-up timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

class Runner:
    """Runs one workload's ops and records everything the checks need."""

    def __init__(self, name: str, wl: Workload, seed: int, rundir: Path):
        self.name, self.wl, self.seed = name, wl, seed
        self.p = paths(rundir)
        self.seeds = eval_seeds(seed)
        self.attempted = 0
        self.failed = 0
        self.hashes = {}  # op input key -> sha256 of the first output
        self.mismatches = []
        self.accuracies = {}  # eval seed -> manifest accuracies
        self.output_bytes = {}  # op input key -> size of the first output
        self.kernel = calibrate.Calibration(wl.kernel, wl.kernel_reps)

    def argv(self, i: int) -> tuple:
        p, wl = self.p, self.wl
        out, man = str(p["out"]), str(p["manifest"])
        if wl.command == "compress":
            key = "compress"
            argv = ["compress", str(p["input"]), "--out", out, *wl.flags,
                    "--seed", str(self.seed), "--manifest", man]
        elif wl.command == "decompress":
            key = "decompress"
            argv = ["decompress", str(p["model"]), "--out", out, "--manifest", man]
        else:
            key = self.seeds[i % len(self.seeds)]
            argv = ["eval", *wl.flags, "--seed", str(key), "--out", out, "--manifest", man]
        return key, argv

    def op(self, i: int) -> float | None:
        """Run op `i`; returns its seconds, or None if it failed."""
        key, argv = self.argv(i)
        self.p["out"].unlink(missing_ok=True)
        self.attempted += 1
        code, elapsed = call_cli(argv)
        if code != 0 or not self.p["out"].is_file():
            self.failed += 1
            print(f"op {i} ({key}) exited {code}", file=sys.stderr)
            return None
        digest = sha256(self.p["out"])
        first = self.hashes.setdefault(key, digest)
        if digest != first:
            self.mismatches.append(f"op {i} ({key}) wrote {digest[:12]}, earlier {first[:12]}")
        self.output_bytes.setdefault(key, self.p["out"].stat().st_size)
        if self.wl.command == "eval":
            manifest = json.loads(self.p["manifest"].read_text())
            self.accuracies[key] = {
                k: manifest[k] for k in ("raw_acc", "quantized_acc", "finetuned_acc")
            }
        return elapsed

    def run_for(self, budget: float, min_ops: int, before=None) -> list:
        """Run ops 0, 1, ... until the next would end past `budget` seconds.

        The calibration kernel runs before the first op and after each one.
        Returns ``(op index, seconds, seconds at reference speed)`` of each
        op that succeeded; `before(i)` is called ahead of op `i`.
        """
        done, t0, i = [], time.perf_counter(), 0
        kernel_before = self.kernel()
        while True:
            if before is not None:
                before(i)
            elapsed = self.op(i)
            kernel_after = self.kernel()
            i += 1
            if elapsed is not None:
                done.append((i - 1, elapsed, self.kernel.scale(elapsed, kernel_before, kernel_after)))
            kernel_before = kernel_after
            spent = time.perf_counter() - t0
            typical = spent / i
            if i >= min_ops and spent + typical > budget:
                return done


# ---------------------------------------------------------------------------
# Output checks and quality
# ---------------------------------------------------------------------------

def _rel_sq_error(original, restored, names) -> float:
    import numpy as np

    num = den = 0.0
    for name in names:
        w = np.asarray(original.tensor(f"{name}.weight").data, dtype=np.float64)
        w_hat = np.asarray(restored.tensor(f"{name}.weight").data, dtype=np.float64)
        num += float(np.square(w - w_hat).sum())
        den += float(np.square(w).sum())
    return num / den


def _same_tensors(a, b) -> bool:
    return [(r.name, tuple(r.shape)) for r in a.tensors] == [(r.name, tuple(r.shape)) for r in b.tensors]


def verify_outputs(runner: Runner, checks: dict) -> float:
    """Check the written files; returns the workload's quality loss."""
    from pqf import codec, tensor_io

    wl, p = runner.wl, runner.p
    if wl.command == "eval":
        accs = list(runner.accuracies.values())
        checks["eval_accuracies_in_unit_interval"] = bool(accs) and all(
            math.isfinite(v) and 0.0 <= v <= 1.0 for a in accs for v in a.values()
        )
        gain = statistics.fmean(a["finetuned_acc"] - a["quantized_acc"] for a in accs)
        checks["finetune_recovers_on_average"] = gain > 0.0
        return 1.0 - statistics.fmean(a["finetuned_acc"] for a in accs)
    original = tensor_io.load_checkpoint(p["input"])
    if wl.command == "compress":
        model = tensor_io.load_compressed(p["out"])
        restored = codec.decompress_model(model)
    else:
        model = tensor_io.load_compressed(p["model"])
        restored = tensor_io.load_checkpoint(p["out"])
    encoded = [e.name for e in model.entries if isinstance(e, tensor_io.EncodedEntry)]
    checks["output_has_input_tensor_names_and_shapes"] = _same_tensors(original, restored)
    checks["output_has_encoded_layers"] = len(encoded) > 0
    err = _rel_sq_error(original, restored, encoded)
    checks["rel_sq_error_finite"] = math.isfinite(err) and err > 0.0
    return err


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def install_tracer(tr, records: dict):
    """Wrap the public functions named in SPAN_METRICS and attach the hooks.

    Hooks append ``records[key][op]`` entries; the figures derived from them
    are computed after the ops, outside every span.
    """
    from pqf import cli, codec, finetune, graph, layout, permsearch, quantize, tensor_io

    modules = {m.__name__.rsplit(".", 1)[-1]: m for m in
               (cli, codec, finetune, graph, layout, permsearch, quantize, tensor_io)}

    def add(key, value):
        records.setdefault(key, {}).setdefault(tr.op, []).append(value)

    def on_src(args, kwargs, result):
        subs, stats = _arg(args, kwargs, 0, "subvectors"), _arg(args, kwargs, 1, "stats")
        k_eff, cfg = _arg(args, kwargs, 2, "k_eff"), _arg(args, kwargs, 3, "cfg")
        add("src", (stats, k_eff, cfg.iterations, result[2]))
        add("shape", (subs.m_hat * subs.d, subs.n, subs.d, k_eff))

    def on_decode(args, kwargs, result):
        enc = _arg(args, kwargs, 0, "enc")
        add("shape", (enc.codes.shape[0] * enc.d, enc.codes.shape[1], enc.d, enc.k_eff))

    def on_perm(args, kwargs, result):
        add("perm", (list(_arg(args, kwargs, 0, "children")), result))

    hooks = {
        "quantize.src": on_src,
        "codec.decode_layer": on_decode,
        "permsearch.optimize_group_permutation": on_perm,
        "graph.resolve_groups": lambda a, k, r: add("groups", len(r)),
        "tensor_io.load_checkpoint": lambda a, k, r: add("read", os.path.getsize(a[0])),
        "tensor_io.load_compressed": lambda a, k, r: add("read", os.path.getsize(a[0])),
        "tensor_io.save_checkpoint": lambda a, k, r: add("written", r),
        "tensor_io.save_compressed": lambda a, k, r: add("written", r),
    }
    for span in sorted({s for s, _ in SPAN_METRICS.values()}):
        if span == "rng.gaussian":
            # the quantizer's noise, through the name quantize imported
            tr.wrap(quantize, "gaussian", span)
        else:
            module, attr = span.split(".", 1)
            tr.wrap(modules[module], attr, span, hooks.get(span))


def _objective_drop(perm_calls) -> float:
    """Summed objective of the identity minus that of the chosen permutation."""
    from pqf import permsearch

    drop = 0.0
    for children, result in perm_calls:
        for matrix, d, block in children:
            rows = permsearch.expand_channel_permutation(result.indices, block).indices
            identity = permsearch.permuted_objective(matrix, d, range(matrix.shape[0]))
            drop += identity - permsearch.permuted_objective(matrix, d, rows)
    return drop


def op_figures(totals: dict, records: dict, op: int) -> dict:
    """Span totals (one op's entry of ``Tracer.totals()``) and hook figures of one op."""
    from pqf import permsearch

    out = {name: totals.get(span, {}).get(field, 0) for name, (span, field) in SPAN_METRICS.items()}

    def get(key):
        return records.get(key, {}).get(op, [])

    ratios = [err / bound for stats, k, _, err in get("src")
              if (bound := permsearch.rd_lower_bound(stats, k)) > 0]
    perm = get("perm")
    drop = _objective_drop(perm)
    evals = out["permsearch.matrix_objective.calls"]
    out.update({
        "quantize.iterations": sum(it for _, _, it, _ in get("src")),
        "quantize.error_over_bound": statistics.fmean(ratios) if ratios else 0.0,
        "graph.groups": sum(get("groups")),
        "permsearch.noop_groups": sum(
            all(block % d == 0 for _, d, block in children) for children, _ in perm
        ),
        "permsearch.objective_drop": drop,
        "permsearch.objective_drop_per_1k_evals": 1000 * drop / evals if evals else 0.0,
        "tensor_io.bytes_read": sum(get("read")),
        "tensor_io.bytes_written": sum(get("written")),
        "trace.spans": sum(row["calls"] for row in totals.values()),
    })
    return out


def largest_shape(records: dict) -> tuple:
    """(rows, cols, d, k) of the layer with the most assignment work."""
    shapes = [s for per_op in records.get("shape", {}).values() for s in per_op]
    return max(shapes, key=lambda s: s[0] * s[1] * s[3])


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


def kernel_probes(shape: tuple, seed: int) -> dict:
    """Time the hot kernels on the workload's largest layer and the baseline shapes.

    assign_codes is timed on at most PROBE_WORK/(k*d) rows; its cost is
    linear in rows, so the baseline ratios scale the time up to full size.
    """
    import numpy as np

    from pqf import permsearch, quantize, rng, tensor_io

    rows, cols, d, k = shape
    n = min((rows // d) * cols, max(k, PROBE_WORK // (k * d)))
    gen = rng.make_rng(seed, "bench-probe")
    t_gauss, pts = _timed(rng.gaussian, gen, (n, d))
    codebook = pts[np.linspace(0, n - 1, k).astype(np.int64)].copy()
    t_assign, codes = _timed(quantize.assign_codes, pts, codebook)
    t_update, _ = _timed(quantize.update_codebook, pts, codes, k)
    t_obj, _ = _timed(permsearch.matrix_objective, rng.gaussian(gen, (rows, cols)), d)
    bits = tensor_io.code_width(k)
    t_pack, packed = _timed(tensor_io.pack_codes, codes, bits)
    t_unpack, _ = _timed(tensor_io.unpack_codes, packed, bits, codes.size)
    out = {
        "kernel.probe_rows": n,
        "kernel.assign_codes.s": t_assign,
        "kernel.assign_codes.flops": 3 * n * k * d,
        "kernel.assign_codes.bytes": 8 * n * k * d,
        "kernel.update_codebook.s": t_update,
        "kernel.gaussian.s": t_gauss,
        "kernel.matrix_objective.s": t_obj,
        "kernel.pack_codes.s": t_pack,
        "kernel.unpack_codes.s": t_unpack,
    }
    for (big_n, bk, bd), baseline in ASSIGN_BASELINES:
        sub = min(big_n, PROBE_WORK // (bk * bd))
        t, _ = _timed(quantize.assign_codes, rng.gaussian(gen, (sub, bd)), rng.gaussian(gen, (bk, bd)))
        out[f"kernel.assign_codes.base_{big_n}x{bk}x{bd}.ratio"] = t * big_n / sub / baseline
    return out


def traced_phase(runner: Runner, seconds: float, seed: int, checks: dict, record: dict) -> dict:
    """Rerun the untraced ops with tracing on; returns every per-layer figure."""
    import tracer

    untraced = [t for _, t, _ in runner.run_for(seconds / 2, 1)]
    tr, records = tracer.Tracer(), {}
    install_tracer(tr, records)
    try:
        traced = runner.run_for(seconds / 2, 1, before=lambda i: setattr(tr, "op", i))
    finally:
        tr.restore()
    record["op_times"] = untraced
    record["traced_op_times"] = [t for _, t, _ in traced]
    checks["traced_output_matches_untraced"] = not runner.mismatches
    if not traced or not untraced:
        checks["traced_ops_ran"] = False
        return {name: 0.0 for name in PER_LAYER}

    totals = tr.totals()
    per_op = [op_figures(totals[op], records, op) for op, _, _ in traced]
    metrics = {name: statistics.median(f[name] for f in per_op) for name in per_op[0]}
    accs = list(runner.accuracies.values())
    if accs:
        metrics["finetune.gain"] = statistics.fmean(a["finetuned_acc"] - a["quantized_acc"] for a in accs)
        metrics["finetune.finetuned_acc"] = statistics.fmean(a["finetuned_acc"] for a in accs)
    overhead = statistics.median(t for _, t, _ in traced) - statistics.median(untraced)
    gaps = [wall - sum(row["self_s"] for row in totals[op].values()) for op, wall, _ in traced]
    metrics["trace.overhead_s"] = overhead
    metrics["trace.self_sum_gap_s"] = statistics.median(gaps)
    checks["span_self_times_sum_to_op_time"] = all(abs(g) <= abs(overhead) + 1e-3 for g in gaps)
    metrics.update(kernel_probes(largest_shape(records), seed))

    spans_file = WORK / "results" / f"{runner.name}-seed{seed}-spans.json"
    names = sorted({s[tracer.NAME] for s in tr.spans})
    index = {name: i for i, name in enumerate(names)}
    t0 = tr.spans[0][tracer.START]
    rows = [[index[n], round((a - t0) * 1e6), round((b - t0) * 1e6), parent, op]
            for n, a, b, parent, op in tr.spans]
    spans_file.write_text(json.dumps({"names": names, "columns": ["name", "start_us", "end_us",
                                      "parent", "op"], "spans": rows}, separators=(",", ":")))
    record["spans_file"] = spans_file.name
    return {name: metrics.get(name, 0.0) for name in PER_LAYER}


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """One benchmark run; returns (result line, full record)."""
    wl = WORKLOADS[name]
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    rundir = WORK / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine_info()}
    checks = {}
    try:
        setup = run_setup(name, seed, rundir)
        runner = Runner(name, wl, seed, rundir)
        if trace:
            metrics = traced_phase(runner, seconds, seed, checks, record)
            units = {m: u for m, (u, _) in PER_LAYER.items()}
        else:
            min_ops = EVAL_POOL if wl.command == "eval" else 2
            done = runner.run_for(seconds, min_ops)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            record["op_times"] = [t for _, t, _ in done]
            record["op_scaled_times"] = scaled = [s for _, _, s in done]
            metrics = {
                "setup_s": statistics.median(setup["setup_scaled_s"]),
                "op_s": statistics.median(scaled) if scaled else float("nan"),
                "peak_rss_mb": peak_rss_mb,
                "output_bytes": statistics.median(runner.output_bytes.values()) if runner.output_bytes else 0,
                "success_ratio": (runner.attempted - runner.failed) / runner.attempted,
            }
            units = {m: u for m, u, _, _ in END_TO_END}
        checks["every_op_exited_0"] = runner.failed == 0
        checks["every_op_wrote_identical_bytes"] = not runner.mismatches
        if "reference" in setup:
            ref = setup["reference"]
            checks["matches_setup_reference_run"] = runner.hashes.get(ref["seed"]) == ref["sha256"]
        if runner.hashes:
            quality = verify_outputs(runner, checks)
            if not trace:
                metrics["quality_loss"] = quality
        correct = all(checks.values()) and all(
            math.isfinite(metrics.get(k, float("nan"))) for k in units
        )
        record.update(setup_s=setup["setup_s"], setup_scaled_s=setup["setup_scaled_s"], checks=checks, mismatches=runner.mismatches,
                      hashes={str(k): v for k, v in runner.hashes.items()})
        if record["op_times"]:
            record["op_time_summary"] = timing_summary(record["op_times"])
        if record.get("op_scaled_times"):
            record["op_scaled_time_summary"] = timing_summary(record["op_scaled_times"])
        result = {
            "correct": bool(correct),
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": metrics.get(k, float("nan")), "unit": u} for k, u in units.items()},
        }
        record["result"] = result
        out = WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}.json"
        out.write_text(json.dumps(record, indent=1, default=str))
        return result, record
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--rundir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    try:
        if args.setup_child:
            setup_child(WORKLOADS[args.workload], args.seed, Path(args.rundir))
            return 0
        import_program()
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print("checks " + json.dumps(record["checks"], sort_keys=True))
    if "op_time_summary" in record:
        print("op_times " + json.dumps(record["op_time_summary"]))
    if "op_scaled_time_summary" in record:
        print("op_times_at_reference_speed " + json.dumps(record["op_scaled_time_summary"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
