#!/usr/bin/env python3
"""Paired benchmark runs of two pqf checkouts: a parent and a change.

    python3 scripts/bench_pairs.py --parent DIR [--change DIR] --workload r50-permute
                                   [--workload ...] --seeds 1 2 3 ... [--seconds 25]
                                   [--env NAME=VALUE ...] [--out PATH]

For each workload and seed, ``benchmarks/run.py`` of each checkout runs once
in its own child process, the parent first at the first seed, the change
first at the next, and so on. Each ``--env NAME=VALUE`` (repeatable) sets
that variable for both sides' runs, such as ``MALLOC_MMAP_THRESHOLD_=131072``
to pin glibc's heap placement when comparing ``peak_rss_mb``. The script only
calls the benchmark; it reads each run's result line and the output hashes of
the run's record in the checkout's ``.bench_work/results/``.

For each end-to-end metric of each workload it prints the parent's and the
change's median, the parent's quartile spread (the distance between its
quartiles), and in how many pairs the change read lower; and it says whether
every pair wrote the same output hashes. A metric is marked unresolved when
the parent's spread, relative to its median, exceeds the metric's bound in
the change checkout's ``BENCHMARK.json``, unless every change run reads
better than every parent run: such a metric cannot show a regression within
its bound, nor its absence. The same summary, with every run,
goes to ``--out`` as JSON (by default ``.bench_work/bench_pairs.json`` of the
change's checkout), with the ``--env`` variables under ``config``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_result(stdout: str) -> dict:
    """The result object of one benchmark run: the last line it printed."""
    return json.loads(stdout.strip().splitlines()[-1])


def env_pair(text: str) -> tuple:
    """``NAME=VALUE`` as ``(NAME, VALUE)``; the value may hold ``=`` or be empty."""
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    return name, value


def run_benchmark(tree: Path, workload: str, seed: int, seconds: float, env=None) -> dict:
    """One run of `tree`'s benchmark: its result and the output hashes it recorded.

    `env` maps variables to set for the run on top of this process's own.
    """
    command = [sys.executable, str(tree / "benchmarks" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(command, capture_output=True, text=True, cwd=tree,
                          env={**os.environ, **(env or {})})
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: benchmark exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = tree / ".bench_work" / "results" / f"{workload}-seed{seed}-trace0.json"
    return {"seed": seed, "result": parse_result(proc.stdout),
            "hashes": json.loads(record.read_text()).get("hashes", {})}


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile) of `values`."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def end_to_end(tree: Path) -> dict:
    """Name -> ``(bound, better)`` of each end-to-end metric of `tree`'s ``BENCHMARK.json``."""
    declared = json.loads((tree / "BENCHMARK.json").read_text())["end_to_end"]
    return {m["name"]: (m["bound"], m["better"]) for m in declared}


def unresolved(parent: list, change: list, bound: float, better: str) -> bool:
    """Whether the parent's runs spread too widely for `bound`, and the change does not
    read better than the parent in every run (`better` is "lower" or "higher")."""
    q1, median, q3 = quartiles(parent)
    sign = 1 if better == "lower" else -1
    beats = max(sign * c for c in change) < min(sign * p for p in parent)
    return q3 - q1 > bound * abs(median) and not beats


def summarize(pairs: list, bounds: dict) -> dict:
    """Per-metric comparison of the pairs of one workload.

    `pairs` holds ``{"parent": run, "change": run}``, each run as
    `run_benchmark` returns it; `bounds` is `end_to_end` of the benchmark.
    A pair in which both sides read the same value counts as lower for
    neither. Each metric in `bounds` says whether it is `unresolved`.
    """
    names = list(pairs[0]["parent"]["result"]["metrics"])
    metrics = {}
    for name in names:
        values = {side: [p[side]["result"]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        q1, parent_median, q3 = quartiles(values["parent"])
        metrics[name] = {
            "unit": pairs[0]["parent"]["result"]["metrics"][name]["unit"],
            "parent_median": parent_median,
            "change_median": statistics.median(values["change"]),
            "parent_q1": q1,
            "parent_q3": q3,
            "parent_spread": q3 - q1,
            "change_lower": sum(c < p for p, c in zip(values["parent"], values["change"])),
            "pairs": len(pairs),
            **values,
        }
        if name in bounds:
            metrics[name]["unresolved"] = unresolved(values["parent"], values["change"], *bounds[name])
    return {
        "pairs": len(pairs),
        "correct": {side: sum(p[side]["result"]["correct"] for p in pairs) for side in SIDES},
        "hashes_equal": all(p["parent"]["hashes"] == p["change"]["hashes"] for p in pairs),
        "metrics": metrics,
    }


def _percent(part: float, base: float, sign: str = "") -> str:
    return f"{100 * part / base:{sign}.1f}%" if base else "n/a"


def format_summary(workload: str, summary: dict) -> str:
    """The printed form of one workload's `summarize`."""
    n = summary["pairs"]
    correct = ", ".join(f"{side} correct in {summary['correct'][side]} of {n}" for side in SIDES)
    hashes = "output hashes equal" if summary["hashes_equal"] else "OUTPUT HASHES DIFFER"
    lines = [f"{workload}: {n} pairs, {correct}, {hashes}"]
    for name, m in summary["metrics"].items():
        lines.append(
            f"  {name} ({m['unit']}): parent {m['parent_median']:.6g}, change {m['change_median']:.6g} "
            f"({_percent(m['change_median'] - m['parent_median'], m['parent_median'], '+')}); "
            f"parent quartile spread {m['parent_spread']:.3g} "
            f"({_percent(m['parent_spread'], m['parent_median'])}); "
            f"change lower in {m['change_lower']} of {m['pairs']}"
            + ("; UNRESOLVED: the spread exceeds the bound" if m.get("unresolved") else "")
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's pqf checkout")
    parser.add_argument("--change", type=Path, default=ROOT, help="the change's pqf checkout")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--env", type=env_pair, action="append", default=[], metavar="NAME=VALUE",
                        help="set a variable for both sides' runs (repeatable)")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    env = dict(args.env)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    out = args.out or trees["change"] / ".bench_work" / "bench_pairs.json"
    bounds = end_to_end(trees["change"])
    report = {"config": {"trees": {side: str(path) for side, path in trees.items()},
                         "seeds": args.seeds, "seconds": args.seconds, "env": env},
              "workloads": {}}
    for workload in args.workload:
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_benchmark(trees[side], workload, seed, args.seconds, env)
                print(f"{workload} seed {seed} {side} done", file=sys.stderr)
            pairs.append(pair)
        summary = summarize(pairs, bounds)
        report["workloads"][workload] = {"summary": summary, "pairs": pairs}
        print(format_summary(workload, summary), flush=True)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
