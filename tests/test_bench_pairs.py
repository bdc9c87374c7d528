import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(op_s, rss, digest="aa", correct=True):
    """A run as `run_benchmark` returns it, from a canned benchmark stdout."""
    result = {"correct": correct, "attempted": 20, "failed": 0,
              "metrics": {"op_s": {"value": op_s, "unit": "s"},
                          "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    stdout = "machine {}\nchecks {}\n" + json.dumps(result) + "\n"
    return {"seed": 0, "result": bench_pairs.parse_result(stdout), "hashes": {"compress": digest}}


def test_summary_of_canned_pairs():
    parent = [0.20, 0.22, 0.21, 0.25, 0.23]
    change = [0.18, 0.22, 0.19, 0.20, 0.24]
    pairs = [{"parent": _run(p, 50.0), "change": _run(c, 50.0 + i)}
             for i, (p, c) in enumerate(zip(parent, change))]
    summary = bench_pairs.summarize(pairs)
    assert summary["pairs"] == 5
    assert summary["correct"] == {"parent": 5, "change": 5}
    assert summary["hashes_equal"]
    op = summary["metrics"]["op_s"]
    assert op["unit"] == "s"
    assert op["parent_median"] == pytest.approx(0.22)
    assert op["change_median"] == pytest.approx(0.20)
    assert (op["parent_q1"], op["parent_q3"]) == pytest.approx((0.21, 0.23))
    assert op["parent_spread"] == pytest.approx(0.02)
    assert op["change_lower"] == 3  # the tie at 0.22 counts for neither side
    assert op["parent"] == parent and op["change"] == change
    rss = summary["metrics"]["peak_rss_mb"]
    assert rss["change_lower"] == 0 and rss["parent_spread"] == 0.0
    text = bench_pairs.format_summary("r50-permute", summary)
    assert text.splitlines()[0] == (
        "r50-permute: 5 pairs, parent correct in 5 of 5, change correct in 5 of 5, output hashes equal"
    )
    assert "op_s (s): parent 0.22, change 0.2 (-9.1%); parent quartile spread 0.02 (9.1%); " \
           "change lower in 3 of 5" in text


def test_summary_flags_a_pair_whose_outputs_differ():
    pairs = [{"parent": _run(0.2, 50.0), "change": _run(0.1, 50.0)},
             {"parent": _run(0.2, 50.0), "change": _run(0.1, 50.0, digest="bb", correct=False)}]
    summary = bench_pairs.summarize(pairs)
    assert not summary["hashes_equal"]
    assert summary["correct"] == {"parent": 2, "change": 1}
    assert "OUTPUT HASHES DIFFER" in bench_pairs.format_summary("w", summary)
