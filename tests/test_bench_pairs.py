import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
BOUNDS = bench_pairs.end_to_end(SCRIPT.parents[1])


def _run(op_s, rss, digest="aa", correct=True, **more):
    """A run as `run_benchmark` returns it, from a canned benchmark stdout."""
    result = {"correct": correct, "attempted": 20, "failed": 0,
              "metrics": {"op_s": {"value": op_s, "unit": "s"},
                          "peak_rss_mb": {"value": rss, "unit": "MB"},
                          **{name: {"value": value, "unit": "x"} for name, value in more.items()}}}
    stdout = "machine {}\nchecks {}\n" + json.dumps(result) + "\n"
    return {"seed": 0, "result": bench_pairs.parse_result(stdout), "hashes": {"compress": digest}}


def test_summary_of_canned_pairs():
    parent = [0.20, 0.22, 0.21, 0.25, 0.23]
    change = [0.18, 0.22, 0.19, 0.20, 0.24]
    pairs = [{"parent": _run(p, 50.0), "change": _run(c, 50.0 + i)}
             for i, (p, c) in enumerate(zip(parent, change))]
    summary = bench_pairs.summarize(pairs, BOUNDS)
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
    summary = bench_pairs.summarize(pairs, BOUNDS)
    assert not summary["hashes_equal"]
    assert summary["correct"] == {"parent": 2, "change": 1}
    assert "OUTPUT HASHES DIFFER" in bench_pairs.format_summary("w", summary)


def test_the_bounds_are_the_benchmarks_end_to_end_metrics():
    declared = json.loads((SCRIPT.parents[1] / "BENCHMARK.json").read_text())["end_to_end"]
    assert BOUNDS == {m["name"]: (m["bound"], m["better"]) for m in declared}
    assert BOUNDS["op_s"] == (0.25, "lower") and BOUNDS["success_ratio"][1] == "higher"


def test_a_metric_whose_parent_spread_exceeds_its_bound_is_unresolved():
    # op_s: the parent's quartiles 1.2 and 2.1 are 45% of its median 2.0, past
    # the 25% bound; peak_rss_mb spreads 2% against its 10%
    parent = [1.2, 2.0, 2.1, 2.4, 1.1]
    mixed = [1.0, 2.2, 1.9, 2.0, 1.4]
    pairs = [{"parent": _run(p, 50.0 + i, success_ratio=0.9 + i / 50, trace_spans=1),
              "change": _run(c, 50.0, success_ratio=0.95, trace_spans=2)}
             for i, (p, c) in enumerate(zip(parent, mixed))]
    metrics = bench_pairs.summarize(pairs, BOUNDS)["metrics"]
    assert metrics["op_s"]["parent_spread"] == pytest.approx(0.9)
    assert metrics["op_s"]["unresolved"]
    assert not metrics["peak_rss_mb"]["unresolved"]
    # success_ratio spreads 4 points on 0.94, past its 1% bound, and is better when
    # higher: a change at 0.95 beats only some parent runs
    assert metrics["success_ratio"]["unresolved"]
    assert "unresolved" not in metrics["trace_spans"]  # not an end-to-end metric
    text = bench_pairs.format_summary("w", bench_pairs.summarize(pairs, BOUNDS)).splitlines()
    assert text[1].startswith("  op_s (s):") and text[1].endswith("; UNRESOLVED: the spread exceeds the bound")
    assert not text[2].endswith("UNRESOLVED: the spread exceeds the bound")


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_a_wide_spread_is_resolved_when_every_change_run_reads_better(better):
    parent = [1.2, 2.0, 2.1, 2.4, 1.1]
    change = [0.9, 1.0, 0.5, 1.05, 0.7] if better == "lower" else [2.5, 3.0, 2.41, 4.0, 2.6]
    assert not bench_pairs.unresolved(parent, change, 0.25, better)
    # one change run that does not beat the parent's best leaves it unresolved
    assert bench_pairs.unresolved(parent, change[:-1] + [1.1 if better == "lower" else 2.4], 0.25, better)
    assert not bench_pairs.unresolved(parent, change[:-1] + [1.1], 0.5, better)  # 45% is within 50%


_FAKE_RUN = """
import json, os, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
record = Path(".bench_work/results") / f"{args['--workload']}-seed{args['--seed']}-trace0.json"
record.parent.mkdir(parents=True, exist_ok=True)
record.write_text(json.dumps({"hashes": {"op": os.environ.get("PQF_FAKE", "unset")}}))
metrics = {"op_s": {"value": float(os.environ.get("PQF_FAKE_OP", "0")), "unit": "s"}}
print(json.dumps({"correct": True, "metrics": metrics}))
"""


def _fake_tree(path: Path) -> Path:
    """A checkout whose benchmark reports the variables it was run with."""
    (path / "benchmarks").mkdir(parents=True)
    (path / "benchmarks" / "run.py").write_text(_FAKE_RUN)
    (path / "BENCHMARK.json").write_text((SCRIPT.parents[1] / "BENCHMARK.json").read_text())
    return path


def test_env_sets_each_variable_for_both_sides_and_is_recorded(tmp_path, monkeypatch):
    monkeypatch.delenv("PQF_FAKE", raising=False)
    parent, change, out = _fake_tree(tmp_path / "parent"), _fake_tree(tmp_path / "change"), tmp_path / "o.json"
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "w", "--seeds", "1", "2",
            "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(argv + ["--env", "PQF_FAKE=a=b", "--env", "PQF_FAKE_OP=0.5"]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["env"] == {"PQF_FAKE": "a=b", "PQF_FAKE_OP": "0.5"}
    pairs = report["workloads"]["w"]["pairs"]
    assert [p["first"] for p in pairs] == ["parent", "change"]
    for pair in pairs:
        for side in bench_pairs.SIDES:
            assert pair[side]["hashes"] == {"op": "a=b"}
            assert pair[side]["result"]["metrics"]["op_s"]["value"] == 0.5
    # without --env the runs see this process's environment, and the record says so
    assert bench_pairs.main(argv) == 0
    report = json.loads(out.read_text())
    assert report["config"]["env"] == {}
    assert report["workloads"]["w"]["pairs"][0]["parent"]["hashes"] == {"op": "unset"}


@pytest.mark.parametrize("text", ["NOVALUE", "=1"])
def test_env_without_a_name_and_an_equals_sign_is_a_usage_error(text, capsys):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", ".", "--workload", "w", "--seeds", "1", "--env", text])
    assert exc.value.code == 2
    assert "expected NAME=VALUE" in capsys.readouterr().err
