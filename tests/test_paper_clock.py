import hashlib
import json
import subprocess
import sys
from pathlib import Path

from pqf.tensor_io import load_checkpoint

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "paper_clock.py"


def test_paper_clock_writes_its_summary(tmp_path):
    # 1/8 width: the narrowest the synthetic ResNet-18 allows (1000 fc outputs)
    out = tmp_path / "BENCH_paper-default.json"
    subprocess.run(
        [sys.executable, str(SCRIPT), "--divisor", "8", "--pairs", "1", "--out", str(out)],
        check=True,
        capture_output=True,
        timeout=120,
    )
    result = json.loads(out.read_text())
    assert set(result) == {"config", "host", "trees"}
    assert result["config"]["divisor"] == 8
    assert set(result["trees"]) == {"change"}
    summary = result["trees"]["change"]
    assert set(summary) == {
        "per_iteration_s", "paper_default_min", "sha256", "decoded_sha256", "peak_rss_mb", "runs"
    }
    assert set(summary["per_iteration_s"]) == {"median", "q1", "q3"}
    assert set(summary["paper_default_min"]) == {"median", "q1", "q3"}
    assert {n: len(h) for n, h in summary["sha256"].items()} == {"1": 1, "11": 1}
    # the format-independent digest of the tensors each .pqfc decompresses to
    assert {n: len(h) for n, h in summary["decoded_sha256"].items()} == {"1": 1, "11": 1}
    assert all(len(r["decoded_sha256"]) == 64 for r in summary["runs"])
    assert [r["iters"] for r in summary["runs"]] == [1, 11]
    assert all(r["peak_rss_mb"] > 0 and r["seconds"] > 0 for r in summary["runs"])
    assert (tmp_path / "paper_clock" / "change_11.pqfc").exists()
    decoded = tmp_path / "paper_clock" / "change_11.pqfn"
    digest = hashlib.sha256()
    for rec in load_checkpoint(decoded).tensors:
        digest.update(rec.name.encode() + json.dumps(list(rec.shape)).encode() + rec.data.tobytes())
    assert summary["decoded_sha256"]["11"] == [digest.hexdigest()]
