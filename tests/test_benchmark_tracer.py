"""The benchmark's tracer hooks on the commands its traced runs reach beyond compress.

`benchmarks/run.py` wraps public functions of the program and reads their
arguments and results in hooks. These tests install every wrapper and hook
around a `pqf decompress` and a short `pqf eval`, and check that the outputs
are the untraced bytes, that the decode hook reads each encoded layer's
geometry, and that `restore` puts every original function back.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402

from helpers import synthetic_resnet  # noqa: E402
from pqf import cli, codec, finetune, graph, layout, permsearch, quantize, tensor_io  # noqa: E402

MODULES = (cli, codec, finetune, graph, layout, permsearch, quantize, tensor_io)


def _traced(argv):
    """Run the CLI with every benchmark wrapper and hook installed; returns (tracer, records)."""
    before = [dict(vars(m)) for m in MODULES]
    tr, records = tracer.Tracer(), {}
    run.install_tracer(tr, records)
    try:
        assert run.call_cli(argv)[0] == 0
    finally:
        tr.restore()
    for module, saved in zip(MODULES, before):
        changed = [k for k, v in vars(module).items() if saved.get(k) is not v]
        assert changed == [], (module.__name__, changed)
    return tr, records


def test_traced_decompress_writes_identical_bytes_and_records_each_layer_shape(tmp_path):
    source, packed = tmp_path / "in.pqfn", tmp_path / "in.pqfc"
    tensor_io.save_checkpoint(synthetic_resnet(18, 8, seed=6), source)
    argv = ["compress", str(source), "--out", str(packed), "--k", "8", "--k-fc", "8",
            "--src-iters", "1", "--perm-iters", "2", "--seed", "6"]
    assert run.call_cli(argv)[0] == 0
    argv = ["decompress", str(packed), "--manifest", str(tmp_path / "m.json"), "--out"]
    assert run.call_cli(argv + [str(tmp_path / "plain.pqfn")])[0] == 0
    tr, records = _traced(argv + [str(tmp_path / "traced.pqfn")])
    assert (tmp_path / "plain.pqfn").read_bytes() == (tmp_path / "traced.pqfn").read_bytes()
    encoded = [e for e in tensor_io.load_compressed(packed).entries
               if isinstance(e, tensor_io.EncodedEntry)]
    assert len(encoded) == 20
    assert records["shape"][0] == [(e.m_hat * e.d, e.n, e.d, e.k_eff) for e in encoded]
    assert tr.totals()[0]["codec.decode_layer"]["calls"] == len(encoded)
    assert records["written"][0] == [(tmp_path / "traced.pqfn").stat().st_size]


def test_traced_eval_writes_identical_csv_and_spans_every_finetune_step(tmp_path):
    argv = ["eval", "--toy", "mlp", "--epochs", "2", "--seed", "3",
            "--manifest", str(tmp_path / "m.json"), "--out"]
    assert run.call_cli(argv + [str(tmp_path / "plain.csv")])[0] == 0
    tr, _ = _traced(argv + [str(tmp_path / "traced.csv")])
    assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "traced.csv").read_bytes()
    calls = {name: row["calls"] for name, row in tr.totals()[0].items()}
    for span in ("train_network", "finetune_codebooks", "forward", "backward",
                 "centroid_gradients", "adam_cosine_step"):
        assert calls.get(f"finetune.{span}", 0) > 0, span
