import importlib.resources as resources
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pqf
from pqf import cli, finetune, tensor_io
from pqf.cli import BenchConfig, bench_csv, run_bench
from pqf.finetune import make_mlp_checkpoint


@pytest.fixture(scope="module")
def arch_paths(tmp_path_factory):
    base = tmp_path_factory.mktemp("arch")
    for name in ("resnet18.arch", "resnet50.arch"):
        (base / name).write_text((resources.files("pqf") / "data" / name).read_text())
    return base


def test_no_arguments_is_usage_error(capsys):
    assert cli.main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "--definitely-not-a-flag"])
    assert exc.value.code == 1


def test_missing_file_is_data_error(capsys):
    assert cli.main(["report", "/nonexistent.arch"]) == 2
    assert "error kind=" in capsys.readouterr().err


def test_module_entry_point_runs_main(tmp_path):
    src_dir = str(Path(pqf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pqf.cli", "decompress", str(tmp_path / "missing.pqfc"),
         "--out", str(tmp_path / "x")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "error kind=" in proc.stderr


def test_report_last_line_total_mb(arch_paths, capsys):
    rc = cli.main(["report", str(arch_paths / "resnet18.arch"), "--regime", "small", "--k", "256"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1] == "total_MB 1.54"


def test_report_csv_mode(arch_paths, capsys):
    rc = cli.main(["report", str(arch_paths / "resnet18.arch"), "--csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "name,layer_type,shape,dtype,bits"
    assert lines[-1] == "total_MB,,,,1.54"
    assert any(l.startswith("conv1.weight,") and l.endswith("301056") for l in lines)


def test_groups_counts(arch_paths, capsys):
    rc = cli.main(["groups", str(arch_paths / "resnet18.arch")])
    assert rc == 0
    out = capsys.readouterr().out
    assert sum(1 for l in out.splitlines() if l.startswith("group ")) == 12
    rc = cli.main(["groups", str(arch_paths / "resnet50.arch")])
    assert rc == 0
    out = capsys.readouterr().out
    assert sum(1 for l in out.splitlines() if l.startswith("group ")) == 37


def test_compress_decompress_round_trip(tmp_path, capsys):
    ckpt_path = tmp_path / "toy.pqfn"
    tensor_io.save_checkpoint(make_mlp_checkpoint((8, 16, 4), seed=1), ckpt_path)
    out_path = tmp_path / "toy.pqfc"
    manifest_path = tmp_path / "run.json"
    rc = cli.main(
        [
            "compress",
            str(ckpt_path),
            "--out",
            str(out_path),
            "--k",
            "4",
            "--k-fc",
            "4",
            "--src-iters",
            "20",
            "--perm-iters",
            "30",
            "--seed",
            "7",
            "--manifest",
            str(manifest_path),
        ]
    )
    assert rc == 0
    reported = int(capsys.readouterr().out.split("(")[1].split()[0])
    assert reported == out_path.stat().st_size
    manifest = json.loads(manifest_path.read_text())
    assert manifest["command"] == "compress"
    assert set(manifest["per_layer_error"]) == {"fc1", "fc2"}

    back_path = tmp_path / "back.pqfn"
    rc = cli.main(["decompress", str(out_path), "--out", str(back_path)])
    assert rc == 0
    restored = tensor_io.load_checkpoint(back_path)
    assert restored.tensor("fc1.weight").data.shape == (8, 16)
    assert [m.name for m in restored.layers] == ["input", "fc1", "relu1", "fc2", "output"]


def test_decompress_duplicate_permutation_index_is_data_error(tmp_path, capsys):
    ckpt_path = tmp_path / "toy.pqfn"
    tensor_io.save_checkpoint(make_mlp_checkpoint((8, 16, 4), seed=1), ckpt_path)
    packed = tmp_path / "toy.pqfc"
    argv = ["compress", str(ckpt_path), "--out", str(packed), "--k", "4", "--k-fc", "4",
            "--src-iters", "5", "--perm-iters", "5"]
    assert cli.main(argv) == 0
    model = tensor_io.load_compressed(packed)
    (fc1,) = [e for e in model.entries if isinstance(e, tensor_io.EncodedEntry) and e.name == "fc1"]
    fc1.permutation[:] = 0
    tensor_io.save_compressed(model, packed)
    capsys.readouterr()
    back_path = tmp_path / "back.pqfn"
    assert cli.main(["decompress", str(packed), "--out", str(back_path)]) == 2
    assert "error kind=MalformedFile" in capsys.readouterr().err
    assert not back_path.exists()


def _edit_tensor_entry(path, name, **fields):
    """Rewrite one tensor entry's manifest fields in a PQFN/PQFC file."""
    _edit_manifest(path, None, name, **fields)


def _edit_manifest(path, listing, name, **fields):
    """Rewrite the fields of item `name` of manifest list `listing` (default: tensors)."""
    raw = path.read_bytes()
    mlen = int.from_bytes(raw[8:16], "little")
    manifest = json.loads(raw[16 : 16 + mlen])
    listing = listing or ("tensors" if "tensors" in manifest else "entries")
    (obj,) = [o for o in manifest[listing] if o["name"] == name]
    obj.update(fields)
    blob = json.dumps(manifest).encode()
    path.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[16 + mlen :])


def _compressed_toy(tmp_path):
    ckpt_path = tmp_path / "toy.pqfn"
    tensor_io.save_checkpoint(make_mlp_checkpoint((8, 16, 4), seed=1), ckpt_path)
    packed = tmp_path / "toy.pqfc"
    argv = ["compress", str(ckpt_path), "--out", str(packed), "--k", "4", "--k-fc", "4",
            "--src-iters", "5", "--perm-iters", "5"]
    assert cli.main(argv) == 0
    return ckpt_path, packed


def _assert_malformed(argv, out_path, capsys):
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert "error kind=MalformedFile" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("fields", [{"d": 0}, {"c_out": 17}, {"c_in": 9}])
def test_decompress_entry_with_wrong_geometry_is_data_error(tmp_path, fields, capsys):
    _, packed = _compressed_toy(tmp_path)
    _edit_tensor_entry(packed, "fc1", **fields)
    back_path = tmp_path / "back.pqfn"
    _assert_malformed(["decompress", str(packed), "--out", str(back_path)], back_path, capsys)


def test_decompress_short_raw_entry_is_data_error(tmp_path, capsys):
    _, packed = _compressed_toy(tmp_path)
    _edit_tensor_entry(packed, "fc1.bias", nbytes=16 * 4 - 4)
    back_path = tmp_path / "back.pqfn"
    _assert_malformed(["decompress", str(packed), "--out", str(back_path)], back_path, capsys)


def test_decompress_raw_entry_with_doubled_shape_is_data_error(tmp_path, capsys):
    _, packed = _compressed_toy(tmp_path)
    _edit_tensor_entry(packed, "fc1.bias", shape=[32])
    back_path = tmp_path / "back.pqfn"
    _assert_malformed(["decompress", str(packed), "--out", str(back_path)], back_path, capsys)


@pytest.mark.parametrize("container", ["pqfn", "pqfc"])
def test_negative_tensor_dimension_is_data_error(tmp_path, capsys, container):
    ckpt_path, packed = _compressed_toy(tmp_path)
    out_path = tmp_path / "out.bin"
    # fc2.bias holds 4 float32 values: 16 bytes, the same as a (-2, -2) shape claims
    if container == "pqfn":
        _edit_tensor_entry(ckpt_path, "fc2.bias", shape=[-2, -2])
        argv = ["compress", str(ckpt_path), "--out", str(out_path)]
    else:
        _edit_tensor_entry(packed, "fc2.bias", shape=[-2, -2])
        argv = ["decompress", str(packed), "--out", str(out_path)]
    _assert_malformed(argv, out_path, capsys)


@pytest.mark.parametrize("part", ["weight", "bias"])
def test_compress_tensor_shape_disagreeing_with_its_layer_is_data_error(tmp_path, part, capsys):
    # fc1 is declared 16 -> 32, but stores a (24, 32) weight or a (16,) bias
    ckpt_path = tmp_path / "toy.pqfn"
    if part == "weight":
        tensor_io.save_checkpoint(make_mlp_checkpoint((24, 32, 4), seed=1), ckpt_path)
        _edit_manifest(ckpt_path, "layers", "fc1", c_in=16)
    else:
        tensor_io.save_checkpoint(make_mlp_checkpoint((16, 32, 4), seed=1), ckpt_path)
        _edit_tensor_entry(ckpt_path, "fc1.bias", shape=[16], nbytes=16 * 4)
    out_path = tmp_path / "toy.pqfc"
    argv = ["compress", str(ckpt_path), "--out", str(out_path), "--k", "4", "--k-fc", "4",
            "--src-iters", "2", "--perm-iters", "5"]
    _assert_malformed(argv, out_path, capsys)


def test_decompress_layer_disagreeing_with_its_entry_is_data_error(tmp_path, capsys):
    _, packed = _compressed_toy(tmp_path)
    _edit_manifest(packed, "layers", "fc1", c_out=24)  # the entry decodes to (8, 16)
    back_path = tmp_path / "back.pqfn"
    _assert_malformed(["decompress", str(packed), "--out", str(back_path)], back_path, capsys)


def test_compress_child_with_a_single_subvector(tmp_path):
    # fc2 is 4 -> 1: with d = 4 its one column is one subvector
    ckpt_path = tmp_path / "tiny.pqfn"
    tensor_io.save_checkpoint(make_mlp_checkpoint((8, 4, 1), seed=1), ckpt_path)
    out_path = tmp_path / "tiny.pqfc"
    argv = ["compress", str(ckpt_path), "--out", str(out_path), "--k", "4", "--k-fc", "4",
            "--src-iters", "5", "--perm-iters", "5"]
    assert cli.main(argv) == 0
    back_path = tmp_path / "back.pqfn"
    assert cli.main(["decompress", str(out_path), "--out", str(back_path)]) == 0
    assert tensor_io.load_checkpoint(back_path).tensor("fc2.weight").data.shape == (4, 1)


def test_weighted_layer_with_an_empty_dimension_is_data_error(tmp_path, capsys):
    arch = tmp_path / "empty.arch"
    arch.write_text("input input 1 4 4\nfc1 fc 1 4 0\noutput output 1 0 0\n"
                    "edge input fc1\nedge fc1 output\n")
    assert cli.main(["report", str(arch)]) == 2
    assert "error kind=MalformedFile" in capsys.readouterr().err


def test_compress_is_reproducible(tmp_path):
    ckpt_path = tmp_path / "toy.pqfn"
    tensor_io.save_checkpoint(make_mlp_checkpoint((8, 16, 4), seed=2), ckpt_path)
    outs = []
    for tag in ("a", "b"):
        out_path = tmp_path / f"{tag}.pqfc"
        rc = cli.main(
            [
                "compress",
                str(ckpt_path),
                "--out",
                str(out_path),
                "--k",
                "4",
                "--k-fc",
                "4",
                "--src-iters",
                "15",
                "--perm-iters",
                "20",
                "--seed",
                "9",
            ]
        )
        assert rc == 0
        outs.append(out_path.read_bytes())
    assert outs[0] == outs[1]


def test_compress_non_finite_weight_is_data_error(tmp_path, capsys):
    ckpt = make_mlp_checkpoint((8, 16, 4), seed=3)
    ckpt.tensor("fc1.weight").data[0, 0] = np.nan
    ckpt_path = tmp_path / "nan.pqfn"
    tensor_io.save_checkpoint(ckpt, ckpt_path)
    out_path = tmp_path / "nan.pqfc"
    rc = cli.main(["compress", str(ckpt_path), "--out", str(out_path), "--k", "4", "--k-fc", "4"])
    assert rc == 2
    assert "error kind=NonFiniteWeight" in capsys.readouterr().err
    assert not out_path.exists()


def test_compressed_bytes_do_not_depend_on_blas_threads(tmp_path):
    # prefilter blocks of 1024 x 1024 x 4 multiply-adds: above the size at which
    # OpenBLAS splits a GEMM across threads
    ckpt_path = tmp_path / "mlp.pqfn"
    tensor_io.save_checkpoint(make_mlp_checkpoint((256, 512, 64), seed=4), ckpt_path)
    src_dir = str(Path(pqf.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
        out_path = tmp_path / f"t{threads}.pqfc"
        argv = ["compress", str(ckpt_path), "--out", str(out_path), "--k", "256",
                "--k-fc", "1024", "--src-iters", "4", "--perm-iters", "10", "--seed", "5"]
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from pqf.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out_path.read_bytes())
    assert outs[0] == outs[1]


def test_eval_emits_csv_trace(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    rc = cli.main(["eval", "--toy", "mlp", "--epochs", "3", "--seed", "1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "epoch,lr,train_loss,val_acc"
    assert len(lines) == 4
    stdout = capsys.readouterr().out
    assert "val_acc raw=" in stdout


def test_bench_csv_and_isotropic_band(capsys):
    cfg = BenchConfig(seeds=8, rows=16, cols=48, d=4, k=8, src_iterations=40,
                      perm_iterations=60, generator="isotropic")
    rows = run_bench(cfg, base_seed=0)
    assert len(rows) == 24
    csv = bench_csv(rows)
    assert csv.splitlines()[0] == "method,seed,error,rd_bound,wall_time_s"
    med = {
        m: float(np.median([r["error"] for r in rows if r["method"] == m]))
        for m in cfg.methods
    }
    # isotropic data: permutations cannot help, medians sit in one noise band
    assert abs(med["perm+src"] - med["src"]) <= 0.05 * med["src"]


def test_bench_anisotropic_ordering_smoke():
    cfg = BenchConfig(seeds=6, rows=24, cols=72, d=4, k=8, src_iterations=60,
                      perm_iterations=120)
    rows = run_bench(cfg, base_seed=3)
    med = {
        m: float(np.median([r["error"] for r in rows if r["method"] == m]))
        for m in cfg.methods
    }
    assert med["perm+src"] <= med["src"] <= med["kmeans"]


def test_bench_bound_below_error_large_sample():
    # 4 subvectors per column x 26000 columns: N >= 100k samples
    cfg = BenchConfig(seeds=1, rows=8, cols=26000, d=2, k=16, src_iterations=40,
                      perm_iterations=0, generator="isotropic", methods=("kmeans",))
    rows = run_bench(cfg, base_seed=1)
    (row,) = rows
    assert row["rd_bound"] <= row["error"] * 1.12


def test_eval_conv_toy_smoke(capsys):
    from pqf.cli import run_eval

    result = run_eval(toy="conv", epochs=4, seed=2)
    assert 0.0 <= result["quantized_acc"] <= 1.0
    assert len(result["trace"].train_loss) == 4


def test_seed_env_fallback(arch_paths, capsys, monkeypatch):
    monkeypatch.setenv("PQF_SEED", "123")
    parser = cli.build_parser()
    args = parser.parse_args(["groups", str(arch_paths / "resnet18.arch")])
    assert args.seed == 123


def test_config_flag_mapping():
    parser = cli.build_parser()
    args = parser.parse_args(
        ["report", "x.arch", "--regime", "large", "--d-pw", "8", "--no-anneal", "--no-perm"]
    )
    cfg = cli._config_from_args(args)
    assert cfg.regime == "large"
    assert cfg.d_conv_multiplier == 2
    assert cfg.d_pw == 8
    assert cfg.quantizer == "kmeans"
    assert cfg.use_permutation is False
    assert cfg.k == 256 and cfg.k_fc == 2048
    assert cfg.gamma == 0.5 and cfg.src_iterations == 1000 and cfg.perm_iterations == 1000
