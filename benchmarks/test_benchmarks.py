"""Tests of the benchmark itself: inputs, tracer, and its metric declarations.

Run with ``python -m pytest benchmarks``.
"""

import json
import types

import calibrate
import run
import synth
import tracer

from pqf import cli, codec, quantize


def _write(tmp_path, seed, name):
    path = tmp_path / name
    synth.write_checkpoint(run.ROOT, "resnet18", 8, seed, path)
    return path.read_bytes()


def test_same_seed_same_checkpoint_bytes(tmp_path):
    assert _write(tmp_path, 3, "a.pqfn") == _write(tmp_path, 3, "b.pqfn")


def test_different_seed_different_checkpoint_bytes(tmp_path):
    assert _write(tmp_path, 3, "a.pqfn") != _write(tmp_path, 4, "b.pqfn")


def test_width_divisor_keeps_image_channels():
    arch = synth.arch_path(run.ROOT, "resnet18").read_text()
    ckpt = synth.synthetic_checkpoint(arch, 4, 0)
    assert ckpt.layer("conv1").c_in == 3
    assert ckpt.layer("conv1").c_out == 16
    assert ckpt.tensor("fc.weight").shape == (128, 250)


def test_traced_compress_writes_identical_bytes(tmp_path):
    _write(tmp_path, 5, "in.pqfn")
    argv = ["compress", str(tmp_path / "in.pqfn"), "--regime", "small", "--k", "16",
            "--k-fc", "16", "--src-iters", "2", "--perm-iters", "5", "--seed", "5",
            "--manifest", str(tmp_path / "m.json"), "--out"]
    assert run.call_cli(argv + [str(tmp_path / "plain.pqfc")])[0] == 0
    originals = (cli.main, codec.encode_layer, quantize.gaussian)
    tr, records = tracer.Tracer(), {}
    run.install_tracer(tr, records)
    try:
        assert run.call_cli(argv + [str(tmp_path / "traced.pqfc")])[0] == 0
    finally:
        tr.restore()
    assert (cli.main, codec.encode_layer, quantize.gaussian) == originals
    assert (tmp_path / "plain.pqfc").read_bytes() == (tmp_path / "traced.pqfc").read_bytes()
    names = {s[tracer.NAME] for s in tr.spans}
    assert {"cli.main", "codec.compress_model", "quantize.src", "rng.gaussian"} <= names
    assert records["groups"][0] == [12]
    root = tr.spans[0]
    assert root[tracer.NAME] == "cli.main" and root[tracer.PARENT] == -1
    assert abs(sum(tr.self_times()) - (root[tracer.END] - root[tracer.START])) < 1e-9


def test_self_time_subtracts_direct_children():
    mod = types.SimpleNamespace(__name__="mod")
    mod.leaf = lambda: None
    mod.mid = lambda: (mod.leaf(), mod.leaf())
    mod.top = lambda: mod.mid()
    with tracer.Tracer() as tr:
        for attr in ("leaf", "mid", "top"):
            tr.wrap(mod, attr)
        mod.top()
    assert [s[tracer.NAME] for s in tr.spans] == ["mod.top", "mod.mid", "mod.leaf", "mod.leaf"]
    assert [s[tracer.PARENT] for s in tr.spans] == [-1, 0, 1, 1]
    own = tr.self_times()
    dur = [s[tracer.END] - s[tracer.START] for s in tr.spans]
    assert abs(own[1] - (dur[1] - dur[2] - dur[3])) < 1e-12
    assert abs(sum(own) - dur[0]) < 1e-12
    assert tr.totals()[0]["mod.leaf"]["calls"] == 2


def test_timing_summary_needs_ten_samples_beyond_the_percentile():
    assert "p75" not in run.timing_summary([1.0] * 30)
    stats = run.timing_summary([float(i) for i in range(100)])
    assert stats["n"] == 100 and stats["p90"] == 89.0


def test_calibration_scales_by_the_kernel_around_the_op():
    kernel = calibrate.Calibration(("mlp", "stream"), reps=2)
    assert kernel.reference_s == 2 * (calibrate.PART_REFERENCE_S["mlp"] + calibrate.PART_REFERENCE_S["stream"])
    assert kernel() > 0.0
    half_speed = 2 * kernel.reference_s
    assert abs(kernel.scale(3.0, half_speed, half_speed) - 1.5) < 1e-12
    assert abs(kernel.scale(3.0, kernel.reference_s, 3 * kernel.reference_s) - 1.5) < 1e-12


def test_every_workload_names_known_kernel_parts():
    for wl in run.WORKLOADS.values():
        assert wl.kernel and set(wl.kernel) <= set(calibrate.PART_REFERENCE_S)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in run.PER_LAYER.items()
    ]
