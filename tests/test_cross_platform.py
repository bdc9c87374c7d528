"""The cross-platform promise, by test: the outputs README names are the same bytes whether
numpy's SIMD dispatch runs AVX-512 kernels and whichever kernel OpenBLAS picks.

Two child processes make the same outputs. One keeps the default environment; the other
switches numpy's AVX-512 dispatch targets off (`NPY_DISABLE_CPU_FEATURES`) and OpenBLAS to
its Haswell kernel (`OPENBLAS_CORETYPE`), which simulates a second platform on one host.
numpy ignores a switch for a feature the host lacks, so the test records whether AVX-512 was
live in this process (the `avx512_live` property); without it, both children dispatch alike.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pqf
from numpy._core._multiarray_umath import __cpu_features__

SWITCHED = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR", "OPENBLAS_CORETYPE": "Haswell"}

# Compress the 1/8-width synthetic ResNet-18 at the paper's k and k_fc with 3 SRC iterations,
# decompress it, and run both toy evals at seed 3; print each output's sha256 and whether the
# process dispatches AVX-512 kernels.
_CHILD = r"""
import contextlib, hashlib, io, json, sys
from pathlib import Path
from numpy._core._multiarray_umath import __cpu_features__
from helpers import synthetic_resnet
from pqf import cli, tensor_io

out, digests = Path(sys.argv[1]), {}
def sha(data):
    return hashlib.sha256(data).hexdigest()
def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0, argv
    return buf.getvalue().encode()
source, packed, back = out / "r18.pqfn", out / "r18.pqfc", out / "r18.back.pqfn"
tensor_io.save_checkpoint(synthetic_resnet(18, 8, seed=1), source)
run(["compress", str(source), "--out", str(packed), "--k", "256", "--k-fc", "2048",
     "--src-iters", "3", "--seed", "1"])
run(["decompress", str(packed), "--out", str(back)])
digests["pqfc"], digests["pqfn"] = sha(packed.read_bytes()), sha(back.read_bytes())
for toy in ("mlp", "conv"):
    digests[f"eval-{toy}"] = sha(run(["eval", "--toy", toy, "--seed", "3"]))
print(json.dumps({"avx512": bool(__cpu_features__.get("AVX512_SKX")), "sha256": digests}))
"""


def _start(tmp_path: Path, name: str, switched: bool) -> subprocess.Popen:
    """A child writing its outputs under ``tmp_path / name``, in the switched environment or not."""
    out = tmp_path / name
    out.mkdir()
    env = {k: v for k, v in os.environ.items() if k not in SWITCHED}
    env.update(SWITCHED if switched else {}, OPENBLAS_NUM_THREADS="1")
    paths = [str(Path(pqf.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [*paths, env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-c", _CHILD, str(out)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _result(proc) -> dict:
    try:
        stdout, stderr = proc.communicate(timeout=300)
    finally:
        proc.kill()  # a no-op once the child has exited
    assert proc.returncode == 0, stderr
    return json.loads(stdout.splitlines()[-1])


def test_outputs_do_not_depend_on_simd_dispatch_or_blas_kernel(tmp_path, record_property):
    live = bool(__cpu_features__.get("AVX512_SKX"))
    record_property("avx512_live", live)
    # both children run at once, one per core of a two-core host
    default, switched = _start(tmp_path, "default", False), _start(tmp_path, "switched", True)
    default, switched = _result(default), _result(switched)
    assert default["avx512"] == live
    assert not switched["avx512"]  # the switch took, or the host never had AVX-512
    assert default["sha256"] == switched["sha256"], f"avx512_live={live}"
