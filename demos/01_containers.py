"""Containers: save a checkpoint bit-exactly, then compress it.

Builds a small dense classifier checkpoint, writes it to the PQFN container,
reads it back, and shows the round trip is bit-exact. Then compresses the
checkpoint into the PQFC container and compares file sizes.
"""

import tempfile
from pathlib import Path

from pqf import codec, finetune, tensor_io

workdir = Path(tempfile.mkdtemp(prefix="pqf-demo-"))

ckpt = finetune.make_mlp_checkpoint((16, 32, 32, 8), seed=0)
raw_path = workdir / "toy.pqfn"
raw_bytes = tensor_io.save_checkpoint(ckpt, raw_path)
print(f"checkpoint: {raw_bytes} bytes at {raw_path}")

# the container round trip is bit-exact: saving the loaded model reproduces
# the file byte for byte
reloaded = tensor_io.load_checkpoint(raw_path)
again = workdir / "again.pqfn"
tensor_io.save_checkpoint(reloaded, again)
print("bit-exact reload:", raw_path.read_bytes() == again.read_bytes())

# compress: permutation search + annealed codebooks, then pack to disk
cfg = codec.CompressionConfig(k=16, k_fc=16, src_iterations=100, perm_iterations=200)
model, report, errors, _ = codec.compress_model(ckpt, cfg, seed=0)
comp_path = workdir / "toy.pqfc"
comp_bytes = tensor_io.save_compressed(model, comp_path)
print(f"compressed: {comp_bytes} bytes ({raw_bytes / comp_bytes:.1f}x smaller file)")
print(f"accounted ratio vs float32 payload: {report.ratio:.1f}x")
for name, err in sorted(errors.items()):
    print(f"  per-subvector quantization error {name}: {err:.6f}")

# decode back to a plain checkpoint
restored = codec.decompress_model(tensor_io.load_compressed(comp_path))
print("restored tensors:", [t.name for t in restored.tensors])
