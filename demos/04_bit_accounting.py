"""Exact bit accounting for ResNet-18 from geometry alone (no weights).

Prices every stored entry: the first convolution, biases, and batchnorm
vectors stay at 32-bit floats; compressed layers store a float16 codebook
plus codes packed at ceil(log2(k)) bits. Small-blocks regime with k=256
and the classifier at k=2048 totals 1.54 MB.
"""

import importlib.resources as resources

from pqf import codec, tensor_io

arch = tensor_io.parse_arch_spec(
    (resources.files("pqf") / "data" / "resnet18.arch").read_text()
)
cfg = codec.CompressionConfig(k=256)
report = codec.bit_report(arch, cfg)
print(report.to_text())

print("\nlarge-blocks regime at the same k trades error for size:")
large = codec.bit_report(arch, codec.CompressionConfig(k=256, d_conv_multiplier=2))
print(f"  small blocks: {report.total_mb:6.2f} MB  ({report.ratio:5.1f}x)")
print(f"  large blocks: {large.total_mb:6.2f} MB  ({large.ratio:5.1f}x)")
