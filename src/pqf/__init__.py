"""Permutation-preconditioned vector quantization for weight checkpoints.

The pipeline has three stages: find the channel orders that make each layer's
subvectors cheaper to quantize, learn codebooks with an annealed k-means, and
fine-tune the codebooks with gradient descent on a task loss. Supporting
machinery covers bit-exact containers, exact bit accounting, and resolution
of which layers must share a permutation across an architecture DAG.
"""

from . import codec, finetune, graph, layout, permsearch, quantize, tensor_io
from .codec import CompressionConfig, bit_report, compress_model, decompress_model
from .graph import resolve_groups
from .tensor_io import (
    load_checkpoint,
    load_compressed,
    save_checkpoint,
    save_compressed,
)

__version__ = "0.1.0"

__all__ = [
    "codec",
    "finetune",
    "graph",
    "layout",
    "permsearch",
    "quantize",
    "tensor_io",
    "CompressionConfig",
    "bit_report",
    "compress_model",
    "decompress_model",
    "resolve_groups",
    "load_checkpoint",
    "load_compressed",
    "save_checkpoint",
    "save_compressed",
    "__version__",
]
