"""Exception types shared across the toolkit."""


class PQFError(Exception):
    """Base class for all toolkit errors."""


class MalformedFile(PQFError):
    """File framing, manifest, or structural invariants are broken."""


class IoFailure(PQFError):
    """An underlying OS read/write failed."""


class DuplicateTensorName(PQFError):
    """Two tensors in one checkpoint share a name."""


class DanglingEdge(PQFError):
    """An edge references a layer that does not exist."""


class IndivisibleBlockSize(PQFError):
    """A subvector or permutation block size does not divide the row count."""


class TooFewSubvectors(PQFError):
    """Covariance estimation needs at least two subvectors."""


class DimensionMismatch(PQFError):
    """Subvector length and codebook width disagree."""


class MismatchedChannelCounts(PQFError):
    """Layers sharing a permutation disagree on the shared channel count."""


class UnsupportedLayerKind(PQFError):
    """Layer kind outside the vocabulary the graph resolver understands."""


class UnknownLayerKind(PQFError):
    """Layer kind the bit accounting does not know how to price."""


class InconsistentChannelCounts(PQFError):
    """Slots unified into one permutation group have irreconcilable widths."""


class ShapeMismatch(PQFError):
    """An input or tensor does not have the shape a network expects."""


class DivergedLoss(PQFError):
    """Fine-tuning produced a non-finite loss."""


class NonFiniteWeight(PQFError):
    """A weight to be compressed is NaN or infinite."""


class CodebookOverflow(PQFError):
    """A centroid lies outside the float16 range of the stored codebook."""


class TensorTooLarge(PQFError):
    """A tensor an input declares, or an array a run needs, does not fit in memory."""
