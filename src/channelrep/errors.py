"""Exception types shared across the package."""

__all__ = [
    "ChannelRepError",
    "DimensionError",
    "DomainError",
    "ValidationError",
    "NotInSubspaceError",
    "FileFormatError",
]


class ChannelRepError(Exception):
    """Base class for all channelrep errors."""


class DimensionError(ChannelRepError, ValueError):
    """Operands have incompatible or invalid shapes."""


class DomainError(ChannelRepError, ValueError):
    """A scalar parameter is outside its admissible range."""


class _SizeLimitError(DomainError):
    """Dims whose arrays would take more than ``choi.MAX_ARRAY_BYTES``; the
    file readers and writers pass its message on."""


class ValidationError(ChannelRepError, ValueError):
    """An input matrix violates a structural requirement (unitarity, Hermiticity, ...)."""


class NotInSubspaceError(ChannelRepError):
    """The matrix does not lie in the channel subspace.

    Raised by ``represent`` when the residual after projection exceeds the
    membership tolerance, which signals that the partial trace over the
    output factor is not proportional to the identity.
    """

    def __init__(self, residual_trace_norm: float):
        self.residual_trace_norm = residual_trace_norm
        super().__init__(
            f"matrix is not in the channel subspace "
            f"(residual trace norm {residual_trace_norm:.6e})"
        )


class FileFormatError(ChannelRepError, ValueError):
    """A matrix or vector file failed to parse or is internally inconsistent."""
