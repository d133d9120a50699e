"""Minimal real-vector representations of quantum channels.

A channel from a dx-dimensional input space to a dy-dimensional output space
is encoded by its Choi matrix; all such Choi matrices live in a real subspace
of Hermitian matrices of dimension dx^2 dy^2 - dx^2 + 1.  This package builds
an orthonormal basis of that subspace, expands channels into coefficient
vectors, reassembles them exactly, and ships the channel constructors,
predicates and CLI needed to work with the representation.
"""

from .channel_basis import (
    MEMBERSHIP_TOL,
    ChannelBasis,
    CoefficientVector,
    HermitianBasis,
    channel_basis,
    combine,
    hermitian_basis,
    order_unit_pairing,
    represent,
    sperp_basis,
    subspace_dimension,
)
from .channels import (
    NotCompletelyPositiveWarning,
    random_channel,
    schur_channel,
    unitary_channel,
    validate_correlation,
)
from .choi import (
    ChoiMatrix,
    KrausSet,
    apply_channel,
    choi_from_kraus,
    is_completely_positive,
    is_hermiticity_preserving,
    is_trace_preserving,
)
from .errors import (
    ChannelRepError,
    DimensionError,
    DomainError,
    FileFormatError,
    NotInSubspaceError,
    ValidationError,
)
from .linalg import (
    HERMITICITY_TOL,
    hermiticity_defect,
    hs_inner,
    is_hermitian,
    kron,
    min_eigenvalue_hermitian,
    partial_trace_first,
    res,
    trace_norm,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "HERMITICITY_TOL",
    "MEMBERSHIP_TOL",
    "ChannelBasis",
    "ChannelRepError",
    "ChoiMatrix",
    "CoefficientVector",
    "DimensionError",
    "DomainError",
    "FileFormatError",
    "HermitianBasis",
    "KrausSet",
    "NotCompletelyPositiveWarning",
    "NotInSubspaceError",
    "ValidationError",
    "apply_channel",
    "channel_basis",
    "choi_from_kraus",
    "combine",
    "hermitian_basis",
    "hermiticity_defect",
    "hs_inner",
    "is_completely_positive",
    "is_hermitian",
    "is_hermiticity_preserving",
    "is_trace_preserving",
    "kron",
    "min_eigenvalue_hermitian",
    "order_unit_pairing",
    "partial_trace_first",
    "random_channel",
    "represent",
    "res",
    "schur_channel",
    "sperp_basis",
    "subspace_dimension",
    "trace_norm",
    "unitary_channel",
    "validate_correlation",
]
