import channelrep

PUBLIC_NAMES = [
    "ChannelBasis",
    "ChannelRepError",
    "ChoiMatrix",
    "CoefficientVector",
    "DimensionError",
    "DomainError",
    "FileFormatError",
    "HERMITICITY_TOL",
    "HermitianBasis",
    "KrausSet",
    "MEMBERSHIP_TOL",
    "NotCompletelyPositiveWarning",
    "NotInSubspaceError",
    "ValidationError",
    "__version__",
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


def test_public_api_is_pinned():
    assert sorted(channelrep.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(channelrep, name) is not None
