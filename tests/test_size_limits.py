"""Sizes that cannot fit are refused before anything is allocated.

Every case here is refused up front: within a second, and with a
``tracemalloc`` peak under 1 MiB.  No case builds the array it refuses.
"""

import time
import tracemalloc
import warnings

import numpy as np
import pytest

from channelrep import (
    ChannelBasis,
    ChoiMatrix,
    CoefficientVector,
    DomainError,
    FileFormatError,
    KrausSet,
    channel_basis,
    hermitian_basis,
    partial_trace_first,
    random_channel,
    schur_channel,
    sperp_basis,
    subspace_dimension,
    unitary_channel,
)
from channelrep.choi import MAX_ARRAY_BYTES, check_dims
from channelrep.cli import main
from channelrep.fileio import load_matrix_file, save_basis_file, save_vector_file

CHOI_1000 = (
    "dims (1000, 1000): the 1000000x1000000 Choi matrix would take about "
    "14,901.2 GiB, above the size limit of 4 GiB"
)


def _refused_up_front(call, error=DomainError) -> str:
    """The message of the ``error`` that ``call()`` raises, checked to come
    within 1 s and with a ``tracemalloc`` peak under 1 MiB."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(error) as exc_info:
            call()
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 2**20
    return str(exc_info.value)


def test_limit_is_on_the_choi_matrix_bytes():
    # 16 (dx*dy)^2 bytes: side 2^14 is exactly the limit, one more is above it.
    assert MAX_ARRAY_BYTES == 16 * (2**14) ** 2
    check_dims(2**14, 1)
    check_dims(2**7, 2**7)
    message = _refused_up_front(lambda: check_dims(2**14 + 1, 1))
    assert message.startswith("dims (16385, 1): the 16385x16385 Choi matrix would take")


@pytest.mark.parametrize(
    "call",
    [
        lambda: random_channel(1000, 1000, 1, seed=1),
        lambda: ChoiMatrix(dx=1000, dy=1000, matrix=np.zeros((1, 1))),
        lambda: KrausSet(dx=1000, dy=1000, operators=np.zeros((1, 1, 1))),
        lambda: CoefficientVector(dx=1000, dy=1000, values=[1.0]),
        lambda: channel_basis(1000, 1000),
        lambda: subspace_dimension(1000, 1000),
    ],
    ids=["random", "choi", "kraus", "vector", "basis", "dimension"],
)
def test_constructors_refuse_a_choi_matrix_above_the_limit(call):
    assert _refused_up_front(call) == CHOI_1000


@pytest.mark.parametrize("construct", [unitary_channel, schur_channel])
def test_single_space_constructors_refuse_their_choi_matrix(construct):
    # A 200x200 input is small; its Choi matrix is 40000x40000 (23.8 GiB).
    a = np.eye(200, dtype=complex)
    message = _refused_up_front(lambda: construct(a))
    assert message.startswith("dims (200, 200): the 40000x40000 Choi matrix")


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda: hermitian_basis(1000), "the basis stack of 1000000 1000x1000 elements"),
        (lambda: sperp_basis(1000, 1), "the complement stack of 999999 1000x1000 elements"),
        # Its Hermitian basis takes 13 MB; the stack would take 120 GiB.
        (lambda: sperp_basis(30, 100), "the complement stack of 899 3000x3000 elements"),
        (lambda: ChannelBasis(100, 100).elements, "the basis stack of 99990001 10000x10000"),
    ],
    ids=["hermitian", "sperp", "sperp-kron", "elements"],
)
def test_dense_basis_stacks_are_refused_above_the_limit(call, what):
    assert what in _refused_up_front(call)


@pytest.mark.parametrize(
    "dx, dy, gib", [(100, 100, "1,862,458,903.3"), (9, 9, "7.9"), (1, 82, "8.4")]
)
def test_a_basis_dump_is_refused_before_anything_is_built(tmp_path, dx, dy, gib):
    # About 200 B per complex entry: 8x8 (3.1 GiB) passes, 9x9 does not.
    path = tmp_path / "b.json"
    message = _refused_up_front(lambda: save_basis_file(path, channel_basis(dx, dy)))
    n, dim = dx * dy, subspace_dimension(dx, dy)
    assert message == (
        f"dims ({dx}, {dy}): the basis dump of {dim} {n}x{n} elements would take "
        f"about {gib} GiB, above the size limit of 4 GiB"
    )
    assert not path.exists()


def test_files_pass_the_size_refusal_through(tmp_path):
    path = tmp_path / "big.json"
    path.write_text('{"kind": "choi", "dx": 1000, "dy": 1000, "data": [[[1, 0]]]}')
    message = _refused_up_front(lambda: load_matrix_file(path), FileFormatError)
    assert message == f"{path}: {CHOI_1000}"
    out = tmp_path / "v.json"
    message = _refused_up_front(lambda: save_vector_file(out, 1000, 1000, [1.0]), FileFormatError)
    assert message == f"cannot write {out}: {CHOI_1000}"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, what",
    [
        (["random", "--dx", "1000", "--dy", "1000", "--rank", "1", "--seed", "1"], "Choi matrix"),
        (["basis", "--dx", "100", "--dy", "100"], "basis dump"),
    ],
    ids=["random", "basis"],
)
def test_cli_refuses_with_exit_2_and_one_error_line(tmp_path, capsys, argv, what):
    out = tmp_path / "out.json"
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = main(argv + ["--output", str(out)])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert elapsed < 1.0 and peak < 2**20
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: dims (") and what in line and "size limit of 4 GiB" in line
    assert not out.exists()


@pytest.mark.parametrize(
    "d, gib, prefix",
    [
        (10**400, 2631, "dims (1" + "0" * 400 + ", 1): the 1" + "0" * 400 + "x1"),
        # Python may refuse to print an integer of 5001 digits; the refusal
        # must come all the same, naming it by its bit length if need be.
        (10**5000, 33193, "dims ("),
    ],
    ids=["10**400", "10**5000"],
)
def test_dims_beyond_float_range_are_refused(d, gib, prefix):
    # 16 d^2 bytes is beyond float range in GiB, so the size is given as a
    # power of two: 16 * 10**800 bytes is at least 2^2661 bytes.
    suffix = f" Choi matrix would take at least 2^{gib} GiB, above the size limit of 4 GiB"
    assert _refused_up_front(lambda: channel_basis(d, 1)).startswith(prefix)
    for call in (lambda: channel_basis(d, 1), lambda: check_dims(1, d)):
        assert _refused_up_front(call).endswith(suffix)


def test_a_dim_too_long_to_print_is_refused_as_not_positive():
    message = _refused_up_front(lambda: check_dims(0, 10**5000))
    assert message.startswith("dimensions must be positive integers, got (0, ")


def test_a_file_with_dims_beyond_float_range_exits_2(tmp_path, capsys):
    # dx = 10**400 in a kraus file once raised OverflowError with a traceback.
    inp = tmp_path / "huge.json"
    inp.write_text('{"kind": "kraus", "dx": 1' + "0" * 400 + ', "dy": 1, "data": [[[[1, 0]]]]}')
    assert main(["check", str(inp)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: {inp}: dims (1000")
    assert line.endswith("would take at least 2^2631 GiB, above the size limit of 4 GiB")


# Calls on dims (and a Kraus rank) of one value: each takes the dims as
# ``cast(value)``.  None allocates on dims that wrap in a narrow type.
_DIM_PROBES = {
    "len(channel_basis)": (16, lambda d: len(channel_basis(d, d))),
    "subspace_dimension": (16, lambda d: subspace_dimension(d, d)),
    "check_dims 16": (16, lambda d: check_dims(d, d)),
    "check_dims 5000": (5000, lambda d: check_dims(d, d)),
    "check_dims 2**16": (2**16, lambda d: check_dims(d, d)),
    "ChoiMatrix 200": (200, lambda d: ChoiMatrix(d, d, np.zeros((1, 1)))),
    "CoefficientVector 16": (16, lambda d: CoefficientVector(d, d, np.zeros(65281)).values),
    "partial_trace_first": (16, lambda d: partial_trace_first(np.eye(256), d, d)),
    "random_channel rank 200": (200, lambda d: random_channel(16, 16, d, 0).matrix),
    "random_channel dims 16": (16, lambda d: random_channel(d, d, 200, 0).matrix),
}


def _outcome(call):
    """``call()``'s value (an array by its bytes, anything else by ``repr``)
    or its exception's type and message; any warning is an exception."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = call()
        except Exception as exc:
            return type(exc), str(exc)
    return (value.shape, value.tobytes()) if isinstance(value, np.ndarray) else repr(value)


@pytest.mark.parametrize("cast", [np.uint8, np.int16, np.int32, np.int64], ids=lambda t: t.__name__)
def test_numpy_integer_dims_are_read_as_the_python_ints_they_equal(cast):
    # Sizes were once computed in the caller's type: uint8 dims of 16 gave
    # len 1, and int32 dims of 5000 passed the size limit.
    for name, (value, call) in _DIM_PROBES.items():
        if value <= np.iinfo(cast).max:
            assert _outcome(lambda: call(cast(value))) == _outcome(lambda: call(value)), name
