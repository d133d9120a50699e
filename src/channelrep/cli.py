"""Command-line front end.

Subcommands: represent, combine, check, roundtrip, basis, random.
Exit codes: 0 success/pass, 1 check failed, 2 input error, 3 not in the
channel subspace.  Diagnostics go to stderr; results go to the output file
or stdout.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys

import numpy as np

from .channel_basis import (
    MEMBERSHIP_TOL,
    _scale,
    channel_basis,
    combine,
    represent,
)
from .channels import random_channel
from .choi import (
    is_completely_positive,
    is_hermiticity_preserving,
    is_trace_preserving,
)
from .errors import ChannelRepError, FileFormatError, NotInSubspaceError
from .fileio import (
    _encode_matrix,
    _write_json,
    load_matrix_file,
    load_vector_file,
    matrix_file_to_choi,
    save_matrix_file,
    save_vector_file,
)
from .linalg import HERMITICITY_TOL, min_eigenvalue_hermitian, trace_norm

__all__ = ["main", "entry_point"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NOT_IN_SUBSPACE = 3

ROUNDTRIP_PASS_THRESHOLD = 1e-12


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _tolerance(text: str) -> float:
    """argparse type for tolerance flags: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _save(save, path, *args) -> int:
    """Call ``save(path, *args)``; an unwritable path is an input error."""
    try:
        save(path, *args)
    except OSError as exc:
        return _fail(f"cannot write {path}: {exc.strerror or exc}", EXIT_INPUT_ERROR)
    return EXIT_OK


def _load_choi(path):
    mf = load_matrix_file(path)
    return matrix_file_to_choi(mf)


def _load_and_represent(args):
    """Load ``args.input`` and represent it in the channel basis.

    Returns (basis, j, v), or the exit code after reporting the failure.
    """
    try:
        j = _load_choi(args.input)
    except (FileFormatError, ChannelRepError) as exc:
        return _fail(str(exc), EXIT_INPUT_ERROR)
    basis = channel_basis(j.dx, j.dy)
    try:
        v = represent(basis, j, membership_tol=args.membership_tol)
    except NotInSubspaceError as exc:
        print(f"residual_trace_norm {exc.residual_trace_norm!r}", file=sys.stderr)
        return _fail(str(exc), EXIT_NOT_IN_SUBSPACE)
    except ChannelRepError as exc:
        return _fail(str(exc), EXIT_INPUT_ERROR)
    return basis, j, v


def _cmd_represent(args) -> int:
    loaded = _load_and_represent(args)
    if isinstance(loaded, int):
        return loaded
    _, j, v = loaded
    if code := _save(save_vector_file, args.output, j.dx, j.dy, v.values):
        return code
    print(f"dim_s {len(v)}")
    print(f"c0 {float(v.values[0])!r}")
    return EXIT_OK


def _cmd_combine(args) -> int:
    try:
        vf = load_vector_file(args.input)
    except FileFormatError as exc:
        return _fail(str(exc), EXIT_INPUT_ERROR)
    basis = channel_basis(vf.dx, vf.dy)
    j = combine(basis, vf.values)
    return _save(save_matrix_file, args.output, "choi", vf.dx, vf.dy, j.matrix)


def _cmd_check(args) -> int:
    try:
        j = _load_choi(args.input)
        _scale(j.matrix)  # refuses a non-finite Frobenius norm, as represent does
    except (FileFormatError, ChannelRepError) as exc:
        return _fail(str(exc), EXIT_INPUT_ERROR)
    cp = is_completely_positive(j, tol=args.tol)
    tp = is_trace_preserving(j, tol=args.tol)
    hp = is_hermiticity_preserving(j, tol=args.tol)
    print(f"cp {str(cp).lower()}")
    print(f"tp {str(tp).lower()}")
    print(f"hp {str(hp).lower()}")
    print(f"min_eigenvalue {min_eigenvalue_hermitian(j.matrix)!r}")
    print(f"trace {float(np.trace(j.matrix).real)!r}")
    print(f"pairing {float(np.trace(j.matrix).real) / j.dx!r}")
    return EXIT_OK if (cp and tp) else EXIT_CHECK_FAILED


def _cmd_roundtrip(args) -> int:
    loaded = _load_and_represent(args)
    if isinstance(loaded, int):
        return loaded
    basis, j, v = loaded
    recovered = combine(basis, v)
    err = trace_norm(j.matrix - recovered.matrix)
    print(f"{err:.16e}")
    return EXIT_OK if err <= ROUNDTRIP_PASS_THRESHOLD else EXIT_CHECK_FAILED


def _cmd_basis(args) -> int:
    try:
        basis = channel_basis(args.dx, args.dy)
    except ChannelRepError as exc:
        return _fail(str(exc), EXIT_INPUT_ERROR)
    elements = [
        {"label": list(label), "matrix": _encode_matrix(element)}
        for label, element in zip(basis.labels, basis.elements)
    ]
    doc = {"dx": args.dx, "dy": args.dy, "dim_s": len(basis), "elements": elements}
    if code := _save(_write_json, args.output, doc):
        return code
    print(f"dim_s {len(basis)}")
    return EXIT_OK


def _cmd_random(args) -> int:
    try:
        j = random_channel(args.dx, args.dy, args.rank, args.seed)
    except ChannelRepError as exc:
        return _fail(str(exc), EXIT_INPUT_ERROR)
    return _save(save_matrix_file, args.output, "choi", args.dx, args.dy, j.matrix)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="channelrep",
        description="Represent quantum channels as minimal real coefficient vectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("represent", help="matrix file -> coefficient vector file")
    p.add_argument("input", help="matrix file (choi/unitary/correlation/kraus)")
    p.add_argument("--output", required=True, help="vector file to write")
    p.add_argument("--membership-tol", type=_tolerance, default=MEMBERSHIP_TOL)
    p.set_defaults(func=_cmd_represent)

    p = sub.add_parser("combine", help="coefficient vector file -> Choi matrix file")
    p.add_argument("input", help="vector file")
    p.add_argument("--output", required=True, help="matrix file to write")
    p.set_defaults(func=_cmd_combine)

    p = sub.add_parser("check", help="report CP/TP/HP status of a channel file")
    p.add_argument("input", help="matrix file")
    p.add_argument("--tol", type=_tolerance, default=HERMITICITY_TOL)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("roundtrip", help="represent+combine and report the trace-norm error")
    p.add_argument("input", help="matrix file")
    p.add_argument("--membership-tol", type=_tolerance, default=MEMBERSHIP_TOL)
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("basis", help="dump the labeled channel-subspace basis")
    p.add_argument("--dx", type=int, required=True)
    p.add_argument("--dy", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("random", help="write a seeded random CP+TP Choi matrix file")
    p.add_argument("--dx", type=int, required=True)
    p.add_argument("--dy", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_random)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


def entry_point() -> None:
    # Every module is imported by now.  Freezing moves the ~20k objects that
    # importing numpy, argparse, json and channelrep leaves tracked into the
    # permanent generation, which no collection visits: neither those during
    # main() nor the full passes at interpreter shutdown, which took about
    # 20 ms of a 150-200 ms call.  Shutdown is otherwise unchanged (stdio is
    # flushed, atexit handlers run).  main() and the library leave the
    # collector alone.
    gc.freeze()
    sys.exit(main())
