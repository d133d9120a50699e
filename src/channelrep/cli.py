"""Command-line front end.

Subcommands: represent, combine, check, roundtrip, basis, random.
Exit codes: 0 success/pass, 1 check failed, 2 input error, 3 not in the
channel subspace.  Diagnostics go to stderr; results go to the output file
or stdout.

Each ``_cmd_*`` returns its exit code and its ordered (key, value) result
fields, and prints nothing.  ``main`` turns a refusal into the same kind of
result and prints every line, warnings included, through ``_render``.
"""

from __future__ import annotations

import argparse
import gc
import sys
import warnings

import numpy as np

from .channel_basis import MEMBERSHIP_TOL, channel_basis, combine, represent
from .channels import random_channel
from .choi import (
    is_completely_positive,
    is_hermiticity_preserving,
    is_trace_preserving,
)
from .errors import ChannelRepError, DomainError, NotInSubspaceError
from .fileio import (
    load_matrix_file,
    load_vector_file,
    matrix_file_to_choi,
    save_basis_file,
    save_matrix_file,
    save_vector_file,
)
from .linalg import HERMITICITY_TOL, _check_tolerance, trace_norm

__all__ = ["main", "entry_point"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NOT_IN_SUBSPACE = 3

# Largest trace-norm round-trip error that passes, relative to ||J||_F.
ROUNDTRIP_PASS_THRESHOLD = 1e-12


def _tolerance(text: str) -> float:
    """argparse type for tolerance flags: a number that the library's
    tolerance rule (``linalg._check_tolerance``) accepts."""
    try:
        return _check_tolerance(float(text))
    except ValueError:  # not a number, or refused: DomainError is a ValueError
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}") from None


def _load_and_represent(args):
    """Load ``args.input`` and represent it in the channel basis: (basis, j, v)."""
    j = matrix_file_to_choi(load_matrix_file(args.input))
    basis = channel_basis(j.dx, j.dy)
    return basis, j, represent(basis, j, membership_tol=args.membership_tol)


def _cmd_represent(args) -> tuple[int, list]:
    _, j, v = _load_and_represent(args)
    save_vector_file(args.output, j.dx, j.dy, v.values)
    return EXIT_OK, [("dim_s", len(v)), ("c0", float(v.values[0]))]


def _cmd_combine(args) -> tuple[int, list]:
    v = load_vector_file(args.input)
    j = combine(channel_basis(v.dx, v.dy), v)
    save_matrix_file(args.output, "choi", v.dx, v.dy, j.matrix)
    return EXIT_OK, []


def _cmd_check(args) -> tuple[int, list]:
    j = matrix_file_to_choi(load_matrix_file(args.input))
    h = j._hermitian  # the predicates below read this one record of J
    # Relative to s = ||J||_F, as in represent and roundtrip, so the
    # verdicts do not depend on units; s refuses a non-finite norm first.
    s = h.scale()
    tol = args.tol * s
    if np.isinf(tol):
        raise DomainError(f"--tol {args.tol!r} times s = ||J||_F = {s!r} overflows")
    cp = is_completely_positive(j, tol=tol)
    tp = is_trace_preserving(j, tol=tol)
    hp = is_hermiticity_preserving(j, tol=tol)
    trace = float(np.trace(j.matrix).real)
    fields = [("cp", cp), ("tp", tp), ("hp", hp), ("min_eigenvalue", h.lambda_min),
              ("trace", trace), ("pairing", trace / j.dx)]
    return (EXIT_OK if (cp and tp) else EXIT_CHECK_FAILED), fields


def _cmd_roundtrip(args) -> tuple[int, list]:
    basis, j, v = _load_and_represent(args)
    err = trace_norm(j.matrix - combine(basis, v).matrix)
    passed = err <= ROUNDTRIP_PASS_THRESHOLD * j._hermitian.scale()
    return (EXIT_OK if passed else EXIT_CHECK_FAILED), [("trace_norm_error", err)]


def _cmd_basis(args) -> tuple[int, list]:
    basis = channel_basis(args.dx, args.dy)
    save_basis_file(args.output, basis)
    return EXIT_OK, [("dim_s", len(basis))]


def _cmd_random(args) -> tuple[int, list]:
    j = random_channel(args.dx, args.dy, args.rank, args.seed)
    save_matrix_file(args.output, "choi", args.dx, args.dy, j.matrix)
    return EXIT_OK, []


# Fields that are diagnostics, not results: they print on stderr, and the
# messages among them as "key: text".
_STDERR = ("warning", "residual_trace_norm", "error")
_MESSAGES = ("warning", "error")


def _render(fields) -> None:
    """Print each (key, value) field as one line, the CLI's one text format:
    ``key value``, with bools in lower case and other values by ``repr``;
    roundtrip's error prints bare, as ``%.16e``."""
    for key, value in fields:
        if key in _MESSAGES:
            line = f"{key}: {value}"
        elif key == "trace_norm_error":
            line = f"{value:.16e}"
        else:
            line = f"{key} {str(value).lower() if isinstance(value, bool) else repr(value)}"
        print(line, file=sys.stderr if key in _STDERR else sys.stdout)


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
    # Every warning raised while the command runs (a correlation matrix that
    # is not PSD, say) prints as one "warning:" line before the fields.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code, fields = args.func(args)
        except NotInSubspaceError as exc:
            code, fields = EXIT_NOT_IN_SUBSPACE, [
                ("residual_trace_norm", exc.residual_trace_norm), ("error", exc)]
        except ChannelRepError as exc:  # every input, read and write error
            code, fields = EXIT_INPUT_ERROR, [("error", exc)]
    _render([("warning", w.message) for w in caught] + fields)
    return code


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
