"""Compare the console script of two source trees, call by call.

    python tools/parity.py PARENT_SRC

runs each call of the op list below as ``python -m channelrep <argv>``, first
with ``PARENT_SRC`` and then with this checkout's ``src`` first on the path,
one call after another, each tree in its own temporary directory that starts
as a copy of the same input files.  For every call it compares the exit code,
stdout, stderr (with the tree's directory written as ``<dir>``) and the bytes
of every file the call wrote.  It prints a JSON summary and exits 1 if any
call differs; the summary names each such op with the fields that differ.
``python tools/parity.py src`` compares the checkout with itself, which shows
that every output is deterministic.  Every call runs with one BLAS thread.

The op list, 165 ops: the cli_small and cli_large ops of
``perfbench.workloads`` at seeds 1 and 2, and every row of the console-case
table, ``CASES`` in ``tests/test_console_cases.py`` (labelled
``table: <row>``), each run in its own directory as written.  This
checkout's channelrep builds every input once.  The tool runs each call
through ``fixtures.run_console``, which forks it from one warm interpreter
per tree, and it imports the table, so it needs numpy and pytest besides
the standard library.  Against itself it takes 11-14 s on a 2-core VM.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT), str(ROOT / "tests")]
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # one BLAS thread: the same sums in every run

from fixtures import run_console  # noqa: E402  (needs the paths above)
from perfbench import workloads  # noqa: E402
from test_console_cases import CASES  # noqa: E402

SEEDS = (1, 2)
PLACEHOLDER = "<dir>"


def build_ops(inputs: Path) -> list[tuple[str, str, list[str]]]:
    """Write every input under ``inputs`` and return the (label, directory,
    argv) ops: each runs in its directory, relative to ``inputs``."""
    ops = []
    for name in ("cli_small", "cli_large"):
        for seed in SEEDS:
            tmp = inputs / f"{name}-{seed}"
            tmp.mkdir(parents=True)
            workload = workloads.WORKLOADS[name](seed, str(tmp))
            workload.build()
            ops += [(f"{name} seed {seed}: {op.label}", tmp.name, op.argv) for op in workload.ops]
    cwd = os.getcwd()
    try:
        for i, case in enumerate(CASES):
            row = inputs / f"table-{i:03d}"
            row.mkdir()
            os.chdir(row)  # the table's inputs write into the current directory
            for write in case.inputs:
                write()
            ops.append((f"table: {case.label}", row.name, case.argv.split()))
    finally:
        os.chdir(cwd)
    return ops


def call(src: Path, tree: Path, inputs: Path, where: str, argv: list[str]) -> dict:
    """One op under ``src`` in ``tree``, a copy of ``inputs``: its exit code,
    output text and the files it wrote."""
    argv = [a.replace(str(inputs), str(tree)) for a in argv]
    code, stdout, stderr, files = run_console(argv, tree / where, src)
    return {"exit": code, "stdout": stdout.replace(str(tree), PLACEHOLDER),
            "stderr": stderr.replace(str(tree), PLACEHOLDER), "files": files}


def _excerpt(value) -> object:
    if isinstance(value, dict):  # written files: name and size only
        return {name: len(data) for name, data in sorted(value.items())}
    return value if not isinstance(value, str) or len(value) <= 400 else value[:400] + "..."


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not (Path(args[0]) / "channelrep").is_dir():
        print("usage: python tools/parity.py PARENT_SRC  (a directory holding channelrep/)",
              file=sys.stderr)
        return 2
    parent_src, change_src = Path(args[0]).resolve(), ROOT / "src"
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        tmp = Path(tmp).resolve()
        inputs = tmp / "inputs"
        ops = build_ops(inputs)
        for side in ("parent", "change"):
            shutil.copytree(inputs, tmp / side)
        differences = []
        for label, where, op_argv in ops:
            a, b = (call(src, tmp / side, inputs, where, op_argv)
                    for side, src in (("parent", parent_src), ("change", change_src)))
            fields = [key for key in a if a[key] != b[key]]
            if fields:
                differences.append({"op": label, "fields": fields,
                                    "parent": {k: _excerpt(a[k]) for k in fields},
                                    "change": {k: _excerpt(b[k]) for k in fields}})
    print(json.dumps({"parent": str(parent_src), "change": str(change_src), "ops": len(ops),
                      "differences": len(differences), "differing_ops": differences}, indent=1))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
