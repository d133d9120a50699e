"""Compare the console script of two source trees, call by call.

    python tools/parity.py PARENT_SRC

runs each call of the op list below as ``python -m channelrep <argv>``, first
with ``PARENT_SRC`` and then with this checkout's ``src`` first on the path,
one call after another, each tree in its own temporary directory that starts
as a copy of the same input files.  For every call it compares the exit code,
stdout, stderr (with the tree's directory written as ``<dir>``) and the bytes
of every file the call wrote.  It prints a JSON summary and exits 1 if any
call differs; the summary names each such op with the fields that differ.  ``python tools/parity.py src`` compares the
checkout with itself, which shows that every output is deterministic.

The op list: the cli_small and cli_large ops of ``perfbench.workloads`` at
seeds 1 and 2 (their inputs are built once, by this checkout's channelrep);
``basis`` at 1x1, 1x2 and 2x3; and ``random``, then ``represent``,
``combine`` and ``roundtrip`` of what it wrote, at (dx, dy, rank) = (1, 3, 1),
(3, 1, 3) and (16, 16, 2).  The tool itself uses only the standard library;
``perfbench.workloads`` needs numpy and channelrep to build its inputs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT)]

from perfbench import workloads  # noqa: E402  (needs the paths above)

SEEDS = (1, 2)
BASIS_DIMS = ((1, 1), (1, 2), (2, 3))
CHAIN_SIZES = ((1, 3, 1), (3, 1, 3), (16, 16, 2))
PLACEHOLDER = "<dir>"


def build_ops(inputs: Path) -> list[tuple[str, list[str]]]:
    """Write every input under ``inputs`` and return the (label, argv) ops,
    whose paths all lie under ``inputs``."""
    ops = []
    for name in ("cli_small", "cli_large"):
        for seed in SEEDS:
            tmp = inputs / f"{name}-{seed}"
            tmp.mkdir()
            workload = workloads.WORKLOADS[name](seed, str(tmp))
            workload.build()
            ops += [(f"{name} seed {seed}: {op.label}", op.argv) for op in workload.ops]
    tmp = inputs / "extra"
    tmp.mkdir()
    for dx, dy in BASIS_DIMS:
        out = tmp / f"basis{dx}x{dy}.json"
        ops.append((f"basis {dx}x{dy}", ["basis", "--dx", str(dx), "--dy", str(dy), "--output", str(out)]))
    for dx, dy, rank in CHAIN_SIZES:
        size = f"{dx}x{dy}"
        r, v, c = (str(tmp / f"{stem}{size}.json") for stem in ("random", "vector", "choi"))
        ops += [
            (f"random {size}", ["random", "--dx", str(dx), "--dy", str(dy), "--rank", str(rank),
                                "--seed", "1", "--output", r]),
            (f"represent {size}", ["represent", r, "--output", v]),
            (f"combine {size}", ["combine", v, "--output", c]),
            (f"roundtrip {size}", ["roundtrip", r]),
        ]
    return ops


def _stamps(root: Path) -> dict:
    """Each file under ``root`` with its size and modification time."""
    return {p: (p.stat().st_size, p.stat().st_mtime_ns) for p in root.rglob("*") if p.is_file()}


class Tree:
    """One source tree and the directory its calls run in."""

    def __init__(self, src: Path, inputs: Path, workdir: Path):
        self.dir = workdir
        shutil.copytree(inputs, workdir)
        self.inputs = str(inputs)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), self.env.get("PYTHONPATH")]))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"  # one BLAS thread: the same sums in every run

    def call(self, argv: list[str]) -> dict:
        """Run one call; its exit code, output text and the files it wrote."""
        argv = [a.replace(self.inputs, str(self.dir)) for a in argv]
        before = _stamps(self.dir)
        proc = subprocess.run([sys.executable, "-m", "channelrep", *argv], cwd=self.dir,
                              env=self.env, capture_output=True, text=True)
        written = {p.relative_to(self.dir).as_posix(): p.read_bytes()
                   for p, stamp in _stamps(self.dir).items() if before.get(p) != stamp}
        return {"exit": proc.returncode,
                "stdout": proc.stdout.replace(str(self.dir), PLACEHOLDER),
                "stderr": proc.stderr.replace(str(self.dir), PLACEHOLDER),
                "files": written}


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
        inputs.mkdir()
        ops = build_ops(inputs)
        parent = Tree(parent_src, inputs, tmp / "parent")
        change = Tree(change_src, inputs, tmp / "change")
        differences = []
        for label, op_argv in ops:
            a, b = parent.call(op_argv), change.call(op_argv)
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
