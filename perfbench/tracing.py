"""Span recorder for the traced run.

Spans are recorded from the benchmark's side: the public functions of each
channelrep module are wrapped where their callers look them up (module
globals of ``channelrep``, ``channelrep.cli``, ``channelrep.fileio``, ...),
so the program itself is unchanged.  Spans stay in memory and are written
out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import statistics
import time
import tracemalloc
from collections import defaultdict

# (module whose global is replaced, attribute, span name).  The span name is
# <defining module>.<function>; a function imported into several modules is
# wrapped in each, so every call path records the same span.
TARGETS = [
    ("channelrep", "channel_basis", "channel_basis.channel_basis"),
    ("channelrep", "represent", "channel_basis.represent"),
    ("channelrep", "combine", "channel_basis.combine"),
    ("channelrep", "random_channel", "channels.random_channel"),
    ("channelrep", "is_completely_positive", "choi.is_completely_positive"),
    ("channelrep", "is_trace_preserving", "choi.is_trace_preserving"),
    ("channelrep", "trace_norm", "linalg.trace_norm"),
    ("channelrep.cli", "main", "cli.main"),
    ("channelrep.cli", "load_matrix_file", "fileio.load_matrix_file"),
    ("channelrep.cli", "load_vector_file", "fileio.load_vector_file"),
    ("channelrep.cli", "save_matrix_file", "fileio.save_matrix_file"),
    ("channelrep.cli", "save_vector_file", "fileio.save_vector_file"),
    ("channelrep.cli", "matrix_file_to_choi", "fileio.matrix_file_to_choi"),
    ("channelrep.cli", "channel_basis", "channel_basis.channel_basis"),
    ("channelrep.cli", "represent", "channel_basis.represent"),
    ("channelrep.cli", "combine", "channel_basis.combine"),
    ("channelrep.cli", "random_channel", "channels.random_channel"),
    ("channelrep.cli", "is_completely_positive", "choi.is_completely_positive"),
    ("channelrep.cli", "is_trace_preserving", "choi.is_trace_preserving"),
    ("channelrep.cli", "trace_norm", "linalg.trace_norm"),
    ("channelrep.channel_basis", "trace_norm", "linalg.trace_norm"),
    ("channelrep.fileio", "unitary_channel", "channels.unitary_channel"),
    ("channelrep.fileio", "schur_channel", "channels.schur_channel"),
    ("channelrep.fileio", "choi_from_kraus", "choi.choi_from_kraus"),
    ("channelrep.channels", "choi_from_kraus", "choi.choi_from_kraus"),
]

MODULES = ("cli", "fileio", "channels", "choi", "channel_basis", "linalg")
SIZED = ("channel_basis.channel_basis", "channel_basis.represent", "channel_basis.combine")
ALLOC = ("channel_basis.represent", "channel_basis.combine")
LARGE = "8x8"


def _size(name, args):
    """'<dx>x<dy>' for the basis-sized calls, else None."""
    if name == "channel_basis.channel_basis":
        return f"{args[0]}x{args[1]}"
    if name in ("channel_basis.represent", "channel_basis.combine"):
        return f"{args[0].dx}x{args[0].dy}"
    return None


class Tracer:
    """Records spans (name, start, end, parent, op id) and per-span extras."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id = -1
        self.measure_alloc = False

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = {"name": name, "parent": self._stack[-1] if self._stack else -1,
                    "op": self.op_id, "size": _size(name, args), "ok": False}
            self.spans.append(span)
            self._stack.append(idx)
            if name.startswith("fileio.load_"):
                span["bytes_read"] = os.path.getsize(args[0]) if os.path.isfile(args[0]) else 0
            alloc = self.measure_alloc and name in ALLOC
            if alloc:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span["ok"] = True
                return result
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if alloc:
                    span["alloc"] = tracemalloc.get_traced_memory()[1] - base
                if name == "channel_basis.channel_basis" and span["ok"]:
                    span["basis_bytes"] = result.elements.nbytes
                if name == "channel_basis.represent":
                    # A model of today's dense represent, not a measurement:
                    # conj copy read+write, coefficient contraction and
                    # residual reconstruction over the element stack, plus J
                    # in, residual out, J read back.  It is fixed per size and
                    # has to be redefined with any change to represent.
                    n = args[0].dx * args[0].dy
                    span["bytes_computed"] = 4 * args[0].elements.nbytes + 3 * n * n * 16
                if name.startswith("fileio.save_") and span["ok"]:
                    span["bytes_written"] = os.path.getsize(args[0])

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every target with its traced wrapper for the duration."""
        saved = []
        try:
            for mod_name, attr, name in TARGETS:
                mod = importlib.import_module(mod_name)
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(name, original))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    @contextlib.contextmanager
    def allocations(self):
        """Record the tracemalloc peak of each represent/combine call."""
        tracemalloc.start()
        self.measure_alloc = True
        try:
            yield
        finally:
            self.measure_alloc = False
            tracemalloc.stop()

    def dump(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def layer_metrics(spans: list[dict], n_ops: int, n_rounds: int) -> dict:
    """Per-layer metrics from the spans of one traced pass.

    ``<fn>.ms`` is the median inclusive time per call, set-up calls
    included; ``<module>.self_ms`` is the module's self time (span time not
    covered by child spans) per timed operation.  Functions a workload never
    reaches report 0.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end"] - s["start"]
    durs = defaultdict(list)
    self_ms = defaultdict(float)
    for i, s in enumerate(spans):
        d = s["end"] - s["start"]
        durs[s["name"]].append(d)
        if s["size"] == LARGE:
            durs[f"{s['name']}@{LARGE}"].append(d)
        if s["op"] >= 0:  # set-up spans count in call medians, not per-op self time
            self_ms[s["name"].split(".")[0]] += d - child_time[i]

    out = {}
    names = sorted({t[2] for t in TARGETS})
    for name in names:
        out[f"{name}.ms"] = (1e3 * _median(durs[name]), "ms")
    for name in SIZED:
        out[f"{name}.ms.{LARGE}"] = (1e3 * _median(durs[f"{name}@{LARGE}"]), "ms")
    for mod in MODULES:
        out[f"{mod}.self_ms"] = (1e3 * self_ms[mod] / max(n_ops, 1), "ms/op")

    basis = [s for s in spans if "basis_bytes" in s]
    out["channel_basis.basis_mb"] = (max((s["basis_bytes"] for s in basis), default=0) / 2**20, "MiB")
    rep = [s for s in spans if s["name"] == "channel_basis.represent"]
    out["channel_basis.represent.accepted"] = (sum(s["ok"] for s in rep) / max(n_rounds, 1), "count/round")
    out["channel_basis.represent.rejected"] = (sum(not s["ok"] for s in rep) / max(n_rounds, 1), "count/round")
    out["channel_basis.represent.bytes_computed"] = (_median([s["bytes_computed"] for s in rep]), "B")
    out["fileio.bytes_read"] = (sum(s.get("bytes_read", 0) for s in spans) / max(n_ops, 1), "B/op")
    out["fileio.bytes_written"] = (sum(s.get("bytes_written", 0) for s in spans) / max(n_ops, 1), "B/op")
    return out


def alloc_metrics(spans: list[dict]) -> dict:
    out = {}
    for name in ALLOC:
        allocs = [s["alloc"] for s in spans if s["name"] == name and "alloc" in s]
        large = [s["alloc"] for s in spans if s["name"] == name and "alloc" in s and s["size"] == LARGE]
        out[f"{name}.alloc_mb"] = (_median(allocs) / 2**20, "MiB")
        out[f"{name}.alloc_mb.{LARGE}"] = (_median(large) / 2**20, "MiB")
    return out
