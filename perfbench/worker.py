"""One benchmark process: set-up, warm-up, then the timed or traced loop.

Started by run.py, never by hand.  The last line of standard output is a
JSON object with the run's counts and metrics.  ``--mode setup`` stops after
set-up and reports its duration only; the timed loop starts such processes
at even intervals, so that ``setup_s`` samples the same stretch of time as
the operations do.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up starts here, so the imports below count

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import channelrep  # noqa: E402,F401
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9  # fresh-process set-ups per timed run, besides the worker's own


def _args():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--mode", choices=("run", "setup"), default="run")
    p.add_argument("--min-rounds", type=int, default=5)
    p.add_argument("--root", required=True)
    return p.parse_args()


class Tally:
    """Outcome counts; the first message of each kind goes to stderr."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = self.ok = 0
        self.seen: set = set()
        self.unexpected: set = set()  # labels of failed ops that are no known fault

    def add(self, op, result) -> None:
        self.attempted += 1
        if result.status == "ok":
            self.ok += 1
            return
        if result.status == "failed":
            self.failed += 1
            if not op.known_fault:
                self.unexpected.add(op.label)
        else:
            self.wrong += 1
        self._report(result.status, result.message)

    def mismatch(self, message: str) -> None:
        """A wrong result found outside a counted operation."""
        self.wrong += 1
        self._report("wrong", message)

    def _report(self, status: str, message: str) -> None:
        if message not in self.seen:
            self.seen.add(message)
            print(f"{status}: {message}", file=sys.stderr)


def _setup_sample(args) -> float:
    """Set-up time of a fresh process on the same inputs."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--root", args.root, "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--mode", "setup"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def timed(wl, args, tally: Tally, setup_s: float) -> dict:
    """The timed loop.  Set-up is repeated in fresh processes started between
    operations at even intervals: the host's speed drifts in phases of
    seconds, and samples taken only before or after the timed phase met one
    phase and spread far more across runs."""
    cli = isinstance(wl, workloads.CliWorkload)
    lat = []
    setups = []
    child_rss_kib = rounds = 0
    start = time.perf_counter()
    due = [start + (i + 0.5) * args.seconds / SETUP_SAMPLES for i in range(SETUP_SAMPLES)]
    while rounds < args.min_rounds or time.perf_counter() - start < args.seconds:
        for op in wl.ops:
            r = wl.run(op)
            tally.add(op, r)
            lat.append(r.seconds)
            child_rss_kib = max(child_rss_kib, r.maxrss_kib)
            if due and time.perf_counter() >= due[0]:
                due.pop(0)
                setups.append(_setup_sample(args))
        rounds += 1
    setups += [_setup_sample(args) for _ in due]
    # Peak RSS of the largest CLI child, or of this process for lib_encode;
    # ru_maxrss is in KiB on Linux.
    rss_kib = child_rss_kib if cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
        "setup_s": (statistics.median([setup_s, *setups]), "s"),
    }
    if len(lat) >= 100:  # at least ten samples beyond the 90th percentile
        metrics["op_p90_ms"] = (1e3 * statistics.quantiles(lat, n=10)[-1], "ms")
    return metrics


def traced(wl, seconds: float, tally: Tally, tracer) -> dict:
    cli = isinstance(wl, workloads.CliWorkload)
    n_ops = rounds = 0
    plain = with_spans = 0.0  # time of the traced code, without and with spans
    startup = []
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        if not cli:
            # Library: alternate an untraced and a traced round.
            for op in wl.ops:
                r = wl.run(op)
                tally.add(op, r)
                plain += r.seconds
            with tracer.installed():
                for op in wl.ops:
                    tracer.op_id = n_ops
                    r = wl.run(op)
                    tally.add(op, r)
                    with_spans += r.seconds
                    n_ops += 1
        else:
            # CLI: the subprocess call, then cli.main on the same argv in this
            # process without and with spans, in alternating order.
            for op in wl.ops:
                r = wl.run(op)
                tally.add(op, r)
                if n_ops % 2:
                    t_plain, code = wl.main_in_process(op)
                with tracer.installed():
                    tracer.op_id = n_ops
                    t_spans, _ = wl.main_in_process(op)
                if not n_ops % 2:
                    t_plain, code = wl.main_in_process(op)
                if code != r.code:
                    tally.mismatch(f"{op.label}: in-process exit {code} != subprocess {r.code}")
                plain += t_plain
                with_spans += t_spans
                startup.append(r.seconds - t_plain)
                n_ops += 1
        rounds += 1

    metrics = tracing.layer_metrics(tracer.spans, n_ops, rounds)
    metrics["cli.startup.ms"] = (1e3 * statistics.median(startup) if startup else 0.0, "ms")
    metrics["trace.overhead_pct"] = (100.0 * (with_spans / plain - 1.0), "%")

    # One more round with tracemalloc on, for the allocation peaks only.
    alloc = tracing.Tracer()
    with alloc.installed(), alloc.allocations():
        for op in wl.ops:
            if cli:
                wl.main_in_process(op)
            else:
                wl.run(op)
    metrics.update(tracing.alloc_metrics(alloc.spans))
    return metrics


def main() -> int:
    args = _args()
    scratch = os.path.join(args.root, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, tmp)
        tracer = tracing.Tracer() if args.trace else None
        with tracer.installed() if tracer else contextlib.nullcontext():
            wl.build()
        setup_s = time.perf_counter() - T0
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tally = Tally()
        warm = Tally()
        for op in wl.ops[: wl.warmup]:
            warm.add(op, wl.run(op))
        if args.trace:
            metrics = traced(wl, args.seconds, tally, tracer)
            tracer.dump(os.path.join(args.root, ".perfbench_out",
                                     f"trace-{args.workload}-seed{args.seed}.jsonl"))
        else:
            metrics = timed(wl, args, tally, setup_s)
        print(json.dumps({
            "correct": tally.wrong == 0 and warm.wrong == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "ok": tally.ok,
            "unexpected_failures": sorted(tally.unexpected | warm.unexpected),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
