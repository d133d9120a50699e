"""channelrep benchmark: one command, three workloads, every metric with its unit.

Run from the root of a channelrep checkout:

    python3 perfbench/run.py --workload cli_small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  ``--smoke`` runs one round of every workload, untraced and
traced, and exits 0 only if each finished, ran its checks and no operation
failed but those marked as known faults.  See perfbench/README.md.

This file uses the standard library only; numpy and channelrep are loaded in
the worker processes it starts, so their cost lands in set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli_small", "cli_large", "lib_encode")
DEADLINE_S = 170.0  # a run must end within 180 s
SMOKE_DEADLINE_S = 600.0
# One BLAS thread (nproc is 2 on the reference VM): with two, a 4x4
# contraction took 15 ms instead of 0.4 ms, a wait that varies with load.
BLAS_THREADS = "1"


def _env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _worker(root: str, env: dict, deadline: float, *args: str) -> dict:
    """Run worker.py to completion; its process group is killed on timeout."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root, *args]
    proc = subprocess.Popen(cmd, env=env, cwd=root, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker {' '.join(args)} ran past the deadline")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def measure(root, workload, seed, seconds, trace, deadline) -> dict:
    res = _worker(root, _env(root), deadline, "--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace))
    metrics = res["metrics"]
    wanted = [m["name"] for m in _spec(root)["per_layer" if trace else "end_to_end"]]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        raise RuntimeError(f"workload {workload} produced no value for {missing}")
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: metrics[name] for name in wanted},
    }


def smoke(root: str, deadline: float) -> int:
    env = _env(root)
    spec = _spec(root)
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            res = _worker(root, env, deadline, "--workload", workload, "--seed", "1",
                          "--seconds", "0", "--trace", str(trace), "--min-rounds", "1")
            unexpected = res["unexpected_failures"]
            names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
            # One round is too short for a 90th percentile.
            missing = [n for n in names if n not in res["metrics"] and n != "op_p90_ms"]
            ok = res["correct"] and res["ok"] > 0 and not unexpected and not missing
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {workload} trace={trace}: "
                  f"{res['ok']} checked, {res['failed']} failed "
                  f"({len(unexpected)} not known faults), correct={res['correct']}"
                  + (f", unexpected failures {unexpected}" if unexpected else "")
                  + (f", missing {missing}" if missing else ""))
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "channelrep", "__init__.py")):
        print("error: run from the root of a channelrep checkout (no src/channelrep)", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(root, time.monotonic() + SMOKE_DEADLINE_S)
    if args.workload is None:
        p.error("--workload is required without --smoke")
    try:
        result = measure(root, args.workload, args.seed, args.seconds, args.trace,
                         time.monotonic() + DEADLINE_S)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
