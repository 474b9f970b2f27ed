#!/usr/bin/env python3
"""The qsim benchmark: one workload, one closed-loop client, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload simulate_wide --seed 1 --seconds 50 --trace 0

Inputs come from --seed (see gen.py); the program under test is the
qsim package in ./src, never an installed copy. The workload runs in a
fresh worker process (worker.py) with the BLAS/OpenMP thread variables
set to 1; set-up is timed in that worker and in EXTRA_SETUPS more that
stop after set-up, half of them before it and half after, and the median
is reported. Nothing is pinned, no
cache is dropped and no machine setting is touched.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics. With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones from a traced run, whose spans are also
written to .perfbench_out/. Lines before it describe the run for people.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("device_session", "simulate_wide")
EXTRA_SETUPS = 6  # split around the measuring worker, so that one burst of
                  # host load at the start of a run cannot slow them all
TAIL_PERCENTILE = 90
DEADLINE_S = 170.0  # the whole command, set-ups included
READY = "perfbench-ready"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("QSIM_DEVICE", None)  # every request names the packaged or a generated device
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def run_worker(argv: list[str], deadline: float) -> tuple[float, list[str]]:
    """Start a worker, return (seconds until it reported ready, its other
    stdout lines). Raises RuntimeError if it fails or runs past the deadline."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=subprocess.PIPE, env=worker_env())
    ready_s, lines, buf = None, [], b""
    try:
        fd = proc.stdout.fileno()
        while True:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise RuntimeError("worker ran past the deadline")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                text = line.decode()
                if ready_s is None and text == READY:
                    ready_s = time.perf_counter() - t0
                else:
                    lines.append(text)
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready_s is None:
        raise RuntimeError(f"worker exited with code {code}")
    return ready_s, lines


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def machine() -> dict:
    """Commit, CPUs, cache sizes and versions that the figures depend on."""
    info = {"nproc": os.cpu_count(), "platform": platform.platform(), "commit": "unknown"}
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.SubprocessError):
        git = []
    if len(git) == 2 and Path(git[0]).resolve() == ROOT:
        info["commit"] = git[1]
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            info[key.strip().replace(" ", "_").lower()] = value.strip()
    return info


def end_to_end(result: dict, setups: list[float]) -> dict:
    best = result["best"]  # per request class, sorted
    ok = 1.0 - result["failed"] / result["attempted"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "requests_per_s": (result["requests_per_s"], "1/s"),
        "latency_p50_s": (statistics.median(best), "s"),
        "latency_tail_s": (percentile(best, TAIL_PERCENTILE), "s"),
        "peak_rss_mb": (result["peak_rss_kib"] / 1024, "MiB"),
        "ok_fraction": (ok, "ratio"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the self-test only")
    args = ap.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "qsim", ROOT / "circuits") if not p.is_dir()]
    if missing:
        print(f"perfbench: not a qsim checkout, missing {missing}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    workdir = OUT / f"work-{os.getpid()}"
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        base.append("--tiny")
    try:
        def setup_only(i: int) -> float:
            return run_worker([*base, "--setup-only",
                               "--workdir", str(workdir / f"setup{i}")], deadline)[0]

        setups = [setup_only(i) for i in range(EXTRA_SETUPS // 2)]
        ready_s, lines = run_worker([*base, "--workdir", str(workdir / "run"),
                                     "--spans", str(spans)], deadline)
        setups.append(ready_s)
        setups += [setup_only(i) for i in range(EXTRA_SETUPS // 2, EXTRA_SETUPS)]
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = json.loads(lines[-1])

    meta = machine()
    meta.update(python=result["python"], numpy=result["numpy"], workload=args.workload,
                seed=args.seed, seconds=args.seconds, trace=args.trace,
                requests=result["requests"], classes=len(result["best"]),
                tail_percentile=TAIL_PERCENTILE,
                failed_fraction=result["failed"] / result["attempted"])
    print("meta " + json.dumps(meta, sort_keys=True))
    if args.trace:
        metrics = {k: tuple(v) for k, v in result["layers"].items()}
    else:
        metrics = end_to_end(result, setups)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
