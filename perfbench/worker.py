"""One workload in one fresh process: set up, run the closed loop, report.

Started by run.py, never by hand. Prints `perfbench-ready` once set-up
is done (run.py times set-up up to that line), then one JSON line with
the phase statistics. With --trace 1 the loop runs twice on the same
inputs, first untraced and then traced, each for half of --seconds;
the spans of the traced half are written to the --spans file.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy
import qsim

from gen import make_inputs
from run import READY, ROOT
from workloads import COMPUTED, WORKLOADS

MAX_REPORTED_FAILURES = 5

# Spans whose busy time is a per-layer metric (`<name>_s`).
LAYER_SPANS = (
    "circuit.parse", "circuit.validate",
    "engine.ideal_run", "engine.real_run",
    "states.density_kernel",
    "measure.probabilities", "measure.sample", "measure.bloch", "measure.serialize",
    "protocols.sweep", "protocols.teleport",
    "cli.process", "cli.startup", "cli.main",
)
COUNTERS = ("measure.shots", "measure.keys", "protocols.sweep_points", "cli.nonzero_exits")


class Tracer:
    """Spans and counters of one traced phase, kept in memory.

    A span is [name, start, end, parent index, request id]; the request
    id is whatever the loop set before the request began, so probes run
    after a request share its id.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request: int | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent, self.request]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] += k


class NullTracer:
    """Tracing off: spans and counters cost one call each and record nothing."""

    request = None
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, k: int = 1) -> None:
        pass


def run_phase(wl, seconds: float, tr) -> dict:
    """Closed loop, one client: whole rounds until `seconds` of wall time
    have passed. Only the request itself is timed; checks and probes run
    between requests. Every round is the same mix of request classes, and
    each class's latency is its best of the k times it ran (best-of-k):
    host load only ever adds time, and on a shared host it comes in
    stretches of seconds to minutes, which a median over the run does
    not leave out. Throughput is the mix's: completed share x classes
    per round / sum of the classes' best latencies."""
    latencies, by_class, attempted, failed = [], {}, 0, 0
    deadline = time.perf_counter() + seconds
    r = 0
    while True:
        for req in wl.rounds[r % len(wl.rounds)]:
            tr.request = attempted
            attempted += 1
            t0 = time.perf_counter()
            try:
                with tr.span("request"):
                    out = wl.request(req, tr)
            except Exception:  # a failed request is counted, and the loop goes on
                problems = [traceback.format_exc()]
            else:
                problems = None
            latencies.append(time.perf_counter() - t0)
            if problems is None:
                try:
                    problems = wl.check(req, out, tr)
                except Exception:  # unreadable output fails its check
                    problems = [traceback.format_exc()]
                if isinstance(tr, Tracer):
                    wl.probe(req, out, tr)
            if not problems:
                by_class.setdefault(req["class"], []).append(latencies[-1])
            else:
                failed += 1
                if failed <= MAX_REPORTED_FAILURES:
                    print(f"perfbench: request {req['class']} failed: {problems}",
                          file=sys.stderr)
        r += 1
        if time.perf_counter() >= deadline:
            break
    if not by_class:
        raise RuntimeError("no request succeeded")
    best = sorted(min(v) for v in by_class.values())
    return {"latencies": latencies, "best": best, "attempted": attempted, "failed": failed,
            "requests_per_s": (attempted - failed) / attempted * len(best) / sum(best)}


def layer_metrics(tr: Tracer, phase: dict, untraced: dict, computed: dict) -> dict:
    """{name: (value, unit)}: per-request busy time of every layer,
    derived shares, counters and computed counts."""
    spans = tr.spans
    n = phase["attempted"]
    busy, calls, child = Counter(), Counter(), Counter()
    for name, start, end, parent, _ in spans:
        busy[name] += end - start
        calls[name] += 1
        if parent is not None and spans[parent][0] == "request":
            child[parent] += end - start
    self_time = sum(end - start - child[i]
                    for i, (name, start, end, _, _) in enumerate(spans) if name == "request")
    # The noiseless probe reruns the same circuits, so the rest of the
    # real run is what the noise slots cost.
    slot = busy["engine.real_run"] - busy["states.density_kernel"]
    real = {request for name, _, _, _, request in spans if name == "engine.real_run"}
    real_busy = sum(end - start for name, start, end, _, request in spans
                    if name == "request" and request in real)
    m = {f"{name}_s": (busy[name] / n, "s") for name in LAYER_SPANS}
    m.update({
        "noise.slot_s": (slot / n, "s"),
        "noise.slot_share": (slot / real_busy if real_busy else 0.0, "ratio"),
        "cli.startup_share": (busy["cli.startup"] / busy["cli.process"]
                              if busy["cli.process"] else 0.0, "ratio"),
        "bench.request_s": (busy["request"] / n, "s"),
        "bench.self_s": (self_time / n, "s"),
        "bench.tracing_overhead_rps": (phase["requests_per_s"] - untraced["requests_per_s"],
                                       "1/s"),
        "circuit.parse_calls": (calls["circuit.parse"], "count"),
        "circuit.validate_calls": (calls["circuit.validate"], "count"),
        "engine.run_calls": (calls["engine.ideal_run"] + calls["engine.real_run"], "count"),
        "cli.invocations": (calls["cli.process"], "count"),
    })
    m.update({name: (tr.counts[name], "count") for name in COUNTERS})
    m.update(computed)
    return m


def computed_counts(wl) -> dict:
    """Kernel and slot counts of one pass over the request pool."""
    total = Counter()
    for batch in wl.rounds:
        for req in batch:
            total.update(wl.counts(req))
    m = {name: (total[name], "bytes" if name.endswith("bytes_computed") else "count")
         for name in COMPUTED}
    slots = total["noise.wire_slots_computed"]
    m["noise.idle_share_computed"] = (total["noise.idle_slots_computed"] / slots if slots else 0.0,
                                      "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    qsim_file = Path(qsim.__file__).resolve()
    if ROOT / "src" not in qsim_file.parents:
        print(f"perfbench: qsim imported from {qsim_file}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    rounds, files = make_inputs(args.workload, args.seed, args.tiny, ROOT / "circuits")
    args.workdir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (args.workdir / name).write_text(text, encoding="utf-8")
    wl = WORKLOADS[args.workload](rounds, args.workdir)
    warm = rounds[0][0]
    problems = wl.check(warm, wl.request(warm, NullTracer()), NullTracer())
    if problems:
        print(f"perfbench: warm-up request failed: {problems}", file=sys.stderr)
        return 1
    print(READY, flush=True)
    if args.setup_only:
        return 0

    result = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    if args.trace:
        untraced = run_phase(wl, args.seconds / 2, NullTracer())
        tr = Tracer()
        phase = run_phase(wl, args.seconds / 2, tr)
        result["layers"] = layer_metrics(tr, phase, untraced, computed_counts(wl))
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "request")
        args.spans.write_text(json.dumps([dict(zip(keys, s)) for s in tr.spans]),
                              encoding="utf-8")
        phases = (untraced, phase)
    else:
        phases = (run_phase(wl, args.seconds, NullTracer()),)
    result.update({
        "attempted": sum(p["attempted"] for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "requests": len(phases[0]["latencies"]),
        "best": phases[0]["best"],
        "requests_per_s": phases[0]["requests_per_s"],
        "peak_rss_kib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss),
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
