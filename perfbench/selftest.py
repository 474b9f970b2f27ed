#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes. Asserts names and outcomes,
never timings.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json: the generator is byte-identical
for one seed and differs for another; an untraced run prints exactly the
end-to-end metrics and fails nothing; two traced runs print exactly the
per-layer metrics and agree on every computed count, which a third run
with another seed changes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from gen import make_inputs  # noqa: E402


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace}: exit "
                             f"{proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        raise AssertionError(f"{workload} seed {seed} trace {trace}: {result}")
    return result


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        inputs = make_inputs(workload, 7, shipped_dir=ROOT / "circuits")
        if inputs != make_inputs(workload, 7, shipped_dir=ROOT / "circuits"):
            raise AssertionError(f"{workload}: one seed gave two sets of inputs")
        if inputs == make_inputs(workload, 8, shipped_dir=ROOT / "circuits"):
            raise AssertionError(f"{workload}: two seeds gave the same inputs")

        untraced = bench(workload, 1, 0)
        if units(untraced) != end_to_end:
            raise AssertionError(f"{workload}: end-to-end metrics {units(untraced)}")
        if untraced["metrics"]["ok_fraction"]["value"] != 1.0:
            raise AssertionError(f"{workload}: failed requests")

        first, again, other = bench(workload, 1, 1), bench(workload, 1, 1), bench(workload, 2, 1)
        if units(first) != per_layer:
            raise AssertionError(f"{workload}: per-layer metrics {units(first)}")
        computed = [n for n in per_layer if n.endswith("_computed")]
        values = [[r["metrics"][n]["value"] for n in computed] for r in (first, again, other)]
        if values[0] != values[1]:
            raise AssertionError(f"{workload}: computed counts differ for one seed")
        if values[0] == values[2]:
            raise AssertionError(f"{workload}: computed counts ignore the seed")
        print(f"{workload}: ok", flush=True)
    print("perfbench self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
