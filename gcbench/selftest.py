#!/usr/bin/env python3
"""Self-test of the gcbench benchmark.

    python3 gcbench/selftest.py

Runs every workload in BENCHMARK.json briefly, untraced and traced, and
checks that
  * every end-to-end and per-layer metric is printed with its unit,
  * each run is correct with no failed request (error rate 0),
  * one seed always gives the same request count and the same verdict
    count (fixed-request mode, run twice),
  * the layers separate: no assertion calls on plain-4t, one alldead
    violation per injected leak on alldead-4t, and owned-heap-1t marks
    far longer per GC than alldead-4t.
Exits 1 on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def fail(message):
    print(f"selftest: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run(workload, trace, *extra):
    cmd = [sys.executable, str(ROOT / "gcbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        fail(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    summary = next(json.loads(l)["summary"] for l in lines
                   if l.startswith('{"summary"'))
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        fail(f"{workload} trace={trace}: incorrect run: {lines[-2]}")
    if result["attempted"] < 1:
        fail(f"{workload}: nothing attempted")
    return result, summary


def check_metrics(workload, result, declared):
    got = result["metrics"]
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        if name not in got:
            fail(f"{workload}: metric {name} missing")
        if got[name]["unit"] != unit:
            fail(f"{workload}: {name} unit {got[name]['unit']} != {unit}")
    extra = set(got) - {m["name"] for m in declared}
    if extra:
        fail(f"{workload}: undeclared metrics {sorted(extra)}")


def main():
    layers = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        result, _ = run(workload, 0)
        check_metrics(workload, result, SPEC["end_to_end"])
        result, _ = run(workload, 1)
        check_metrics(workload, result, SPEC["per_layer"])
        layers[workload] = {k: v["value"] for k, v in result["metrics"].items()}

        counts = []
        for _ in range(2):
            _, summary = run(workload, 0, "--requests", "3000")
            counts.append((summary["untraced"]["attempted"],
                           summary["untraced"]["verdicts"],
                           summary["untraced"]["leaks"]))
        if counts[0] != counts[1]:
            fail(f"{workload}: same seed, different counts {counts}")
        print(f"selftest: {workload} ok (requests, verdicts, leaks) = "
              f"{counts[0]}")

    plain = layers.get("plain-4t")
    if plain:
        for name, value in plain.items():
            if name.startswith("assertions.") and name.endswith(".calls") \
                    and value != 0:
                fail(f"plain-4t: {name} = {value}, expected 0")
    alldead = layers.get("alldead-4t")
    if alldead:
        if alldead["client.leaks_injected"] < 1 or \
                alldead["assertions.violations"] != alldead["client.leaks_injected"]:
            fail("alldead-4t: violations != leaks injected")
    owned = layers.get("owned-heap-1t")
    if owned and alldead:
        if owned["gc.mark.ms_per_gc"] < 5 * alldead["gc.mark.ms_per_gc"]:
            fail("owned-heap-1t mark time is not well above alldead-4t's")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
