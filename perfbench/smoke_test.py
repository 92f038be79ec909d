#!/usr/bin/env python3
"""The benchmark's own tests: every workload at --size smoke, both modes.

    python3 perfbench/smoke_test.py

Each run must be correct with no failed operation and report exactly the
metrics BENCHMARK.json lists.  A second run of the same seed must repeat
every count (run.py itself fails a run whose counts differ from an earlier
run of that seed).  Finally, a directory holding only BENCHMARK.json and
perfbench/ must make run.py fail fast without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("construct", "serve_uniform_batch", "serve_hot_single")


def bench(root, workload, trace, seed=1):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--size", "smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600, cwd=root)
    return proc


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            want = {m["name"] for m in
                    spec["per_layer" if trace else "end_to_end"]}
            for attempt in (1, 2):
                proc = bench(ROOT, workload, trace)
                label = f"{workload} trace={trace} run {attempt}"
                if proc.returncode != 0:
                    failures.append(f"{label}: exit {proc.returncode}\n"
                                    f"{proc.stderr[-2000:]}")
                    continue
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                metrics = result["metrics"]
                if not result["correct"] or result["failed"] != 0:
                    failures.append(f"{label}: not correct\n"
                                    f"{proc.stderr[-2000:]}")
                if set(metrics) != want:
                    failures.append(f"{label}: metrics "
                                    f"{sorted(set(metrics) ^ want)} differ")
                if not trace and metrics["ok_frac"]["value"] != 1.0:
                    failures.append(f"{label}: ok_frac below 1")
                print(f"ok  {label}: attempted {result['attempted']}",
                      flush=True)

    bare = ROOT / ".bench_build" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(bare, "construct", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("bare checkout: expected a failing exit, no result")
    else:
        print("ok  bare checkout fails fast", flush=True)
    shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print("FAIL", f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
