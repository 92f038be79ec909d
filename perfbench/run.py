#!/usr/bin/env python3
"""End-to-end benchmark of spanner construction and nas_served.

Run from the root of a checkout:

    python3 perfbench/run.py --workload construct --seed 1 --seconds 15 --trace 0

Workloads: construct, serve_uniform_batch, serve_hot_single.  --trace 0 runs
the timed pipeline and prints the end-to-end metrics; --trace 1 runs the
traced in-process replay and prints the per-layer metrics.  --size smoke
runs a tiny copy of every workload (the benchmark's own tests use it).

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The first run in a checkout builds the repository's `nas` library,
nas_oracle, nas_served and the driver into .bench_build/.  Inputs are made
from --seed and prepared once per seed into .bench_build/prep/ by the commit
under test (nas_oracle writes the snapshot), never inside a timed run.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
NASBENCH = CMAKE_DIR / "nasbench"
NAS_ORACLE = CMAKE_DIR / "nas" / "tools" / "nas_oracle"
NAS_SERVED = CMAKE_DIR / "nas" / "tools" / "nas_served"

WORKLOADS = ("construct", "serve_uniform_batch", "serve_hot_single")
SIZES = {"full": 16384, "smoke": 1024}
# Every count the program reports must repeat exactly for one seed.
COUNT_UNITS = {"edges", "rounds", "msgs", "entries", "pairs", "hops", "count",
               "vertices", "B", "B/cmd"}
# A construct process makes one build (~9 s of work at full size); a run
# makes one process per started CONSTRUCT_PROC_S of --seconds (four at
# --seconds 15), at least two, and takes the median over them.
CONSTRUCT_PROC_S = 4
# Taken from the prepare-time construct processes by the serving workloads.
RECORD_METRICS = ("build_s", "verify_s", "congest_rounds", "congest_messages")
# Those processes stop after verification (~7 s each at full size); their
# median halves the spread one process gives.
RECORD_PROCS = 2
RUN_BUDGET_S = 170.0  # a run must end within 180 s
BUILD_BUDGET_S = 850.0  # the first run in a checkout may take 900 s


class BenchError(Exception):
    pass


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


_child_group = None  # process group of the running child, if any


def _stop_child(signum, _frame):
    """SIGTERM/SIGINT: take the running child's whole group down too."""
    if _child_group is not None:
        os.killpg(_child_group, signal.SIGKILL)
    sys.exit(128 + signum)


def run(cmd, timeout, stdout=sys.stderr):
    """Runs one child to completion.  It gets its own process group, so on a
    timeout or a signal the daemons and children it started die with it."""
    global _child_group
    log(" ".join(str(c) for c in cmd))
    with subprocess.Popen([str(c) for c in cmd], stdout=stdout,
                          stderr=sys.stderr, text=True, cwd=ROOT,
                          start_new_session=True) as proc:
        _child_group = proc.pid
        try:
            out, _ = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired as e:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"timed out: {cmd[0]}") from e
        finally:
            _child_group = None
    if proc.returncode != 0:
        raise BenchError(f"{Path(str(cmd[0])).name} exited {proc.returncode}")
    return out


def check_tree():
    needed = ["CMakeLists.txt", "src/CMakeLists.txt", "tools/nas_served.cpp",
              "tools/nas_oracle.cpp", "perfbench/CMakeLists.txt"]
    missing = [p for p in needed if not (ROOT / p).is_file()]
    if missing:
        raise BenchError("repository sources missing: " + ", ".join(missing))


def build():
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    BUILD.mkdir(exist_ok=True)
    deadline = time.monotonic() + BUILD_BUDGET_S
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run(["cmake", "-S", BENCH, "-B", CMAKE_DIR, *gen,
             "-DCMAKE_BUILD_TYPE=Release"], deadline - time.monotonic())
    jobs = str(min(4, os.cpu_count() or 1))
    run(["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target", "nasbench",
         "nas_oracle", "nas_served"], deadline - time.monotonic())


def binaries_stamp():
    h = hashlib.sha256()
    for exe in (NASBENCH, NAS_ORACLE, NAS_SERVED):
        h.update(exe.read_bytes())
    return h.hexdigest()


def run_json(cmd, deadline):
    """Runs one nasbench command and returns its JSON result line."""
    out = run(cmd, deadline - time.monotonic(), stdout=subprocess.PIPE)
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"nasbench {cmd[1]} printed no result")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    return json.loads(lines[-1])


def construct_command(graph, work, seed, size, record=False):
    return [NASBENCH, "construct", "--graph", graph, "--work-dir", work,
            "--seed", seed, "--size", size, "--record", int(record)]


class Prep:
    """Per-seed inputs, made once by this checkout's binaries and reused.
    The stamp of the binaries wipes the directory when they change, so
    nothing in it (inputs, record, count history) crosses two commits."""

    def __init__(self, size, seed, deadline):
        self.size, self.seed, self.deadline = size, seed, deadline
        self.dir = BUILD / "prep" / size / f"seed-{seed}"
        stamp = self.dir / "stamp"
        current = binaries_stamp()
        if stamp.is_file() and stamp.read_text() != current:
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        stamp.write_text(current)

    def _make(self, name, cmd_for):
        path = self.dir / name
        if not path.is_file():
            tmp = self.dir / (name + ".tmp")
            run(cmd_for(tmp), self.deadline - time.monotonic())
            tmp.replace(path)
        return path

    def common(self):
        return ["--seed", self.seed, "--size", self.size]

    def graph(self):
        return self._make("graph.txt", lambda out: [
            NASBENCH, "gen", "--n", SIZES[self.size], "--seed", self.seed,
            "--out", out])

    def snapshot(self):
        graph = self.graph()
        return self._make("snapshot.naso2", lambda out: [
            NAS_ORACLE, "--family", f"file:{graph}", "--eps", "0.25",
            "--kappa", "3", "--rho", "0.4", "--mode", "practical",
            "--save", out, "--snapshot-format", "v2"])

    def record(self):
        """Build and verification on this graph, for the serving workloads'
        construction metrics: RECORD_PROCS processes, one build each."""
        path = self.dir / "record.json"
        if not path.is_file():
            work = self.dir / "record-work"
            work.mkdir(exist_ok=True)
            cmd = construct_command(self.graph(), work, self.seed, self.size,
                                    record=True)
            result, problems = merge([run_json(cmd, self.deadline)
                                      for _ in range(RECORD_PROCS)])
            if problems:
                raise BenchError("prepare-time construct processes: "
                                 + "; ".join(problems))
            tmp = self.dir / "record.json.tmp"
            tmp.write_text(json.dumps(result))
            tmp.replace(path)
        return json.loads(path.read_text())

    def history(self, workload, trace):
        return self.dir / f"counts-{workload}-trace{trace}.json"

    def reference(self, stream):
        snap = self.snapshot()
        return self._make(f"ref_{stream}.bin", lambda out: [
            NASBENCH, "reference", "--snapshot", snap, "--stream", stream,
            *self.common(), "--out", out])


def merge(parts):
    """One result from the construct processes: the median of each timing,
    counts that must agree, and the operations of all of them."""
    problems = []
    metrics = {}
    for name, metric in parts[0]["metrics"].items():
        values = [p["metrics"][name]["value"] for p in parts]
        if metric["unit"] in COUNT_UNITS:
            if len(set(values)) > 1:
                problems.append(f"{name} differs between processes: {values}")
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return {"correct": all(p["correct"] for p in parts),
            "attempted": sum(p["attempted"] for p in parts),
            "failed": sum(p["failed"] for p in parts),
            "metrics": metrics}, problems


def measure(args, prep, work, deadline):
    """Runs the workload; returns its result and the problems found.  The
    prepare step comes first, then os.sync() flushes what it and the build
    wrote, so that page writeback does not land inside the timed window."""
    stream = "hot" if args.workload == "serve_hot_single" else "uniform"
    common = ["--seed", args.seed, "--size", args.size]
    if args.trace:
        cmd = [NASBENCH, "trace", "--workload", args.workload,
               "--graph", prep.graph(), "--snapshot", prep.snapshot(),
               "--ref", prep.reference(stream), "--daemon", NAS_SERVED,
               "--work-dir", work, *common]
        os.sync()
        return run_json(cmd, deadline), []
    if args.workload == "construct":
        cmd = construct_command(prep.graph(), work, args.seed, args.size)
        os.sync()
        procs = max(2, -(-args.seconds // CONSTRUCT_PROC_S))
        result, problems = merge([run_json(cmd, deadline)
                                  for _ in range(procs)])
    else:
        cmd = [NASBENCH, "serve", "--stream", stream,
               "--snapshot", prep.snapshot(), "--ref", prep.reference(stream),
               "--daemon", NAS_SERVED, "--seconds", args.seconds, *common]
        record = prep.record()
        os.sync()
        result, problems = run_json(cmd, deadline), []
        edges = result["metrics"]["spanner_edges"]["value"]
        if record["metrics"]["spanner_edges"]["value"] != edges:
            problems.append("prepare-time construct run and snapshot "
                            "disagree on |H|")
        if not record["correct"]:
            problems.append("prepare-time construct run was not correct")
        for name in RECORD_METRICS:
            result["metrics"][name] = record["metrics"][name]
    if result["attempted"] < 1:
        raise BenchError("no operation was attempted")
    ok = result["attempted"] - result["failed"]
    result["metrics"]["ok_frac"] = {"value": ok / result["attempted"],
                                    "unit": "ratio"}
    return result, problems


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, args, prep):
    """Schema and determinism checks; returns the problems found."""
    problems = []
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"metric set/units differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}")
    counts = {k: v["value"] for k, v in result["metrics"].items()
              if v["unit"] in COUNT_UNITS}
    history = prep.history(args.workload, args.trace)
    if history.is_file():
        before = json.loads(history.read_text())
        changed = {k: (before.get(k), v) for k, v in counts.items()
                   if before.get(k) != v}
        if changed:
            problems.append(f"counts differ from an earlier run of seed "
                            f"{args.seed} by these binaries: {changed}")
    else:
        history.write_text(json.dumps(counts, sort_keys=True))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _stop_child)
    signal.signal(signal.SIGINT, _stop_child)

    try:
        check_tree()
        build()
        deadline = time.monotonic() + RUN_BUDGET_S
        prep = Prep(args.size, args.seed, deadline)
        work = BUILD / "work" / f"{args.workload}-trace{args.trace}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        result, problems = measure(args, prep, work, deadline)
        problems += check_result(result, args, prep)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1
    for p in problems:
        log(f"CHECK FAILED: {p}")
    if problems:
        result["correct"] = False
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
