#!/usr/bin/env python3
"""Kremlin repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles ../src) in Release mode under
.bench_build/, runs the `kbench` driver for one workload, and relays its
report. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
The Chrome trace of a traced run is written to .bench_build/traces/.

Exits non-zero without printing a result when the sources are missing, the
build fails, or kbench's output does not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "kbench")
GOLDEN = os.path.join(HERE, "golden", "suite_profile.txt")

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 150


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no Kremlin sources (src/CMakeLists.txt) next to perfbench/")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for attempt in (0, 1):
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            step(configure, deadline)
        if step(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                 "kbench"], deadline, check=False) == 0:
            return
        # A stale or foreign build tree: start over once.
        shutil.rmtree(BUILD_DIR, ignore_errors=True)
    fail("build failed")


def step(cmd, deadline, check=True):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("build timed out")
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("build step timed out: " + " ".join(cmd))
    except OSError as e:
        fail("cannot run %s: %s" % (cmd[0], e))
    if check and proc.returncode != 0:
        fail("build step failed: " + " ".join(cmd))
    return proc.returncode


def attach_units(result, spec, trace):
    """Gives each of kbench's {name: value} metrics its BENCHMARK.json unit.

    With --trace 0 kbench must measure exactly the end_to_end list. With
    --trace 1 it may leave out the layers its workload never calls; those
    read 0 and are listed in the report."""
    if not isinstance(result, dict) or sorted(result) != [
            "attempted", "correct", "failed", "metrics"]:
        fail("malformed result keys")
    if result["attempted"] < 1:
        fail("nothing attempted")
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    got = result["metrics"]
    extra = sorted(set(got) - set(units))
    missing = sorted(set(units) - set(got))
    if extra or (missing and not trace):
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            missing, extra))
    result["metrics"] = {
        name: {"value": got.get(name, 0), "unit": unit}
        for name, unit in units.items()}
    if trace:
        for name, m in result["metrics"].items():
            print("  %s = %.6g %s" % (name, m["value"], m["unit"]))
        if missing:
            print("  not called by this workload (read 0): " +
                  ", ".join(missing))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec.get("workloads", [])]
    if args.workload not in names:
        fail("unknown workload %r (one of %s)" % (args.workload, names))
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    traces = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(traces, exist_ok=True)
    seed = args.seed % (1 << 64)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--golden", GOLDEN]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("kbench timed out after %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("kbench exited with %d" % proc.returncode)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("kbench printed no result line")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    attach_units(result, spec, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
