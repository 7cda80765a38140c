#!/usr/bin/env python3
"""Build and run the GRAFT repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which compiles the library from src/)
into .bench_build/perfbench, runs one workload, and passes the program's
output through. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
full report (provenance, workload definition, ladder, layer mapping).

The metric names printed are checked against BENCHMARK.json: --trace 0
must print exactly its end-to-end metrics, --trace 1 its per-layer ones.
Workloads the program defines but BENCHMARK.json does not list (such as
zipf_mmap_100k) run the same way.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "perfbench-runs")
BINARY = os.path.join(BUILD_DIR, "graft_perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over src/ and perfbench/ sources, for provenance."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("GRAFT sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    for step in steps:
        # Build chatter goes to stderr; stdout carries only results.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    names = expected_metrics(args.trace)
    build()
    os.makedirs(RUN_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", RUN_DIR, "--git-sha", git_sha(),
           "--source-digest", source_digest()]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail("benchmark exited with code %d" % done.returncode)
    result = json.loads(lines[-1])
    if sorted(result["metrics"]) != sorted(names):
        sys.stdout.write(done.stdout)
        fail("printed metrics differ from BENCHMARK.json")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
