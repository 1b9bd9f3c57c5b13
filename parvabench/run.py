#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 parvabench/run.py --workload fleet_plan --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds a Release
binary under .bench_build/ (later runs rebuild only what changed); build
output goes to stderr. The benchmark's own output goes to stdout, ending
with one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 1 the span log is also written to
.bench_build/trace-<workload>-<seed>.json (Chrome trace-event format).
Extra flags (--smoke) pass through to the binary. See parvabench/README.md.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "parvabench")
BINARY = os.path.join(BUILD_DIR, "parvabench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the benchmark; returns False on failure."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "parvabench", "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            print("parvabench: build step failed: %s" % error, file=sys.stderr)
            return False
        if done.returncode != 0:
            print("parvabench: build step failed: %s" % " ".join(step), file=sys.stderr)
            return False
    return True


def source_sha256():
    """Digest of the library and benchmark sources, for the result stamp."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def commit_id():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description="Run one parvabench workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not build():
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--commit", commit_id(), "--source-sha", source_sha256()]
    if args.trace == "1":
        command += ["--trace-out",
                    os.path.join(BUILD_DIR, "trace-%s-%d.json" % (args.workload, args.seed))]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("parvabench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
