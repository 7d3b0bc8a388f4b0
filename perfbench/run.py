#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <tile_tune|fusion_tune|train|serve> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to .bench_build/ (Release,
the library's own flags); build output goes to stderr, so the last line of
stdout is the benchmark's result line. Traced runs also write a Chrome trace
to .bench_build/traces/. Exits nonzero, without a result, when the sources
are missing, the build fails or a correctness check fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no library sources (src/) next to perfbench/; run from a "
             "checkout of the repository")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
    ]
    if os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps = steps[1:]
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr)
        except OSError as error:
            fail("cannot run %s: %s" % (step[0], error))
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def source_id():
    """Digest of the sources under test, plus the git commit when known."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    identity = "sha256:" + digest.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True).stdout.strip()
            identity = "git:" + commit + " " + identity
        except (OSError, subprocess.CalledProcessError):
            pass
    return identity


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--source", source_id()]
    if args.trace == "1":
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%s.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    done = subprocess.run(command, cwd=ROOT)
    sys.exit(done.returncode if done.returncode >= 0 else 1)


if __name__ == "__main__":
    main()
