#!/usr/bin/env python3
"""Builds and runs the lbtrust end-to-end authorization benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload authz_cold --seed 1 --seconds 30 --trace 0

The benchmark program is built from the sources in this checkout (Release,
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench) on first
use. Its human-readable lines are passed through; the last two lines of
standard output are the host/build record and the result object
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("authz_cold", "binder_exchange")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures once, then rebuilds incrementally; build output -> stderr."""
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", out_dir, "--target", "bench_request", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out_dir, "bench_request")


def source_identity():
    """Git SHA when the checkout is a repository, else a digest of the
    sources the benchmark builds from."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True).stdout.strip()
            return {"git_sha": sha}
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return {"git_sha": None, "source_sha256": digest.hexdigest()}


def cpu_times():
    """Aggregate (busy, steal) jiffies of the machine, or None off Linux."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    steal = fields[7] if len(fields) > 7 else 0
    return sum(fields[:8]) - fields[3] - fields[4], steal


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no lbtrust sources next to perfbench/ (missing %s)" % needed)

    started = time.monotonic()
    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        fail("build failed: %s" % error)
    build_s = time.monotonic() - started

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    before = cpu_times()
    try:
        child = subprocess.run(command, capture_output=True, text=True,
                               timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    after = cpu_times()
    sys.stderr.write(child.stderr)
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % child.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no result line")
    if set(result) != RESULT_KEYS:
        fail("result has keys %s" % sorted(result))

    host = {}
    for line in lines[:-1]:
        if line.startswith("host "):
            host = json.loads(line[len("host "):])
        else:
            print(line)
    host.update(source_identity())
    if before and after and after[0] > before[0]:
        # Share of busy CPU time the hypervisor gave to other guests during
        # the run: results from high-steal runs are not comparable.
        host["cpu_steal_share"] = round(
            (after[1] - before[1]) / (after[0] - before[0]), 3)
    host.update({"workload": args.workload, "seed": args.seed,
                 "seconds": args.seconds, "trace": args.trace,
                 "build_s": round(build_s, 3)})
    print("host " + json.dumps(host, sort_keys=True))
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
