#!/usr/bin/env python3
"""Compares two tools/bench_report.sh reports as per-benchmark ratios.

Usage:

    tools/bench_compare.py BASE.json HEAD.json [--gate REGEX]

For every benchmark in both reports it prints base and head medians
(ns/op) and the ratio head/base; below 1 is faster. Each series gets a
noise band of max(5%, 2 x stddev/median), taking the noisier of its two
reports (a report without a "stddev" map counts as noiseless). A ratio
outside 1 +/- band is flagged "slower" or "faster"; inside it, "~".

With --gate REGEX the exit status is 1 when a benchmark whose name
matches REGEX (re.search) is slower past its band, else 0. Without
--gate the comparison only reports. Exit status 2 means unusable input.
Reports from different hosts or build types are compared anyway, with a
warning: their ratios mix hardware with code.
"""

import argparse
import json
import re
import sys

MIN_BAND = 0.05
STDDEV_FACTOR = 2.0
HOST_KEYS = ("cpu", "nproc", "affinity", "compiler")


def fail(message):
    print(f"bench_compare: {message}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    if not isinstance(report, dict) or not isinstance(
            report.get("benchmarks"), dict):
        fail(f"{path} has no \"benchmarks\" map")
    return report


def relative_stddev(report, name):
    median = report["benchmarks"][name]
    stddev = report.get("stddev", {}).get(name, 0.0)
    return stddev / median if median > 0 else 0.0


def host_warnings(base, head):
    warnings = []
    base_host, head_host = base.get("host", {}), head.get("host", {})
    for key in HOST_KEYS:
        if base_host.get(key) != head_host.get(key):
            warnings.append(f"host {key}: {base_host.get(key)!r} vs "
                            f"{head_host.get(key)!r}")
    if base.get("build_type") != head.get("build_type"):
        warnings.append(f"build type: {base.get('build_type')!r} vs "
                        f"{head.get('build_type')!r}")
    return warnings


def compare(base, head):
    """Rows (name, base_ns, head_ns, ratio, band, verdict), sorted by name."""
    rows = []
    for name in sorted(set(base["benchmarks"]) & set(head["benchmarks"])):
        base_ns, head_ns = base["benchmarks"][name], head["benchmarks"][name]
        if base_ns <= 0:
            continue
        band = max(MIN_BAND, STDDEV_FACTOR * max(relative_stddev(base, name),
                                                 relative_stddev(head, name)))
        ratio = head_ns / base_ns
        if ratio > 1 + band:
            verdict = "slower"
        elif ratio < 1 - band:
            verdict = "faster"
        else:
            verdict = "~"
        rows.append((name, base_ns, head_ns, ratio, band, verdict))
    return rows


def main(argv):
    parser = argparse.ArgumentParser(
        description="Per-benchmark head/base ratios of two bench reports.")
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--gate", metavar="REGEX",
                        help="fail when a matching benchmark is slower "
                             "past its noise band")
    args = parser.parse_args(argv)
    try:
        gate = re.compile(args.gate) if args.gate is not None else None
    except re.error as e:
        parser.error(f"bad --gate regex: {e}")

    base, head = load(args.base), load(args.head)
    for warning in host_warnings(base, head):
        print(f"warning: {warning}")
    rows = compare(base, head)
    width = max([len("benchmark")] + [len(row[0]) for row in rows])
    print(f"{'benchmark':<{width}}  {'base ns':>12}  {'head ns':>12}  "
          f"{'ratio':>6}  {'band':>5}  verdict")
    failed = []
    for name, base_ns, head_ns, ratio, band, verdict in rows:
        gated = gate is not None and gate.search(name) is not None
        mark = " (gated)" if gated and verdict == "slower" else ""
        print(f"{name:<{width}}  {base_ns:>12.1f}  {head_ns:>12.1f}  "
              f"{ratio:>6.3f}  {band:>5.1%}  {verdict}{mark}")
        if mark:
            failed.append(name)
    only_base = sorted(set(base["benchmarks"]) - set(head["benchmarks"]))
    only_head = sorted(set(head["benchmarks"]) - set(base["benchmarks"]))
    if only_base:
        print("only in base: " + ", ".join(only_base))
    if only_head:
        print("only in head: " + ", ".join(only_head))
    counts = {v: sum(1 for row in rows if row[5] == v)
              for v in ("slower", "faster", "~")}
    print(f"{len(rows)} compared: {counts['slower']} slower, "
          f"{counts['faster']} faster, {counts['~']} within noise")
    if failed:
        print("gated regressions: " + ", ".join(failed))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
