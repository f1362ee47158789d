#!/usr/bin/env python3
"""Builds the benchmark in Release from this checkout and runs one workload.

    python3 perfbench/run.py --workload <flood_udp|gossip_mem|sim_targeted>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run it from the root of the checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build output
goes to stderr, so the last line on stdout is the result JSON. Exits non-zero
without a result when the library sources or the toolchain are missing.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(root), "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "drumbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "drumbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scoring", type=int, choices=(0, 1), default=0,
                    help="turn peer scoring on in the live workloads")
    ap.add_argument("--self-test", action="store_true",
                    help="show that every output check rejects bad input")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    exe = build()
    if args.self_test:
        cmd = [exe, "--self-test"]
    else:
        cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.scoring:
            cmd += ["--scoring", "1"]
    sys.stdout.flush()
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
