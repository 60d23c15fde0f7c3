#!/usr/bin/env python3
"""End-to-end placement benchmark entry point.

Builds the benchmark (e2ebench/CMakeLists.txt, which compiles the
repository's rdp_* libraries from source) into .bench_build/, then runs one
workload and prints, as the last stdout line, one JSON object with the keys
correct, attempted, failed and metrics. Run from the repository root:

    python3 e2ebench/run.py --workload congested-ours-t1 --seed 1 \
        --seconds 20 --trace 0
    python3 e2ebench/run.py --selftest

--trace 0 reports the end-to-end metrics of untraced runs; --trace 1 runs
the traced binary and reports the per-layer metrics. See README.md.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
OUT = ROOT / ".bench_out"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(code)


def clean_env():
    # The placer reads RDP_* knobs (threads, faults, journal, audits);
    # the workload alone decides them, so strip any inherited values.
    return {k: v for k, v in os.environ.items() if not k.startswith("RDP_")}


def build(targets):
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(ROOT / "e2ebench"), "-B", str(BUILD),
                      "-G", "Unix Makefiles",
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  *targets])
    with open(log, "a") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              env=clean_env()).returncode != 0:
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (log: {log})", 1)


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def count_lines(directory):
    total = 0
    for p in sorted((ROOT / directory).rglob("*")):
        if p.is_file() and not p.is_symlink():
            with open(p, "rb") as f:
                total += sum(1 for _ in f)
    return total


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    for needed in ("CMakeLists.txt", "src/CMakeLists.txt",
                   "e2ebench/CMakeLists.txt"):
        if not (ROOT / needed).is_file():
            fail(f"missing {needed}: run from a full rdplace source tree")

    if args.selftest:
        build(["e2e_selftest"])
        sys.exit(subprocess.run([str(BUILD / "e2e_selftest")],
                                env=clean_env()).returncode)
    if not args.workload:
        fail("--workload is required")

    # Both binaries, so whichever invocation comes first builds everything.
    build(["e2e_bench", "e2e_bench_traced"])
    binary = "e2e_bench_traced" if args.trace else "e2e_bench"
    OUT.mkdir(exist_ok=True)
    cmd = [str(BUILD / binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(OUT),
           "--commit", commit(),
           "--src-lines", str(count_lines("src")),
           "--tools-lines", str(count_lines("tools"))]
    try:
        r = subprocess.run(cmd, env=clean_env(), cwd=ROOT,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
