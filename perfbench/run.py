#!/usr/bin/env python3
"""End-to-end benchmark of PipeRisk: build, run one workload, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library and the benchmark driver
in Release under $CARGO_TARGET_DIR (default `.bench_build`) without touching
the repository's own build files, then runs one workload in a single
process. The driver prints every metric with its name and unit, the
operations attempted and failed, and as its last line one JSON result. A
failed output check makes the command exit non-zero.

Workloads: region_models, sharded_stream, serve_mixed (see README.md).
`--smoke` shrinks every input so each workload and all of its checks run in
seconds; the benchmark's own tests use it.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("region_models", "sharded_stream", "serve_mixed")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                              "--dirty", "--abbrev=12"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build(build_dir, jobs):
    """Configures (once) and builds the driver; returns its path or None."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        log("the repository's sources are missing next to %s" % HERE)
        return None
    binary_dir = os.path.join(build_dir, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(binary_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", binary_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", binary_dir, "--target", "perfbench",
                  "-j", str(jobs)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT)
        if proc.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return None
    return os.path.join(binary_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; every check still runs")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    cores = os.cpu_count() or 1
    threads = min(4, cores)
    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir, cores)
    if binary is None:
        return 1

    work_dir = os.path.join(build_dir, "work",
                            "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--threads", str(threads)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.smoke:
        cmd.append("--smoke")

    print("perfbench: workload %s, seed %d, %g s, trace %d, cores %d, "
          "threads %d, revision %s" % (args.workload, args.seed, args.seconds,
                                       args.trace, cores, threads,
                                       git_revision()), flush=True)
    last = ""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    # The driver ends on its own within seconds of the measured phase; the
    # watchdog only guards against a hang.
    watchdog = threading.Timer(args.seconds + 150, proc.kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line.startswith("{"):
                last = line  # the result is printed last, below
            else:
                print(line, flush=True)
        proc.wait()
    finally:
        watchdog.cancel()
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        log("the driver exited with code %d" % proc.returncode)
        if last:
            print(last, flush=True)
        return 1
    try:
        result = json.loads(last)
    except ValueError:
        log("the driver printed no result")
        return 1
    print(json.dumps(result), flush=True)
    return 0 if result.get("correct") is True else 1


if __name__ == "__main__":
    sys.exit(main())
