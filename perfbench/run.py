#!/usr/bin/env python3
"""The tcgrid benchmark: build, then run one workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library, the tcgrid_serve daemon and the tcgbench driver from
source into .bench_build/ (incrementally after the first run), then runs the
workload in its own process. The driver's last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
when the outputs were checked correct. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("sweep_mixed", "sweep_live", "serve_local", "serve_sharded")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configure and build; on failure show the log's tail and exit 2."""
    log_path = os.path.join(ROOT, ".bench_build", "build.log")
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "tcgbench", "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.stderr.write("perfbench: build failed (%s)\n" % " ".join(cmd))
                sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build()
    # Relative to the checkout root, so unix socket paths stay short.
    work = os.path.join(".bench_build", "work-%s-%d" % (args.workload, os.getpid()))
    cmd = [
        os.path.join(BUILD, "tcgbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", work,
        "--serve-bin", os.path.join(BUILD, "tcgrid", "tcgrid_serve"),
    ]
    # Its own process group, so a timeout also stops any daemon it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.wait()
        sys.stderr.write("perfbench: %s timed out\n" % args.workload)
        code = 3
    finally:
        try:
            os.killpg(proc.pid, 9)  # anything left in its group
        except OSError:
            pass
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
