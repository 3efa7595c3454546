#!/usr/bin/env python3
"""Builds and runs the mpte end-to-end benchmark (see README.md here).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and compiles
perfbench/ (which compiles ../src) into .bench_build/, or into
$CARGO_TARGET_DIR when that is set; later calls only check that the build
is current. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Exits non-zero, printing no result, when the build
or the run fails.
"""
import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The seed runs use when none is given, and the one kept back for checking
# a claimed gain on inputs it was not tuned on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009
# A run must end within 180 s; leave room to stop the worker processes.
RUN_TIMEOUT_S = 170


def build(target):
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "--target", target,
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return build_dir / target


def run(command):
    process = subprocess.Popen(command, start_new_session=True)
    try:
        return process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        sys.exit("perfbench: no mpte sources at " + str(ROOT / "src"))
    if args.selftest:
        return run([str(build("perfbench_selftest"))])
    if not args.workload:
        parser.error("--workload is required")
    binary = build("perfbench")
    return run([str(binary), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", repr(args.seconds),
                "--trace", str(args.trace)])


if __name__ == "__main__":
    sys.exit(main())
