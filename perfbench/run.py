#!/usr/bin/env python3
"""Build the closed-loop benchmark program from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ycsb-hybrid --seed 1 --seconds 30 --trace 0

The engine (src/) and the benchmark program (perfbench/bench/) are compiled
with CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
on the first run and rebuilt incrementally afterwards; build output goes to
stderr. The program's standard output is passed through unchanged, so its
last line is the JSON result. The exit status is the program's, or non-zero
when the checkout cannot be built.

The program runs with address-space layout randomisation off, so every run
places the engine's data at the same virtual addresses: randomised layouts
spread throughput wider between runs (see perfbench/README.md).
"""

import argparse
import ctypes
import os
import shutil
import subprocess
import sys

# A run must end within 180 s. A traced run measures two windows and, on a
# cell with a WAL, checks recovery twice: about 95 s for ycsb-snapshot at
# --seconds 30.
RUN_TIMEOUT_S = 170

ADDR_NO_RANDOMIZE = 0x0040000  # <linux/personality.h>


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("engine sources (src/) not found; run from a checkout root")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def fixed_layout():
    """Child pre-exec hook: turn off address-space randomisation."""
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xffffffff)
    if current == -1 or libc.personality(current | ADDR_NO_RANDOMIZE) == -1:
        os.write(2, b"run.py: cannot turn off address randomisation\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.join(base, "perfbench"))
    wal_root = os.path.join(base, "wal", str(os.getpid()))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--wal-dir", wal_root]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S,
                                preexec_fn=fixed_layout)
        code = result.returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 124
    finally:
        shutil.rmtree(wal_root, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
