#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload verify_tcp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source tree. The build (CMake + Ninja, the repository's
default RelWithDebInfo flags) goes to .bench_build/perfbench; every file a run
writes (kgcd data directories, the span dump) goes to a fresh directory under
.bench_build/tmp that is removed when the run ends. The last line of stdout is
the run's JSON result; build output goes to stderr.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("verify_tcp", "kgc_churn", "manet_paper", "manet_scale")
RUN_TIMEOUT_S = 170  # a run must end within 180 s, set-up included


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no program sources at {os.path.join(ROOT, 'src')}; nothing to measure")
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(BUILD_DIR, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests instead")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        return 1 if binary is None else subprocess.run([binary]).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build("perfbench")
    if binary is None:
        return 1
    # A SIGTERM unwinds like an error: subprocess.run kills and reaps the
    # benchmark process and the finally clause removes the run's directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp_parent = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_parent)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--tmp-dir", tmp_dir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        log(f"{args.workload} failed (exit {proc.returncode})")
        return proc.returncode or 1
    print("\n".join(lines[:-1]))
    print(f"wall {time.monotonic() - started:.1f} s")
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
