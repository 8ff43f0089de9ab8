#!/usr/bin/env python3
"""Build and run the educhip benchmark from the root of a checkout.

    python3 perfbench/run.py --workload cold_commercial --seed 1 --seconds 20 --trace 0

Builds the benchmark and the eduserved daemon from source with dune
(into .bench_build/), runs one workload, and relays the benchmark's
output; its last line of standard output is the JSON result. Exits
non-zero, without a result, when the sources are missing, the build
fails, or the run fails or overruns its time limit.
"""

import argparse
import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGETS = ["perfbench/bench.exe", "bin/eduserved.exe"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def run_group(cmd, env, timeout, stdout):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{cmd[0]} overran {timeout} s and was killed")
    finally:
        # nothing the command started may outlive it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["cold_commercial", "cold_large_open", "serve_mixed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for needed in ["dune-project", "lib", "bin/eduserved.ml", "perfbench/golden.txt"]:
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the root of an educhip checkout")

    env = dict(os.environ)
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    # keep the compiler's temporaries and dune's cache inside the checkout
    env.update(TMPDIR=tmp, DUNE_CACHE="disabled")
    build = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR] + TARGETS
    if run_group(build, env, BUILD_TIMEOUT_S, sys.stderr) != 0:
        fail("build failed")

    bench = [
        os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--eduserved", os.path.join(BUILD_DIR, "default", "bin", "eduserved.exe"),
    ]
    code = run_group(bench, env, RUN_TIMEOUT_S, None)
    if code != 0:
        print(f"run.py: benchmark exited with {code}", file=sys.stderr)
        sys.exit(code if code > 0 else 1)


if __name__ == "__main__":
    main()
