#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds `hsqp-node` and the benchmark driver
(release, offline, into $CARGO_TARGET_DIR or .bench_build), runs the
driver, and prints its JSON result as the last line of stdout. Build output
and progress go to stderr. Exits non-zero, without a result, when the build
or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "benchmark")
WORKLOADS = ["tpch-sf0.1-inproc", "tpch-sf0.01-sockets"]
# A run must end within 180 s; leave room for start-up and the build check.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    return 1


def build(env):
    steps = [
        ["cargo", "build", "--release", "--locked", "--offline", "--bin", "hsqp-node"],
        ["cargo", "build", "--release", "--locked", "--offline",
         "--manifest-path", os.path.join(BENCH, "Cargo.toml")],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            return False
    return True


def kill_group(proc):
    """Kill whatever is left of the driver's process group (its node
    processes included) and reap the driver."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if not build(env):
        return fail("build failed")

    cmd = [
        os.path.join(target, "release", "hsqp-benchmark"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--node-bin", os.path.join(target, "release", "hsqp-node"),
        "--answers", os.path.join(BENCH, "answers"),
    ]
    # Own process group, so every process the run starts can be stopped.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    except BaseException:
        kill_group(proc)
        raise
    kill_group(proc)
    if proc.returncode != 0:
        return fail(f"driver exited with code {proc.returncode}")

    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return fail("driver printed no JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return fail(f"unexpected result keys {sorted(result)}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    differ = {m["name"] for m in declared} ^ set(result["metrics"])
    if differ:
        return fail(f"metrics differ from BENCHMARK.json: {sorted(differ)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
