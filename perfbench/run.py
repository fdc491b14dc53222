#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload projection --seed 1 --seconds 10 --trace 0

The runner builds the measuring program (perfbench/, a Cargo package of its
own) from source into $CARGO_TARGET_DIR (default .bench_build), runs the
workload in one child process while it samples the child's thread count,
and prints two lines: a detail object (the simulated figures, the
determinism digest and the host fingerprint) and, last, the result object
with exactly the keys correct, attempted, failed and metrics.
"""

import argparse
import fcntl
import json
import math
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("projection", "spectrum", "building", "model_check")
# A workload process that has not finished by then is killed.
CHILD_TIMEOUT_S = 170
# Thread-count sampling period: coarse, so the sampler barely competes with
# the workload for the host's cores.
POLL_S = 0.05


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def declared_metrics(trace):
    """The metric names BENCHMARK.json promises for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def git_rev():
    return command_output(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)"


def build(target_dir):
    """Build the measuring program; exits without a result if that fails."""
    manifest = os.path.join(HERE, "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        # Cargo's output goes to stderr so stdout holds only the result.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    exe = os.path.join(target_dir, "release", "perfbench")
    if not os.path.isfile(exe):
        fail(f"built program missing at {exe}")
    return exe


# Set in a task's flags once it has begun to exit.
PF_EXITING = 0x4


def threads_of(pid):
    """Threads of `pid` that are alive and not already exiting."""
    live = 0
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return 0
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if not int(fields[6]) & PF_EXITING:
            live += 1
    return live


def run_workload(exe, args, lock_path):
    """Run the workload alone (an exclusive lock serialises runs in this
    checkout) and return its output line and peak live-thread count."""
    cmd = [exe, args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    with open(lock_path, "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
        peak = 0
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        try:
            while child.poll() is None:
                peak = max(peak, threads_of(child.pid))
                if time.monotonic() > deadline:
                    child.kill()
                    child.wait()
                    fail(f"workload did not finish within {CHILD_TIMEOUT_S} s")
                time.sleep(POLL_S)
            out = child.stdout.read()
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
    if child.returncode != 0:
        fail(f"workload exited with code {child.returncode}")
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("workload printed nothing")
    return json.loads(lines[-1]), peak


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not 0 <= args.seed < 2**64:
        fail("--seed must fit in 64 unsigned bits")
    if not args.seconds > 0:
        fail("--seconds must be positive")

    target_dir = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    expected = declared_metrics(args.trace == 1)
    exe = build(target_dir)
    raw, threads_peak = run_workload(exe, args, os.path.join(target_dir, "perfbench.lock"))

    nproc = len(os.sched_getaffinity(0))
    metrics = {}
    finite = True
    for name in expected:
        m = raw["metrics"].get(name)
        if m is None:
            fail(f"workload did not report {name}")
        finite &= m["value"] is not None and math.isfinite(m["value"])
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    detail = {
        "workload": raw["workload"],
        "seed": raw["seed"],
        "trace": raw["trace"],
        "rounds": raw["rounds"],
        "digest": raw["digest"],
        "sim": {k: v["value"] for k, v in raw["sim"].items()},
        "host": {
            "git_rev": git_rev(),
            "nproc": nproc,
            "rustc": command_output(["rustc", "--version"]) or "unknown",
            "profile": "release",
            "machine": platform.machine(),
            "threads_peak": threads_peak,
            "threads_within_nproc": threads_peak <= nproc,
            "workloads_at_once": 1,
        },
    }
    print(json.dumps({"detail": detail}))
    correct = raw["failed"] == 0 and finite
    print(json.dumps({"correct": correct, "attempted": raw["attempted"], "failed": raw["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
