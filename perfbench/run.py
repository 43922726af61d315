#!/usr/bin/env python3
"""Build and run the cubemesh benchmark from the root of a checkout.

    python3 perfbench/run.py --workload serve-query --seed 1 --seconds 10 --trace 0

Builds `cubemesh-serve` from the repository's workspace and the
`perfbench` binary from this directory's package, both in release mode
under $CARGO_TARGET_DIR (default `.bench_build`), then runs the workload.
The last line of standard output is the JSON result; build output goes
to standard error. Scratch files (the database, overflow logs, the span
trace) go to `<target dir>/perfbench-work`.
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tomllib

WORKLOADS = ["serve-query", "embed-pipeline", "census-build"]
# A run must end within 180 s; the binary budgets its own phases well
# inside this, so reaching it means something hangs.
RUN_TIMEOUT_S = 170


def release_profile_flags():
    """The root manifest's [profile.release] as `--config` flags, so this
    package compiles the library crates exactly as the workspace does."""
    with open("Cargo.toml", "rb") as f:
        profile = tomllib.load(f).get("profile", {}).get("release", {})
    flags = []

    def walk(prefix, table):
        for key, value in table.items():
            key = key if re.fullmatch(r"[A-Za-z0-9_-]+", key) else json.dumps(key)
            if isinstance(value, dict):
                walk(f"{prefix}.{key}", value)
            else:
                flags.extend(["--config", f"{prefix}.{key}={json.dumps(value)}"])

    walk("profile.release", profile)
    return flags


def build(env):
    common = ["cargo", "build", "--release", "--offline", "-q"]
    steps = [
        common + ["-p", "cubemesh-service", "--bin", "cubemesh-serve"],
        common + ["--manifest-path", "perfbench/Cargo.toml"] + release_profile_flags(),
    ]
    for cmd in steps:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", default=0, type=int, choices=[0, 1])
    args = ap.parse_args()

    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates/service")):
        print("run.py: run from the root of a cubemesh checkout", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if not build(env):
        return 1

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve-bin", os.path.join(release, "cubemesh-serve"),
        "--work-dir", os.path.join(target, "perfbench-work"),
    ]
    # Its own process group, so a hung run takes its server down with it.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
