#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload bitmap_query|ap_scan|corr_stream \\
        [--seed N] [--seconds S] [--trace 0|1]

The benchmark binary is built in release mode into $CARGO_TARGET_DIR
(default: .bench_build at the repository root) and run with the same
arguments. Its standard output is passed through; the last line is the
result object. The exit code is the binary's: 0 for a correct run, 1 when
an answer was wrong, 2 when the run could not be made. A failed build
exits 2 without printing a result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end well inside the 180 s a caller allows it.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def run(cmd, timeout, **kwargs):
    """Runs `cmd`, killing it and waiting for it on timeout."""
    with subprocess.Popen(cmd, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        return proc.returncode, out


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        code, _ = run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            BUILD_TIMEOUT_S,
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    if code != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2

    binary = os.path.join(target, "release", "memcim-perfbench")
    if not os.path.isabs(binary):
        binary = os.path.join(ROOT, binary)
    try:
        code, out = run(
            [binary] + sys.argv[1:], RUN_TIMEOUT_S, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: benchmark did not finish: {e}", file=sys.stderr)
        return 2
    lines = out.rstrip("\n").split("\n") if out.strip() else []
    if code in (0, 1) and lines:
        try:
            keys = sorted(json.loads(lines[-1]))
        except ValueError:
            keys = None
        if keys != ["attempted", "correct", "failed", "metrics"]:
            print("run.py: malformed result line", file=sys.stderr)
            return 2
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
