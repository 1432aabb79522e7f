#!/usr/bin/env python3
"""Build the engine benchmark from source and run one workload.

    python3 enginebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark package (enginebench/) is built
in release mode against the engine crates next to it; cargo writes into
$CARGO_TARGET_DIR (default: enginebench/target). Build output goes to
stderr; the benchmark's stdout is passed through, so its last line is the
JSON result. A traced run (--trace 1) also writes its spans to
<target dir>/enginebench-spans/<workload>-seed<n>.json.

Exits non-zero, without printing a result, if the build or the run fails.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def arg_value(argv, flag):
    for i, a in enumerate(argv[:-1]):
        if a == flag:
            return argv[i + 1]
    return None


def run_child(cmd, timeout, **kw):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise


def main():
    argv = sys.argv[1:]
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        rc = run_child(build, timeout=880, stdout=sys.stderr, env=env)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"enginebench: build failed: {e}", file=sys.stderr)
        return 1
    if rc != 0:
        print(f"enginebench: build failed with exit code {rc}", file=sys.stderr)
        return 1

    binary = os.path.join(target, "release", "enginebench")
    cmd = [binary] + argv
    if arg_value(argv, "--trace") == "1" and "--spans" not in argv:
        name = f"{arg_value(argv, '--workload')}-seed{arg_value(argv, '--seed')}.json"
        cmd += ["--spans", os.path.join(target, "enginebench-spans", name)]
    sys.stdout.flush()
    try:
        return run_child(cmd, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"enginebench: run failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
