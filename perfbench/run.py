#!/usr/bin/env python3
"""Build the benchmark from source, then run it pinned to one CPU.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default: .bench_build). Build output goes to stderr; the benchmark's last
stdout line is its JSON result. Exits non-zero, without a result, if the
build fails.

The simulator runs one carrier thread at a time, so one CPU is enough;
pinning removes cross-CPU wake-up latency from every carrier handoff,
which otherwise dominates the run-to-run spread (see NOTES.md).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
