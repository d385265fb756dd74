#!/usr/bin/env python3
"""Build and run the replay benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build` at the checkout root), then runs it with the same
arguments. Build output goes to standard error, so the last line of standard
output is the benchmark's JSON result. The exit code is the benchmark's, or
non-zero without a result when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    # One malloc arena: with one per worker thread, whether the second
    # worker gets its own arena depends on timing, and peak RSS jumps
    # between two levels from run to run.
    env["MALLOC_ARENA_MAX"] = "1"
    # One CPU: on a shared 2-vCPU VM, waking a worker thread on the
    # other, idle vCPU costs a host-dependent delay at every fan-out, and
    # sparse-multiday (6554 fan-outs per replay) swung 1.9x between runs
    # unpinned against 1.4x pinned. The benchmark inherits the pin.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
