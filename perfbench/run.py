#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (and through it the library crates) in release
mode into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs the
binary with the same arguments from the repository root. The binary
prints one row per job and, as the last line of standard output, the
JSON result. Job rows, spans and the environment record are written
to `.bench_out/`. The exit code is the binary's, or the build's if the
build fails (e.g. when the library sources are missing).
"""

import os
import subprocess
import sys


def command_output(args, cwd):
    """Stripped stdout of `args`, or "unknown" if it cannot run."""
    try:
        out = subprocess.run(args, cwd=cwd, capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml"),
        ],
        cwd=root, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    env["PERFBENCH_COMMIT"] = command_output(["git", "rev-parse", "HEAD"], root)
    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"], root)
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
