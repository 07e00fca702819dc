#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Go program in its own module (perfbench/go.mod), which
builds the scan service from the checkout's sources through a `replace`
directive. Every build product and cache lives under `.bench_build/` in the
checkout (or under $CARGO_TARGET_DIR when it is set), so the run reads and
writes nothing outside the checkout. Arguments are passed through unchanged;
the program prints its report and, as the last line of standard output, the
JSON result. A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build):
        build = os.path.join(root, build)
    for sub in ("gocache", "gopath", "tmp"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)

    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOENV="off",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    # GOMAXPROCS is left to the Go runtime default (one per CPU).
    env.pop("GOMAXPROCS", None)

    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=here, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=840,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=175)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
