#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload dne --seed 1 --seconds 10 --trace 0

The Go build cache, the binary and every scratch file stay under
.bench_build/ in the repository, so a run reads and writes nothing outside
it. The arguments are passed to the benchmark unchanged; its exit code is
returned. When the repository's code is missing the build fails and the
script exits non-zero without printing a result.
"""

import os
import subprocess
import sys

# Each run must end within 180 s; stop the benchmark a little before that.
RUN_TIMEOUT_S = 175
# The first run in a checkout compiles the standard library and the
# repository; it may take up to 900 s.
BUILD_TIMEOUT_S = 840


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=build,
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=bench_dir, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode
    run_env = dict(os.environ, TMPDIR=build)
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=root, env=run_env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
