#!/usr/bin/env python3
"""Build and run the repository benchmark (the Go program in this directory).

Run from the root of a checkout:

    python3 perfbench/run.py --workload warm-radiation --seed 1 --seconds 10 --trace 0

The program is built from source into .bench_build/ at the checkout root,
with the Go build cache kept there too, so nothing is written outside the
checkout. All arguments are passed through to the program; its last line
of standard output is the JSON result. The exit code is the program's
(non-zero when a build fails or an output check fails).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# The program must finish well inside the three minutes one run may take.
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        XDG_CACHE_HOME=os.path.join(BUILD, "cache"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOENV="off",
    )
    return env


def main():
    binary = os.path.join(BUILD, "perfbench", "perfbench")
    os.makedirs(os.path.dirname(binary), exist_ok=True)
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=HERE, env=go_env(), stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    spans = os.path.join(BUILD, "perfbench", "spans")
    proc = subprocess.Popen([binary, "--spans-dir", spans] + sys.argv[1:], cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
