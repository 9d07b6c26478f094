#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig7-clean --seed 1 --seconds 20 --trace 0

Arguments are passed through to the benchmark binary (see main.go). The
Go build cache, module cache, toolchain configuration and the binary
all live under .bench_build/ in the checkout, so the benchmark writes
nothing outside it. A failed build exits non-zero without printing a
result.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(os.path.dirname(here), ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    os.makedirs(build, exist_ok=True)
    # The build's own output goes to stderr: stdout carries only the
    # benchmark's report and its final JSON line.
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit(built.returncode)
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
