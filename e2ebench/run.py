#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Usage, from the repository root:

    python3 e2ebench/run.py --workload read-hot --seed 1 --seconds 10 --trace 0

Every argument is passed to the benchmark binary (see README.md). The
binary is built from source with the Go toolchain on PATH into the build
directory ($CARGO_TARGET_DIR, default .bench_build, relative to the
repository root), which also holds the Go build cache, temporary files
and span dumps, so a run reads and writes nothing outside the checkout. The last line of standard output is the JSON result.
"""

import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build):
        build = os.path.join(root, build)
    gobin = shutil.which("go")
    if gobin is None:
        print("e2ebench: no go toolchain on PATH", file=sys.stderr)
        return 2
    tmp = os.path.join(build, "tmp")
    out = os.path.join(build, "e2ebench-out")
    for d in (tmp, out):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "XDG_CACHE_HOME": os.path.join(build, "cache"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=readonly",
        "GOWORK": "off",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "e2ebench")
    try:
        b = subprocess.run([gobin, "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           timeout=BUILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("e2ebench: build timed out", file=sys.stderr)
        return 2
    if b.returncode != 0:
        sys.stderr.write(b.stdout.decode(errors="replace"))
        print("e2ebench: build failed", file=sys.stderr)
        return 2
    cmd = [binary, "-out", out] + sys.argv[1:]
    p = subprocess.Popen(cmd, cwd=root, env=env)

    def stop(signum, _frame):
        # Never leave the benchmark running behind a stopped wrapper.
        p.kill()
        p.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        rc = p.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
        print("e2ebench: run timed out", file=sys.stderr)
        rc = 124
    return rc


if __name__ == "__main__":
    sys.exit(main())
