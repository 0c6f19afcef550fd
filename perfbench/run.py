#!/usr/bin/env python3
"""Builds the benchmark once per source state, then runs it.

    python3 perfbench/run.py --workload decide-r2 --seed 1 --seconds 30 --trace 0

Arguments go to the benchmark binary unchanged (see perfbench/README.md).
Run from the repository root. The binary is built with cargo into
$CARGO_TARGET_DIR (default perfbench/target) and rebuilt only when a
source file under Cargo.toml, crates/, vendor/ or perfbench/ changes.
Calling `cargo run` on every run would rebuild the telemetry crate each
time outside a git checkout: its build script watches .git/HEAD, and a
missing file is always stale.
"""

import hashlib
import os
import subprocess
import sys

SOURCES = ["Cargo.toml", "crates", "vendor", "perfbench/Cargo.toml", "perfbench/src"]
SKIP_DIRS = {"target", "out", "__pycache__"}


def source_stamp():
    """SHA-256 over the path and bytes of every source file."""
    h = hashlib.sha256()
    for root in SOURCES:
        paths = [root] if os.path.isfile(root) else []
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
        for path in paths:
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join("perfbench", "target")
    binary = os.path.join(target, "release", "mhca-perfbench")
    stamp_path = os.path.join(target, "perfbench.stamp")
    stamp = source_stamp()
    try:
        with open(stamp_path) as f:
            fresh = f.read() == stamp and os.path.isfile(binary)
    except OSError:
        fresh = False
    if not fresh:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
            env=dict(os.environ, CARGO_TARGET_DIR=target),
            stdout=sys.stderr,
            check=False,
        )
        if build.returncode != 0:
            print(f"perfbench: build failed (exit {build.returncode})", file=sys.stderr)
            return build.returncode
        with open(stamp_path, "w") as f:
            f.write(stamp)
    return subprocess.run([binary] + sys.argv[1:], check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
