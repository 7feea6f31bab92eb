#!/usr/bin/env python3
"""Build and run the croute benchmark (perfbench/).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds the `perfbench` target (the croute
library plus the perfbench binary, Release) under $CARGO_TARGET_DIR or
.bench_build/, then every run executes the binary. Build output goes to
standard error; the binary's standard output is passed through, so its
last line, one JSON object, is the last line of ours. The exit code is
the binary's, or non-zero without a result when the sources are missing
or the build fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def build(root: Path, build_dir: Path) -> Path:
    binary = build_dir / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return binary


def main(argv) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        print("error: the croute sources (CMakeLists.txt, src/) are not "
              f"next to {root / 'perfbench'}", file=sys.stderr)
        return 2
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = root / target_dir
    build_dir = target_dir / "perfbench"
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"error: build failed: {e}", file=sys.stderr)
        return 2
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(build_dir / "out")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
