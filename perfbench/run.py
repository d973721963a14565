#!/usr/bin/env python3
"""Builds perfbench from source and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload general_lp --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the current
directory.  Build output goes to stderr; the benchmark's own output is passed
through, so the last line of stdout is the result object.  Exits non-zero,
without a result line, when the build or the run fails.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def build(build_dir: Path) -> Path:
    if not (build_dir / "Makefile").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", "4"],
        check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def main() -> int:
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (Path.cwd() / build_dir / "perfbench").resolve()
    try:
        exe = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    return subprocess.run([str(exe)] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
