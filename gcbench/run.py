#!/usr/bin/env python3
"""Build and run the gcassert request-loop benchmark.

    python3 gcbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first call configures and
builds gcbench (the library from src/ plus gcbench/*.cpp) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
rebuild what changed. Build output goes to stderr, so standard output
is the benchmark's own: a stamp line, a summary line and, last, the
JSON result. Exits non-zero, printing no result, when the build fails
or the benchmark cannot run.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "gcbench"


def source_digest():
    """SHA-256 over the library and benchmark sources (the tree may
    not be a git checkout, so this is the stamp that always exists)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".h", ".txt", ".py"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    out = build_dir()
    configure = ["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(configure)
    steps.append(["cmake", "--build", str(out), "--target", "gcbench",
                  "-j", "4"])
    for step in steps:
        subprocess.run(step, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return out / "gcbench"


def main(argv):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("gcbench: no library sources at src/; run from a full "
              "source tree", file=sys.stderr)
        return 2
    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        print(f"gcbench: build failed: {err}", file=sys.stderr)
        return 2
    cmd = [str(binary), *argv, "--commit", commit(),
           "--source-digest", source_digest()]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("gcbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
