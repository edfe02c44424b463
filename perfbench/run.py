#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench).

Run from the root of the repository:

    python3 perfbench/run.py --workload <pm_sim|insitu_tail|cosched_campaign> \\
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test     # build and run the benchmark's tests

The first call configures and builds perfbench/ with CMake under the build
root ($CARGO_TARGET_DIR if set, else .bench_build); later calls only
rebuild what changed. Scratch files go to <build root>/work and are removed
by the benchmark. The benchmark's stdout is passed through unchanged: its
last line is the JSON result, and its exit code is this script's.
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def src_digest():
    """SHA-256 over the library sources, so a result names the code it ran."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir, target):
    """Configures (once) and builds `target`; build output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", target],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, target)


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "workflows.h")):
        print("perfbench: the cosmoflow sources (src/) are not next to "
              "perfbench/; run from a full checkout", file=sys.stderr)
        return 2
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                    ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    try:
        if argv == ["--test"]:
            env = dict(os.environ,
                       PERFBENCH_WORKDIR=os.path.join(build_root, "work"))
            return subprocess.run([build(build_dir, "perfbench_tests")],
                                  cwd=ROOT, env=env).returncode
        exe = build(build_dir, "perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    cmd = [exe] + argv + ["--workdir", os.path.join(build_root, "work"),
                          "--git-rev", git_rev(), "--src-digest", src_digest()]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
