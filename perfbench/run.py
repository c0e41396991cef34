#!/usr/bin/env python3
"""Build and run the treesched benchmark (perfbench) on one workload.

    python3 perfbench/run.py --workload flash_tree --seed 1 --seconds 25 --trace 0

Run from the root of a treesched checkout. The first call configures and
builds perfbench (and the library it links, from the checkout's own
sources) in Release mode under the build directory: $CARGO_TARGET_DIR
when set, else .bench_build. Later calls rebuild only what changed.

The benchmark's standard output ends with one JSON line
{"correct", "attempted", "failed", "metrics"}; build output goes to
standard error. A copy of each result, with the run's metadata (nproc,
build type, seed, revision), is written to <build dir>/results/.
Exits non-zero, printing no result, when the checkout has no sources to
build or the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("flash_tree", "diurnal_line", "hotspot_async", "oneshot_cdn_tree")
BUILD_JOBS = "4"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for f in files:
            if f.is_file() and "__pycache__" not in f.parts:
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def build(out):
    def step(cmd):
        # Build chatter goes to stderr so stdout ends with the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")

    if not (out / "CMakeCache.txt").is_file():
        step(["cmake", "-S", str(HERE), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", str(out), "-j", BUILD_JOBS, "--target",
          "perfbench"])
    return out / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no treesched sources next to {HERE.name}/ to build")

    out = build_dir()
    exe = build(out)
    rev = revision()
    run = subprocess.run(
        [str(exe), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--revision", rev],
        stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        sys.exit(run.returncode)

    lines = run.stdout.strip().splitlines()
    meta = next(json.loads(line[5:]) for line in lines
                if line.startswith("meta "))
    results = out / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {"meta": meta, "result": json.loads(lines[-1])}
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
