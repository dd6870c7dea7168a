#!/usr/bin/env python3
"""Builds and runs the end-to-end loopback benchmark of xksd and xks_coord.

Run from the repository root:

    python3 perfbench/run.py --workload scan_cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The first call configures and builds perfbench/ (a CMake project over the
repository's libraries, Release) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls rebuild incrementally. The benchmark's
self-checks run before every measurement. The binary's output is passed
through: human-readable lines, then one JSON result as the last line. With
--out FILE the run-shape stamp and the result are also written to FILE, the
input of perfbench/compare.py.

Exit status: the benchmark's own (0 ok, 1 reply mismatch, 3 invalid run,
4 refused build shape), 2 when the source tree or the build is missing,
5 when a run did not finish within RUN_TIMEOUT_S (it is killed, recorded
without a result, and the remaining workloads still run).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["scan_cold", "cache_hot", "coord_fanout", "ingest_churn"]
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
TIMEOUT_EXIT = 5


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no xks source tree around {HERE} (src/CMakeLists.txt missing)")
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", "4", "--target",
                  "perfbench_e2e", "perfbench_selftest"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def run_one(bdir, workload, args, commit):
    cmd = [str(bdir / "perfbench_e2e"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--commit", commit]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return TIMEOUT_EXIT, []
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode, proc.stdout.splitlines()


def record(lines, workload, trace):
    stamp = next((json.loads(l[len("stamp "):]) for l in lines
                  if l.startswith("stamp ")), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {"workload": workload, "trace": trace, "stamp": stamp,
            "result": result}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="write stamp + result JSON here")
    args = parser.parse_args()

    bdir = build_dir()
    build(bdir)
    if subprocess.run([str(bdir / "perfbench_selftest")]).returncode != 0:
        fail("self-checks failed")
    commit = source_id()

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    records = []
    for workload in workloads:
        code, lines = run_one(bdir, workload, args, commit)
        records.append(record(lines, workload, args.trace))
        status = status or code
    if args.out:
        Path(args.out).write_text(
            json.dumps(records if len(records) > 1 else records[0], indent=1))
    sys.exit(status)


if __name__ == "__main__":
    main()
