#!/usr/bin/env python3
"""End-to-end benchmark entry point (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload dbcp-serial --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Builds the library, the tools, the benchmark program and the generated target from the
sources beside this directory (CMake, into $CARGO_TARGET_DIR or
.bench_build), then runs it. perfbench prints each metric with
its unit and meaning, and as its last line one JSON result object.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGETS = ["perfbench", "perfbench-target", "dlf-observe", "dlf-analyze",
           "dlf_preload"]
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no DeadlockFuzzer sources at %s/src; run from a full checkout"
             % ROOT)
    # Configuring every time is cheap and keeps the build files in step
    # with perfbench/CMakeLists.txt.
    cmd = ["cmake", "-S", HERE, "-B", build_dir,
           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target"] + TARGETS
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        fail("build failed")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def run_bench(args):
    """Runs perfbench, passing its output through; returns its exit code."""
    proc = subprocess.Popen(args, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("perfbench timed out after %d s" % RUN_TIMEOUT_S, 3)


def declared_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = set()
    for kind in ("end_to_end", "per_layer"):
        for m in bench[kind]:
            names.add((kind, m["name"], m["unit"]))
    return names, {w["name"] for w in bench["workloads"]}


def self_test(bench, build_dir):
    code = run_bench([bench, "selftest", "--bin-dir", build_dir,
                       "--work-dir", os.path.join(build_dir, "work")])
    listed = subprocess.run([bench, "metrics"], capture_output=True,
                            text=True, check=True).stdout.split("\n")
    metrics, workloads = set(), set()
    for line in listed:
        parts = line.split()
        if parts and parts[0] == "workload":
            workloads.add(parts[1])
        elif parts:
            metrics.add((parts[0], parts[1], parts[2]))
    declared_metrics, declared_workloads = declared_names()
    same = metrics == declared_metrics and declared_workloads <= workloads
    print("  %s    BENCHMARK.json declares exactly the program's metrics, and "
          "only workloads it runs" % ("ok" if same else "FAIL"))
    return 0 if code == 0 and same else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and not a.workload:
        p.error("--workload is required")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(build_dir)
    build(build_dir)
    bench = os.path.join(build_dir, "perfbench")
    if a.self_test:
        sys.exit(self_test(bench, build_dir))
    sys.stdout.flush()
    sys.exit(run_bench([
        bench, "run", "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--trace", str(a.trace),
        "--bin-dir", build_dir, "--work-dir", os.path.join(build_dir, "work"),
        "--commit", source_id()]))


if __name__ == "__main__":
    main()
