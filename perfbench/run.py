#!/usr/bin/env python3
"""The repo benchmark: build perfbench from the checkout's sources, run one
seeded workload (or all four) and print its metrics.

    python3 perfbench/run.py --workload pipeline|serve_open|serve_fanout|refs_churn|all \
        --seed N --seconds S --trace 0|1

Run from anywhere; the build lands in .bench_build/perfbench at the root of
the checkout. The last stdout line of a single-workload run is the result
JSON: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (see perfbench/README.md).
Exits non-zero when the build fails or any correctness check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["pipeline", "serve_open", "serve_fanout", "refs_churn"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH_DIR = os.path.join(ROOT, ".bench_build", "scratch")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def nproc():
    return len(os.sched_getaffinity(0))


def revision():
    """The git commit when ROOT is a git work tree, else a hash of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "include", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isdir(os.path.join(ROOT, "include"))):
        fail("no wf sources at " + ROOT + "; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(nproc())])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "perfbench")


def run_workload(binary, workload, args, rev):
    env = dict(os.environ)
    env["WF_THREADS"] = str(nproc())  # the pool thread count is nproc
    env["WF_LOG_LEVEL"] = "warn"
    for knob in ("WF_OBS", "WF_SHARDS", "WF_SIMD", "WF_SMOKE"):
        env.pop(knob, None)
    os.makedirs(SCRATCH_DIR, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--scratch", SCRATCH_DIR,
           "--revision", rev]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(workload + ": no result within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    rev = revision()
    if args.workload != "all":
        code, lines, result = run_workload(binary, args.workload, args, rev)
        if result is None:
            print("\n".join(lines))
            fail(args.workload + " printed no result (exit code %d)" % code)
        print("\n".join(lines))
        sys.exit(code)

    # All four workloads in turn, then every metric again as one table.
    summary, ok = [], True
    for workload in WORKLOADS:
        code, lines, result = run_workload(binary, workload, args, rev)
        print("== " + workload)
        print("\n".join(lines[:-1] if result is not None else lines))
        ok = ok and code == 0 and result is not None and result["correct"]
        summary += [(workload, line) for line in lines if line.startswith("metric ")]
        if result is not None:
            summary.append((workload, "ops attempted %d failed %d correct %s"
                            % (result["attempted"], result["failed"], result["correct"])))
    print("== summary")
    for workload, line in summary:
        print("%-13s %s" % (workload, line))
    print("all workloads correct" if ok else "some workload FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
