#!/usr/bin/env python3
"""Builds and runs the ParRec benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the ParRec libraries and the perfbench binary from source into
.bench_build/perfbench (configured once, rebuilt incrementally), runs the
binary's self-test, then the workload in a fresh private work directory
that is removed afterwards. Prints one metadata line (host and traffic)
and, as the last line of standard output, the result object with the keys
correct, attempted, failed and metrics. Build output goes to standard
error. Exits non-zero without a result when the build, the self-test or
the run fails, or when the metrics do not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("scan_long", "serve_burst", "serve_varlen_cold")
RUN_TIMEOUT_S = 170
# Variables that would redirect the JIT cache, force the AST evaluator,
# turn on the global tracer or dump flight records.
SCRUBBED_ENV = ("ParRec_JIT_CACHE", "PARREC_JIT_CACHE", "ParRec_EVAL_AST",
                "PARREC_EVAL_AST", "ParRec_TRACE", "PARREC_TRACE",
                "ParRec_FLIGHT_DUMP")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no ParRec sources under {os.path.join(ROOT, 'src')}")
    jobs = str(min(4, os.cpu_count() or 1))
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    configured = False
    if os.path.isfile(cache):
        with open(cache) as f:
            configured = f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" in f
        if not configured:
            # A build directory copied from another checkout would build
            # that checkout's sources.
            shutil.rmtree(BUILD_DIR)
    steps = []
    if not configured:
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    table = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in table}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build()
    selftest = os.path.join(BUILD_DIR, "perfbench_selftest")
    if subprocess.run([selftest], stdout=sys.stderr,
                      timeout=RUN_TIMEOUT_S).returncode:
        fail("self-test failed")

    work_dir = os.path.join(BUILD_DIR, "runs", str(os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    # Backstop: a JIT compile that ignored the per-run directory would
    # still land inside the work directory, never in a shared cache.
    env["ParRec_JIT_CACHE"] = os.path.join(work_dir, "jit-env")
    try:
        run = subprocess.run(
            [os.path.join(BUILD_DIR, "perfbench"), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds",
             repr(args.seconds), "--trace", args.trace, "--work-dir",
             work_dir],
            env=env, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail(f"perfbench exited {run.returncode} without a result")
    report = json.loads(lines[-1])

    declared = declared_metrics(args.trace == "1")
    reported = {name: m["unit"] for name, m in report["metrics"].items()}
    if reported != declared:
        fail("reported metrics differ from BENCHMARK.json: "
             f"{sorted(set(reported.items()) ^ set(declared.items()))}")

    meta = report["meta"]
    meta.update(nproc=len(os.sched_getaffinity(0)), git_commit=git_commit(),
                seconds=args.seconds)
    print(json.dumps({"meta": meta}))
    print(json.dumps({key: report[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
