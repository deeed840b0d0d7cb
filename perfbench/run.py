#!/usr/bin/env python3
"""Build and run one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --negative-check

Run from the root of a checkout. The first call configures and builds
perfbench/ (the benchmark's own CMake project, which compiles ../src)
into $CARGO_TARGET_DIR, default .bench_build. Each run writes its seeded
model files, JIT cache and temporary files under .bench_work/ and
removes them at exit; traced runs keep their spans in
.bench_work/traces/. The last line of standard output is the result
JSON object. See perfbench/README.md.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import time

WORKLOADS = ("batch-kernel", "batch-jit", "serve-trickle", "serve-burst")
# A run must end within 180 s; leave room for teardown.
RUN_TIMEOUT_S = 170


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build(root):
    if not os.path.isfile(os.path.join(root, "src", "treebeard", "compiler.h")):
        log("no treebeard sources under", os.path.join(root, "src"))
        sys.exit(2)
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"),
                        "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def run_workload(binary, root, workload, seed, seconds, trace,
                 corrupt_call=None, deadline=None):
    """Generate the models, run the workload; returns (code, stdout, stderr)."""
    work = os.path.join(root, ".bench_work", "run-%d" % os.getpid())
    traces = os.path.join(root, ".bench_work", "traces")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    os.makedirs(traces, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.join(work, "tmp"))
    common = ["--workload", workload, "--seed", str(seed), "--work", work]
    try:
        subprocess.run([binary, "gen"] + common, env=env, check=True,
                       stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
        command = [binary, "run"] + common + [
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--trace-file", os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
        if corrupt_call is not None:
            command += ["--corrupt-call", str(corrupt_call)]
        remaining = (deadline - time.monotonic()) if deadline else RUN_TIMEOUT_S
        done = subprocess.run(command, env=env, capture_output=True, text=True,
                              timeout=max(1.0, remaining))
        return done.returncode, done.stdout, done.stderr
    finally:
        shutil.rmtree(work, ignore_errors=True)


def negative_check(binary, root):
    """A corrupted output must fail the run and name its row."""
    ok = True
    # Call 0 is the check of the pool against the reference walk; call 5
    # is a later call checked against the verified outputs.
    for workload in WORKLOADS:
        for call in (0, 5):
            code, out, err = run_workload(binary, root, workload, 1, 1.0,
                                          False, corrupt_call=call)
            named = re.search(r"CHECK FAILED: .*?row (\d+)", err)
            printed = any(line.startswith("{") for line in out.splitlines())
            good = code != 0 and named is not None and not printed
            if call == 0 and named is not None:
                good = good and named.group(1) == "7"
            ok = ok and good
            print("%s corrupt call %d: exit %d, %s -> %s" % (
                workload, call, code,
                named.group(0) if named else "no row named",
                "ok" if good else "NOT CAUGHT"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-check", action="store_true")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root)
    # The first run of a checkout may spend most of its time building.
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.negative_check:
        sys.exit(negative_check(binary, root))
    if args.workload is None:
        parser.error("--workload is required")

    code, out, err = run_workload(binary, root, args.workload, args.seed,
                                  args.seconds, args.trace == 1,
                                  deadline=deadline)
    sys.stderr.write(err)
    if code != 0:
        log("workload %s failed with exit code %d" % (args.workload, code))
        sys.exit(code if code > 0 else 1)
    lines = out.strip().splitlines()
    if not lines:
        log("workload printed no result")
        sys.exit(1)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
