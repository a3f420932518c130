#!/usr/bin/env python3
"""airFinger benchmark entry point.

Builds the benchmark package (perfbench/CMakeLists.txt: the library sources
of this repository in a default Release build, plus the driver) into
.bench_build/perfbench and runs it.

One workload, as the benchmark harness calls it (the last stdout line is
the JSON result):

    python3 perfbench/run.py --workload host_paced --seed 3 --seconds 10 --trace 0

Every workload, end-to-end metrics and then the traced per-layer table,
with a combined report in .bench_build/perfbench/out/:

    python3 perfbench/run.py --all [--seed N] [--seconds S]

The harness's own tests (matcher, percentile helper, capacity search) and a
tiny smoke run of each workload that checks every metric BENCHMARK.json
names appears with its unit:

    python3 perfbench/run.py --selftest
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(BUILD, "out")
WORKLOADS = ["single_dense", "host_paced", "host_flood"]


def build(*targets):
    """Configures (once) and builds the targets; build chatter goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", *targets],
                   stdout=sys.stderr, check=True)


def git_rev():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def bench_cmd(workload, seed, seconds, trace, tiny=False):
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", OUT, "--git-rev", git_rev()]
    return cmd + (["--tiny"] if tiny else [])


def run_captured(cmd):
    """Runs the driver, echoing its output; returns the parsed result line."""
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return json.loads(lines[-1])


def run_all(seed, seconds):
    report = {"seed": seed, "seconds": seconds, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            print(f"\n=== {workload} (trace {trace}) ===", flush=True)
            result = run_captured(bench_cmd(workload, seed, seconds, trace))
            ok = ok and result["correct"]
            entry["per_layer" if trace else "end_to_end"] = result
            stem = f"{workload}_seed{seed}" + ("_trace" if trace else "")
            with open(os.path.join(OUT, stem + ".json")) as f:
                details = json.load(f)
            entry["fingerprint"] = details["fingerprint"]
            entry["why"] = details["why"]
            entry["segment_frame_share"] = details["segment_frame_share"]
        report["workloads"][workload] = entry
    path = os.path.join(OUT, f"report_seed{seed}.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=2)
    print(f"\ncombined report: {path}")
    print("all outputs correct" if ok else "SOME OUTPUTS INCORRECT")
    return 0 if ok else 1


def selftest():
    build("perfbench", "perfbench_tests")
    subprocess.run([os.path.join(BUILD, "perfbench_tests")], check=True)
    smoke = os.path.join(HERE, "tests", "smoke_test.py")
    return subprocess.run([sys.executable, smoke, os.path.join(BUILD, "perfbench"),
                           os.path.join(ROOT, "BENCHMARK.json"), OUT]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        if args.selftest:
            return selftest()
        build("perfbench")
        if args.all:
            return run_all(args.seed, args.seconds)
        if not args.workload:
            parser.error("one of --workload, --all or --selftest is required")
        sys.stdout.flush()
        return subprocess.run(bench_cmd(args.workload, args.seed, args.seconds,
                                        args.trace)).returncode
    except (OSError, RuntimeError, subprocess.CalledProcessError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
