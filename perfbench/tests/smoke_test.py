#!/usr/bin/env python3
"""Tiny-size smoke run of every benchmark workload.

Runs the driver with --tiny for each workload, untraced and traced, and
checks that the result line is well formed, that the outputs were correct,
and that every metric BENCHMARK.json names (end_to_end untraced, per_layer
traced) appears with its declared unit.

    python3 smoke_test.py <perfbench binary> <BENCHMARK.json> <out dir>
"""
import json
import subprocess
import sys

WORKLOADS = ["single_dense", "host_paced", "host_flood"]


def main():
    binary, spec_path, out_dir = sys.argv[1:4]
    with open(spec_path) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    failures = []
    if sorted(names) != sorted(WORKLOADS):
        failures.append(f"BENCHMARK.json workloads {names} != {WORKLOADS}")
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [binary, "--workload", workload, "--seed", "7", "--seconds",
                   "1", "--trace", str(trace), "--tiny", "--out", out_dir]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=170)
            where = f"{workload} trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{where}: exit {proc.returncode}\n"
                                f"{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{where}: result keys {sorted(result)}")
            if not result.get("correct") or result.get("failed") != 0:
                failures.append(f"{where}: outputs not correct: "
                                f"{proc.stdout[-2000:]}")
            if result.get("attempted", 0) < 1:
                failures.append(f"{where}: attempted < 1")
            metrics = result.get("metrics", {})
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            for name, unit in wanted.items():
                got = metrics.get(name)
                if got is None:
                    failures.append(f"{where}: metric {name} missing")
                elif got.get("unit") != unit:
                    failures.append(f"{where}: {name} unit {got.get('unit')} "
                                    f"!= {unit}")
                elif not isinstance(got.get("value"), (int, float)):
                    failures.append(f"{where}: {name} value not a number")
            extra = sorted(set(metrics) - set(wanted))
            if extra:
                failures.append(f"{where}: metrics not in BENCHMARK.json: "
                                f"{extra}")
            print(f"{where}: {len(metrics)} metrics", flush=True)
    for failure in failures:
        print("FAIL:", failure)
    print("smoke test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
