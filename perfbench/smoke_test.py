#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes. Run from the repository root:

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json untraced and traced through
perfbench/run.py --tiny, and checks that
  * each run ends with the one-line JSON result (correct, attempted, failed,
    metrics) and is correct;
  * every end-to-end and per-layer metric is printed, with its declared unit;
  * every per-layer metric is measured (non-zero) on at least one workload,
    except those zero by construction (ALWAYS_ZERO);
  * perfbench/predictions.json names only declared metrics and workloads,
    and covers every per-layer metric.
Exits 1 on the first failed check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# linalg is only reached inside nn spans, and tracing (obs) is off inside
# iterations: their self time is zero until spans move into the program.
ALWAYS_ZERO = {"layer.linalg.self_s", "layer.obs.self_s"}


def check(cond, msg):
    if not cond:
        print(f"smoke test FAILED: {msg}")
        sys.exit(1)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    check(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    workloads = [w["name"] for w in spec["workloads"]]
    seen_nonzero = set()
    for w in workloads:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run(w, trace)
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{w}: result keys {sorted(result)}")
            check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{w} trace={trace}: correct={result['correct']} failed={result['failed']}")
            metrics = result["metrics"]
            check(set(metrics) == {m["name"] for m in declared},
                  f"{w} trace={trace}: metric names differ from BENCHMARK.json")
            for m in declared:
                got = metrics[m["name"]]
                check(got["unit"] == m["unit"] and isinstance(got["value"], (int, float)),
                      f"{w}: {m['name']} printed as {got}")
                if got["value"] != 0:
                    seen_nonzero.add(m["name"])
            if trace == 0:
                for m in declared:
                    check(metrics[m["name"]]["value"] > 0, f"{w}: {m['name']} is not positive")
            print(f"ok  {w:14s} trace={trace}  {len(metrics)} metrics")

    per_layer = {m["name"] for m in spec["per_layer"]}
    never = per_layer - seen_nonzero - ALWAYS_ZERO
    check(not never, f"per-layer metrics never measured: {sorted(never)}")

    table = json.load(open(os.path.join(HERE, "predictions.json")))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    covered = set()
    for row in table["predictions"]:
        for name in row["per_layer"]:
            check(name in per_layer, f"predictions.json names unknown per-layer metric {name}")
            covered.add(name)
        for metric, workload in row.get("moves", []) + row.get("flat", []):
            check(metric in end_to_end, f"predictions.json names unknown metric {metric}")
            check(workload in workloads, f"predictions.json names unknown workload {workload}")
    check(covered == per_layer, f"predictions.json misses {sorted(per_layer - covered)}")
    for workload, row in table["self_time_breakdown"]["workloads"].items():
        check(workload in workloads, f"self_time_breakdown names unknown workload {workload}")
    print("smoke test ok")


if __name__ == "__main__":
    main()
