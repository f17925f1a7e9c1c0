#!/usr/bin/env python3
"""Host-time benchmark of the butterfly-on-IPU simulator and its serving stack.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (which compiles the repo's
libraries from src/) into .bench_build/. Each run then starts the perfbench
binary with REPRO_THREADS and every host_threads knob pinned to THREADS,
prints its report and the recorded environment, and ends with one JSON line:

    {"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1 its
per_layer metrics (0 for a layer the workload does not exercise) and writes
the spans to .bench_build/traces/<workload>-seed<n>.json (Chrome trace).

Extra modes:
    --determinism   run every workload at 1 and 4 threads and require the same
                    sim.digest (the REPRO_THREADS contract, held from outside)
    --tiny          smoke-test sizes (perfbench/smoke_test.py uses them)
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
THREADS = 2  # pinned; <= nproc on the 4-core machines this was sized on
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the perfbench binary; build logs go to stderr."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)


def source_digest():
    """sha256 over the sources the binary is built from (the checkout may not be a git repo)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def environment(args, threads):
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True, text=True).stdout
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "compiler": version.splitlines()[0] if version else compiler,
        "flags": " ".join(filter(None, [
            cache.get("CMAKE_CXX_FLAGS", ""),
            cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", ""),
            "-Wall -Wextra -O3 -std=c++20"])),
        "build_type": build_type,
        "threads": threads,
        "seed": args.seed,
        "workload": args.workload,
        "sizes": "tiny" if args.tiny else "full",
        "commit": commit or "none",
        "source_digest": source_digest(),
    }


def run_binary(workload, seed, seconds, trace, threads, tiny):
    """Runs one workload in its own process; returns (report lines, result dict)."""
    work = os.path.join(BUILD, f"work-{os.getpid()}-{threads}")
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--threads", str(threads), "--work-dir", work,
           "--trace-out", os.path.join(traces, f"{workload}-seed{seed}.json")]
    if tiny:
        cmd.append("--tiny")
    env = dict(os.environ, REPRO_THREADS=str(threads))
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        fail(f"{workload} exited with {proc.returncode} and no result")
    return lines[:-1], json.loads(lines[-1])


def metrics_of(spec, result, trace):
    """Selects the declared metrics and attaches their units."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = result["values"]
    out = {}
    for m in declared:
        if m["name"] in values:
            value = values[m["name"]]
        elif trace:
            value = 0.0  # the workload does not exercise this layer
        else:
            fail(f"end-to-end metric {m['name']} was not measured")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def determinism(args, spec):
    ok = True
    for w in [args.workload] if args.workload else [x["name"] for x in spec["workloads"]]:
        digests = {}
        for threads in (1, 4):
            _, result = run_binary(w, args.seed, 1, 1, threads, args.tiny)
            digests[threads] = result["values"]["sim.digest"]
            ok = ok and result["correct"]
        same = digests[1] == digests[4]
        ok = ok and same
        print(f"{w}: sim.digest {digests[1]:.0f} at 1 thread, {digests[4]:.0f} at 4 threads"
              f" -> {'identical' if same else 'DIFFERENT'}")
    print("determinism:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--determinism", action="store_true")
    args = p.parse_args()
    # Terminated, exit through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no repo sources under {ROOT}/src; run from a full checkout", 2)
    spec = load_spec()
    start = time.monotonic()
    build()
    print(f"build checked in {time.monotonic() - start:.1f} s", file=sys.stderr)
    if args.determinism:
        return determinism(args, spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)

    lines, result = run_binary(args.workload, args.seed, args.seconds, args.trace,
                               THREADS, args.tiny)
    for line in lines:
        print(line)
    print("env " + json.dumps(environment(args, THREADS), sort_keys=True))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics_of(spec, result, args.trace),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
