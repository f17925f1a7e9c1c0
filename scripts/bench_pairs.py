#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench runs, summarised per metric.

Run from the repository root:

    python3 scripts/bench_pairs.py --parent REV --workload W --pairs N \\
        --seconds S --seeds 1,7 [--trace 0|1] [--tiny] [--work-dir DIR]

The change is this checkout as it stands; the parent is commit REV, exported
with `git archive` into DIR/<commit>/ (reused when already there). Each tree's
perfbench/run.py builds perfbench from that tree's own sources into the tree's
.bench_build/, once before any run is timed. For every seed, pair i runs the
parent first when i is even and the change first when i is odd (ABBA), so host
drift over the session falls on both sides alike.

For each metric the runs report (BENCHMARK.json's end_to_end metrics, or its
per_layer ones with --trace 1) it prints each side's median and quartiles, the
change/parent ratio of the medians, and the pairs the change won; ties count
for neither. A hash, or a metric with one value on every run of both sides,
is reported as equal or not instead.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(msg):
    print(f"bench_pairs: {msg}", file=sys.stderr)
    sys.exit(1)


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export_parent(rev, work_dir):
    """The parent commit's files under work_dir, exported once per commit."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tree = os.path.join(work_dir, commit[:12])
    if not os.path.isdir(tree):
        partial = tree + ".partial"
        shutil.rmtree(partial, ignore_errors=True)
        os.makedirs(partial)
        archive = subprocess.Popen(["git", "-C", ROOT, "archive", commit],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", partial], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            fail(f"git archive {commit} failed")
        os.rename(partial, tree)
    return commit, tree


def run(tree, args, seed, seconds, tiny):
    """One perfbench/run.py invocation in `tree`; returns its result JSON."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr + proc.stdout)
        fail(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics."""
    s = sorted(values)

    def at(q):
        x = q * (len(s) - 1)
        lo = int(x)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (x - lo)

    return at(0.25), at(0.5), at(0.75)


def summarise(title, pairs, better):
    print(f"\n{title}")
    for side in ("parent", "change"):
        failed = sum(p[side]["failed"] for p in pairs)
        attempted = sum(p[side]["attempted"] for p in pairs)
        correct = all(p[side]["correct"] for p in pairs)
        print(f"  {side}: {failed} of {attempted} operations failed, "
              f"{'all runs correct' if correct else 'SOME RUNS INCORRECT'}")
    names = list(pairs[0]["parent"]["metrics"])
    width = max(len(n) for n in names)
    print(f"  {'metric':<{width}}  {'parent median [q1, q3]':>34}  "
          f"{'change median [q1, q3]':>34}  {'ratio':>7}  wins")
    for name in names:
        unit = pairs[0]["parent"]["metrics"][name]["unit"]
        a = [p["parent"]["metrics"][name]["value"] for p in pairs]
        b = [p["change"]["metrics"][name]["value"] for p in pairs]
        if unit == "hash" or len(set(a + b)) == 1:
            same = len(set(a + b)) == 1
            print(f"  {name:<{width}}  {a[0]:>34.17g}  {b[0]:>34.17g}  "
                  f"{'':>7}  {'equal' if same else 'DIFFERENT'}")
            continue
        qa, qb = quartiles(a), quartiles(b)
        sign = 1 if better.get(name, "lower") == "lower" else -1
        wins = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
        ratio = f"{qb[1] / qa[1]:7.3f}" if qa[1] else f"{'-':>7}"
        fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
        print(f"  {name:<{width}}  {fmt(qa):>34}  {fmt(qb):>34}  {ratio}  "
              f"{wins}/{len(pairs)}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="parent commit (any git rev)")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--seeds", default="1,7", help="comma-separated seeds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--work-dir", default=os.path.join(tempfile.gettempdir(), "bench_pairs"),
                   help="where the parent tree is exported")
    args = p.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    commit, parent_tree = export_parent(args.parent, args.work_dir)
    trees = {"parent": parent_tree, "change": ROOT}
    print(f"parent {commit[:12]} in {parent_tree}; change: {ROOT} "
          f"(HEAD {git('rev-parse', 'HEAD')[:12]}, "
          f"{'dirty' if git('status', '--porcelain', '--untracked-files=no') else 'clean'})")
    for side, tree in trees.items():
        print(f"building perfbench for the {side} ...", file=sys.stderr)
        run(tree, args, seeds[0], 1, True)

    for seed in seeds:
        pairs = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {}
            for side in order:
                pair[side] = run(trees[side], args, seed, args.seconds, args.tiny)
            pairs.append(pair)
            print(f"seed {seed} pair {i + 1}/{args.pairs} done ({order[0]} first)",
                  file=sys.stderr)
        summarise(f"{args.workload}, seed {seed}: {args.pairs} pairs of "
                  f"{args.seconds:g} s{', traced' if args.trace else ''}"
                  f"{', tiny' if args.tiny else ''}", pairs, better)
    return 0


if __name__ == "__main__":
    sys.exit(main())
