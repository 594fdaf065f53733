#!/usr/bin/env python3
"""Interleaved A/B of perfbench between a base revision and this tree.

    python3 bench/ab.py --base REV --workload W --pairs N --seed S
    make ab BASE=REV WORKLOAD=W PAIRS=N SEED=S

Checks REV out as a detached `git worktree` under `.bench_build/ab/`
(local git only), then runs `python3 perfbench/run.py --workload W
--seconds 12 --trace 0` in both trees for seeds S .. S+N-1, alternating
which side goes first. Prints each side's median and quartiles of every
end-to-end metric, how many pairs the change won, and the correct and
failed counts. Refuses to run when perfbench/ differs between the trees,
since the two sides must measure with the same benchmark. The worktree is
removed on exit.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKTREE = os.path.join(ROOT, ".bench_build", "ab", "base")
SECONDS = 12


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def remove_worktree():
    subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                    WORKTREE], capture_output=True)
    shutil.rmtree(WORKTREE, ignore_errors=True)
    subprocess.run(["git", "-C", ROOT, "worktree", "prune"],
                   capture_output=True)


def tree_files(top):
    files = {}
    for d, dirs, names in os.walk(top):
        dirs[:] = [x for x in dirs if x != "__pycache__"]
        for name in names:
            path = os.path.join(d, name)
            with open(path, "rb") as f:
                files[os.path.relpath(path, top)] = f.read()
    return files


def run_side(root, workload, seed):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    r = subprocess.run(cmd, cwd=root, stdin=subprocess.DEVNULL,
                       stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise SystemExit(f"ab: perfbench failed in {root} (seed {seed})")
    return json.loads(lines[-1])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
    sha = git("rev-parse", "--verify", args.base + "^{commit}")
    remove_worktree()
    os.makedirs(os.path.dirname(WORKTREE), exist_ok=True)
    git("worktree", "add", "--detach", WORKTREE, sha)
    try:
        if tree_files(os.path.join(WORKTREE, "perfbench")) != tree_files(
                os.path.join(ROOT, "perfbench")):
            raise SystemExit("ab: perfbench/ differs between the trees; "
                             "refusing to compare")
        sides = {"base": WORKTREE, "change": ROOT}
        runs = {"base": [], "change": []}
        for k in range(args.pairs):
            seed = args.seed + k
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(run_side(sides[side], args.workload, seed))
            print(f"pair {k + 1}/{args.pairs} (seed {seed}, {order[0]} "
                  f"first): " + ", ".join(
                      f"{s} {runs[s][-1]['metrics']['latency_ms']['value']:.1f}"
                      f" ms" for s in ("base", "change")), flush=True)
    finally:
        remove_worktree()
    print(f"\n{args.workload}: base {args.base} ({sha[:12]}) vs this tree, "
          f"{args.pairs} pairs from seed {args.seed}")
    for name, direction in better.items():
        if any(name not in r["metrics"] for s in runs for r in runs[s]):
            continue
        vals = {s: [r["metrics"][name]["value"] for r in runs[s]]
                for s in runs}
        wins = sum((c < b) if direction == "lower" else (c > b)
                   for b, c in zip(vals["base"], vals["change"]))
        (bq1, bmed, bq3), (cq1, cmed, cq3) = (quartiles(vals["base"]),
                                              quartiles(vals["change"]))
        print(f"  {name:12s} base {bmed:10.3f} ({bq1:.3f}-{bq3:.3f})  "
              f"change {cmed:10.3f} ({cq1:.3f}-{cq3:.3f})  "
              f"{100 * (cmed - bmed) / bmed:+6.1f}%  "
              f"change won {wins}/{args.pairs}")
    for s in ("base", "change"):
        print(f"  {s}: {sum(r['correct'] for r in runs[s])}/{args.pairs} "
              f"runs correct, {sum(r['failed'] for r in runs[s])} failed of "
              f"{sum(r['attempted'] for r in runs[s])} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
