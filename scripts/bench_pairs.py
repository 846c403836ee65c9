"""Alternated pairs of benchmark runs on two checkouts, and the gain rule.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload soliton \\
        --pairs 10 --seconds 20 --seed-base 301

PARENT and CHANGE are checkouts of this repository. Pair i runs
`bench/run.py --workload W --seed B+i --seconds S --trace 0` in each tree,
the parent first in even pairs and the change first in odd ones. Before every
run the script deletes every `__pycache__` directory in both trees and sets
PYTHONDONTWRITEBYTECODE=1, so both sides compile the package at import:
on `soliton`, peak_rss_mb read about 1.5 MB and setup_s about 0.08 s higher
when a worker compiled than when it loaded valid .pyc files.

It prints each run's wall time and `attempted`, then, for each end-to-end
metric of the parent's BENCHMARK.json: both sides' medians and quartiles, the
pairs the change wins (ties count for neither side), and whether the gain
rule holds: at least nine tenths of the pairs won, and the medians further
apart, in the better direction, than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("quartiles need --pairs of at least 2")
    return args


def clear_bytecode(*trees):
    for tree in trees:
        for cache in list(tree.rglob("__pycache__")):
            shutil.rmtree(cache)


def run_once(tree, workload, seed, seconds):
    """One untraced bench/run.py run; its result line plus the wall time."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - start
    return result


def summarize(parent, change, better):
    """Medians, quartiles, wins and the gain rule for one metric.

    parent and change hold one value per pair, in pair order; better is
    "lower" or "higher".
    """
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_q1, p_median, p_q3 = statistics.quantiles(parent, n=4)
    c_q1, c_median, c_q3 = statistics.quantiles(change, n=4)
    holds = (wins >= math.ceil(0.9 * len(parent))
             and sign * (p_median - c_median) > p_q3 - p_q1)
    return {"parent_median": p_median, "parent_quartiles": (p_q1, p_q3),
            "change_median": c_median, "change_quartiles": (c_q1, c_q3),
            "wins": wins, "pairs": len(parent), "gain_rule_holds": holds}


def main(argv=None):
    args = parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            clear_bytecode(*trees.values())
            result = run_once(trees[side], args.workload, seed, args.seconds)
            runs[side].append(result)
            print(f"pair {i} seed {seed} {side}: wall {result['wall_s']:.1f} s, "
                  f"attempted {result['attempted']}, failed {result['failed']}, "
                  f"correct {result['correct']}, " + ", ".join(
                      f"{name} {result['metrics'][name]['value']:.4g}"
                      for name in metrics), flush=True)
    for name, better in metrics.items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in runs}
        s = summarize(values["parent"], values["change"], better)
        print(f"{args.workload} {name} ({better} is better): parent median "
              f"{s['parent_median']:.4g} [{s['parent_quartiles'][0]:.4g}, "
              f"{s['parent_quartiles'][1]:.4g}], change median "
              f"{s['change_median']:.4g} [{s['change_quartiles'][0]:.4g}, "
              f"{s['change_quartiles'][1]:.4g}], change wins "
              f"{s['wins']}/{s['pairs']}, gain rule "
              f"{'holds' if s['gain_rule_holds'] else 'does not hold'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
