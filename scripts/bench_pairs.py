"""Alternated pairs of benchmark runs on two checkouts, and the gain rule.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload soliton \\
        --pairs 10 --seconds 20 --seed-base 301 [--out BENCH_<n>.json]

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

With --out it also writes that summary and every run's result file
(`bench/out/result-W-trace0.json`) to a JSON record. The record keeps the
other workloads already in the file, so one file can hold every workload.
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
    parser.add_argument("--out", type=Path,
                        help="JSON record to write the runs and summary to")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("quartiles need --pairs of at least 2")
    return args


def clear_bytecode(*trees):
    for tree in trees:
        for cache in list(tree.rglob("__pycache__")):
            shutil.rmtree(cache)


def run_once(tree, workload, seed, seconds):
    """One untraced bench/run.py run: its result line plus the wall time,
    and the full result file under "record"."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - start
    result["record"] = json.loads(
        (tree / "bench" / "out" / f"result-{workload}-trace0.json").read_text())
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


def write_record(path, workload, seeds, made, summaries):
    """Put one workload's runs and summaries into the JSON record at path.

    made lists (side, run_once result) in the order the runs were made;
    summaries maps each end-to-end metric to (better, summarize(...)). The
    record has the shape of BENCH_13.json: a description, the machine, a
    summary per workload and every run in the order it was made.
    """
    record = json.loads(path.read_text()) if path.exists() else {
        "description": "End-to-end results of bench/run.py --workload W --seed "
                       "S --trace 0 on a parent and a change checkout. Each pair "
                       "runs both sides on one seed, the parent first in even "
                       "pairs and the change first in odd ones; `runs` keeps "
                       "every bench/out/result-W-trace0.json in the order the "
                       "runs were made.",
        "summary": {}, "runs": []}
    first = made[0][1]["record"]["environment"]
    record["machine"] = dict(first, note=f"{first['nproc']} cores, mpmath "
                             f"{first['mpmath_backend']} backend, no bytecode "
                             "cache on either side")
    summary = {"pairs": len(seeds), "seeds": list(seeds)}
    for key in ("attempted", "failed"):
        summary[key] = {side: sum(r[key] for s, r in made if s == side)
                        for side in ("parent", "change")}
    summary["correct"] = all(r["correct"] for _, r in made)
    for name, (better, s) in summaries.items():
        summary[name] = {
            "parent": {"median": s["parent_median"], "q1": s["parent_quartiles"][0],
                       "q3": s["parent_quartiles"][1]},
            "change": {"median": s["change_median"], "q1": s["change_quartiles"][0],
                       "q3": s["change_quartiles"][1]},
            f"change_{better}_in_pairs": s["wins"],
            "gain_rule_holds": s["gain_rule_holds"]}
    record["summary"][workload] = summary
    kept = [run for run in record["runs"] if run["workload"] != workload]
    record["runs"] = [dict(run, order=i) for i, run in enumerate(kept)] + [
        {"order": len(kept) + i, "side": side, "workload": workload,
         "seed": r["record"]["seed"], "wall_s": r["wall_s"], "result": r["record"]}
        for i, (side, r) in enumerate(made)]
    path.write_text(json.dumps(record, indent=1) + "\n")


def main(argv=None):
    args = parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs = {"parent": [], "change": []}
    made = []
    for i in range(args.pairs):
        seed = args.seed_base + i
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in sides:
            clear_bytecode(*trees.values())
            result = run_once(trees[side], args.workload, seed, args.seconds)
            runs[side].append(result)
            made.append((side, result))
            print(f"pair {i} seed {seed} {side}: wall {result['wall_s']:.1f} s, "
                  f"attempted {result['attempted']}, failed {result['failed']}, "
                  f"correct {result['correct']}, " + ", ".join(
                      f"{name} {result['metrics'][name]['value']:.4g}"
                      for name in metrics), flush=True)
    summaries = {}
    for name, better in metrics.items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in runs}
        s = summarize(values["parent"], values["change"], better)
        summaries[name] = better, s
        print(f"{args.workload} {name} ({better} is better): parent median "
              f"{s['parent_median']:.4g} [{s['parent_quartiles'][0]:.4g}, "
              f"{s['parent_quartiles'][1]:.4g}], change median "
              f"{s['change_median']:.4g} [{s['change_quartiles'][0]:.4g}, "
              f"{s['change_quartiles'][1]:.4g}], change wins "
              f"{s['wins']}/{s['pairs']}, gain rule "
              f"{'holds' if s['gain_rule_holds'] else 'does not hold'}")
    if args.out:
        seeds = range(args.seed_base, args.seed_base + args.pairs)
        write_record(args.out, args.workload, seeds, made, summaries)
    return 0


if __name__ == "__main__":
    sys.exit(main())
