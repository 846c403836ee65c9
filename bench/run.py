"""Benchmark of modfutaki: one workload's fixed batch in fresh processes.

    python3 bench/run.py --workload exact --seed 1 --seconds 20 --trace 0

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics (batch_s, job_p50_s, setup_s, peak_rss_mb); with --trace 1
it holds the per-layer metrics of a traced round that follows an untraced
one, and the spans are written to bench/out/spans-<workload>.json. See
bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact", "numeric-twin", "soliton", "quantize")
# Set-up-only processes started before and after the batch of an untraced
# run; with the batch's own set-up they give setup_s's median. Spreading them
# over the run keeps one slow moment of the machine from setting it.
SETUPS_BEFORE = 2
SETUPS_AFTER = 2

END_TO_END_UNITS = {"batch_s": "s", "job_p50_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    pass


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="untraced runs repeat whole batches for about "
                             "this many seconds of timed calls")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _die_with_parent():
    """In the child: get SIGKILL when run.py ends, however it ends."""
    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def _stop(signum, frame):
    raise SystemExit(128 + signum)   # subprocess.run kills and reaps the child


def run_child(args, setup_only=False):
    """Run worker.py in a fresh interpreter; returns its JSON result."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(t0)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")  # same str hashes every run
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                          text=True, preexec_fn=_die_with_parent)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "modfutaki" / "__init__.py").is_file():
        print(f"error: no modfutaki sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _stop)
    before, after = (0, 0) if args.trace else (SETUPS_BEFORE, SETUPS_AFTER)
    try:
        setups = [run_child(args, setup_only=True) for _ in range(before)]
        result = run_child(args)
        setups.append(result)
        setups += [run_child(args, setup_only=True) for _ in range(after)]
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result["setup_runs_s"] = [setup["setup_s"] for setup in setups]
    result["setup_runs_wall_s"] = [setup["setup_wall_s"] for setup in setups]

    metrics = result["metrics"]
    if args.trace:
        units = PER_LAYER_UNITS
    else:
        metrics["setup_s"] = statistics.median(result["setup_runs_s"])
        result["wall"]["setup_s"] = statistics.median(result["setup_runs_wall_s"])
        units = END_TO_END_UNITS
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with open(out / f"result-{args.workload}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    env = result["environment"]
    print(f"# {args.workload} seed {args.seed}: {result['rounds']} round(s) of "
          f"{result['jobs_per_round']} jobs; python {env['python']}, mpmath "
          f"{env['mpmath']} ({env['mpmath_backend']}), nproc {env['nproc']}")
    if not args.trace:
        print("# wall time, unscaled: " + ", ".join(
            f"{name} {value:.4g} s" for name, value in result["wall"].items()))
    for name, message in dict.fromkeys(map(tuple, result["failures"]
                                           + result["wrong"])):
        print(f"# {name}: {message}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
