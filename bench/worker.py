"""One fresh benchmark process: set up a workload, run its batch, report.

Started by run.py with the CLOCK_MONOTONIC reading taken just before the
process was spawned, so that the reported set-up time runs from interpreter
start to the first timed job. Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import mpmath

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

import modfutaki  # noqa: E402  (from this checkout's src/)
import checks  # noqa: E402
import workloads  # noqa: E402
from clock import Clock  # noqa: E402
from tracing import Tracer  # noqa: E402


# Sampling after a set-up-only process's set-up, less than a full window:
# such processes are several per run.
SETUP_SETTLE_S = 0.2


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="CLOCK_MONOTONIC when the process was spawned")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def environment():
    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "nproc": os.cpu_count()}


class Runner:
    """Runs rounds of the batch, checks every outcome, keeps the tallies."""

    def __init__(self, batch, clock):
        self.batch = batch
        self.clock = clock
        self.attempted = 0
        self.failures = []        # (job, exception) of calls that raised
        self.wrong = []           # (job, message) of outputs failing a check
        self.rounds = []          # per round: (job name, start, end, wall) per job
        self.check_state = {}

    def round(self, tracer=None):
        """Run the batch once, then check it; the summed wall time of its
        calls, and the outcomes."""
        timings = []
        outcomes = []
        for job in self.batch.jobs:
            timing, outcome = self._time(job, tracer)
            timings.append(timing)
            outcomes.append(outcome)
        self.rounds.append(timings)
        for job, outcome in zip(self.batch.jobs, outcomes):
            self._tally(job, outcome)
        return sum(wall for *_, wall in timings), outcomes

    def _time(self, job, tracer=None):
        """Call the job; its (name, start, end, wall time less the clock's
        samples), and its outcome."""
        gc.collect()
        if tracer is not None:
            tracer.install()
            tracer.job = job.name
        stolen = self.clock.stolen
        start = time.perf_counter()
        try:
            outcome = workloads.run_job(job)
        except Exception as exc:  # escaped the CLI's exit-code contract
            outcome = exc
        end = time.perf_counter()
        wall = end - start - (self.clock.stolen - stolen)
        if tracer is not None:
            tracer.job = None
            tracer.uninstall()
        return (job.name, start, end, wall), outcome

    def scaled_rounds(self):
        """Per round, {job name: scaled time}, once the clock has settled."""
        return [{name: self.clock.scaled(start, end, wall)
                 for name, start, end, wall in timings}
                for timings in self.rounds]

    def _tally(self, job, outcome):
        """Count the call and check its outcome, outside the timed region."""
        self.attempted += 1
        if isinstance(outcome, Exception):
            self.failures.append((job.name, f"{type(outcome).__name__}: {outcome}"))
            return
        try:
            checks.check(job, outcome, self.check_state)
        except checks.CheckFailed as exc:
            self.wrong.append((job.name, str(exc)))


def newton_iterations(jobs, outcomes):
    """Newton steps summed over the soliton jobs, from the CLI output."""
    return sum(json.loads(outcome[1])["iterations"]
               for job, outcome in zip(jobs, outcomes)
               if job.kind == "soliton" and isinstance(outcome, tuple)
               and outcome[0] == 0)


def main(argv=None):
    args = parse_args(argv)
    if Path(modfutaki.__file__).resolve().parent != ROOT / "src" / "modfutaki":
        raise SystemExit(f"modfutaki was imported from {modfutaki.__file__}, "
                         f"not from this checkout")
    clock = Clock()
    clock.start()

    docdir = OUT / "docs" / args.workload
    docdir.mkdir(parents=True, exist_ok=True)
    batch = workloads.build(args.workload, args.seed, docdir)
    workloads.write_docs(batch)
    for job in batch.warmup:
        outcome = workloads.run_job(job)
        if isinstance(outcome, tuple) and outcome[0] != (
                2 if job.kind == "malformed" else 0):
            raise SystemExit(f"warm-up job {job.name} exited {outcome[0]}")
    setup_end = time.perf_counter()   # CLOCK_MONOTONIC, as args.t0
    setup_wall_s = setup_end - args.t0 - clock.stolen

    def setup_scaled():
        return clock.scaled(args.t0, setup_end, setup_wall_s)

    if args.setup_only:
        clock.settle(SETUP_SETTLE_S)
        clock.stop()
        print(json.dumps({"setup_s": setup_scaled(),
                          "setup_wall_s": setup_wall_s}))
        return 0

    result = {"workload": args.workload, "seed": args.seed,
              "environment": environment()}
    runner = Runner(batch, clock)
    if args.trace:
        runner.round()
        tracer = Tracer()
        outcomes = runner.round(tracer)[1]
        clock.settle()
        clock.stop()
        plain, traced = (sum(times.values()) for times in runner.scaled_rounds())
        metrics = tracer.metrics()
        metrics["soliton.newton_iterations"] = newton_iterations(batch.jobs,
                                                                outcomes)
        metrics["trace.batch_s"] = traced
        metrics["trace.overhead_s"] = traced - plain
        spans_path = OUT / f"spans-{args.workload}.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.records(), fh)
        result["spans"] = str(spans_path.relative_to(ROOT))
    else:
        # whole rounds, as many as bring the timed total nearest to --seconds
        walls = []
        while not walls or sum(walls) + statistics.mean(walls) / 2 < args.seconds:
            walls.append(runner.round()[0])
        clock.settle()
        clock.stop()
        scaled = runner.scaled_rounds()
        metrics = {
            "batch_s": statistics.median(sum(times.values()) for times in scaled),
            "job_p50_s": statistics.median(t for times in scaled
                                           for t in times.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["wall"] = {
            "batch_s": statistics.median(walls),
            "job_p50_s": statistics.median(wall for timings in runner.rounds
                                           for *_, wall in timings),
        }
        result["round_wall_s"] = walls
    scaled = runner.scaled_rounds()
    result.update({
        "setup_s": setup_scaled(),
        "setup_wall_s": setup_wall_s,
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures,
        "wrong": runner.wrong,
        "rounds": len(scaled),
        "jobs_per_round": len(batch.jobs),
        "round_s": [sum(times.values()) for times in scaled],
        "job_s": scaled[-1],
        "reference_samples": len(clock.samples),
        "reference_mean_s": statistics.fmean(clock.samples),
        "metrics": metrics,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
