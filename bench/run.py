"""End-to-end and per-layer benchmark of the `cornerkit` CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program runs from `src/` as
`python -m cornerkit`.  The seed fixes the generated inputs (see
workloads.py); the program only ever sees the generated files.

--trace 0 sets up and runs the workload's job list as subprocesses, one
at a time, in passes until about S seconds have gone (at least
MIN_PASSES passes), and reports the end-to-end metrics:

  wall_s       wall time of the job list: the sum over jobs of each
               job's fastest pass
  cpu_s        user+sys CPU of the job processes (os.wait4), summed the
               same way
  peak_rss_mb  largest max-RSS of any job in a pass, median over passes
  setup_s      time to generate the inputs and expected results, median
               over the SETUPS_PER_PASS set-ups before each pass

--trace 1 runs each job once as a subprocess, then replays it in-process
without and with the spans of spans.py, and reports the per-layer metrics
of the traced replay (spans.PER_LAYER).  cli.overhead_s is the subprocess
time minus the untraced replay; trace.overhead_frac is the traced replay
against the untraced one.

Every job's output is checked (check.py); a job that fails counts in
`failed` and makes `correct` false.  The last line of stdout is the
result as one JSON object.  Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import execute
import selftest
import workloads
from spans import PER_LAYER, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

STARTUP_REPEATS = 5
SETUPS_PER_PASS = 3
MIN_PASSES = 3
TRIVIAL_JOB = ("construct", "boundary-simplex", "1")
DIGESTS = "bench/digests.json"


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Tally:
    """Jobs attempted and failed over the whole run."""

    def __init__(self, digests: dict):
        self.digests = digests
        self.attempted = 0
        self.failed = 0

    def judge(self, job, outcome) -> bool:
        self.attempted += 1
        reason = execute.evaluate(job, outcome, self.digests)
        if reason is not None:
            self.failed += 1
            log(f"FAIL {job.name}: {reason}")
        return reason is None


def subprocess_pass(jobs, env, tally: Tally) -> list:
    outcomes = []
    for job in jobs:
        outcome = execute.run_subprocess(execute.cornerkit_argv(job), env)
        tally.judge(job, outcome)
        outcomes.append(outcome)
    return outcomes


def end_to_end(workload: str, seed: int, env, seconds: float,
               tally: Tally) -> dict:
    """Passes over the job list until about `seconds` have gone, each
    after fresh set-ups, so set-up and every job are sampled across the
    run rather than in one stretch."""
    setups, walls, cpus, peaks = [], [], [], []
    start = time.perf_counter()
    while True:
        for _ in range(SETUPS_PER_PASS):
            began = time.perf_counter()
            jobs = workloads.setup(workload, seed)
            setups.append(time.perf_counter() - began)
        outcomes = subprocess_pass(jobs, env, tally)
        walls.append([o.wall_s for o in outcomes])
        cpus.append([o.cpu_s for o in outcomes])
        peaks.append(max(o.rss_mb for o in outcomes))
        log(f"pass {len(walls)}: set-up {setups[-1]:.3f} s, wall "
            f"{sum(walls[-1]):.3f} s, cpu {sum(cpus[-1]):.3f} s, "
            f"peak {peaks[-1]:.1f} MB")
        # stop at the pass count that lands nearest the measuring time,
        # but never below MIN_PASSES: the minimum below drifts lower with
        # every extra pass, so a pass count that followed the host's speed
        # would split the runs into groups
        elapsed = time.perf_counter() - start
        if (len(walls) >= MIN_PASSES
                and elapsed + (elapsed / len(walls)) / 2 > seconds):
            break
    # Each job's fastest pass: on a shared host the speed of the whole
    # machine swings by a quarter for seconds at a time, and the minimum
    # over passes is the estimate that such a swing disturbs least.
    return {"wall_s": (sum(map(min, zip(*walls))), "s"),
            "cpu_s": (sum(map(min, zip(*cpus))), "s"),
            "peak_rss_mb": (statistics.median(peaks), "MB"),
            "setup_s": (statistics.median(setups), "s")}


def per_layer(jobs, env, tally: Tally) -> dict:
    """Each job as a subprocess, then in-process without and with spans,
    back to back, so the differences between the three compare runs made
    at the same speed of a shared host."""
    startup = [execute.run_subprocess(
        [sys.executable, "-m", "cornerkit", *TRIVIAL_JOB], env).wall_s
        for _ in range(STARTUP_REPEATS)]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import cornerkit.cli
    import cornerkit.simplicial
    main = cornerkit.cli.main
    clear = cornerkit.simplicial.simplices.cache_clear
    tracer = Tracer()
    sub = plain = traced = 0.0
    for job in jobs:
        outcome = execute.run_subprocess(execute.cornerkit_argv(job), env)
        if not tally.judge(job, outcome) and outcome.exit_code is None:
            continue  # a hung in-process job could not be killed
        sub += outcome.wall_s
        outcome = execute.run_inprocess(job, main, clear)
        tally.judge(job, outcome)
        plain += outcome.wall_s
        with tracer:
            outcome = execute.run_inprocess(job, main, clear)
        tally.judge(job, outcome)
        traced += outcome.wall_s
    log(f"subprocess {sub:.3f} s, in-process {plain:.3f} s, "
        f"traced {traced:.3f} s")
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(tracer.metrics())
    values["cli.startup_s"] = statistics.median(startup)
    values["cli.overhead_s"] = sub - plain
    values["trace.inproc_s"] = traced
    values["trace.overhead_frac"] = traced / plain - 1
    values["fail_frac"] = tally.failed / tally.attempted
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    if not os.path.isfile("src/cornerkit/cli.py"):
        log("error: src/cornerkit is missing; run from a full checkout")
        return 2
    problems = selftest.run()
    if problems:
        for p in problems:
            log(f"self-test: {p}")
        return 1
    with open(DIGESTS) as fh:
        digests = json.load(fh)[args.workload]

    env = execute.child_env(ROOT)
    tally = Tally(digests)
    # first start compiles the program's bytecode; not measured
    execute.run_subprocess([sys.executable, "-m", "cornerkit", *TRIVIAL_JOB],
                           env)
    if args.trace:
        jobs = workloads.setup(args.workload, args.seed)
        metrics = per_layer(jobs, env, tally)
    else:
        metrics = end_to_end(args.workload, args.seed, env, args.seconds,
                             tally)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
