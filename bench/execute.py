"""Running one job, as a subprocess or in-process, and judging its output.

Subprocess jobs run one at a time (a closed loop with one client).  The
runner reaps each child with ``os.wait4`` for its CPU time and peak RSS,
and kills a child that outlives the job time limit; a killed job counts
as failed, with the limit as its time.
"""

from __future__ import annotations

import io
import os
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import check
from workloads import JOB_LIMIT_S, WORK, Job


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int | None  # None: killed at the time limit
    stdout: bytes
    stderr: bytes


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_subprocess(argv, env: dict, limit_s: float = JOB_LIMIT_S) -> Outcome:
    """Run `argv` with stdout and stderr in files under WORK."""
    out_path, err_path = f"{WORK}/job.stdout", f"{WORK}/job.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=env)
        deadline = start + limit_s
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                wall = time.perf_counter() - start
                break
            if time.perf_counter() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                wall = None
                break
            time.sleep(0.0005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return Outcome(limit_s if wall is None else wall,
                   usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                   None if wall is None else proc.returncode, stdout, stderr)


def cornerkit_argv(job: Job) -> list[str]:
    return [sys.executable, "-m", "cornerkit", *job.argv]


class JobTimeout(BaseException):
    """Raised by the interval timer inside an in-process job; a
    BaseException so the program's own handlers cannot swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout


def run_inprocess(job: Job, main, clear_caches,
                  limit_s: float = JOB_LIMIT_S) -> Outcome:
    """Replay a job through the program's `main` with fresh caches."""
    clear_caches()
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    code: int | None
    try:
        with redirect_stdout(out), redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, limit_s)
            try:
                code = main(list(job.argv))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    except JobTimeout:
        code, wall = None, limit_s
    except Exception as exc:  # a traceback in a subprocess run
        code, wall = 1, time.perf_counter() - start
        err.write(f"Traceback (in-process): {type(exc).__name__}: {exc}\n")
    finally:
        signal.signal(signal.SIGALRM, previous)
    return Outcome(wall, 0.0, 0.0, code, out.getvalue().encode(),
                   err.getvalue().encode())


def evaluate(job: Job, outcome: Outcome, digests: dict) -> str | None:
    """None when the job did what it must; otherwise why it failed."""
    if outcome.exit_code is None:
        return f"timed out after {outcome.wall_s:.0f} s"
    if b"Traceback" in outcome.stderr:
        return "traceback on stderr"
    if outcome.exit_code != job.exit_code:
        return f"exit code {outcome.exit_code}, expected {job.exit_code}"
    reason = check.run_check(job.check, outcome.stdout)
    if reason is not None:
        return reason
    if job.fixed and check.digest(outcome.stdout) != digests.get(job.name):
        return "stdout differs from the recorded digest"
    return None
