"""Self-test of the benchmark's own checker, run before every benchmark run.

A checker that passes everything would make `correct` meaningless, so
this feeds it known-good outputs, which must pass, and tampered ones (a
wrong mapping, a wrong obstruction solution, a wrong exit code, a
traceback, a job past its time limit), which must each fail.

    python3 bench/selftest.py    # exit 0 when the checker behaves
"""

from __future__ import annotations

import json
import os
import random
import sys

import check
import execute
import gen
from workloads import DATA, WORK, Job


def report(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


def outcome(stdout: bytes, exit_code: int | None = 0,
            stderr: bytes = b"") -> execute.Outcome:
    return execute.Outcome(1.0, 1.0, 1.0, exit_code, stdout, stderr)


def cases():
    """(description, job, outcome, should pass) for each probe."""
    rng = random.Random(0)
    K = gen.load_corpus(f"{DATA}/poincare16.json")
    moved, perm = gen.relabel(K, rng)
    equiv = Job("equiv", (), 0, check.isomorphism(gen.complex_doc(K),
                                                  gen.complex_doc(moved)))
    mapping = [[v, perm[v]] for v in range(K[0])]
    good_equiv = report({"verdict": True, "mapping": mapping})
    swapped = [list(p) for p in mapping]
    swapped[0][1], swapped[1][1] = swapped[1][1], swapped[0][1]
    yield "correct mapping", equiv, outcome(good_equiv), True
    yield "tampered mapping", equiv, outcome(
        report({"verdict": True, "mapping": swapped})), False

    G = gen.OBSTRUCTION_GROUP
    d = gen.random_cochain(K, 4, 1, G, rng)
    c = gen.coboundary(K, 4, 1, d, G)
    solve = Job("solve", (), 0, check.solved(K, 4, 2, c, G))
    yield "correct solution", solve, outcome(report(
        {"status": "solved", "solution": gen.cochain_doc(1, G, d)})), True
    label = min(d)
    wrong = {**d, label: G.reduce([d[label][0] + 1, d[label][1]])}
    yield "wrong solution", solve, outcome(report(
        {"status": "solved", "solution": gen.cochain_doc(1, G, wrong)})), False

    yield "wrong exit code", equiv, outcome(good_equiv, exit_code=1), False
    yield "traceback", equiv, outcome(
        good_equiv, stderr=b"Traceback (most recent call last):\n"), False
    yield "digest mismatch", Job("fixed", (), 0, check.verdict(True),
                                 fixed=True), outcome(
        report({"verdict": True})), False


def run() -> list[str]:
    """Problems found; empty when the checker behaves."""
    os.makedirs(WORK, exist_ok=True)
    problems = []
    for what, job, result, should_pass in cases():
        passed = execute.evaluate(job, result, {"fixed": "sha256:0"}) is None
        if passed != should_pass:
            problems.append(f"{what}: {'passed' if passed else 'failed'}")
    slow = execute.run_subprocess(
        [sys.executable, "-c", "import time; time.sleep(30)"], os.environ,
        limit_s=0.2)
    if slow.exit_code is not None or slow.wall_s != 0.2:
        problems.append("a job past its time limit was not recorded as a "
                        "timeout")
    elif execute.evaluate(Job("slow", (), 0, check.verdict(True)), slow,
                          {}) is None:
        problems.append("a timed-out job passed")
    return problems


if __name__ == "__main__":
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    found = run()
    for p in found:
        print(p)
    print("self-test", "FAILED" if found else "passed")
    sys.exit(1 if found else 0)
