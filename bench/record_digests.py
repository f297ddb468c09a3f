"""Record the stdout digests of the jobs whose output does not depend on
the seed (``Job.fixed``) into digests.json.

    python3 bench/record_digests.py

Each output must first pass its own check; rerun only when the program's
output format changes on purpose, and review the diff.
"""

from __future__ import annotations

import json
import os
import sys

import check
import execute
import workloads
from run import DIGESTS, ROOT


def main() -> int:
    os.chdir(ROOT)
    env = execute.child_env(ROOT)
    digests = {}
    for name in sorted(workloads.WORKLOADS):
        digests[name] = {}
        for job in workloads.setup(name, 0):
            if not job.fixed:
                continue
            outcome = execute.run_subprocess(execute.cornerkit_argv(job), env)
            reason = execute.evaluate(job, outcome, {job.name: check.digest(
                outcome.stdout)})
            if reason is not None:
                print(f"{name}/{job.name}: {reason}", file=sys.stderr)
                return 1
            digests[name][job.name] = check.digest(outcome.stdout)
    with open(DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
