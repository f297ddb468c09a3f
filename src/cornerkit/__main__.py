"""The process entry: `python -m cornerkit` and the `cornerkit` console
script both call `run`.

A job is one short process, and its caller waits for the whole of it.
Once `cli.main` has written the report, CPython would still finalize the
interpreter: tear down every module, run collector passes and free every
object, which takes milliseconds per job and changes nothing anyone sees.
So `run` flushes the output, runs the registered exit hooks (site hooks
and coverage rely on theirs) and leaves by `os._exit`.  An exception
that escapes `main` still takes the interpreter's normal traceback and
exit.  A write or final flush of stdout that fails is reported as one
line and exit 2; stdout is not written again.
"""

import atexit
import os
import sys

from .cli import OutputError, main


def run():
    """Run one job and end the process with its exit code; never
    returns."""
    try:
        code = main()
        if sys.stdout is not None:
            try:
                sys.stdout.flush()
            except OSError as exc:
                raise OutputError(exc.strerror) from exc
    except OutputError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        code = 2
    if sys.stderr is not None:
        sys.stderr.flush()
    atexit._run_exitfuncs()
    os._exit(code)


if __name__ == "__main__":
    run()
