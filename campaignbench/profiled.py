"""Run ``python -m repro ARGS...`` under cProfile and dump the stats.

Usage::

    python3 campaignbench/profiled.py OUT.prof ARGS...

Unlike ``python -m cProfile``, this keeps the CLI's exit code, so a
profiled campaign is checked exactly like an unprofiled one.
"""

from __future__ import annotations

import cProfile
import runpy
import sys


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    sys.argv = ["repro"] + argv
    profiler = cProfile.Profile()
    rc = 0
    profiler.enable()
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        profiler.disable()
        profiler.dump_stats(out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
