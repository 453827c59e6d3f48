"""Cell fan-out for the experiment harness.

The experiment drivers decompose each table into independent *work
units* -- one (app, test, seed) or (bug, tool, seed) cell -- and run
them through :func:`map_units`. Because every unit is a deterministic
function of its arguments (the simulator is virtual-time with seeded
RNGs), results are merged in *submission* order regardless of
completion order, so ``--jobs N`` produces bit-identical tables to a
serial run. The equivalence tests in ``tests/harness/test_parallel.py``
guard this property. The CLI's default is :data:`AUTO_JOBS`, one worker
per usable CPU; ``--jobs 1`` runs every cell in the CLI process.

Work-unit functions must be module-level and take only plain
arguments: app/test/bug *names* rather than objects, the frozen
:class:`~repro.core.config.WaffleConfig`, plain seeds, and an optional
cache directory string. Cell keys (for resume records) hash them, and
results travel back from forked workers pickled.

One process-global *executor slot* can take over every fan-out: while
a :class:`~repro.harness.supervisor.Supervisor` (watchdogs, retries,
``--resume``, ``campaign run``) is active, :func:`map_units` hands each
call to its ``map(fn, arg_tuples, jobs)``. With the slot empty it runs the
supervisor's own serial loop and reused-worker pool with no fault
boundary (:class:`~repro.harness.supervisor.Unsupervised`): the first
failing cell's exception propagates to the caller, and there is no
watchdog and no retry. ``benchmarks/bench_resilience.py`` measures
that path against direct calls.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any, Callable, List, Optional, Sequence, Tuple

from .. import obs
from ..obs import eventbus

#: Sentinel for "one worker per CPU this process may run on" (the
#: CLI's default ``--jobs``).
AUTO_JOBS = 0

#: The active executor (a Supervisor), or None.
_executor: Optional[Any] = None


def current() -> Optional[Any]:
    """The active executor, or None (no fault boundary)."""
    return _executor


def activate(executor: Any) -> Any:
    global _executor
    _executor = executor
    # The event bus may have been configured before the harness (and its
    # fault taxonomy) finished importing; re-wire the chaos observer now
    # that both sides exist.
    eventbus._wire_chaos()
    return executor


def deactivate() -> None:
    global _executor
    _executor = None


if hasattr(os, "register_at_fork"):
    # A forked worker runs its cells directly, not through the executor
    # it inherited.
    os.register_at_fork(after_in_child=deactivate)


def _call_unit(fn: Callable[..., Any], args: Tuple) -> Any:
    """Execute one work unit, then flush what it recorded.

    Runs in the calling process (serially) or in a forked worker, where
    the session and the event bus are the ones the fork handler
    reopened (or that ``WAFFLE_OBS_DIR`` configured).
    """
    result = fn(*args)
    # A forked worker may be killed or end without running atexit
    # hooks, so a per-cell flush is what lands its records on disk;
    # cells are coarse enough that one append per cell is noise. The
    # main process has the atexit hook and the CLI's end-of-command
    # flush, so it batches the encode/write work instead (the largest
    # single item of enabled-path overhead before batching).
    in_worker = multiprocessing.parent_process() is not None
    for stream in (obs.session(), eventbus.bus()):
        if stream is not None:
            if in_worker:
                stream.flush()
            else:
                stream.maybe_flush()
    return result


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: None/1 -> serial, 0 -> the CPUs this
    process may run on (its affinity mask, which a cpuset or ``taskset``
    narrows below the host's CPU count)."""
    if jobs is None:
        return 1
    if jobs == AUTO_JOBS:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    return max(1, jobs)


def map_units(
    fn: Callable[..., Any],
    arg_tuples: Sequence[Tuple],
    jobs: Optional[int] = 1,
) -> List[Any]:
    """Map ``fn`` over argument tuples through the active executor, or
    with no fault boundary while the slot is empty.

    Results come back in submission order independent of completion
    order, which keeps downstream merging deterministic. ``jobs <= 1``
    (or a single unit) runs the cells in this process.
    """
    executor = _executor
    if executor is None:
        from .supervisor import Unsupervised  # supervisor imports this module

        executor = Unsupervised()
    return executor.map(fn, arg_tuples, jobs)
