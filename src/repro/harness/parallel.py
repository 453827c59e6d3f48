"""Process-pool fan-out for the experiment harness.

The experiment drivers decompose each table into independent *work
units* -- one (app, test, seed) or (bug, tool, seed) cell -- and run
them through :func:`map_units`. Because every unit is a deterministic
function of its picklable arguments (the simulator is virtual-time with
seeded RNGs), results are merged in *submission* order regardless of
completion order, so ``--jobs N`` produces bit-identical tables to a
serial run. The equivalence tests in ``tests/harness/test_parallel.py``
guard this property.

Work-unit functions must be module-level (picklable by reference) and
must take only picklable arguments: app/test/bug *names* rather than
objects, the frozen :class:`~repro.core.config.WaffleConfig`, plain
seeds, and an optional cache directory string. Workers rebuild
registries and caches on their side.

One process-global *executor slot* can take over every fan-out: while
a :class:`~repro.harness.supervisor.Supervisor` (watchdogs, retries,
``--resume``) or a :class:`~repro.harness.fleet.FleetWorker` (a fleet
campaign's claim loop) is active, :func:`map_units` hands each call to
its ``map(fn, arg_tuples, jobs)``. With the slot empty the cost is one
None check per experiment fan-out (``benchmarks/bench_resilience.py``
guards it).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from .. import obs
from ..obs import eventbus

#: Sentinel for "use one worker per unit, capped by the machine".
AUTO_JOBS = 0

#: The active executor (a Supervisor or a FleetWorker), or None.
_executor: Optional[Any] = None


def current() -> Optional[Any]:
    """The active executor, or None (the plain fan-out path)."""
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
    # A forked child (a supervised cell's process, a pool worker) runs
    # its work directly, not through the executor it inherited.
    os.register_at_fork(after_in_child=deactivate)


def _flush_bus_for_cell() -> None:
    """End-of-cell durability for the campaign event bus, mirroring the
    telemetry split below: pool workers hard-flush (they can die without
    atexit), the main process batches."""
    bus = eventbus.bus()
    if bus is None:
        return
    if multiprocessing.parent_process() is not None:
        bus.flush()
    else:
        bus.maybe_flush()


def _call_unit(fn: Callable[..., Any], args: Tuple) -> Any:
    """Execute one work unit, wrapped in per-cell telemetry when active.

    Module-level so the process pool can pickle it by reference; in a
    worker process the session and the event bus are the ones the fork
    handler reopened (or that ``WAFFLE_OBS_DIR`` configured).
    """
    session = obs.session()
    if session is None:
        result = fn(*args)
        _flush_bus_for_cell()
        return result
    started = time.perf_counter()
    result = fn(*args)
    session.c_cells.inc()
    session.h_cell_wall_ms.observe((time.perf_counter() - started) * 1000.0)
    if multiprocessing.parent_process() is not None:
        # Pool worker: it may be recycled or killed without running
        # atexit hooks, so a per-cell flush is what lands its telemetry
        # on disk. Cells are coarse enough that one append per cell is
        # noise against a worker's wall time.
        session.flush()
    else:
        # Main process: the atexit hook and the CLI's end-of-command
        # flush provide durability, so batch the encode/write work
        # instead of paying it per cell (the largest single item of
        # enabled-path overhead before batching).
        session.maybe_flush()
    _flush_bus_for_cell()
    return result


def _timed_unit(fn: Callable[..., Any], args: Tuple) -> Tuple[Any, float]:
    """:func:`_call_unit` plus its wall seconds, timed where the cell
    runs -- in a pool worker, that is the cell's own time, not the time
    since the fan-out began."""
    started = time.perf_counter()
    result = _call_unit(fn, args)
    return result, round(time.perf_counter() - started, 4)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: None/1 -> serial, 0 -> cpu count."""
    if jobs is None:
        return 1
    if jobs == AUTO_JOBS:
        return os.cpu_count() or 1
    return max(1, jobs)


def map_units(
    fn: Callable[..., Any],
    arg_tuples: Sequence[Tuple],
    jobs: Optional[int] = 1,
) -> List[Any]:
    """Map ``fn`` over argument tuples, serially or via a process pool.

    Results come back in submission order independent of completion
    order, which keeps downstream merging deterministic. ``jobs <= 1``
    (or a single unit) bypasses the pool entirely so the serial path is
    byte-for-byte the pre-parallel code path.
    """
    if _executor is not None:
        return _executor.map(fn, arg_tuples, jobs)
    jobs = resolve_jobs(jobs)
    units = list(arg_tuples)
    bus = eventbus.bus()
    keys: List[str] = []
    if bus is not None:
        # Cell lifecycle is emitted from the coordinator only (workers
        # would double-count it); cells are identified by the same
        # content-addressed keys the supervisor and store use.
        from .supervisor import cell_key

        keys = [cell_key(fn, tuple(args)) for args in units]
        bus.emit("fanout", unit=fn.__name__, cells=len(units), jobs=jobs)
    if jobs <= 1 or len(units) <= 1:
        if bus is None:
            return [_call_unit(fn, args) for args in units]
        results = []
        for key, args in zip(keys, units):
            bus.emit("cell_begin", cell=key[:16], unit=fn.__name__, attempt=1)
            result, wall_s = _timed_unit(fn, args)
            results.append(result)
            bus.emit("cell_end", cell=key[:16], status="ok", attempt=1, wall_s=wall_s)
            bus.maybe_flush()
        return results
    workers = min(jobs, len(units))
    with ProcessPoolExecutor(max_workers=workers) as executor:
        if bus is None:
            futures = [executor.submit(_call_unit, fn, args) for args in units]
            return [future.result() for future in futures]
        futures = []
        for key, args in zip(keys, units):
            bus.emit("cell_begin", cell=key[:16], unit=fn.__name__, attempt=1)
            futures.append(executor.submit(_timed_unit, fn, args))
        bus.flush()  # make cell_begin visible to live `campaign status`
        results = []
        for key, future in zip(keys, futures):
            result, wall_s = future.result()
            results.append(result)
            bus.emit("cell_end", cell=key[:16], status="ok", attempt=1, wall_s=wall_s)
            bus.maybe_flush()
        return results


def chunked(items: Iterable[Any], size: int) -> List[List[Any]]:
    """Split ``items`` into consecutive chunks of at most ``size``."""
    if size <= 0:
        raise ValueError("chunk size must be positive")
    out: List[List[Any]] = []
    chunk: List[Any] = []
    for item in items:
        chunk.append(item)
        if len(chunk) == size:
            out.append(chunk)
            chunk = []
    if chunk:
        out.append(chunk)
    return out
