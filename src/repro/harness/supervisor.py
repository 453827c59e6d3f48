"""Fault-tolerant campaign supervisor: watchdogs, retries, resume.

Waffle's evaluation is a long campaign, and delay injection
deliberately drives target programs into crashes, deadlocks and
timeouts. The harness fans cells out across processes
(:mod:`repro.harness.parallel`), so a single hung detection run,
OOM-killed worker or torn cache record must degrade one cell -- not
take down or silently poison the whole ``--jobs`` campaign. The
supervisor wraps every cell execution in a fault boundary:

* **Watchdog** -- each cell gets a wall-clock deadline derived from the
  same ``TIMEOUT_FACTOR`` logic :mod:`repro.harness.runner` applies to
  individual simulated tests (factor x the median observed cell time,
  floored), so a wedged worker is killed rather than waited on forever.
  Serially the watchdog is a SIGALRM timer; under ``--jobs`` the cells
  run on ``min(jobs, cells)`` reused forked workers, and a worker past
  its cell's deadline is killed and replaced by a fresh fork.
* **Retry with backoff** -- faults are classified by
  :func:`repro.harness.faults.classify`: *retryable* ones (worker
  crash, hang, transient I/O, corrupt record) are re-attempted under an
  exponential-backoff schedule with seeded, deterministic jitter, up to
  a per-cell attempt budget; *deterministic* ones (assertion failures,
  schema errors) are quarantined immediately -- the same inputs would
  fail identically, so retrying burns budget without information.
* **Checkpoint-resume** -- with ``--resume DIR`` the supervisor
  publishes every finalized cell to an
  :class:`~repro.harness.store.ArtifactStore` in DIR, keyed by the same
  content-addressed digests the run cache uses, so a resumed campaign
  takes the ``ok`` records and re-attempts only the degraded ones.
  Because every cell is a deterministic function of its arguments, a
  resumed campaign is bit-identical to an uninterrupted one -- the
  property the resume tests guard. ``campaign run --fleet-dir D`` is
  this path over ``D/store``. A record a host crash tears fails its
  checksum and recomputes, so no record is forced to stable storage.
* **Crash dossiers** -- every fault is captured as a JSON dossier (the
  fault taxonomy record) before the worker is torn down.

The supervisor is **opt-in**: it takes the executor slot of
:mod:`repro.harness.parallel` while active. With the slot empty,
:func:`repro.harness.parallel.map_units` runs the same two loops
through :class:`Unsupervised`, which has no fault boundary: no
watchdog, no retry, and the first failing cell's exception propagates.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import multiprocessing
import pickle
import signal
import threading
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..obs import eventbus
from ..core.persistence import save_record
from . import faults, parallel
from .cache import GLOBAL_STATS
from .runner import TIMEOUT_FACTOR, TIMEOUT_FLOOR_MS
from .store import ArtifactStore

#: Watchdog floor, inherited from the per-test timeout convention.
WATCHDOG_FLOOR_S = TIMEOUT_FLOOR_MS / 1000.0

#: Deadline applied before enough cells have completed to estimate one
#: (deliberately generous: a false kill costs a retry, a false wait
#: costs the whole campaign).
WATCHDOG_WARMUP_S = 600.0

#: Completed-cell sample size needed before the adaptive deadline
#: replaces the warm-up deadline.
WATCHDOG_MIN_SAMPLES = 3

#: The non-terminal verdict of :meth:`RetryPolicy.verdict`.
RETRY = "retry"


def _jsonable(value: Any) -> Any:
    """Canonical JSON projection of a cell argument (for cell keys)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {"__dc__": type(value).__name__, **_jsonable(dataclasses.asdict(value))}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def cell_key(fn: Callable[..., Any], args: Tuple) -> str:
    """Content-addressed identity of one cell: function + arguments.

    The same digest discipline as the run cache: SHA-256 over a
    canonical JSON encoding, so the key is stable across processes and
    campaign restarts -- the anchor checkpoint-resume hangs off.
    """
    blob = json.dumps(
        {"fn": "%s.%s" % (fn.__module__, fn.__qualname__), "args": _jsonable(list(args))},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------


@dataclasses.dataclass
class RetryPolicy:
    """Exponential backoff with seeded, deterministic jitter.

    The jitter draw is a pure function of ``(seed, cell key, attempt)``
    -- same SHA-256 discipline as the chaos harness -- so a retry
    schedule is exactly reproducible, which the backoff-determinism
    test relies on.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    #: Cap on the *sum* of a cell's backoff delays, not just each delay.
    #: A generous --retries with an unlucky jitter draw must not turn
    #: one flaky cell into minutes of accumulated sleeping. None
    #: disables the cap.
    backoff_total_max_s: Optional[float] = 20.0
    jitter: float = 0.25
    seed: int = 0

    def _raw_backoff_s(self, key: str, attempt: int) -> float:
        """The per-attempt schedule before the cumulative cap."""
        base = min(
            self.backoff_max_s,
            self.backoff_base_s * (self.backoff_factor ** max(0, attempt - 1)),
        )
        if self.jitter <= 0.0:
            return base
        blob = "%d|backoff|%s|%d" % (self.seed, key, attempt)
        digest = hashlib.sha256(blob.encode("utf-8")).digest()
        draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
        # Spread over [base*(1-jitter), base*(1+jitter)].
        return base * (1.0 - self.jitter + 2.0 * self.jitter * draw)

    def backoff_s(self, key: str, attempt: int) -> float:
        """Delay before retrying ``key`` after failed attempt ``attempt``.

        Deterministic like the raw schedule (a pure function of the
        policy fields, key and attempt), but clamped so the cumulative
        delay across a cell's whole retry tail never exceeds
        :attr:`backoff_total_max_s`: each attempt draws from whatever
        budget the earlier attempts left.
        """
        if self.backoff_total_max_s is None:
            return self._raw_backoff_s(key, attempt)
        budget = self.backoff_total_max_s
        draw = 0.0
        for index in range(1, attempt + 1):
            draw = min(self._raw_backoff_s(key, index), max(0.0, budget))
            budget -= draw
        return draw

    def backoff_schedule(self, key: str) -> List[float]:
        """The full retry schedule for ``key`` (one entry per retry)."""
        return [self.backoff_s(key, attempt) for attempt in range(1, self.max_attempts)]

    def verdict(self, exc: BaseException, key: str, attempt: int) -> Tuple[str, float]:
        """What follows failed attempt ``attempt`` of ``key``:
        ``("quarantined", 0)`` for a deterministic fault, ``("failed",
        0)`` once the attempt budget is spent, else ``(RETRY, backoff
        seconds)``."""
        if not faults.classify(exc)[1]:
            return "quarantined", 0.0
        if attempt >= self.max_attempts:
            return "failed", 0.0
        return RETRY, self.backoff_s(key, attempt)


# ----------------------------------------------------------------------
# Campaign statistics (the degradation summary)
# ----------------------------------------------------------------------


@dataclasses.dataclass
class CampaignStats:
    ok: int = 0
    retried: int = 0  # cells that needed >1 attempt but finished ok
    quarantined: int = 0  # deterministic fault: never retried
    failed: int = 0  # retryable fault that exhausted the attempt budget
    resumed: int = 0  # cells satisfied from the resume store without running
    fault_counts: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Keys of the quarantined and failed cells, in finalization order.
    degraded: List[str] = dataclasses.field(default_factory=list)

    @property
    def cells(self) -> int:
        return self.ok + self.quarantined + self.failed + self.resumed

    def count_fault(self, kind: str) -> None:
        self.fault_counts[kind] = self.fault_counts.get(kind, 0) + 1

    def summary_line(self) -> str:
        """The end-of-run degradation summary the CLI prints."""
        parts = [
            "%d cells ok" % (self.ok + self.resumed),
            "%d retried" % self.retried,
            "%d quarantined" % self.quarantined,
        ]
        if self.failed:
            parts.append("%d failed" % self.failed)
        if self.resumed:
            parts.append("%d resumed from store" % self.resumed)
        line = "supervisor: " + ", ".join(parts)
        if self.fault_counts:
            line += " (faults: %s)" % ", ".join(
                "%s=%d" % (kind, count) for kind, count in sorted(self.fault_counts.items())
            )
        return line


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------


class _RemoteFault(faults.HarnessFault):
    """A fault that occurred in a worker process and did not survive
    pickling, rehydrated from its JSON description."""

    def __init__(self, record: Dict[str, Any]):
        super().__init__("%s: %s" % (record.get("error", "?"), record.get("detail", "")))
        self.kind = record.get("kind", faults.DETERMINISTIC)
        self.retryable = bool(record.get("retryable", False))


class _RemoteTraceback(Exception):
    """A worker's formatted traceback, chained as the ``__cause__`` of
    the fault it shipped (as ``concurrent.futures`` chains it), so the
    caller's traceback shows where in the cell it failed."""


def _portable(exc: BaseException) -> Any:
    """What a worker ships for a failed cell: the exception itself when
    it survives a pickle round trip, else its JSON-safe description."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return faults.describe(exc)
    return exc


def _worker(conn, inherited: List[Any], fn: Callable[..., Any], units: List[Tuple],
            keys: List[str]) -> None:
    """Body of one reused worker: run ``(index, attempt)`` requests until
    EOF, replying ``("ok", result, cache)`` or ``("err", (the exception or
    its description, formatted traceback), cache)``, where ``cache`` is
    the cell's :class:`~repro.harness.cache.CacheStats` delta, so the
    coordinator's ``cache:`` line counts the lookups its workers made.

    ``inherited`` holds the parent's pipe ends the fork copied; closing
    them lets EOF reach this worker once the parent closes its end. The
    chaos prelude's injected crash is a real ``os._exit`` with no reply,
    exactly like an OOM-killed worker.
    """
    for end in inherited:
        end.close()
    while True:
        try:
            index, attempt = conn.recv()
        except EOFError:
            return
        before = dataclasses.replace(GLOBAL_STATS)
        try:
            faults.cell_prelude(keys[index], attempt, in_child=True)
            reply = ("ok", parallel._call_unit(fn, units[index]))
        except BaseException as exc:  # noqa: BLE001 - the boundary's job
            reply = ("err", (_portable(exc), traceback.format_exc()))
        cache = GLOBAL_STATS.since(before)
        try:
            conn.send(reply + (cache,))
        except OSError:
            return  # the parent hung up
        except Exception as exc:  # noqa: BLE001 - an unpicklable result
            conn.send(("err", (faults.describe(exc), traceback.format_exc()), cache))


class Supervisor:
    """Fault boundary around a campaign's cell executions.

    Activate with :func:`repro.harness.parallel.activate` (or the
    :func:`supervised` context manager); ``map_units`` routes through
    :meth:`map` while it holds the executor slot. ``store`` is the
    ``--resume`` directory's :class:`~repro.harness.store.ArtifactStore`.

    Both cell loops report here: :meth:`_fault` accounts a failed
    attempt and returns the policy's verdict; :meth:`_finalize` counts a
    cell's final status in :attr:`stats`, publishes it to :attr:`store`
    (when there is one) and emits ``cell_end``.
    """

    def __init__(
        self,
        policy: Optional[RetryPolicy] = None,
        store: Optional[ArtifactStore] = None,
        cell_timeout_s: Optional[float] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ):
        self.policy = policy or RetryPolicy()
        self.store = store
        self.stats = CampaignStats()
        self.cell_timeout_s = cell_timeout_s
        self.sleep = sleep if sleep is not None else time.sleep
        self._wall_times: List[float] = []

    # -- Watchdog ------------------------------------------------------

    def watchdog_s(self) -> Optional[float]:
        """Per-cell wall-clock deadline (None: no watchdog).

        An explicit ``--cell-timeout`` wins; otherwise the deadline
        adapts to the campaign: ``TIMEOUT_FACTOR`` x the median
        completed-cell wall time (floored), the same convention
        :func:`repro.harness.runner.test_time_limit` applies to
        individual simulated tests. Until enough cells have completed
        to estimate, a generous warm-up deadline applies.
        """
        if self.cell_timeout_s is not None:
            return self.cell_timeout_s
        if len(self._wall_times) < WATCHDOG_MIN_SAMPLES:
            return WATCHDOG_WARMUP_S
        ordered = sorted(self._wall_times)
        median = ordered[len(ordered) // 2]
        return max(WATCHDOG_FLOOR_S, TIMEOUT_FACTOR * median)

    @contextmanager
    def _serial_watchdog(self, deadline_s: Optional[float], key: str):
        """SIGALRM-based deadline for the serial path (main thread only;
        elsewhere, or with no deadline, the cell runs unguarded)."""
        usable = (
            deadline_s is not None
            and hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread()
        )
        if not usable:
            yield
            return

        def _on_alarm(signum, frame):
            raise faults.CellHangFault(
                "cell %s exceeded its %.1fs watchdog" % (key[:12], deadline_s)
            )

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    # -- Fault accounting ----------------------------------------------

    def _dossier_target(self) -> Optional[Path]:
        if self.store is not None:
            return self.store.directory
        session = obs.session()
        return session.directory if session is not None else None

    def _write_dossier(self, key: str, attempt: int, fault_record: dict) -> None:
        """Capture the fault record as a crash dossier before the cell is
        finalized or retried."""
        target = self._dossier_target()
        if target is None:
            return
        payload = {
            "cell": key,
            "attempt": attempt,
            "fault": fault_record,
            "unix_time": round(time.time(), 3),
        }
        try:
            save_record(payload, Path(target) / ("crash-%s-a%d.json" % (key[:16], attempt)))
        except OSError:
            pass  # a dossier must never take down the campaign

    def _fault(self, exc: BaseException, key: str, attempt: int) -> Tuple[str, float]:
        """Account one failed attempt (stats, ``fault`` event, crash
        dossier) and return the policy's verdict, announcing a retry
        with ``cell_retry``."""
        record = faults.describe(exc)
        kind = str(record["kind"])
        self.stats.count_fault(kind)
        eventbus.emit("fault", cell=key[:16], attempt=attempt, kind=kind,
                      error=record.get("error", "?"))
        self._write_dossier(key, attempt, record)
        verdict, backoff = self.policy.verdict(exc, key, attempt)
        if verdict == RETRY:
            eventbus.emit("cell_retry", cell=key[:16], attempt=attempt + 1,
                          backoff_s=round(backoff, 4), kind=kind)
        return verdict, backoff

    def _finalize(self, key: str, status: str, result: Any, attempt: int,
                  wall_s: float) -> Any:
        """Record a cell's final status; returns its result (None for a
        degraded cell: graceful degradation)."""
        if status == "ok":
            self.stats.ok += 1
            if attempt > 1:
                self.stats.retried += 1
        else:
            if status == "quarantined":
                self.stats.quarantined += 1
            else:
                self.stats.failed += 1
            self.stats.degraded.append(key)
        self._publish(key, status, result, attempt)
        bus = eventbus.bus()
        if bus is not None:
            bus.emit("cell_end", cell=key[:16], status=status, attempt=attempt,
                     wall_s=round(wall_s, 4))
            if status == "ok":
                bus.maybe_flush()
            else:
                bus.flush()  # degraded cells are rare and worth immediate durability
        return result if status == "ok" else None

    # -- Store ---------------------------------------------------------

    def _publish(self, key: str, status: str, result: Any, attempt: int) -> None:
        if self.store is not None:
            self.store.publish(key, status, result, attempts=attempt, worker="local")
            eventbus.emit("checkpoint", cell=key[:16], status=status, attempts=attempt)

    def _try_resume(self, key: str) -> Tuple[bool, Any]:
        """(hit, result): satisfy a cell from an ``ok`` store record.
        Degraded records are re-attempted; a corrupt one is a
        quarantined miss, so its cell runs again."""
        record = self.store.fetch(key) if self.store is not None else None
        if record is None or not record.ok:
            return False, None
        self.stats.resumed += 1
        eventbus.emit("cell_resumed", cell=key[:16])
        return True, record.result

    # -- Serial execution ----------------------------------------------

    def _run_cell_serial(self, fn: Callable[..., Any], args: Tuple, key: str) -> Any:
        attempt = 1
        while True:
            eventbus.emit("cell_begin", cell=key[:16], unit=fn.__name__, attempt=attempt)
            started = time.perf_counter()
            try:
                with self._serial_watchdog(self.watchdog_s(), key):
                    faults.cell_prelude(key, attempt, in_child=False)
                    result = parallel._call_unit(fn, args)
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:  # noqa: BLE001 - the boundary's job
                if isinstance(exc, faults.CellHangFault):
                    eventbus.emit("watchdog", cell=key[:16],
                                  deadline_s=round(self.watchdog_s(), 3))
                verdict, backoff = self._fault(exc, key, attempt)
                if verdict == RETRY:
                    self.sleep(backoff)
                    attempt += 1
                    continue
                return self._finalize(key, verdict, None, attempt,
                                      time.perf_counter() - started)
            wall_s = time.perf_counter() - started
            self._wall_times.append(wall_s)
            return self._finalize(key, "ok", result, attempt, wall_s)

    # -- Parallel execution --------------------------------------------

    def _run_parallel(
        self,
        fn: Callable[..., Any],
        units: List[Tuple],
        keys: List[str],
        pending: List[int],
        results: List[Any],
        workers: int,
    ) -> None:
        """Fan ``pending`` out over at most ``workers`` reused forked
        workers, one cell at a time each.

        A cell past its deadline is killed with its worker, and a worker
        that dies mid-cell is a :class:`~repro.harness.faults.WorkerCrashFault`;
        either way the next dispatch forks a fresh worker, so no more
        than ``workers`` are alive at once. Every worker is joined or
        killed before this returns or raises.
        """
        from multiprocessing.connection import wait as conn_wait

        ctx = multiprocessing.get_context("fork")
        # (index, attempt, ready_at_monotonic)
        queue: List[Tuple[int, int, float]] = [(index, 1, 0.0) for index in pending]
        idle: List[Tuple[Any, Any]] = []  # (process, conn) awaiting a cell
        inflight: Dict[Any, dict] = {}  # conn -> cell state

        def dispatch(index: int, attempt: int) -> None:
            if idle:
                proc, conn = idle.pop()
            else:
                conn, child_conn = ctx.Pipe()
                inherited = [conn, *inflight, *(end for _, end in idle)]
                proc = ctx.Process(target=_worker,
                                   args=(child_conn, inherited, fn, units, keys), daemon=True)
                proc.start()
                child_conn.close()
            try:
                conn.send((index, attempt))
            except OSError:
                pass  # it died idle: the EOF below reads as a crash and the cell retries
            eventbus.emit("cell_begin", cell=keys[index][:16], unit=fn.__name__,
                          attempt=attempt)
            eventbus.flush()  # visible to live `campaign status` immediately
            deadline_s = self.watchdog_s()
            started = time.monotonic()
            inflight[conn] = {
                "index": index,
                "attempt": attempt,
                "proc": proc,
                "started": started,
                "deadline": math.inf if deadline_s is None else started + deadline_s,
            }

        def stop(conn, proc, kill: bool) -> None:
            """Retire a worker: kill it, or let it end at EOF."""
            if kill:
                proc.terminate()
            conn.close()
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join()

        def settle(cell: dict, exc: Optional[BaseException], result: Any) -> None:
            index, attempt = cell["index"], cell["attempt"]
            key = keys[index]
            wall_s = time.monotonic() - cell["started"]
            if exc is None:
                self._wall_times.append(wall_s)
                results[index] = self._finalize(key, "ok", result, attempt, wall_s)
                return
            verdict, backoff = self._fault(exc, key, attempt)
            if verdict == RETRY:
                queue.append((index, attempt + 1, time.monotonic() + backoff))
            else:
                self._finalize(key, verdict, None, attempt, wall_s)

        try:
            while queue or inflight:
                now = time.monotonic()
                # Dispatch every ready cell a worker slot exists for.
                queue.sort(key=lambda item: item[2])
                while queue and len(inflight) < workers and queue[0][2] <= now:
                    index, attempt, _ = queue.pop(0)
                    dispatch(index, attempt)
                if not inflight:
                    if queue:  # everything is backing off: sleep to the nearest retry
                        self.sleep(max(0.0, queue[0][2] - time.monotonic()))
                    continue
                # Wait for replies, worker deaths, or the nearest deadline.
                next_deadline = min(cell["deadline"] for cell in inflight.values())
                timeout = max(0.0, min(0.25, next_deadline - time.monotonic()))
                for conn in conn_wait(list(inflight), timeout=timeout):
                    cell = inflight.pop(conn)
                    try:
                        status, payload, cache = conn.recv()
                    except (EOFError, OSError):
                        # The pipe died with no reply: the worker crashed
                        # (chaos os._exit, OOM kill, segfault).
                        stop(conn, cell["proc"], kill=False)
                        settle(cell, faults.WorkerCrashFault(
                            "worker for cell %s died without a result (exit %s)"
                            % (keys[cell["index"]][:12], cell["proc"].exitcode),
                            exitcode=cell["proc"].exitcode,
                        ), None)
                        continue
                    idle.append((cell["proc"], conn))
                    GLOBAL_STATS.add(cache)
                    if status == "ok":
                        settle(cell, None, payload)
                        continue
                    error, remote_tb = payload
                    exc = error if isinstance(error, BaseException) else _RemoteFault(error)
                    exc.__cause__ = _RemoteTraceback("\n" + remote_tb)
                    settle(cell, exc, None)
                # Enforce deadlines on whatever is still in flight.
                now = time.monotonic()
                for conn in [c for c, cell in inflight.items() if cell["deadline"] <= now]:
                    cell = inflight.pop(conn)
                    deadline_s = cell["deadline"] - cell["started"]
                    hang = faults.CellHangFault(
                        "cell %s exceeded its %.1fs watchdog; worker pid %s killed"
                        % (keys[cell["index"]][:12], deadline_s, cell["proc"].pid)
                    )
                    eventbus.emit("watchdog", cell=keys[cell["index"]][:16],
                                  deadline_s=round(deadline_s, 3))
                    stop(conn, cell["proc"], kill=True)
                    settle(cell, hang, None)
        finally:
            for conn, cell in inflight.items():
                stop(conn, cell["proc"], kill=True)
            for proc, conn in idle:
                conn.close()  # EOF ends each idle worker's loop
            for proc, conn in idle:
                stop(conn, proc, kill=False)

    # -- Entry point ---------------------------------------------------

    def map(self, fn: Callable[..., Any], arg_tuples: Sequence[Tuple],
            jobs: Optional[int] = 1) -> List[Any]:
        """The fan-out behind :func:`repro.harness.parallel.map_units`:
        serially in this process for ``jobs <= 1`` or a single pending
        cell, else over ``min(jobs, pending)`` reused forked workers.

        Results come back in submission order; a quarantined or
        retry-exhausted cell yields ``None`` at its position (graceful
        degradation) and is counted in :attr:`stats`.
        """
        units = [tuple(args) for args in arg_tuples]
        keys = [cell_key(fn, args) for args in units]
        jobs = parallel.resolve_jobs(jobs)
        eventbus.emit("fanout", unit=fn.__name__, cells=len(units), jobs=jobs)
        results: List[Any] = [None] * len(units)
        pending: List[int] = []
        for index, key in enumerate(keys):
            hit, result = self._try_resume(key)
            if hit:
                results[index] = result
            else:
                pending.append(index)
        if jobs <= 1 or len(pending) <= 1:
            for index in pending:
                results[index] = self._run_cell_serial(fn, units[index], keys[index])
        else:
            self._run_parallel(fn, units, keys, pending, results, min(jobs, len(pending)))
        return results


class Unsupervised(Supervisor):
    """What :func:`repro.harness.parallel.map_units` runs while the
    executor slot is empty: the supervisor's serial loop and worker pool
    with no fault boundary.

    The first failing cell's exception propagates to the caller; there
    is no watchdog, no retry, no ``fault`` event and no dossier. It never
    takes the slot, so :func:`repro.harness.parallel.current` stays None.
    """

    def watchdog_s(self) -> Optional[float]:
        return None

    def _fault(self, exc: BaseException, key: str, attempt: int) -> Tuple[str, float]:
        raise exc


@contextmanager
def supervised(
    policy: Optional[RetryPolicy] = None,
    store: Optional[ArtifactStore] = None,
    cell_timeout_s: Optional[float] = None,
    **kwargs: Any,
):
    """Scoped activation: every ``map_units`` call inside the block runs
    under this supervisor."""
    supervisor = Supervisor(policy=policy, store=store, cell_timeout_s=cell_timeout_s,
                            **kwargs)
    parallel.activate(supervisor)
    try:
        yield supervisor
    finally:
        parallel.deactivate()
