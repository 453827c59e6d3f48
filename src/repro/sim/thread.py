"""Simulated threads.

A :class:`SimThread` wraps a Python generator. The scheduler drives the
generator with ``send``/``throw``; each ``yield`` is a scheduling point.
Benchmark applications never touch this class directly -- they spawn
threads through :meth:`repro.sim.api.Simulation.spawn` and write their
bodies as generator functions that ``yield from`` the simulation API.
"""

from __future__ import annotations

import enum
from typing import Any, Generator, List, Optional

from .tls import InheritableTlsMap, TlsMap


class ThreadState(enum.Enum):
    NEW = "new"
    RUNNABLE = "runnable"
    SLEEPING = "sleeping"
    BLOCKED = "blocked"
    DONE = "done"
    FAILED = "failed"

    def __init__(self, value: str) -> None:
        #: DONE or FAILED (a plain member attribute, read per scheduling step).
        self.is_terminal = value in ("done", "failed")


class SimThread:
    """One simulated thread of control.

    Attributes of note:

    * ``tls`` / ``itls`` -- plain and inheritable thread-local storage;
      the inheritable map is built from the parent's at fork time
      (see :mod:`repro.sim.tls`).
    * ``parent`` -- the forking thread, or ``None`` for the root. The
      parent/child tree is what Waffle's vector clocks capture.
    * ``result`` / ``exception`` -- outcome once the thread terminates.
    """

    def __init__(
        self,
        tid: int,
        name: str,
        gen: Generator[Any, Any, Any],
        parent: Optional["SimThread"] = None,
    ):
        self.tid = tid
        self.name = name
        self.gen = gen
        self.parent = parent
        self.state = ThreadState.NEW
        self.tls = TlsMap()
        if parent is None:
            self.itls = InheritableTlsMap()
        else:
            self.itls = parent.itls.propagate_to_child(parent, self)
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        #: Threads blocked in ``join`` on this thread.
        self.joiners: List["SimThread"] = []
        #: Timestamp at which the thread was created (set by scheduler).
        self.spawn_time: float = 0.0
        #: Timestamp at which the thread terminated (set by scheduler).
        self.end_time: Optional[float] = None
        #: Stack of location labels, maintained by the tracing helpers so
        #: that bug reports can include a per-thread "stack trace".
        self.call_stack: List[str] = []

    @property
    def is_alive(self) -> bool:
        return not self.state.is_terminal

    def snapshot_stack(self) -> List[str]:
        """Copy of the current call-stack labels (for bug reports)."""
        return list(self.call_stack)

    def __repr__(self) -> str:
        return "SimThread(tid=%d, name=%r, state=%s)" % (self.tid, self.name, self.state.value)
