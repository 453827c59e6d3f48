"""Fork-ordering vector clocks implemented over inheritable TLS.

Section 4.1 of the paper: Waffle "tracks happens-before relationships
induced by thread forks by implementing vector clocks on top of the TLS
mechanism. ... Waffle creates and stores a tailored thread-local vector
clock object in the TLS memory region of each thread. This vector clock
is represented by a set of tuples {(tid1, &rctr1), (tid2, &rctr2), ...}
... When a child thread is created, the TLS memory region of the parent
thread gets automatically propagated to the child thread. At this point
Waffle allocates a vector clock for the child thread ... (1) append a
tuple (tidk, &rctrk = 1) ... and (2) increment the logical counter of
the parent using the counter reference passed through the TLS."

We implement exactly that, with one clarification the paper leaves
implicit: the entries a child *copies* from its parent must be frozen at
their fork-time values (otherwise later forks by the parent would
retroactively advance the child's view and wrongly order concurrent
events). Each thread therefore holds a live counter cell only for its
own entry; inherited entries are snapshots. The parent's live cell is
incremented through the shared reference during propagation, so parent
operations after the fork are correctly *not* ordered before child
operations -- the standard fork rule.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..sim.tls import Inheritable

#: Key under which the vector clock lives in inheritable TLS.
TLS_KEY = "waffle.vector_clock"


class CounterCell:
    """A mutable logical-time counter shared by reference."""

    __slots__ = ("value",)

    def __init__(self, value: int = 1):
        self.value = value

    def increment(self) -> None:
        self.value += 1

    def __repr__(self) -> str:
        return "CounterCell(%d)" % self.value


class ThreadVectorClock(Inheritable):
    """The per-thread vector clock object stored in inheritable TLS."""

    __slots__ = ("tid", "own_cell", "inherited")

    def __init__(self, tid: int, inherited: Optional[Dict[int, int]] = None):
        self.tid = tid
        #: Live counter for this thread's own entry; incremented each
        #: time this thread forks a child.
        self.own_cell = CounterCell(1)
        #: Frozen fork-time snapshots of every ancestor entry.
        self.inherited: Dict[int, int] = dict(inherited or {})

    # -- Inheritable protocol ------------------------------------------

    def inherit_to(self, parent_thread, child_thread) -> "ThreadVectorClock":
        """Called by the TLS propagation machinery at thread fork.

        Builds the child's clock from the parent's *pre-increment*
        values, appends the child's fresh ``(tid, counter=1)`` entry,
        then bumps the parent's counter through the shared cell --
        the sequence described in section 4.1.
        """
        inherited = dict(self.inherited)
        inherited[self.tid] = self.own_cell.value
        child_clock = ThreadVectorClock(child_thread.tid, inherited=inherited)
        self.own_cell.increment()
        return child_clock

    # -- Snapshots and ordering ----------------------------------------

    def snapshot(self) -> Dict[int, int]:
        """Current component values ``{tid: counter}`` for this thread
        (what ``AccessEvent.vc_snapshot`` holds)."""
        snap = dict(self.inherited)
        snap[self.tid] = self.own_cell.value
        return snap

    def __repr__(self) -> str:
        return "ThreadVectorClock(tid=%d, %r)" % (self.tid, self.snapshot())


def leq(a: Dict[int, int], b: Dict[int, int]) -> bool:
    """Component-wise <= on snapshots (missing entries read as 0)."""
    return all(value <= b.get(tid, 0) for tid, value in a.items())


def ordered(a: Optional[Dict[int, int]], b: Optional[Dict[int, int]]) -> bool:
    """True when the two snapshots are comparable (a <= b or b <= a).

    Comparable snapshots mean the two operations are ordered by the
    parent-child fork relation, so a MemOrder candidate between them is
    impossible and gets pruned (section 4.1). Missing snapshots (tools
    that do not track clocks) are conservatively treated as unordered.
    """
    if a is None or b is None:
        return False
    return leq(a, b) or leq(b, a)


def concurrent(a: Optional[Dict[int, int]], b: Optional[Dict[int, int]]) -> bool:
    """True when neither snapshot happens-before the other."""
    return not ordered(a, b)
