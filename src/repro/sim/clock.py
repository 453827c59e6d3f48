"""Virtual clock for the concurrency simulator.

All timing in the reproduction -- near-miss windows, delay lengths,
overhead measurements -- is expressed in *virtual milliseconds*. Using a
virtual clock instead of wall-clock time makes every experiment
deterministic and makes the "slowdown" numbers of the paper's tables
reproducible ratios rather than noisy measurements.
"""

from __future__ import annotations


class VirtualClock:
    """A monotonically advancing clock measured in float milliseconds.

    ``now`` is a plain attribute (not a property): the scheduler and the
    instrumented operations read it several times per operation. Only
    the scheduler moves it, through :meth:`advance`/:meth:`advance_to`
    or by assigning a later float in its run loop.
    """

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0):
        #: Current virtual time in milliseconds.
        self.now = float(start)

    def advance(self, delta_ms: float) -> float:
        """Move the clock forward by ``delta_ms`` milliseconds.

        Returns the new time. Negative deltas are rejected: virtual time,
        like physical time in the instrumented runs of the paper, only
        moves forward.
        """
        if delta_ms < 0:
            raise ValueError("virtual clock cannot move backwards (delta=%r)" % delta_ms)
        self.now += delta_ms
        return self.now

    def advance_to(self, timestamp_ms: float) -> float:
        """Jump the clock forward to an absolute timestamp.

        Used by the scheduler when the next runnable thread wakes in the
        future. A timestamp in the past is a no-op rather than an error,
        because several threads may share the same wake time.
        """
        if timestamp_ms > self.now:
            self.now = float(timestamp_ms)
        return self.now

    def __repr__(self) -> str:
        return "VirtualClock(now=%.4fms)" % self.now
