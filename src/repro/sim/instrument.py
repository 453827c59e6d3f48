"""Instrumentation layer of the simulator.

The paper's Waffle instruments C# binaries with Mono.Cecil, wrapping
"every access to object member fields or calls to member methods in a
proxy function" that transfers control to the runtime library (section
5). Our simulator plays the role of that instrumented binary: every
operation on a heap reference is routed through an
:class:`InstrumentationHook` before it executes, and the hook may ask
for a delay to be injected first -- exactly the control surface the
delay-injection algorithms need.

The event vocabulary follows section 3.1 of the paper:

* ``INIT``    -- a reference slot changes from null to non-null;
* ``DISPOSE`` -- a slot changes from non-null to null, or ``Dispose()``
  is called explicitly;
* ``USE``     -- a member field access or member method call;
* ``UNSAFE_CALL`` -- a call to a thread-unsafe API (the TSVD
  instrumentation class, kept for the Table 2 comparison).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple


class AccessType(enum.Enum):
    """Categories of instrumented operations (paper section 3.1)."""

    INIT = "init"
    DISPOSE = "dispose"
    USE = "use"
    UNSAFE_CALL = "unsafe_call"

    def __init__(self, value: str) -> None:
        #: True for the operation classes that MemOrder bugs involve
        #: (a plain member attribute: hooks read it once per operation).
        self.is_memorder = value != "unsafe_call"


@dataclass(frozen=True, order=True, slots=True)
class Location:
    """A unique *static* program location.

    In the paper this is a code address produced by binary
    instrumentation; here it is a dotted label written in the benchmark
    application source, e.g. ``"netmq.NetMQRuntime.Cleanup:8"``. Two
    dynamic operations share a Location iff they come from the same
    static site -- the granularity at which the candidate set S, delay
    lengths, and injection probabilities are maintained.
    """

    site: str

    def __str__(self) -> str:
        return self.site

    @property
    def app(self) -> str:
        """The application component of the site label (before the first dot)."""
        return self.site.split(".", 1)[0]


_event_seq = itertools.count()


def _next_event_id() -> int:
    return next(_event_seq)


@dataclass(slots=True)
class AccessEvent:
    """One dynamic instrumented operation.

    Carries everything the paper's runtime records during the
    preparation run (section 5): object id, physical (virtual) timestamp,
    operation type, and the active thread -- plus the static location and
    optional extras used by specific analyses (vector-clock snapshot for
    parent-child pruning, call duration for TSV overlap detection, and
    the delay that was injected before the operation, if any).
    """

    location: Location
    access_type: AccessType
    object_id: int
    thread_id: int
    timestamp: float
    ref_name: str = ""
    member: str = ""
    duration: float = 0.0
    injected_delay: float = 0.0
    #: Fork-ordering capture: the thread's ``{tid: counter}`` vector
    #: clock at this event (``None`` when clocks are not tracked).
    vc_snapshot: Optional[Dict[int, int]] = None
    event_id: int = field(default_factory=_next_event_id)

    @property
    def end_timestamp(self) -> float:
        """Timestamp at which the operation's execution window closes."""
        return self.timestamp + self.duration

    def key(self) -> Tuple[str, str, int, int]:
        """Compact identity tuple used in tests and dedup logic."""
        return (self.location.site, self.access_type.value, self.object_id, self.thread_id)


@dataclass(slots=True)
class PendingAccess:
    """The *intent* to perform an operation, shown to hooks beforehand.

    Hooks decide whether to delay based on the static location, object,
    access type and thread -- the same information TSVD and Waffle see at
    a proxy-function entry. The timestamp is the time at which the
    operation would start if no delay is injected.
    """

    location: Location
    access_type: AccessType
    object_id: int
    thread_id: int
    timestamp: float
    ref_name: str = ""
    member: str = ""


class InstrumentationHook:
    """Interface between the simulator and a delay-injection tool.

    The default implementations are no-ops so that tools override only
    what they need. All callbacks run synchronously inside the
    simulation loop; ``before_access`` returning a positive number causes
    the simulator to put the issuing thread to sleep for that many
    virtual milliseconds before the operation executes (the
    ``Thread.Sleep`` injection of the paper).
    """

    #: Extra virtual-time cost added to every instrumented operation
    #: while this hook is attached, modeling the proxy-function and
    #: logging overhead of the instrumented binary. Subclasses tune it.
    per_op_overhead_ms: float = 0.0

    #: The kind of run this hook drives, as its telemetry record names
    #: it: ``baseline`` here; the preparation, detection, online and
    #: replay hooks name their own.
    run_kind: str = "baseline"

    def on_run_start(self, sim: "Any") -> None:
        """Called once before the root thread starts."""

    def on_thread_start(self, thread: "Any") -> None:
        """Called when a simulated thread begins executing."""

    def on_thread_end(self, thread: "Any") -> None:
        """Called when a simulated thread finishes (normally or not)."""

    def before_access(self, pending: PendingAccess) -> float:
        """Return the delay (ms) to inject before the operation; 0 for none."""
        return 0.0

    def after_access(self, event: AccessEvent) -> None:
        """Called after the operation executed, with its final record."""

    def on_failure(self, thread: "Any", error: BaseException) -> None:
        """Called when an exception escapes a simulated thread."""

    def on_run_end(self, sim: "Any") -> None:
        """Called once after the simulation stops."""


class NoopHook(InstrumentationHook):
    """Uninstrumented execution: the 'Base' configuration of Table 5."""


def consumes_events(hook: InstrumentationHook) -> bool:
    """Does ``hook`` override ``after_access``, on its class or instance?

    Backends skip building :class:`AccessEvent` records for hooks that
    would only discard them.
    """
    after = hook.after_access
    return getattr(after, "__func__", None) is not InstrumentationHook.after_access


def clamp_delay(value: Any) -> float:
    """Validate a ``before_access`` result as an injected delay.

    Anything ``float()`` accepts is a number; negative results and NaN
    mean "no delay". Both backends route hook results through here so
    they agree on what a hook may return.
    """
    try:
        delay = float(value)
    except (TypeError, ValueError):
        raise TypeError("hook.before_access must return a number, got %r" % (value,)) from None
    return delay if delay > 0.0 else 0.0


class CostModel:
    """Virtual-time costs of simulated operations.

    ``op_cost_ms`` is the execution cost of one instrumented operation in
    the *uninstrumented* binary; hooks add their own ``per_op_overhead_ms``
    on top. ``jitter_frac`` scales a uniform perturbation drawn from the
    scheduler's seeded RNG, modeling the run-to-run timing noise that
    makes MemOrder bugs probabilistic in the first place.
    """

    __slots__ = ("op_cost_ms", "jitter_frac")

    def __init__(self, op_cost_ms: float = 0.3, jitter_frac: float = 0.35):
        if op_cost_ms <= 0:
            raise ValueError("op_cost_ms must be positive")
        if not 0 <= jitter_frac < 1:
            raise ValueError("jitter_frac must be in [0, 1)")
        self.op_cost_ms = op_cost_ms
        self.jitter_frac = jitter_frac

    def sample_op_cost(self, rng) -> float:
        """Draw the cost of one operation, with seeded jitter."""
        if self.jitter_frac == 0:
            return self.op_cost_ms
        lo = 1.0 - self.jitter_frac
        hi = 1.0 + self.jitter_frac
        return self.op_cost_ms * rng.uniform(lo, hi)
