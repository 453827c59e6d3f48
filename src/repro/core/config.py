"""Configuration for Waffle and the baseline tools.

Defaults follow the paper's evaluation setup (section 6.1): a near-miss
window of 100 ms, a fixed delay of 100 ms for WaffleBasic/Tsvd, and a
delay-scaling factor of alpha = 1.15 for Waffle's variable-length delays
(section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
@dataclass(frozen=True)
class WaffleConfig:
    """Tuning knobs shared by Waffle, WaffleBasic, Tsvd and ablations."""

    #: Near-miss window delta in ms (paper: 100 ms, the Tsvd default).
    near_miss_window_ms: float = 100.0

    #: Fixed delay length for WaffleBasic/Tsvd in ms (paper: 100 ms).
    fixed_delay_ms: float = 100.0

    #: Waffle's delay multiplier: inject ``alpha * len(l)`` (paper: 1.15).
    alpha: float = 1.15

    #: Lower bound on an injected variable-length delay, in ms. Gaps in
    #: the preparation run can be arbitrarily small; a floor keeps the
    #: injected delay long enough to actually reorder operations under
    #: timing jitter.
    min_delay_ms: float = 0.5

    #: Probability-decay constant lambda: each injection at a location
    #: that fails to expose a bug lowers that location's injection
    #: probability by this amount (section 2, "probability decay").
    decay_lambda: float = 0.1

    #: Grace window for the happens-before inference heuristic used by
    #: WaffleBasic/Tsvd: if the watched location executes within this
    #: many ms after a delay ends (and never during it), the pair is
    #: deemed ordered and removed from S.
    hb_inference_grace_ms: float = 2.0

    #: Maximum number of detection runs before giving up (the paper uses
    #: 50 as the "fails to expose" cutoff).
    max_detection_runs: int = 50

    #: Per-run virtual-time limit in ms; runs beyond it are "TimeOut"
    #: entries as in Tables 5 and 6.
    run_time_limit_ms: float = 60_000.0

    #: Extra virtual-time cost per instrumented operation while tracing
    #: (Waffle's preparation run) -- the cost of logging every access.
    record_overhead_ms: float = 0.5

    #: Extra virtual-time cost per instrumented operation during
    #: detection runs (the proxy-function dispatch cost).
    inject_overhead_ms: float = 0.020

    #: Base random seed; run ``i`` of a detection session uses
    #: ``seed + i`` so repetitions are reproducible.
    seed: int = 0

    #: Stop after the first manifested bug (the run has crashed anyway;
    #: the paper restarts the tool to hunt for further bugs).
    stop_at_first_bug: bool = True

    # ---- Design-point switches (Table 7 ablations) -------------------

    #: Prune candidate pairs ordered by parent-child fork relationships
    #: using TLS vector clocks (section 4.1).
    parent_child_analysis: bool = True

    #: Use a dedicated delay-free preparation run (section 4.2). When
    #: disabled, Waffle degenerates to online identification.
    preparation_run: bool = True

    #: Use per-location variable-length delays (section 4.3). When
    #: disabled, every injection uses ``fixed_delay_ms``.
    custom_delay_length: bool = True

    #: Skip delays that would interfere with an ongoing delay, using the
    #: interference set I (section 4.4).
    interference_control: bool = True

    def without(self, design_point: str) -> "WaffleConfig":
        """Return a copy with one Table 7 design point disabled."""
        flags = {
            "parent_child_analysis": "parent_child_analysis",
            "preparation_run": "preparation_run",
            "custom_delay_length": "custom_delay_length",
            "interference_control": "interference_control",
        }
        if design_point not in flags:
            raise ValueError(
                "unknown design point %r (expected one of %s)"
                % (design_point, ", ".join(sorted(flags)))
            )
        return replace(self, **{flags[design_point]: False})

    def with_seed(self, seed: int) -> "WaffleConfig":
        return replace(self, seed=seed)


DEFAULT_CONFIG = WaffleConfig()
