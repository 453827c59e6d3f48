"""Experiment harness: per-table drivers, metrics, renderers, CLI."""

from . import experiments, faults, metrics, supervisor, tables
from .cache import CacheStats, PlanCache, PrepResult, config_hash, open_cache
from .faults import FAULT_KINDS, HangError, HarnessFault, classify
from .parallel import map_units, resolve_jobs
from .supervisor import CampaignStats, RetryPolicy, Supervisor, supervised
from .runner import (
    SingleRun,
    analyze_test,
    baseline_run,
    online_pair,
    prepare_test,
    run_baseline,
    run_online_detection,
    run_planned_detection,
    run_recording,
    test_time_limit,
)

__all__ = [
    "experiments",
    "faults",
    "metrics",
    "supervisor",
    "tables",
    "FAULT_KINDS",
    "HangError",
    "HarnessFault",
    "classify",
    "CampaignStats",
    "RetryPolicy",
    "Supervisor",
    "supervised",
    "CacheStats",
    "PlanCache",
    "PrepResult",
    "config_hash",
    "open_cache",
    "map_units",
    "resolve_jobs",
    "SingleRun",
    "analyze_test",
    "baseline_run",
    "online_pair",
    "prepare_test",
    "run_baseline",
    "run_online_detection",
    "run_planned_detection",
    "run_recording",
    "test_time_limit",
]
