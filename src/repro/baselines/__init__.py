"""Baseline tools and ablations (DESIGN.md section 3.3)."""

from .ablations import (
    ALL_ABLATIONS,
    DESIGN_POINT_LABELS,
    DESIGN_POINTS,
    make_ablation,
    no_custom_delay_length,
    no_interference_control,
    no_parent_child,
    no_preparation_run,
)
from .related import RELATED_TOOLS, CTrigger, DataCollider, RaceFuzzer, RaceMob
from .stress import StressRunner
from .tsvd import Tsvd, TsvdOutcome
from .wafflebasic import WaffleBasic

__all__ = [
    "ALL_ABLATIONS",
    "DESIGN_POINT_LABELS",
    "DESIGN_POINTS",
    "make_ablation",
    "no_custom_delay_length",
    "no_interference_control",
    "no_parent_child",
    "no_preparation_run",
    "RELATED_TOOLS",
    "CTrigger",
    "DataCollider",
    "RaceFuzzer",
    "RaceMob",
    "StressRunner",
    "Tsvd",
    "TsvdOutcome",
    "WaffleBasic",
]
