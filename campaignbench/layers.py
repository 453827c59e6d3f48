"""Fold a cProfile dump of one campaign into the system's layers.

Every function defined in ``src/repro`` belongs to the layer of its
module (table below; a module not listed falls back to its package).
Module bodies and the import machinery are ``startup``. A function from
outside the package -- the standard library or a builtin such as
``json.dumps`` or ``os.replace`` -- is charged to the layers of its
callers, split by the self time each call edge carried, so a layer's
self time includes the library work it asked for.
"""

from __future__ import annotations

import pstats
import sys
from typing import Dict, Tuple

#: Layers reported, in output order.
LAYERS = (
    "cli",
    "harness",
    "sim_scheduler",
    "sim_dispatch",
    "hook",
    "nearmiss",
    "analysis",
    "detector",
    "workload",
    "obs",
    "store_io",
    "startup",
    "other",
)

_MODULE_LAYER = {
    "__main__.py": "cli",
    "harness/__main__.py": "cli",
    "harness/cli.py": "cli",
    "harness/tables.py": "cli",
    "harness/cache.py": "store_io",
    "harness/store.py": "store_io",
    "core/persistence.py": "store_io",
    "sim/scheduler.py": "sim_scheduler",
    "sim/thread.py": "sim_scheduler",
    "sim/clock.py": "sim_scheduler",
    "sim/sync.py": "sim_scheduler",
    "sim/tasks.py": "sim_scheduler",
    "core/runtime.py": "hook",
    "core/delay_policy.py": "hook",
    "core/nearmiss.py": "nearmiss",
    "core/candidates.py": "nearmiss",
    "core/analyzer.py": "analysis",
    "core/interference.py": "analysis",
    "core/vector_clock.py": "analysis",
    "core/tree_clock.py": "analysis",
    "core/trace.py": "analysis",
    "core/events.py": "analysis",
    "core/synthtrace.py": "analysis",
}

_PACKAGE_LAYER = {
    "harness": "harness",
    "sim": "sim_dispatch",
    "pythreads": "sim_dispatch",
    "core": "detector",
    "baselines": "detector",
    "apps": "workload",
    "gen": "workload",
    "obs": "obs",
}

Func = Tuple[str, int, str]


class _Folder:
    def __init__(self, stats: dict, package_dir: str) -> None:
        self.stats = stats
        self.prefix = package_dir.rstrip("/") + "/"
        self.memo: Dict[Func, Dict[str, float]] = {}
        self.active: set = set()

    def own_layer(self, func: Func):
        filename, _, name = func
        if name == "<module>" or filename.startswith("<frozen importlib"):
            return "startup"
        if not filename.startswith(self.prefix):
            return None
        rel = filename[len(self.prefix):]
        layer = _MODULE_LAYER.get(rel)
        if layer is None:
            layer = _PACKAGE_LAYER.get(rel.split("/", 1)[0], "other")
        return layer

    def shares(self, func: Func) -> Dict[str, float]:
        cached = self.memo.get(func)
        if cached is not None:
            return cached
        layer = self.own_layer(func)
        if layer is not None:
            result = {layer: 1.0}
        else:
            result = self._from_callers(func)
        self.memo[func] = result
        return result

    def _from_callers(self, func: Func) -> Dict[str, float]:
        entry = self.stats.get(func)
        callers = entry[4] if entry else {}
        edges = [(c, e) for c, e in callers.items() if c not in self.active and c != func]
        if not edges:
            return {"other": 1.0}
        # Weight by the self time each caller edge carried; fall back to
        # call counts when every edge is below the timer's resolution.
        weights = [e[2] for _, e in edges]
        if sum(weights) <= 0:
            weights = [e[0] for _, e in edges]
        total = float(sum(weights)) or 1.0
        self.active.add(func)
        try:
            result: Dict[str, float] = {}
            for (caller, _), weight in zip(edges, weights):
                if weight <= 0:
                    continue
                for layer, share in self.shares(caller).items():
                    result[layer] = result.get(layer, 0.0) + share * weight / total
        finally:
            self.active.discard(func)
        return result or {"other": 1.0}


def fold(profile_path: str, package_dir: str) -> Tuple[Dict[str, float], int]:
    """Per-layer self seconds of one profiled campaign, and the number of
    instrumented operations it executed (calls of any hook's
    ``before_access``, which the simulator invokes once per operation)."""
    stats = pstats.Stats(profile_path).stats
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20000))
    try:
        folder = _Folder(stats, package_dir)
        layers = {name: 0.0 for name in LAYERS}
        ops = 0
        for func, (_, calls, self_s, _, _) in stats.items():
            if func[2] == "before_access":
                ops += calls
            for layer, share in folder.shares(func).items():
                layers[layer] += self_s * share
    finally:
        sys.setrecursionlimit(limit)
    return layers, ops
