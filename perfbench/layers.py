"""Group deterministic-profiler statistics into the benchmark's layers.

A layer is named after the ``repro`` module (or package) that owns the
code: ``sim.port`` is ``src/repro/sim/port.py``, ``tcp`` is the whole
``src/repro/tcp/`` package.  Every module under ``src/repro/`` maps to
exactly one layer (:func:`layer_of_module`); ``numpy`` collects time spent
inside numpy; whatever maps to neither is reported as ``unmapped`` instead
of being dropped.

Built-in functions (``heapq.heappush``, ``deque.append``, ...) have no
module of their own, so their self time and calls are charged to the layer
of the function that called them, split per caller as the profiler
recorded it.  That puts, e.g., the generator ``sum`` of
``Scheduler.total_bytes`` on ``sim.scheduler`` rather than on builtins.
"""

from __future__ import annotations

import functools
import os
import pstats
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from common import SRC

# The layers the benchmark reports, in report order.  The first block are
# the layers named by the benchmark's design; the second block exists so
# that every module of the package has exactly one home.
LAYERS: Tuple[str, ...] = (
    "sim.eventq",
    "sim.engine",
    "sim.port",
    "sim.scheduler",
    "sim.queues",
    "sim.network",
    "sim.packet",
    "tcp",
    "core",
    "netem",
    "workloads",
    "fluid.engine",
    "fluid.marking",
    "fluid.population",
    "numpy",
    "experiments.executor",
    "scenarios.campaign",
    "service.daemon",
    "service.index",
    "service.query",
    "service.cache",
    "telemetry",
    # homes for the remaining modules
    "core.stats",
    "sim.monitor",
    "sim.other",
    "topology",
    "fluid.runner",
    "experiments",
    "scenarios.compile",
    "service.client",
    "repro.other",
    "unmapped",
)

# Layers whose per-event call counts are host-independent work measures.
PER_EVENT_LAYERS: Tuple[str, ...] = (
    "sim.eventq",
    "sim.engine",
    "sim.port",
    "sim.scheduler",
    "sim.queues",
    "sim.network",
    "sim.packet",
    "sim.monitor",
    "tcp",
    "core",
    "netem",
)

FLUID_LAYERS: Tuple[str, ...] = (
    "fluid.engine", "fluid.marking", "fluid.population", "numpy",
)

# Module path (relative to the ``repro`` package, dotted, without the
# ``__init__`` suffix for packages) -> layer.  The longest matching prefix
# wins, so ``sim.port`` beats ``sim``.
_PREFIXES: Dict[str, str] = {
    "sim.eventq": "sim.eventq",
    "sim.engine": "sim.engine",
    "sim.port": "sim.port",
    "sim.scheduler": "sim.scheduler",
    "sim.queues": "sim.queues",
    "sim.network": "sim.network",
    "sim.packet": "sim.packet",
    "sim.monitor": "sim.monitor",
    "sim": "sim.other",
    "tcp": "tcp",
    "core": "core",
    "core.stats_util": "core.stats",
    "netem": "netem",
    "workloads": "workloads",
    "topology": "topology",
    "fluid.engine": "fluid.engine",
    "fluid.marking": "fluid.marking",
    "fluid.population": "fluid.population",
    "fluid": "fluid.runner",
    "experiments.executor": "experiments.executor",
    "experiments": "experiments",
    "scenarios.campaign": "scenarios.campaign",
    "scenarios.coordination": "scenarios.campaign",
    "scenarios": "scenarios.compile",
    "service.index": "service.index",
    "service.query": "service.query",
    "service.cache": "service.cache",
    "service.client": "service.client",
    "service": "service.daemon",
    "telemetry": "telemetry",
}


def layer_of_module(dotted: str) -> str:
    """Layer of a module given its dotted path inside ``repro``
    (``"sim.port"``, ``"service"`` for ``service/__init__.py``, ``""`` for
    the package's own ``__init__``)."""
    parts = dotted.split(".") if dotted else []
    for end in range(len(parts), 0, -1):
        layer = _PREFIXES.get(".".join(parts[:end]))
        if layer is not None:
            return layer
    return "repro.other"


PACKAGE_DIR = SRC / "repro"


def module_of_path(path: str) -> Optional[str]:
    """Dotted module path inside ``repro`` for a source file path, or
    ``None`` when the file is not part of the package."""
    try:
        rel = Path(path).relative_to(PACKAGE_DIR)
    except ValueError:
        return None
    if rel.suffix != ".py":
        return None
    parts = list(rel.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


@functools.lru_cache(maxsize=None)
def _numpy_dir() -> str:
    import numpy

    return str(Path(numpy.__file__).parent) + os.sep


def _is_numpy(filename: str, funcname: str) -> bool:
    if filename == "~":
        return "numpy" in funcname
    return filename.startswith(_numpy_dir())


def layer_of_function(filename: str, funcname: str) -> Optional[str]:
    """Layer owning a profiled function, or ``None`` for a built-in that
    is charged to its callers."""
    if _is_numpy(filename, funcname):
        return "numpy"
    if filename == "~":
        return None
    module = module_of_path(filename)
    if module is None:
        return "unmapped"
    return layer_of_module(module)


def group_stats(stats: pstats.Stats) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s": seconds, "calls": count}}`` for every layer in
    :data:`LAYERS` (zero when untouched)."""
    table = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    raw = stats.stats  # type: ignore[attr-defined]
    for (filename, _line, funcname), entry in raw.items():
        _cc, ncalls, tottime, _ct, callers = entry
        layer = layer_of_function(filename, funcname)
        if layer is not None:
            table[layer]["self_s"] += tottime
            table[layer]["calls"] += ncalls
            continue
        # Built-in: split by caller.  Each caller entry is
        # (ncalls, primitive calls, tottime, cumtime) for that edge.
        charged_time = 0.0
        charged_calls = 0
        for (cfile, _cline, cname), edge in callers.items():
            caller_layer = layer_of_function(cfile, cname) or "unmapped"
            table[caller_layer]["self_s"] += edge[2]
            table[caller_layer]["calls"] += edge[0]
            charged_time += edge[2]
            charged_calls += edge[0]
        # Calls with no recorded caller (profiler start-up) stay visible.
        table["unmapped"]["self_s"] += max(0.0, tottime - charged_time)
        table["unmapped"]["calls"] += max(0, ncalls - charged_calls)
    return table


def package_modules() -> List[str]:
    """Dotted paths of every module of the package."""
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        module = module_of_path(str(path))
        if module is not None:
            found.append(module)
    return found


def merged_stats(profiles: Iterable) -> Optional[pstats.Stats]:
    """One :class:`pstats.Stats` over several ``cProfile.Profile`` runs
    (one per thread), or ``None`` when there were none."""
    merged: Optional[pstats.Stats] = None
    for profile in profiles:
        if merged is None:
            merged = pstats.Stats(profile)
        else:
            merged.add(profile)
    return merged
