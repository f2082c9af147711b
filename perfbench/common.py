"""Paths and small helpers shared by the benchmark's modules."""

from __future__ import annotations

import functools
import hashlib
import json
import math
import pickle
import time
from pathlib import Path
from typing import List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "references"

# Seconds the speed kernel takes on the reference host.  Every timing the
# benchmark reports is scaled to that host's speed (see speed_kernel_s).
REFERENCE_KERNEL_S = 0.020


@functools.lru_cache(maxsize=None)
def _kernel_arrays():
    import numpy

    ramp = numpy.linspace(0.0, 1.0, 2000)
    return ramp, ramp[::-1].copy()


def speed_kernel_s() -> float:
    """Seconds this host takes, right now, for a fixed kernel of about
    20 ms: pure-Python integer arithmetic, then numpy calls on arrays of
    2000 elements (the fluid engine's per-flow vectors).

    A shared virtual machine changes speed by up to half for minutes at a
    time, invisibly to the guest: process CPU time grows exactly as wall
    time does, with no steal time.  The workloads call this between timed
    steps, and each step's seconds are multiplied by
    ``REFERENCE_KERNEL_S / kernel seconds`` around it, which turns host
    seconds into seconds on the reference host.  The kernel is code of the
    benchmark alone, so a change to the program does not move it.
    """
    ramp, fall = _kernel_arrays()
    import numpy

    start = time.perf_counter()
    total = 0
    for i in range(120_000):
        total += i * i % 7
    for _ in range(500):
        low = numpy.minimum(ramp * 1.0001, fall)
        low.sum()
        numpy.where(low > 0.5, low, fall)
    return time.perf_counter() - start


# Seconds the read kernel takes on the reference host (see read_kernel_s).
REFERENCE_READ_KERNEL_S = 0.020

# A canonical key of the size of a run spec's, hashed by the read kernel.
_READ_KERNEL_KEY = {"spec": {"kind": "fct", "scheme": "ECN#", "seed": 21,
                             "extras": [["a", 1], ["b", 2.5]],
                             "flows": list(range(50))}}


@functools.lru_cache(maxsize=None)
def _read_kernel_blob() -> bytes:
    return pickle.dumps({
        "fcts": [(i, i * 1.5, i / 7, "web") for i in range(3000)],
        "series": {f"k{i}": list(range(20)) for i in range(100)},
    })


def read_kernel_s(path: Path) -> float:
    """Seconds this host takes, right now, for a fixed kernel of about
    20 ms of the kind of work a warm request does: read a file of about
    83 KB, hash it, unpickle it and hash a canonical JSON key, 20 times.

    :func:`speed_kernel_s` follows the interpreter-bound work of a cold
    request.  A warm request (a result-cache replay, a store re-read) is
    file reads, hashing and object allocation, which a neighbour on the
    host slows by another factor than it slows integer arithmetic; warm
    bursts are gauged with this kernel instead (``METRICS.md``, "Timing
    basis").  The file is written at ``path`` on the first call.
    """
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(_read_kernel_blob())
    start = time.perf_counter()
    for _ in range(20):
        with open(path, "rb") as handle:
            blob = handle.read()
        hashlib.sha256(blob).digest()
        pickle.loads(blob)
        hashlib.sha256(
            json.dumps(_READ_KERNEL_KEY, sort_keys=True).encode()
        ).hexdigest()
    return time.perf_counter() - start


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    KEEP = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, error: Optional[str]) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.problems) < self.KEEP:
                self.problems.append(error[:400])
