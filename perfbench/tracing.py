"""The traced run's instruments: spans around public entry points and a
deterministic profiler per thread.

Spans are recorded from the benchmark's own files: :meth:`Tracer.wrap`
replaces a public function or method on its owner (module or class) with
a timing wrapper for the duration of the traced pass and puts the original
back afterwards.  Nothing under ``src/`` changes.  Spans are kept in
memory; :meth:`Tracer.summary` reduces them to per-name totals and self
time (a span's duration minus what its child spans cover) when the run
ends.
"""

from __future__ import annotations

import cProfile
import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass
class SpanRecord:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    thread: int = 0
    children_s: float = 0.0


@dataclass
class Tracer:
    """In-memory span recorder plus the per-thread profilers."""

    spans: List[SpanRecord] = field(default_factory=list)
    profiles: List[cProfile.Profile] = field(default_factory=list)
    _restore: List[Tuple[Any, str, Any]] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _local: threading.local = field(default_factory=threading.local)

    # ----------------------------------------------------------------- spans

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attr`` until :meth:`unwrap_all`."""
        # A class attribute is taken from the class's own namespace, so
        # that restoring it puts back exactly what was there.
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(index)

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _open(self, name: str) -> int:
        stack = self._stack()
        record = SpanRecord(
            name=name,
            start=time.perf_counter(),
            parent=stack[-1] if stack else None,
            thread=threading.get_ident(),
        )
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        record = self.spans[index]
        record.end = time.perf_counter()
        self._stack().pop()
        if record.parent is not None:
            parent = self.spans[record.parent]
            parent.children_s += record.end - record.start

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"count", "total_s", "self_s"}}`` over every span."""
        table: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            row = table.setdefault(
                span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            duration = span.end - span.start
            row["count"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - span.children_s
        return table

    # -------------------------------------------------------------- profiles

    def profiled(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` run under its own profiler, kept for the merged stats
        (for work that runs on a thread the caller does not own)."""

        @functools.wraps(fn)
        def run(*args, **kwargs):
            profile = cProfile.Profile()
            profile.enable()
            try:
                return fn(*args, **kwargs)
            finally:
                profile.disable()
                with self._lock:
                    self.profiles.append(profile)

        return run
