"""Discrete-event simulation engine.

A :class:`Simulator` owns a monotonic virtual clock and a binary-heap event
queue of ``(time, insertion sequence, callback, args)`` tuples.  The
dispatch contract is the total order of those tuples: earlier virtual
times first, and among events carrying the same timestamp, the one
scheduled first runs first -- which keeps runs fully deterministic.
``events_processed`` is updated per dispatch on every run path, so a
callback can read a live count mid-run.

Cancellable timers (used heavily by TCP retransmission logic) are provided
by :class:`Timer`.  A timer keeps at most a handful of queue entries alive
no matter how often it is restarted: ``restart`` only schedules a wake-up
when the new expiry is earlier than every outstanding one, and a wake-up
that finds the deadline still in the future re-arms itself at the current
expiry.  This turns the per-ACK ``restart(rto)`` pattern from one queue
entry per ACK into about two per RTO interval.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Callable, List, Optional, Tuple

from ..telemetry.profiler import HEAP_SAMPLE_MASK, RunProfiler
from ..telemetry.runtime import get_active
from .eventq import SimulationError, SimulationStalled

__all__ = [
    "Simulator",
    "Timer",
    "SimulationError",
    "SimulationStalled",
]

_INF = float("inf")


class Simulator:
    """Event loop with a virtual clock.

    Typical usage::

        sim = Simulator()
        sim.schedule(0.001, callback, arg1, arg2)
        sim.run(until=1.0)

    ``now`` and ``events_processed`` are plain attributes: the clock is
    read on nearly every callback, so it costs one slot load.  The
    ``profiler`` attribute (a :class:`RunProfiler`, or None) is taken from
    the active telemetry hub at construction and may be replaced later.
    """

    __slots__ = (
        "now",
        "events_processed",
        "profiler",
        "_heap",
        "_sequence",
        "_running",
    )

    def __init__(self) -> None:
        self.now: float = 0.0
        self.events_processed: int = 0
        self._heap: List[Tuple[float, int, Callable[..., None], tuple]] = []
        self._sequence: int = 0
        self._running: bool = False
        telemetry = get_active()
        self.profiler: Optional[RunProfiler] = (
            telemetry.profiler if telemetry is not None else None
        )

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        self._sequence = seq = self._sequence + 1
        heappush(self._heap, (self.now + delay, seq, callback, args))

    def schedule_at(self, when: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at absolute virtual time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at {when}, current time is {self.now}"
            )
        self._sequence = seq = self._sequence + 1
        heappush(self._heap, (when, seq, callback, args))

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including lazily cancelled ones)."""
        return len(self._heap)

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        raise_on_stall: bool = False,
        no_progress_limit: Optional[int] = None,
    ) -> None:
        """Dispatch events in time order.

        Stops when the event queue drains, when the next event lies beyond
        ``until``, or after ``max_events`` dispatches.  On an ``until`` stop
        the clock is advanced to ``until`` so that subsequent scheduling is
        relative to the requested horizon.

        ``raise_on_stall=True`` turns a ``max_events`` exhaustion with
        events still runnable into a :class:`SimulationStalled` instead of
        a silent truncation (callers using ``max_events`` as a cooperative
        budget keep the default).  ``no_progress_limit`` additionally
        raises when that many consecutive events dispatch without the
        virtual clock advancing -- the signature of an event loop
        rescheduling itself at the same instant forever.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        try:
            heap = self._heap
            start_events = self.events_processed
            limit = None if max_events is None else start_events + max_events
            profiler = self.profiler
            if profiler is None and no_progress_limit is None:
                self._drain(until, limit)
            else:
                self._run_instrumented(until, limit, profiler, no_progress_limit)
            if (
                raise_on_stall
                and limit is not None
                and self.events_processed >= limit
                and heap
                and (until is None or heap[0][0] <= until)
            ):
                raise SimulationStalled(
                    clock=self.now,
                    events=self.events_processed - start_events,
                    pending=len(heap),
                    reason="budget",
                )
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False

    def _drain(self, until: Optional[float], limit: Optional[int]) -> None:
        """The default dispatch loop: pop, advance the clock, call, count.

        ``limit`` is an absolute ``events_processed`` value, not a delta.
        Each combination of bounds gets its own loop so the common
        unbounded run tests nothing but the heap per event.
        """
        heap = self._heap
        pop = heappop  # local binding: dominant call in the hot loop
        if until is None:
            if limit is None:
                while heap:
                    when, _, callback, args = pop(heap)
                    self.now = when
                    callback(*args)
                    self.events_processed += 1
            else:
                while heap and self.events_processed < limit:
                    when, _, callback, args = pop(heap)
                    self.now = when
                    callback(*args)
                    self.events_processed += 1
        else:
            while heap:
                if heap[0][0] > until:
                    break
                if limit is not None and self.events_processed >= limit:
                    break
                when, _, callback, args = pop(heap)
                self.now = when
                callback(*args)
                self.events_processed += 1

    def _run_instrumented(
        self,
        until: Optional[float],
        limit: Optional[int],
        profiler: Optional[RunProfiler],
        no_progress_limit: Optional[int],
    ) -> None:
        """Per-event loop: profiler sampling and/or no-progress detection."""
        heap = self._heap
        start_events = self.events_processed
        until_bound = _INF if until is None else until
        wall_start = perf_counter()
        virtual_start = self.now
        peak_depth = len(heap)
        last_clock = self.now
        same_clock = 0
        no_progress_stall = False
        while True:
            if limit is not None and self.events_processed >= limit:
                break
            if not heap or heap[0][0] > until_bound:
                break
            when, _, callback, args = heappop(heap)
            self.now = when
            self.events_processed += 1
            callback(*args)
            if no_progress_limit is not None:
                if when > last_clock:
                    last_clock = when
                    same_clock = 0
                else:
                    same_clock += 1
                    if same_clock >= no_progress_limit:
                        no_progress_stall = True
                        break
            if (
                profiler is not None
                and self.events_processed & HEAP_SAMPLE_MASK == 0
                and len(heap) > peak_depth
            ):
                peak_depth = len(heap)
        if profiler is not None:
            profiler.record_run(
                events=self.events_processed - start_events,
                wall_seconds=perf_counter() - wall_start,
                virtual_seconds=self.now - virtual_start,
                peak_heap_depth=peak_depth,
            )
        if no_progress_stall:
            raise SimulationStalled(
                clock=self.now,
                events=self.events_processed - start_events,
                pending=len(heap),
                reason="no-progress",
            )

    def run_until_idle(
        self,
        max_events: int = 100_000_000,
        raise_on_stall: bool = True,
        no_progress_limit: Optional[int] = None,
    ) -> None:
        """Run until no events remain (bounded by ``max_events``).

        Exhausting ``max_events`` with events still queued means the run
        did not reach idle -- by default that raises
        :class:`SimulationStalled` (with the clock, dispatch count and
        queue depth) instead of returning a silently truncated simulation.
        """
        self.run(
            until=None,
            max_events=max_events,
            raise_on_stall=raise_on_stall,
            no_progress_limit=no_progress_limit,
        )


class Timer:
    """A restartable one-shot timer bound to a :class:`Simulator`.

    ``restart`` supersedes any previously scheduled firing; ``cancel``
    suppresses the pending firing.  Both are O(1).

    Implementation: deadline polling.  The timer keeps ``_wakes``, the
    strictly-ascending times of its outstanding wake-up events, and
    maintains one invariant -- *while armed, the earliest outstanding
    wake-up is at or before the expiry*.  ``restart`` therefore only
    schedules when the new expiry is earlier than every outstanding
    wake-up (only then is the invariant at risk); a wake-up that arrives
    early (because the deadline moved later after it was scheduled)
    re-arms itself at the current expiry.  The firing time is exact: the
    callback runs at precisely ``expiry``, never late, because a wake-up
    exists at or before it and re-arming from there lands on it.

    Compared to the seed's push-per-restart + generation-counter design,
    the steady-state TCP pattern (``restart(rto)`` on every ACK) costs no
    queue traffic at all until an RTO interval actually elapses.
    """

    __slots__ = ("_sim", "_callback", "_armed", "expiry", "_wakes")

    def __init__(self, sim: Simulator, callback: Callable[[], None]) -> None:
        self._sim = sim
        self._callback = callback
        self._armed = False
        self.expiry: float = _INF
        self._wakes: List[float] = []

    @property
    def armed(self) -> bool:
        """Whether a firing is currently pending."""
        return self._armed

    def restart(self, delay: float) -> None:
        """(Re)schedule the timer ``delay`` seconds from now."""
        self._armed = True
        self.expiry = when = self._sim.now + delay
        wakes = self._wakes
        if not wakes or when < wakes[0]:
            wakes.insert(0, when)
            self._sim.schedule(delay, self._wake)

    def cancel(self) -> None:
        """Suppress any pending firing.  Outstanding wake-ups stay queued
        and discard themselves when they pop (lazy cancellation)."""
        self._armed = False
        self.expiry = _INF

    def _wake(self) -> None:
        wakes = self._wakes
        del wakes[0]  # wake-ups pop in time order: this is the earliest
        if not self._armed:
            return
        expiry = self.expiry
        if expiry <= self._sim.now:
            self._armed = False
            self.expiry = _INF
            self._callback()
        elif not wakes or expiry < wakes[0]:
            # Restore the invariant: no outstanding wake-up at or before
            # the (moved-later) expiry, so plant one exactly there.
            wakes.insert(0, expiry)
            self._sim.schedule_at(expiry, self._wake)
