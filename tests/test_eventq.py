"""Contract tests for the engine's event queue (the heap in ``Simulator``).

The dispatch contract is a total order by ``(time, insertion sequence)``.
Randomized workloads are checked against :class:`_ReferenceLoop`, a
deliberately naive queue that finds the next event by a linear ``min``
scan -- slow, but obviously right -- so any ordering slip in the heap,
the ``until``/``max_events`` bounds or Timer's lazy cancellation shows up
as a trace mismatch.  The last test pins one full incast cell to the
counters recorded in ``perfbench/references/packet_incast.json``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator, Timer


class _ReferenceLoop:
    """The engine's scheduling API over an unsorted list: each dispatch
    takes the ``(time, sequence)`` minimum by a linear scan."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self._events = []
        self._sequence = 0

    def schedule(self, delay, callback, *args):
        self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, when, callback, *args):
        self._sequence += 1
        self._events.append((when, self._sequence, callback, args))

    @property
    def pending_events(self):
        return len(self._events)

    def run(self, until=None, max_events=None):
        budget = max_events
        while self._events and budget != 0:
            event = min(self._events, key=lambda e: (e[0], e[1]))
            if until is not None and event[0] > until:
                break
            self._events.remove(event)
            self.now = event[0]
            event[2](*event[3])
            self.events_processed += 1
            if budget is not None:
                budget -= 1
        if until is not None and self.now < until:
            self.now = until


# 0.0 and tiny delays force same-timestamp ties and out-of-order inserts.
DELAYS = [0.0, 1e-9, 1e-7, 1e-7, 1e-6, 1e-6, 5e-6, 1e-4]


def _random_workload(sim, seed, n_initial=32):
    """Seed a randomized self-scheduling workload and return its trace.
    The RNG is consumed inside callbacks, so the trace (and the RNG stream
    itself) only matches across loops if the dispatch order matches
    exactly -- any divergence amplifies immediately."""
    rng = random.Random(seed)
    trace = []
    counter = [0]

    def fire(tag):
        trace.append((sim.now, tag))
        for _ in range(rng.randrange(3)):
            counter[0] += 1
            sim.schedule(rng.choice(DELAYS), fire, counter[0])

    for index in range(n_initial):
        sim.schedule(rng.choice([1e-6, 2e-6, 2e-6, 3e-6]), fire, -index)
    return trace


def _run_trace(sim, seed, until=None, max_events=2000):
    trace = _random_workload(sim, seed)
    sim.run(until=until, max_events=max_events)
    return trace, sim.events_processed, sim.now


class TestDispatchOrder:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_dispatch_trace_matches_reference(self, seed):
        assert _run_trace(Simulator(), seed) == _run_trace(_ReferenceLoop(), seed)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_until_trace_matches_reference(self, seed):
        heap = _run_trace(Simulator(), seed, until=4e-6, max_events=None)
        reference = _run_trace(_ReferenceLoop(), seed, until=4e-6, max_events=None)
        assert heap == reference

    def test_same_timestamp_ties_fifo(self):
        sim = Simulator()
        order = []
        # Interleave two timestamps; ties must dispatch in scheduling
        # order regardless of interleaving.
        for index in range(50):
            sim.schedule(1e-6, order.append, ("a", index))
            sim.schedule(2e-6, order.append, ("b", index))
        sim.run()
        assert order == [("a", i) for i in range(50)] + [("b", i) for i in range(50)]

    def test_until_is_inclusive_and_resumable(self):
        sim = Simulator()
        trace = []

        def fire(tag):
            trace.append((sim.now, tag))
            if tag < 40:
                sim.schedule(1e-6, fire, tag + 2)

        sim.schedule(1e-6, fire, 0)
        sim.schedule(2e-6, fire, 1)
        sim.run(until=5e-6)  # inclusive: the event AT 5e-6 runs
        assert trace and trace[-1][0] == pytest.approx(5e-6)
        assert sim.now == 5e-6
        cut = len(trace)
        sim.run()  # resume to idle
        assert [tag for _, tag in trace] == list(range(42))
        assert all(t <= 5e-6 * (1 + 1e-12) for t, _ in trace[:cut])
        assert all(t > 5e-6 for t, _ in trace[cut:])

    def test_max_events_stepping_matches_one_shot(self):
        """Draining in small max_events steps must visit the same trace as
        one uninterrupted run."""
        full = _run_trace(Simulator(), seed=7, max_events=1500)[0]
        sim = Simulator()
        trace = _random_workload(sim, seed=7)
        while sim.events_processed < 1500 and sim.pending_events:
            sim.run(max_events=min(37, 1500 - sim.events_processed))
        assert trace == full

    def test_pending_events(self):
        sim = Simulator()
        for index in range(10):
            sim.schedule(1e-6 * (index + 1), lambda: None)
        assert sim.pending_events == 10
        sim.run(until=5e-6)
        assert sim.pending_events == 5
        sim.run()
        assert sim.pending_events == 0

    def test_scheduling_in_the_past_raises(self):
        sim = Simulator()
        sim.schedule(1e-6, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="in the past"):
            sim.schedule(-1e-9, lambda: None)
        with pytest.raises(SimulationError, match="current time"):
            sim.schedule_at(0.5e-6, lambda: None)
        assert sim.pending_events == 0  # a rejected event is not queued
        sim.schedule_at(sim.now, lambda: None)  # "now" itself is allowed
        assert sim.pending_events == 1


class TestLiveCounter:
    @pytest.mark.parametrize(
        "bounds", [{}, {"max_events": 10}, {"until": 1.0}],
        ids=["unbounded", "max_events", "until"],
    )
    def test_callback_sees_live_count_on_default_path(self, bounds):
        # No profiler, no no_progress_limit: the uninstrumented loop.
        # Each callback sees the number of events dispatched before it.
        sim = Simulator()
        assert sim.profiler is None
        observed = []
        for index in range(4):
            sim.schedule(0.1 * (index + 1), lambda: observed.append(sim.events_processed))
        sim.run(**bounds)
        assert observed == [0, 1, 2, 3]
        assert sim.events_processed == 4


class TestTimerInterplay:
    """Timer's deadline-polling leaves stale wake-ups in the queue; they
    must be inert and the firing time must be exact."""

    def _rto_pattern(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        # ACK-clocked restarts: push the deadline out 20 times, then go
        # quiet and let the RTO elapse.
        for index in range(20):
            sim.schedule(index * 1e-4, timer.restart, 3e-4)
        sim.run()
        return fired, sim.events_processed, sim.now

    def test_restart_pattern_fires_identically(self):
        heap = self._rto_pattern(Simulator())
        assert heap == self._rto_pattern(_ReferenceLoop())
        assert heap[0] == [pytest.approx(19e-4 + 3e-4)]

    def test_late_cancel_suppresses_on_both(self):
        for sim in (Simulator(), _ReferenceLoop()):
            fired = []
            timer = Timer(sim, lambda: fired.append(sim.now))
            timer.restart(1e-3)
            sim.schedule(9e-4, timer.cancel)  # just before expiry
            sim.run()
            assert fired == []
            assert sim.pending_events == 0

    def test_cancel_restart_storm_matches(self):
        def storm(sim):
            fired = []
            timer = Timer(sim, lambda: fired.append(sim.now))
            rng = random.Random(13)

            def churn(step):
                action = rng.randrange(3)
                if action == 0:
                    timer.restart(rng.choice([1e-4, 2e-4, 5e-4]))
                elif action == 1:
                    timer.cancel()
                if step < 60:
                    sim.schedule(rng.choice([5e-5, 1e-4]), churn, step + 1)

            sim.schedule(0.0, churn, 0)
            sim.run()
            return fired, sim.events_processed

        heap = storm(Simulator())
        assert heap == storm(_ReferenceLoop())
        assert heap[0]  # the storm does let the timer fire


class TestFigurePin:
    def test_fig10_ecn_sharp_seed51_matches_reference(self):
        """One full microscopic incast cell (topology, DCTCP, ECN#,
        monitors) dispatches exactly the events, marks and drops the
        benchmark's reference records for the same cell."""
        from repro.experiments.executor import execute_spec
        from repro.validation.grids import build_cells

        cell = next(
            c for c in build_cells("tiny")
            if (c.figure, c.key) == ("fig10", "scheme=ECN#")
        )
        spec = next(s for s in cell.specs if s.seed == 51)
        result = execute_spec(spec)
        got = {
            "events": result.events,
            "marks": result.marks,
            "drops": result.drops,
            "timeouts": result.query_timeouts,
            "completed": result.queries_completed,
        }
        assert got == {
            "events": 337_647,
            "marks": 4874,
            "drops": 0,
            "timeouts": 0,
            "completed": 100,
        }
