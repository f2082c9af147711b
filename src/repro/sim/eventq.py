"""Errors raised by the DES engine's event loop (:mod:`repro.sim.engine`).

The event queue itself is the binary heap inside
:class:`~repro.sim.engine.Simulator`; this module only holds the exception
types, which the engine re-exports.
"""

from __future__ import annotations

__all__ = ["SimulationError", "SimulationStalled"]


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests (e.g. scheduling in the past)."""


class SimulationStalled(SimulationError):
    """The event loop is stuck: the dispatch budget ran out with events
    still pending (``reason="budget"``), or the loop dispatched
    ``no_progress_limit`` consecutive events without the virtual clock
    advancing (``reason="no-progress"``).

    Carries the forensic state a failure record needs: the virtual clock,
    the number of events dispatched by the stalled ``run()`` call, and the
    queue depth at the moment of the stall.
    """

    def __init__(
        self, clock: float, events: int, pending: int, reason: str = "budget"
    ) -> None:
        self.clock = clock
        self.events = events
        self.pending = pending
        self.reason = reason
        super().__init__(
            f"simulation stalled ({reason}): clock={clock:.9f}s after "
            f"{events} events with {pending} events still pending"
        )
