"""Egress ports: serialization, buffering, AQM hook points.

A :class:`Port` models one direction of a link attached to a node: it owns a
packet scheduler (one or more queues), a drop-tail buffer budget, an AQM, a
serialization rate and the propagation delay to the peer node.

The transmit loop is event-driven: a port is either idle or has exactly one
in-flight serialization event.  ``send`` enqueues (running the AQM's enqueue
hook and buffer admission) and kicks the loop if idle; each serialization
completion hands the packet to the peer after the propagation delay and pulls
the next packet (running the AQM's dequeue hook, where sojourn-time markers
act).  Every port, host NICs included, takes this one path, so the event
order of a run does not depend on which hooks a port happens to have.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from ..telemetry.runtime import dataplane_telemetry
from .engine import Simulator
from .packet import Packet
from .queues import BufferPool
from .scheduler import FifoScheduler, Scheduler

if TYPE_CHECKING:  # pragma: no cover
    from ..core.base import Aqm
    from .network import Node

__all__ = ["Port", "PortStats"]


class PortStats:
    """Per-port counters used by experiments and tests."""

    __slots__ = (
        "enqueued_packets",
        "tx_packets",
        "tx_bytes",
        "dropped_overflow",
        "dropped_aqm",
    )

    def __init__(self) -> None:
        self.enqueued_packets = 0
        self.tx_packets = 0
        self.tx_bytes = 0
        self.dropped_overflow = 0
        self.dropped_aqm = 0

    @property
    def dropped_total(self) -> int:
        return self.dropped_overflow + self.dropped_aqm


class Port:
    """One egress direction of a link."""

    __slots__ = (
        "sim",
        "name",
        "rate_bps",
        "propagation_delay",
        "scheduler",
        "buffer",
        "aqm",
        "peer",
        "stats",
        "_busy",
        "on_drop",
        "telemetry",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rate_bps: float,
        propagation_delay: float,
        buffer_bytes: int,
        aqm: Optional["Aqm"] = None,
        scheduler: Optional[Scheduler] = None,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("port rate must be positive")
        if propagation_delay < 0:
            raise ValueError("propagation delay cannot be negative")
        # Imported here (not at module scope) to keep repro.sim importable
        # from repro.core.base, which only needs sim.packet.
        from ..core.base import NullAqm

        self.sim = sim
        self.name = name
        self.rate_bps = rate_bps
        self.propagation_delay = propagation_delay
        self.scheduler = scheduler if scheduler is not None else FifoScheduler()
        self.buffer = BufferPool(buffer_bytes)
        self.aqm = aqm if aqm is not None else NullAqm()
        self.peer: Optional["Node"] = None
        self.stats = PortStats()
        self._busy = False
        self.on_drop: Optional[Callable[[Packet, str], None]] = None
        # Attached once here; every hot-path hook below is a single
        # ``is not None`` check when telemetry is inactive.
        self.telemetry = dataplane_telemetry()
        if self.telemetry is not None:
            self.telemetry.register_port(self)

    # ------------------------------------------------------------- queueing

    @property
    def queue_bytes(self) -> int:
        """Instantaneous queue occupancy in bytes (all service queues)."""
        return self.scheduler.total_bytes

    @property
    def queue_packets(self) -> int:
        """Instantaneous queue occupancy in packets (all service queues)."""
        return self.scheduler.total_packets

    def send(self, packet: Packet) -> None:
        """Admit a packet to the port: buffer check, AQM enqueue hook,
        enqueue, and start transmitting if the line is idle."""
        if self.peer is None:
            raise RuntimeError(f"port {self.name} is not connected")
        now = self.sim.now
        telemetry = self.telemetry
        queue_bytes = self.scheduler.total_bytes
        if not self.buffer.try_reserve(packet.size):
            self.stats.dropped_overflow += 1
            if self.on_drop is not None:
                self.on_drop(packet, "overflow")
            if telemetry is not None:
                telemetry.on_drop(self, packet, "overflow", now)
            return
        if not self.aqm.on_enqueue(packet, now, queue_bytes):
            self.buffer.release(packet.size)
            self.stats.dropped_aqm += 1
            if self.on_drop is not None:
                self.on_drop(packet, "aqm")
            if telemetry is not None:
                telemetry.on_drop(self, packet, "aqm", now)
            return
        packet.enqueue_time = now
        self.scheduler.enqueue(packet)
        self.stats.enqueued_packets += 1
        if telemetry is not None:
            telemetry.on_enqueue(self, packet, now)
        if not self._busy:
            self._transmit_next()

    # --------------------------------------------------------- transmit loop

    def _transmit_next(self) -> None:
        now = self.sim.now
        telemetry = self.telemetry
        while True:
            packet = self.scheduler.dequeue()
            if packet is None:
                self._busy = False
                return
            self.buffer.release(packet.size)
            if not self.aqm.on_dequeue(packet, now):
                # AQM chose to drop at dequeue (not-ECT under marking).
                self.stats.dropped_aqm += 1
                if self.on_drop is not None:
                    self.on_drop(packet, "aqm")
                if telemetry is not None:
                    telemetry.on_drop(self, packet, "aqm", now)
                continue
            if telemetry is not None:
                telemetry.on_dequeue(self, packet, now)
            self._busy = True
            # transmission_delay(), inlined: rate_bps > 0 is checked in
            # __init__, so only the arithmetic is left per packet.
            self.sim.schedule(
                packet.size * 8.0 / self.rate_bps, self._transmission_complete, packet
            )
            return

    def _transmission_complete(self, packet: Packet) -> None:
        self.stats.tx_packets += 1
        self.stats.tx_bytes += packet.size
        peer = self.peer
        assert peer is not None
        self.sim.schedule(self.propagation_delay, peer.receive, packet)
        self._transmit_next()
