"""Deterministic in-memory transports.

``DatagramLink`` is the lossy, reordering, duplicating, MTU-bounded link
DTLS runs over; it holds the byte accounting, the delivery queue and the
endpoint addresses.  ``StreamLink`` is the reliable in-order byte stream
TLS runs over: the same link with a ``send`` that skips the loss,
duplication, reordering and MTU knobs.  All randomness comes from one
seeded stream, so a (seed, config, scenario) triple fully determines
every delivery and every counter.  Time is an integer millisecond clock
advanced by the caller; nothing here reads a wall clock.
"""

import heapq
import random
from dataclasses import dataclass

from .errors import OversizedDatagram

CLIENT = "client"
SERVER = "server"


@dataclass
class NetConfig:
    loss_rate: float = 0.0
    dup_rate: float = 0.0
    reorder_rate: float = 0.0
    latency_ms: int = 10
    mtu: int = 1280
    seed: int = 0
    framing_overhead: int = 0  # constant per-datagram encapsulation cost

    def to_dict(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, d: dict):
        return cls(**d)


@dataclass
class WireStats:
    bytes_c2s: int = 0
    bytes_s2c: int = 0
    framed_c2s: int = 0  # payload plus per-datagram framing overhead
    framed_s2c: int = 0
    datagrams_c2s: int = 0
    datagrams_s2c: int = 0
    retransmitted_bytes: int = 0
    dropped: int = 0
    duplicated: int = 0

    @property
    def total(self) -> int:
        return self.bytes_c2s + self.bytes_s2c

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def _peer(endpoint: str) -> str:
    return SERVER if endpoint == CLIENT else CLIENT


class DatagramLink:
    """Unreliable datagram channel between the two fixed endpoints."""

    def __init__(self, config: NetConfig):
        self.config = config
        self.rng = random.Random(config.seed)
        self._queue = []  # (deliver_at, order, dest, source_addr, payload)
        self._order = 0
        self.addresses = {CLIENT: "client:0", SERVER: "server:0"}
        self.stats = WireStats()

    def _count_send(self, endpoint: str, size: int, retransmit: bool) -> None:
        framed = size + self.config.framing_overhead
        if endpoint == CLIENT:
            self.stats.bytes_c2s += size
            self.stats.framed_c2s += framed
            self.stats.datagrams_c2s += 1
        else:
            self.stats.bytes_s2c += size
            self.stats.framed_s2c += framed
            self.stats.datagrams_s2c += 1
        if retransmit:
            self.stats.retransmitted_bytes += size

    def _schedule(self, now: int, endpoint: str, data: bytes) -> None:
        delay = self.config.latency_ms
        if self.config.reorder_rate and self.rng.random() < self.config.reorder_rate:
            delay += max(1, self.config.latency_ms) + self.rng.randrange(0, 4)
        heapq.heappush(
            self._queue,
            (now + delay, self._order, _peer(endpoint), self.addresses[endpoint], data),
        )
        self._order += 1

    def send(self, endpoint: str, data: bytes, now: int, retransmit: bool = False) -> None:
        if len(data) > self.config.mtu:
            raise OversizedDatagram(f"{len(data)} bytes exceeds mtu {self.config.mtu}")
        self._count_send(endpoint, len(data), retransmit)
        if self.config.loss_rate and self.rng.random() < self.config.loss_rate:
            self.stats.dropped += 1
            return
        self._schedule(now, endpoint, data)
        if self.config.dup_rate and self.rng.random() < self.config.dup_rate:
            self.stats.duplicated += 1
            self._count_send(endpoint, len(data), retransmit=False)
            self._schedule(now, endpoint, data)

    def poll(self, now: int) -> list:
        """Deliveries due at or before ``now``: (dest, source_address, bytes)."""
        out = []
        while self._queue and self._queue[0][0] <= now:
            _, _, dest, source, data = heapq.heappop(self._queue)
            out.append((dest, source, data))
        return out

    def next_time(self):
        return self._queue[0][0] if self._queue else None

    def rebind(self, endpoint: str, new_address: str) -> None:
        """Queued datagrams keep the address they were sent from."""
        self.addresses[endpoint] = new_address


class StreamLink(DatagramLink):
    """Reliable in-order byte stream; loss knobs do not apply."""

    def send(self, endpoint: str, data: bytes, now: int, retransmit: bool = False) -> None:
        self._count_send(endpoint, len(data), retransmit)
        heapq.heappush(
            self._queue,
            (now + self.config.latency_ms, self._order, _peer(endpoint), self.addresses[endpoint], data),
        )
        self._order += 1

    # Own attribute: perfbench/tracer.py wraps each link class's send and poll.
    poll = DatagramLink.poll
