"""Deterministic in-memory transports.

``DatagramLink`` is the lossy, reordering, duplicating, MTU-bounded link
DTLS runs over; it holds the delivery queue and the endpoint addresses and
only moves bytes: ``send`` returns how many copies it queued, and the
caller books them.  ``StreamLink`` is the reliable in-order byte stream TLS
runs over: the same link with a ``send`` that skips the loss, duplication,
reordering and MTU knobs.  All randomness comes from one seeded stream, so
a (seed, config, scenario) triple fully determines every delivery.  Time
is an integer millisecond clock advanced by the caller; nothing here reads
a wall clock.
"""

import functools
import heapq
import random
import typing

from .errors import ConfigError, OversizedDatagram

CLIENT = "client"
SERVER = "server"


class NetConfig(typing.NamedTuple):
    loss_rate: float = 0.0
    dup_rate: float = 0.0
    reorder_rate: float = 0.0
    latency_ms: int = 10
    mtu: int = 1280
    seed: int = 0
    framing_overhead: int = 0  # constant per-datagram encapsulation cost

    def to_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def from_dict(cls, d: dict):
        return checked_from_dict(cls, d)


def checked_from_dict(cls, d: dict):
    """``cls(**d)`` once each key of ``d`` names a field of the NamedTuple ``cls`` and its
    value has the field's declared type: an int passes for a float, a bool only for a bool."""
    accepted = _field_types(cls)
    if type(d) is not dict:
        raise ConfigError(f"{cls.__name__} takes a JSON object, not {d!r}")
    for key in d:
        if key not in accepted:
            raise ConfigError(f"{cls.__name__} has no field {key!r}")
        value, types = d[key], accepted[key]
        if type(value) not in types and (type(value) is bool or not isinstance(value, types)):
            raise ConfigError(f"{cls.__name__}.{key} cannot be {value!r}")
    return cls(**d)


@functools.cache
def _field_types(cls) -> dict:
    """Field name -> the value types that field of the NamedTuple ``cls`` takes."""
    declared = {name: typing.get_args(t) or (t,) for name, t in cls.__annotations__.items()}
    return {name: types + (int,) if float in types else types for name, types in declared.items()}


def _peer(endpoint: str) -> str:
    return SERVER if endpoint == CLIENT else CLIENT


class DatagramLink:
    """Unreliable datagram channel between the two fixed endpoints."""

    def __init__(self, config: NetConfig):
        self.config = config
        self.rng = random.Random(config.seed)
        self._queue = []  # (deliver_at, order, dest, source_addr, payload)
        self._order = 0
        # assigning an address moves an endpoint; queued datagrams keep their source
        self.addresses = {CLIENT: "client:0", SERVER: "server:0"}

    def _schedule(self, now: int, endpoint: str, data: bytes) -> None:
        delay = self.config.latency_ms
        if self.config.reorder_rate and self.rng.random() < self.config.reorder_rate:
            delay += max(1, self.config.latency_ms) + self.rng.randrange(0, 4)
        heapq.heappush(
            self._queue,
            (now + delay, self._order, _peer(endpoint), self.addresses[endpoint], data),
        )
        self._order += 1

    def send(self, endpoint: str, data: bytes, now: int) -> int:
        """Queue one datagram; returns the copies queued: 0 lost, 1, or 2 duplicated."""
        if len(data) > self.config.mtu:
            raise OversizedDatagram(f"{len(data)} bytes exceeds mtu {self.config.mtu}")
        if self.config.loss_rate and self.rng.random() < self.config.loss_rate:
            return 0
        self._schedule(now, endpoint, data)
        if self.config.dup_rate and self.rng.random() < self.config.dup_rate:
            self._schedule(now, endpoint, data)
            return 2
        return 1

    def poll(self, now: int) -> list:
        """Deliveries due at or before ``now``: (dest, source_address, bytes)."""
        out = []
        while self._queue and self._queue[0][0] <= now:
            _, _, dest, source, data = heapq.heappop(self._queue)
            out.append((dest, source, data))
        return out

    def next_time(self):
        return self._queue[0][0] if self._queue else None


class StreamLink(DatagramLink):
    """Reliable in-order byte stream; loss knobs do not apply."""

    def send(self, endpoint: str, data: bytes, now: int) -> int:
        heapq.heappush(
            self._queue,
            (now + self.config.latency_ms, self._order, _peer(endpoint), self.addresses[endpoint], data),
        )
        self._order += 1
        return 1

    # Own attribute: perfbench/tracer.py wraps each link class's send and poll.
    poll = DatagramLink.poll
