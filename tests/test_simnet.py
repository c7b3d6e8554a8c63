from types import SimpleNamespace

import pytest

from minitls.bench import Driver
from minitls.crypto import Protocol
from minitls.errors import OversizedDatagram
from minitls.records import OutRecord
from minitls.simnet import CLIENT, SERVER, DatagramLink, NetConfig, StreamLink


def drain(link, until=10_000):
    out = []
    t = 0
    while t <= until:
        nxt = link.next_time()
        if nxt is None:
            break
        t = nxt
        out.extend(link.poll(t))
    return out


def booking_driver(net: NetConfig, packing: bool = False) -> Driver:
    """A Driver over a fresh DatagramLink and no connections: enough to book sends."""
    client = SimpleNamespace(cfg=SimpleNamespace(packing=packing), protocol=Protocol.DTLS)
    return Driver(client, None, DatagramLink(net))


def book(driver: Driver, size: int, now: int = 0, retransmit: bool = False) -> None:
    driver.send(CLIENT, [OutRecord(bytes(size), "msg", retransmit)], now)


def test_identity_channel_preserves_order():
    link = DatagramLink(NetConfig(latency_ms=5, seed=1))
    for i in range(20):
        link.send(CLIENT, bytes([i]), now=i)
    got = drain(link)
    assert [d[2] for d in got] == [bytes([i]) for i in range(20)]
    assert all(dest == SERVER and src == "client:0" for dest, src, _ in got)


def test_total_loss():
    link = DatagramLink(NetConfig(loss_rate=1.0, seed=2))
    assert [link.send(CLIENT, b"x", now=0) for _ in range(10)] == [0] * 10
    assert drain(link) == []
    driver = booking_driver(NetConfig(loss_rate=1.0, seed=2))
    for _ in range(10):
        book(driver, 1)
    assert driver.wire["dropped"] == 10
    assert driver.wire["bytes_c2s"] == 10  # wire-count semantics: sent bytes count


def test_seeded_loss_pattern_reproducible():
    def run():
        link = DatagramLink(NetConfig(loss_rate=0.2, seed=42))
        for i in range(1000):
            link.send(CLIENT, i.to_bytes(2, "big"), now=i)
        return [d[2] for d in drain(link, until=100_000)]

    assert run() == run()
    delivered = run()
    assert 600 < len(delivered) < 950  # 20% loss, not degenerate


def test_duplication_counted_on_wire():
    link = DatagramLink(NetConfig(dup_rate=1.0, seed=3))
    assert link.send(CLIENT, bytes(100), now=0) == 2
    got = drain(link)
    assert len(got) == 2
    driver = booking_driver(NetConfig(dup_rate=1.0, seed=3))
    book(driver, 100)
    assert driver.wire["bytes_c2s"] == 200
    assert driver.wire["duplicated"] == 1


def test_framing_overhead_reported_separately():
    link = DatagramLink(NetConfig(framing_overhead=10, seed=4))
    assert link.send(CLIENT, bytes(100), now=0) == 1
    driver = booking_driver(NetConfig(framing_overhead=10, seed=4))
    book(driver, 100)
    assert driver.wire["bytes_c2s"] == 100
    assert driver.wire["framed_c2s"] == 110


def test_no_traffic_all_zeros():
    wire = booking_driver(NetConfig()).wire
    assert wire["bytes_c2s"] + wire["bytes_s2c"] == 0
    assert wire["datagrams_c2s"] == 0 and wire["retransmitted_bytes"] == 0


def test_oversized_datagram_rejected():
    link = DatagramLink(NetConfig(mtu=100))
    with pytest.raises(OversizedDatagram):
        link.send(CLIENT, bytes(101), now=0)


def test_retransmit_accounting():
    link = DatagramLink(NetConfig(seed=5))
    assert [link.send(CLIENT, bytes(50), now=t) for t in (0, 10)] == [1, 1]
    driver = booking_driver(NetConfig(seed=5))
    book(driver, 50, now=0)
    book(driver, 50, now=10, retransmit=True)
    assert driver.wire["retransmitted_bytes"] == 50
    assert driver.wire["bytes_c2s"] == 100


def test_packed_datagram_counts_whole_as_retransmitted():
    driver = booking_driver(NetConfig(seed=6), packing=True)
    driver.send(CLIENT, [OutRecord(bytes(50), "a"), OutRecord(bytes(30), "b", retransmit=True)], now=0)
    assert driver.wire["datagrams_c2s"] == 1
    assert driver.wire["retransmitted_bytes"] == 80
    assert driver.per_message == [("a", "c2s", 50, False), ("b", "c2s", 30, True)]


def test_reordering_changes_arrival_order():
    link = DatagramLink(NetConfig(reorder_rate=0.5, latency_ms=5, seed=7))
    for i in range(50):
        link.send(SERVER, bytes([i]), now=i)
    got = [d[2][0] for d in drain(link)]
    assert sorted(got) == list(range(50))
    assert got != list(range(50))


def test_rebind_changes_source_address():
    link = DatagramLink(NetConfig(latency_ms=1))
    link.send(CLIENT, b"a", now=0)
    link.addresses[CLIENT] = "client:9"
    link.send(CLIENT, b"b", now=5)
    got = drain(link)
    assert [(src, data) for _, src, data in got] == [("client:0", b"a"), ("client:9", b"b")]


def test_conservation_with_clean_channel():
    driver = booking_driver(NetConfig(seed=8))
    sent = 0
    for i in range(100):
        book(driver, i + 1, now=i)
        sent += i + 1
    assert [copies for _, _, _, copies, _ in driver.ledger] == [1] * 100
    delivered = sum(len(d[2]) for d in drain(driver.link))
    assert delivered == sent == driver.wire["bytes_c2s"]


def test_stream_link_reliable_in_order_despite_loss_config():
    link = StreamLink(NetConfig(loss_rate=0.9, reorder_rate=0.9, latency_ms=2, seed=9))
    chunks = [bytes([i]) * (i + 1) for i in range(30)]
    for i, c in enumerate(chunks):
        link.send(CLIENT, c, now=i)
    got = [d[2] for d in drain(link)]
    assert got == chunks
