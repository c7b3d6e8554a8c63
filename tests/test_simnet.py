import pytest

from minitls.errors import OversizedDatagram
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


def test_identity_channel_preserves_order():
    link = DatagramLink(NetConfig(latency_ms=5, seed=1))
    for i in range(20):
        link.send(CLIENT, bytes([i]), now=i)
    got = drain(link)
    assert [d[2] for d in got] == [bytes([i]) for i in range(20)]
    assert all(dest == SERVER and src == "client:0" for dest, src, _ in got)


def test_total_loss():
    link = DatagramLink(NetConfig(loss_rate=1.0, seed=2))
    for i in range(10):
        link.send(CLIENT, b"x", now=0)
    assert drain(link) == []
    assert link.stats.dropped == 10
    assert link.stats.bytes_c2s == 10  # wire-count semantics: sent bytes count


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
    link.send(CLIENT, bytes(100), now=0)
    got = drain(link)
    assert len(got) == 2
    assert link.stats.bytes_c2s == 200
    assert link.stats.duplicated == 1


def test_framing_overhead_reported_separately():
    link = DatagramLink(NetConfig(framing_overhead=10, seed=4))
    link.send(CLIENT, bytes(100), now=0)
    assert link.stats.bytes_c2s == 100
    assert link.stats.framed_c2s == 110


def test_no_traffic_all_zeros():
    stats = DatagramLink(NetConfig()).stats
    assert stats.total == 0 and stats.datagrams_c2s == 0 and stats.retransmitted_bytes == 0


def test_oversized_datagram_rejected():
    link = DatagramLink(NetConfig(mtu=100))
    with pytest.raises(OversizedDatagram):
        link.send(CLIENT, bytes(101), now=0)


def test_retransmit_accounting():
    link = DatagramLink(NetConfig(seed=5))
    link.send(CLIENT, bytes(50), now=0)
    link.send(CLIENT, bytes(50), now=10, retransmit=True)
    assert link.stats.retransmitted_bytes == 50
    assert link.stats.bytes_c2s == 100


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
    link = DatagramLink(NetConfig(seed=8))
    sent = 0
    for i in range(100):
        link.send(CLIENT, bytes(i + 1), now=i)
        sent += i + 1
    delivered = sum(len(d[2]) for d in drain(link))
    assert delivered == sent == link.stats.bytes_c2s


def test_stream_link_reliable_in_order_despite_loss_config():
    link = StreamLink(NetConfig(loss_rate=0.9, reorder_rate=0.9, latency_ms=2, seed=9))
    chunks = [bytes([i]) * (i + 1) for i in range(30)]
    for i, c in enumerate(chunks):
        link.send(CLIENT, c, now=i)
    got = [d[2] for d in drain(link)]
    assert got == chunks
