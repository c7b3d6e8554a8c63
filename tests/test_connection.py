import gc
import random
import weakref
from dataclasses import replace

import pytest

from minitls.connection import Connection, EventKind, resume_config
from minitls.crypto import Protocol
from minitls.errors import ConfigConflict, NotReady
from minitls.messages import HandshakeType
from minitls.profiles import AuthMode
from minitls.simnet import CLIENT, NetConfig

from .harness import Pair, make_configs, run_handshake, secrets_of, transcript_types

PROTOCOLS = [Protocol.TLS, Protocol.DTLS]
ALL_MODES = [
    AuthMode.PSK,
    AuthMode.PSK_ECDHE,
    AuthMode.PK_SERVER_ONLY,
    AuthMode.PK_MUTUAL,
    AuthMode.ZERO_RTT,
]

CERT_TYPES = {
    HandshakeType.CERTIFICATE,
    HandshakeType.CERTIFICATE_VERIFY,
    HandshakeType.CERTIFICATE_REQUEST,
}


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("mode", ALL_MODES)
def test_honest_handshake_completes_with_shared_keys(protocol, mode):
    kw = {"early_payload": b"x" * 50} if mode == AuthMode.ZERO_RTT else {}
    pair = run_handshake(protocol, mode, seed=7, **kw)
    server = pair.assert_complete()
    assert secrets_of(pair.client) == secrets_of(server)
    # client write keys equal server read keys and vice versa, byte-exact
    assert pair.client.epochs[3]["write"].key == server.epochs[3]["read"].key
    assert pair.client.epochs[3]["read"].key == server.epochs[3]["write"].key
    assert pair.client.epochs[3]["write"].iv == server.epochs[3]["read"].iv
    # transcripts agree
    assert pair.client.transcript == server.transcript


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_mode_message_set_invariant(protocol):
    psk = run_handshake(protocol, AuthMode.PSK, seed=1)
    psk.assert_complete()
    assert not (set(transcript_types(psk.client)) & {int(t) for t in CERT_TYPES})

    pk = run_handshake(protocol, AuthMode.PK_MUTUAL, seed=1)
    pk.assert_complete()
    present = set(transcript_types(pk.client))
    assert {int(t) for t in CERT_TYPES} <= present


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_op_counter_invariants(protocol):
    psk = run_handshake(protocol, AuthMode.PSK, seed=2)
    server = psk.assert_complete()
    for c in (psk.client.counters, server.counters):
        assert c.dh_ops == 0 and c.sign_ops == 0 and c.verify_ops == 0
        assert c.aead_seal > 0 and c.hkdf_ops > 0

    pk = run_handshake(protocol, AuthMode.PK_MUTUAL, seed=2)
    server = pk.assert_complete()
    for c in (pk.client.counters, server.counters):
        assert c.dh_ops == 2  # keygen + shared secret
        assert c.sign_ops >= 1
        assert c.verify_ops >= 2


def test_handshake_complete_fires_exactly_once():
    pair = run_handshake(Protocol.DTLS, AuthMode.PSK, seed=3)
    server = pair.assert_complete()
    for conn in (pair.client, server):
        completes = [e for e in conn.event_log if e.kind == EventKind.HANDSHAKE_COMPLETE]
        assert len(completes) == 1


def test_event_log_line_format():
    pair = run_handshake(Protocol.DTLS, AuthMode.PSK, seed=3)
    ev = pair.client.event_log[0]
    line = ev.line("C")
    t, conn_id, kind = line.split()[:3]
    assert int(t) >= 0 and conn_id == "C" and kind == "flight_ready"


@pytest.mark.parametrize(
    "target,alert",
    [
        ("finished", "decrypt_error"),
        ("certificate_verify", "bad_certificate_verify"),
        # the transcript keeps what was built, so a changed CertificateRequest
        # breaks the server's own CertificateVerify as the client sees it
        ("certificate_request", "bad_certificate_verify"),
    ],
)
def test_server_flight_corruption_detected(target, alert):
    # flip one bit inside the named message body; the record seals fine but
    # verification on the peer must fail with the distinct classification
    def tamper(name, raw):
        if name == target:
            return raw[:-1] + bytes([raw[-1] ^ 0x01])
        return raw

    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PK_MUTUAL, seed=4)
    server_cfg = replace(server_cfg, debug_tamper=tamper)
    pair = Pair(client_cfg, server_cfg, seed=4)
    pair.run(until_ms=5_000)
    assert pair.client.failed
    assert pair.client.failure == alert
    assert not any(e.kind == EventKind.HANDSHAKE_COMPLETE for e in pair.client.event_log)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_certificate_verify_without_certificate_rejected(protocol, monkeypatch):
    # after a CertificateRequest the server's Certificate must come next
    # (RFC 8446 section 4.4.2); here the server neither hashes nor sends it
    emit = Connection._emit

    def skip_server_certificate(self, msg, epoch):
        if self.role == "server" and msg.MSG_TYPE == HandshakeType.CERTIFICATE:
            return []
        return emit(self, msg, epoch)

    monkeypatch.setattr(Connection, "_emit", skip_server_certificate)
    pair = run_handshake(protocol, AuthMode.PK_MUTUAL, seed=3)
    assert pair.client.failed
    assert pair.client.failure == "unexpected_message"


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_bad_certificate_after_request_fails_in_wait_cert(protocol):
    # between CertificateRequest and Certificate the client is in wait_cert,
    # which reports carry as failed_phase
    def tamper(name, raw):
        if name == "certificate":
            return raw[:-1] + bytes([raw[-1] ^ 0x01])
        return raw

    client_cfg, server_cfg, _ = make_configs(protocol, AuthMode.PK_MUTUAL, seed=4)
    pair = Pair(client_cfg, replace(server_cfg, debug_tamper=tamper), seed=4)
    pair.run(until_ms=5_000)
    assert pair.client.failed
    assert pair.client.failed_from == "wait_cert"


def test_client_finished_corruption_detected():
    def tamper(name, raw):
        if name == "finished":
            return raw[:-1] + bytes([raw[-1] ^ 0x80])
        return raw

    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PSK, seed=5)
    client_cfg = replace(client_cfg, debug_tamper=tamper)
    pair = Pair(client_cfg, server_cfg, seed=5)
    pair.run(until_ms=5_000)
    assert pair.server.failed
    assert pair.server.failure == "decrypt_error"


def test_binder_corruption_detected():
    from minitls import messages as m

    def tamper(name, raw):
        if name == "client_hello":
            return raw[:-1] + bytes([raw[-1] ^ 0x01])  # last binder byte
        return raw

    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PSK, seed=6)
    client_cfg = replace(client_cfg, debug_tamper=tamper)
    pair = Pair(client_cfg, server_cfg, seed=6)
    pair.run(until_ms=5_000)
    assert pair.server is not None and pair.server.failed
    assert pair.server.failure == "decrypt_error"
    assert not pair.client.connected


def test_wrong_psk_rejected():
    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PSK, seed=7)
    bad_psk = replace(client_cfg.psk, secret=b"\x00" * 32)
    client_cfg = replace(client_cfg, psk=bad_psk)
    pair = Pair(client_cfg, server_cfg, seed=7)
    pair.run(until_ms=5_000)
    assert pair.server.failed and pair.server.failure == "decrypt_error"


# --- retransmission ---------------------------------------------------------------


def test_scripted_single_drop_retransmits_only_missing_message():
    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PK_MUTUAL, seed=8)
    pair = Pair(client_cfg, server_cfg, seed=8)
    dropped = {"done": False}

    def send_filter(endpoint, rec, now):
        if endpoint != CLIENT and rec.name == "certificate" and not dropped["done"]:
            dropped["done"] = True
            return False
        return True

    pair.driver.send_filter = send_filter
    pair.run()
    server = pair.assert_complete()
    retransmitted = [
        (name, d) for name, d, _, rt in pair.driver.per_message if rt
    ]
    assert dropped["done"]
    assert retransmitted == [("certificate", "s2c")]  # never the full flight


def test_no_retransmissions_in_clean_runs():
    pair = run_handshake(Protocol.DTLS, AuthMode.PK_MUTUAL, seed=9)
    pair.assert_complete()
    assert pair.link.stats.retransmitted_bytes == 0
    assert not pair.client.reliability.sent_unacked
    assert not pair.server.reliability.sent_unacked


@pytest.mark.parametrize("side", ["client", "server"])
def test_dtls_connection_freed_without_cycle_collector(side):
    # neither the reliability state nor the listener's ticket table refers
    # back to a connection, so a finished DTLS connection is freed as soon
    # as its last reference goes
    pair = run_handshake(Protocol.DTLS, AuthMode.PSK_ECDHE, seed=3)
    conn = weakref.ref(pair.assert_complete() if side == "server" else pair.client)
    assert conn().connected
    gc.disable()
    try:
        del pair
        assert conn() is None
    finally:
        gc.enable()


def test_total_loss_fails_after_backoff_cap():
    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PSK, seed=10)
    pair = Pair(client_cfg, server_cfg, net=NetConfig(loss_rate=1.0, seed=10), seed=10)
    pair.run(until_ms=600_000)
    assert pair.client.failed
    assert pair.client.failure == "handshake_timeout"
    assert pair.client.reliability.retries == 8


@pytest.mark.parametrize("seed", range(10))
def test_handshakes_survive_20pct_loss(seed):
    pair = run_handshake(
        Protocol.DTLS,
        AuthMode.PSK,
        seed=seed,
        net=NetConfig(loss_rate=0.2, latency_ms=10, seed=seed),
    )
    server = pair.assert_complete()
    assert not pair.client.reliability.sent_unacked and not server.reliability.sent_unacked


def test_duplicate_ack_idempotent_and_unknown_ignored():
    pair = run_handshake(Protocol.DTLS, AuthMode.PSK, seed=11)
    server = pair.assert_complete()
    client = pair.client
    before = dict(client.reliability.sent_unacked)
    client.reliability.process_ack([(9, 999)])  # never-sent record number
    assert client.reliability.sent_unacked == before
    client.reliability.process_ack([(2, 0)])
    client.reliability.process_ack([(2, 0)])  # duplicate is a no-op
    assert not client.failed


# --- DoS cookies -------------------------------------------------------------------


def dos_pair(seed=12):
    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PSK, seed=seed)
    server_cfg = replace(server_cfg, dos=True)
    return Pair(client_cfg, server_cfg, seed=seed)


def test_dos_cookie_round_trip():
    pair = dos_pair()
    pair.run()
    server = pair.assert_complete()
    assert pair.listener.stateless_hrr_count == 1
    assert pair.listener.allocated == 1  # only the cookie'd retry allocates
    names = [name for name, d, _, _ in pair.driver.per_message if d == "c2s"]
    assert names.count("client_hello") == 2
    assert pair.client.hrr_done
    # both sides agree on keys despite the transcript restart
    assert secrets_of(pair.client) == secrets_of(server)


def test_cookieless_hellos_allocate_nothing():
    pair = dos_pair(seed=13)
    listener = pair.listener
    client_cfg = pair.client.cfg
    for i in range(50):
        rng = random.Random(i)
        probe = Connection(client_cfg, "client", rng, conn_id="P")
        outs = probe.start(0)
        for rec in outs:
            resp = listener.receive(rec.data, f"addr-{i}", 0)
            assert len(resp) == 1 and resp[0].name == "hello_retry_request"
    assert listener.allocated == 0
    assert listener.stateless_hrr_count == 50


def test_flipped_cookie_dropped_without_allocation():
    from minitls import messages as m
    from minitls.records import parse_dtls_plaintext

    pair = dos_pair(seed=14)
    # drive manually: get the HRR, corrupt the echoed cookie in the retry
    client = pair.client
    listener = pair.listener
    outs = client.start(0)
    [hrr_rec] = listener.receive(outs[0].data, "client:0", 0)
    assert listener.allocated == 0
    _, _, payload, _ = parse_dtls_plaintext(hrr_rec.data, 0)
    hrr = m.decode_handshake(m.parse_dtls_fragment(payload)[0].to_tls_form())
    cookie = m.parse_cookie(m.find_extension(hrr.extensions, m.ExtensionType.COOKIE).data)

    retry = client.handle(hrr_rec.data, 10)
    data = bytearray(retry[0].data)
    at = bytes(data).index(cookie)
    data[at + len(cookie) - 1] ^= 0x01  # last MAC byte of the echoed cookie
    assert listener.receive(bytes(data), "client:0", 20) == []
    data = bytearray(retry[0].data)
    data[at] ^= 0x01  # leading byte of the echoed cookie
    assert listener.receive(bytes(data), "client:0", 20) == []
    assert listener.allocated == 0
    # the untampered retry still works
    assert listener.receive(retry[0].data, "client:0", 30)
    assert listener.allocated == 1


def test_client_forgets_hrr_record_after_retry():
    # the retried ClientHello answers the HelloRetryRequest, so no later
    # client ACK lists the stateless HRR's record
    pair = dos_pair(seed=15)
    client = pair.client
    [hrr_rec] = pair.listener.receive(client.start(0)[0].data, "client:0", 0)
    assert client.handle(hrr_rec.data, 10)
    assert client.hrr_done
    assert client.reliability.recv_flight == set()


# --- tickets and resumption --------------------------------------------------------


def ticketed_pair(protocol, seed=16):
    client_cfg, server_cfg, _ = make_configs(protocol, AuthMode.PSK, seed=seed)
    server_cfg = replace(server_cfg, tickets=True)
    pair = Pair(client_cfg, server_cfg, seed=seed)
    pair.run()
    return pair


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_ticket_issue_and_resume(protocol):
    pair = ticketed_pair(protocol)
    server = pair.assert_complete()
    assert pair.client.client_tickets, "client never received a ticket"
    ticket = pair.client.client_tickets[0]
    assert ticket.ticket in pair.listener.ticket_db
    assert pair.listener.ticket_db[ticket.ticket]["psk"] == ticket.psk

    resumed_cfg = resume_config(pair.client.cfg, ticket)
    pair2 = Pair(resumed_cfg, pair.listener.cfg, seed=99)
    pair2.listener.ticket_db = pair.listener.ticket_db  # same server state
    pair2.run()
    server2 = pair2.assert_complete()
    assert server2.psk_kind_in_use.value == "resumption"
    assert pair2.client.counters.sign_ops == 0
    assert server2.counters.sign_ops == 0


def test_expired_ticket_falls_back_or_fails():
    pair = ticketed_pair(Protocol.DTLS, seed=17)
    pair.assert_complete()
    ticket = pair.client.client_tickets[0]
    entry = pair.listener.ticket_db[ticket.ticket]
    entry["issued_at"] = -(entry["lifetime_s"] * 1000 + 60_000)  # long expired

    resumed_cfg = resume_config(pair.client.cfg, ticket)
    pair2 = Pair(resumed_cfg, pair.listener.cfg, seed=100)
    pair2.listener.ticket_db = pair.listener.ticket_db
    pair2.run(until_ms=10_000)
    # plain-PSK resume offers no key share, so no certificate fallback exists
    assert not pair2.client.connected
    assert ticket.ticket not in pair2.listener.ticket_db  # purged


# --- 0-RTT -------------------------------------------------------------------------


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_zero_rtt_early_data_in_first_flight(protocol):
    client_cfg, server_cfg, _ = make_configs(
        protocol, AuthMode.ZERO_RTT, seed=18, early_payload=b"sensor-reading-0042"
    )
    pair = Pair(client_cfg, server_cfg, seed=18)
    pair.run()
    first_flight = [(n, d) for n, d, _, _ in pair.driver.per_message[:2]]
    assert first_flight == [("client_hello", "c2s"), ("early_data", "c2s")]
    server = pair.assert_complete()
    early = [e for e in server.event_log if e.kind == EventKind.EARLY_DATA]
    assert len(early) == 1
    assert early[0].detail["replay_uncertain"] is True
    assert early[0].detail["bytes"] == len(b"sensor-reading-0042")
    assert server.early_accepted
    if protocol == Protocol.TLS:
        assert int(HandshakeType.END_OF_EARLY_DATA) in transcript_types(server)


def test_duplicated_early_datagram_delivered_once():
    client_cfg, server_cfg, _ = make_configs(
        Protocol.DTLS, AuthMode.ZERO_RTT, seed=20, early_payload=b"once-only"
    )
    pair = Pair(client_cfg, server_cfg, net=NetConfig(dup_rate=1.0, latency_ms=5, seed=20), seed=20)
    pair.run()
    server = pair.assert_complete()
    early = [e for e in server.event_log if e.kind == EventKind.EARLY_DATA]
    assert len(early) == 1  # anti-replay window ate the duplicate


# --- app data record sizes ---------------------------------------------------------


def test_app_record_sizes():
    pair = run_handshake(Protocol.DTLS, AuthMode.PSK, seed=21)
    server = pair.assert_complete()
    [rec] = pair.client.send_app_data(b"A", now=9_000)
    assert len(rec.data) == 2 + 1 + 1 + 16  # minimal header + payload + type + tag

    tls_pair = run_handshake(Protocol.TLS, AuthMode.PSK, seed=21)
    tls_pair.assert_complete()
    [trec] = tls_pair.client.send_app_data(b"A", now=9_000)
    assert len(trec.data) == 5 + 1 + 1 + 16

    with pytest.raises(NotReady):
        Connection(pair.client.cfg, "client", random.Random(0)).send_app_data(b"x", 0)


def test_app_record_with_cid():
    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PSK, seed=22)
    client_cfg = replace(client_cfg, offer_cid=True)
    server_cfg = replace(server_cfg, cid_len=4)
    pair = Pair(client_cfg, server_cfg, seed=22)
    pair.run()
    server = pair.assert_complete()
    assert pair.client.cid_peer is not None and len(pair.client.cid_peer) == 4
    [rec] = pair.client.send_app_data(b"A", now=9_000)
    assert len(rec.data) == 2 + 4 + 1 + 1 + 16  # header gains the 4-byte CID
    # server accepts it
    out = pair.listener.receive(rec.data, "client:0", 9_100)
    assert any(e.kind == EventKind.APP_DATA for e in server.event_log)


# --- CID migration -----------------------------------------------------------------


def cid_session(seed=23):
    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PSK, seed=seed)
    client_cfg = replace(client_cfg, offer_cid=True)
    server_cfg = replace(server_cfg, cid_len=4)
    pair = Pair(client_cfg, server_cfg, seed=seed)
    pair.run()
    pair.assert_complete()
    return pair


def test_cid_survives_address_rebind():
    pair = cid_session()
    server = pair.server
    hs_msgs_before = server.reliability.next_send_msg_seq
    [rec] = pair.client.send_app_data(b"after-nat-rebinding", now=10_000)
    out = pair.listener.receive(rec.data, "client:9999", 10_010)  # new source
    migrated = [e for e in server.event_log if e.kind == EventKind.ADDRESS_MIGRATED]
    delivered = [e for e in server.event_log if e.kind == EventKind.APP_DATA]
    assert len(migrated) == 1 and migrated[0].detail["address"] == "client:9999"
    assert delivered and delivered[-1].detail["bytes"] == len(b"after-nat-rebinding")
    assert server.reliability.next_send_msg_seq == hs_msgs_before  # zero handshake messages
    assert pair.listener.by_addr.get("client:9999") is server


def test_rebind_without_cid_drops_records():
    pair = run_handshake(Protocol.DTLS, AuthMode.PSK, seed=24)
    server = pair.assert_complete()
    [rec] = pair.client.send_app_data(b"lost", now=10_000)
    out = pair.listener.receive(rec.data, "client:9999", 10_010)
    assert out == []
    assert not any(e.kind == EventKind.APP_DATA for e in server.event_log)


def test_forged_cid_does_not_rebind():
    pair = cid_session(seed=25)
    server = pair.server
    [rec] = pair.client.send_app_data(b"genuine", now=10_000)
    forged = bytearray(rec.data)
    forged[-1] ^= 0xFF  # break the tag, keep the stolen CID
    pair.listener.receive(bytes(forged), "attacker:666", 10_005)
    assert not any(e.kind == EventKind.ADDRESS_MIGRATED for e in server.event_log)
    assert pair.listener.by_addr.get("attacker:666") is None
    # the genuine record still lands afterwards
    pair.listener.receive(rec.data, "client:0", 10_010)
    assert any(e.kind == EventKind.APP_DATA for e in server.event_log)


# --- misc --------------------------------------------------------------------------


def test_compat_mode_adds_session_id_and_ccs():
    def total(compat):
        pair = run_handshake(
            Protocol.TLS, AuthMode.PSK, seed=26, client_over={"compat": compat},
            server_over={"compat": compat},
        )
        pair.assert_complete()
        return pair.link.stats.total, pair.driver.per_message

    plain_total, _ = total(False)
    compat_total, per_message = total(True)
    ccs = [row for row in per_message if row[0] == "ccs"]
    assert len(ccs) == 2  # one per side
    assert compat_total - plain_total >= 33 + 6


def test_deterministic_wire_bytes():
    def run():
        pair = run_handshake(Protocol.DTLS, AuthMode.PK_MUTUAL, seed=27)
        pair.assert_complete()
        return [(n, d, s) for n, d, s, _ in pair.driver.per_message]

    assert run() == run()


def test_fresh_client_start_guard():
    cfg, _, _ = make_configs(Protocol.DTLS, AuthMode.PSK, seed=28)
    conn = Connection(cfg, "client", random.Random(1))
    conn.start(0)
    with pytest.raises(NotReady):
        conn.start(0)


def test_zero_rtt_without_psk_conflicts():
    cfg, _, _ = make_configs(Protocol.DTLS, AuthMode.ZERO_RTT, seed=29)
    with pytest.raises(ConfigConflict):
        Connection(replace(cfg, psk=None, resume=None), "client", random.Random(1))


def test_fragmentation_under_small_mtu():
    pair = run_handshake(
        Protocol.DTLS,
        AuthMode.PK_MUTUAL,
        seed=30,
        net=NetConfig(mtu=300, latency_ms=5, seed=30),
        client_over={"mtu": 300},
        server_over={"mtu": 300},
    )
    server = pair.assert_complete()
    cert_rows = [r for r in pair.driver.per_message if r[0] == "certificate"]
    assert len(cert_rows) > 2  # the 500-byte certificates had to fragment
    assert secrets_of(pair.client) == secrets_of(server)


def test_dtls_handshake_records_fit_mtu():
    pair = run_handshake(Protocol.DTLS, AuthMode.PK_MUTUAL, seed=31)
    pair.assert_complete()
    assert all(size <= 1280 for _, _, size, _ in pair.driver.per_message)


def test_padded_handshake_records_fit_mtu():
    # the fragment budget leaves room for the record padding as well
    pair = run_handshake(
        Protocol.DTLS,
        AuthMode.PK_MUTUAL,
        seed=31,
        net=NetConfig(mtu=500, latency_ms=10, seed=31),
        client_over={"mtu": 500, "pad_len": 5},
        server_over={"mtu": 500, "pad_len": 5},
    )
    pair.assert_complete()
    assert all(size <= 500 for _, _, size, _ in pair.driver.per_message)


# --- resumed 0-RTT freshness --------------------------------------------------------


def test_resumed_zero_rtt_age_policy():
    pair = ticketed_pair(Protocol.DTLS, seed=40)
    pair.assert_complete()
    ticket = pair.client.client_tickets[0]
    # each Pair restarts the millisecond clock at zero; realign the issue and
    # receipt timestamps so ages are computed on one timeline
    pair.listener.ticket_db[ticket.ticket]["issued_at"] = 0
    ticket = replace(ticket, received_at=0)

    # honest resume with early data: accepted
    fresh_cfg = replace(
        resume_config(pair.client.cfg, ticket),
        mode=AuthMode.ZERO_RTT,
        early_payload=b"resumed-early-data",
    )
    pair2 = Pair(fresh_cfg, pair.listener.cfg, seed=41)
    pair2.listener.ticket_db = pair.listener.ticket_db
    pair2.run()
    server2 = pair2.assert_complete()
    assert any(e.kind == EventKind.EARLY_DATA for e in server2.event_log)
    assert server2.early_accepted

    # same ticket with the client clock off by 60 s: 0-RTT rejected, PSK still works
    skewed_ticket = replace(ticket, received_at=-60_000)
    skewed_cfg = replace(
        resume_config(pair.client.cfg, skewed_ticket),
        mode=AuthMode.ZERO_RTT,
        early_payload=b"stale-early-data",
    )
    pair3 = Pair(skewed_cfg, pair.listener.cfg, seed=42)
    pair3.listener.ticket_db = pair.listener.ticket_db
    pair3.run()
    server3 = pair3.assert_complete()  # PSK path still completes
    assert not server3.early_accepted
    assert not any(e.kind == EventKind.EARLY_DATA for e in server3.event_log)
    assert server3.psk_kind_in_use.value == "resumption"
    assert pair3.client.early_rejected


def test_mid_handshake_rebind_without_cid_stalls():
    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PSK, seed=43)
    pair = Pair(client_cfg, server_cfg, seed=43)
    # move the client's address after the ClientHello but before its Finished

    def rebind(endpoint, rec, now):
        if endpoint == CLIENT and now >= 15:
            pair.link.addresses[CLIENT] = "client:777"
        return True

    pair.driver.send_filter = rebind
    pair.run(until_ms=400_000)
    assert not pair.server.connected  # records from the new address are unassociated
    # whichever side gives up first, the handshake never completes
    assert pair.client.failed
    assert pair.client.failure in ("handshake_timeout", "peer_alert")
    assert not pair.client.connected


def test_first_flight_shapes():
    psk_cfg, _, _ = make_configs(Protocol.DTLS, AuthMode.PSK, seed=50)
    conn = Connection(psk_cfg, "client", random.Random(50))
    flight = conn.start(0)
    assert [r.name for r in flight] == ["client_hello"]
    # epoch-0 flight rides in a 13-byte-header plaintext record
    assert flight[0].data[0] == 22  # handshake content type
    assert flight[0].data[3:5] == b"\x00\x00"  # epoch 0

    pk_cfg, _, _ = make_configs(Protocol.TLS, AuthMode.PK_MUTUAL, seed=50)
    flight2 = Connection(pk_cfg, "client", random.Random(51)).start(0)
    assert [r.name for r in flight2] == ["client_hello"]
    assert flight2[0].data[0] == 22 and flight2[0].data[1:3] == b"\x03\x03"


def test_handle_is_total_over_random_datagrams():
    import random as _random

    rng = _random.Random(0xF00D)
    pair = run_handshake(Protocol.DTLS, AuthMode.PSK, seed=51)
    server = pair.assert_complete()
    for _ in range(300):
        blob = rng.randbytes(rng.randrange(0, 120))
        pair.client.handle(blob, 50_000)
        pair.listener.receive(blob, "fuzz:1", 50_000)
    # established state survives garbage
    [rec] = pair.client.send_app_data(b"still alive", now=60_000)
    pair.listener.receive(rec.data, "client:0", 60_010)
    assert any(
        e.kind == EventKind.APP_DATA and e.detail["bytes"] == 11
        for e in server.event_log
    )


def test_record_padding_grows_wire_size():
    plain = run_handshake(Protocol.DTLS, AuthMode.PSK, seed=52)
    padded = run_handshake(
        Protocol.DTLS, AuthMode.PSK, seed=52,
        client_over={"pad_len": 16}, server_over={"pad_len": 16},
    )
    plain.assert_complete()
    padded.assert_complete()
    assert padded.link.stats.total > plain.link.stats.total
