"""Acceptance suite: one test per criterion, one pass line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import itertools
import json
import random
import time

from minitls import crypto, records
from minitls.bench import Scenario, paper_reference, run_scenario
from minitls.connection import Connection, EventKind
from minitls.crypto import HashAlg, Protocol, SuiteId
from minitls.profiles import AuthMode
from minitls.records import ContentType, TrafficKeys
from minitls.simnet import CLIENT, NetConfig

from .harness import Pair, filter_sends, make_configs, run_handshake, secrets_of, tamper_on_wire
from .oracles import (
    raw_expand_label,
    raw_hkdf_extract,
    raw_hmac,
)

P128 = crypto.suite_params(SuiteId.AES_128_CCM_SHA256)


def ok(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n:2}: PASS - {text}")


def test_01_minimal_dtls_record():
    keys = TrafficKeys(b"k" * 16, b"i" * 12, b"n" * 16)
    rec = records.seal_dtls(P128, keys, 3, ContentType.APPLICATION_DATA, b"A")
    assert len(rec) == 20  # 2 header + 1 payload + 1 inner type + 16 tag
    assert rec[0] == 0x23  # 001|C=0|S=0|L=0|EE=11
    ok(1, "minimal protected record is 20 bytes with header byte 0x23")


def test_02_header_size_ladder():
    sizes = {
        "tls12": records.TLS_RECORD_HEADER_LEN,
        "dtls12": records.DTLS12_RECORD_HEADER_LEN,
        "tls13": records.TLS_RECORD_HEADER_LEN,
        "dtls13_min": records.unified_header_size(0, False, False),  # header byte + 8-bit sequence
        "dtls13_max": records.unified_header_size(4, False, True),  # + 4-byte CID + length
    }
    assert sizes == {"tls12": 5, "dtls12": 13, "tls13": 5, "dtls13_min": 2, "dtls13_max": 8}
    savings = set()
    for cid_len, seq16, lenp in itertools.product((0, 4), (False, True), (False, True)):
        h = records.unified_header_size(cid_len, seq16, lenp)
        if h <= sizes["dtls13_max"]:
            saving = sizes["dtls12"] - h
            assert 5 <= saving <= 11
            savings.add(saving)
    assert {5, 11} <= savings  # both ladder endpoints are achievable
    ok(2, "header ladder {5,13,5,2,8}; per-record savings span 5..11 bytes")


def _wire_row(profile, mode, suite=None):
    s = Scenario(profile=profile, protocol="dtls", mode=mode, suite=suite,
                 net=NetConfig(seed=1))
    r = run_scenario(s)
    assert r.ok, r.failure
    return r


def test_03_wire_table_direction():
    t0 = time.perf_counter()
    psk = _wire_row("psk128", "psk")
    reduction = (psk.legacy12_total - psk.total()) / psk.legacy12_total
    assert psk.total() < psk.legacy12_total
    assert reduction >= 0.15, f"PSK reduction {reduction:.1%}"

    ecdhe = _wire_row("ecdsa128", "pk_mutual")
    red2 = (ecdhe.legacy12_total - ecdhe.total()) / ecdhe.legacy12_total
    assert ecdhe.total() < ecdhe.legacy12_total
    assert red2 >= 0.08, f"ECDHE reduction {red2:.1%}"

    # the 256-bit row must at least keep the published sign (1.3 < 1.2)
    big = _wire_row("ecdsa128_256", "pk_mutual", suite=int(SuiteId.AES_256_CCM_SHA384))
    assert big.total() < big.legacy12_total

    for row in (psk, ecdhe, big):
        label, v12, v13 = paper_reference(row)
        deviation = 100.0 * (row.total() - v13) / v13
        note = "within" if abs(deviation) <= 25 else "WARN outside"
        print(f"    {label}: measured {row.total()} vs paper {v13} ({deviation:+.1f}%, {note} +/-25%)")
    assert time.perf_counter() - t0 < 15
    ok(3, f"DTLS 1.3 beats the 1.2 model: PSK -{reduction:.0%}, ECDHE -{red2:.0%}")


def test_04_mode_ranking():
    def total(profile, mode, **kw):
        s = Scenario(profile=profile, protocol="dtls", mode=mode, net=NetConfig(seed=2), **kw)
        r = run_scenario(s)
        assert r.ok
        return r

    psk = total("psk128", "psk")
    psk_ecdhe = total("psk128", "psk_ecdhe",
                      overrides={"modes": ["psk_ecdhe"], "groups": [0x0017]})
    pk = total("ecdsa128", "pk_mutual")
    zero = total("full", "zero_rtt")
    assert psk.total() <= psk_ecdhe.total() < pk.total()
    assert zero.rtt_to_first_appdata_ms == 0  # app data with the first flight
    for other in (psk, psk_ecdhe, pk):
        assert other.rtt_to_first_appdata_ms == 2 * other.scenario.net.latency_ms
    ok(4, "byte ranking plain-PSK <= PSK+ECDHE < PK; 0-RTT sends with 1st msg, others after 1 RT")


def test_05_key_schedule_oracle_equivalence(monkeypatch):
    # published extract vector first
    prk = crypto.hkdf_extract(
        bytes.fromhex("000102030405060708090a0b0c"), b"\x0b" * 22, HashAlg.SHA256
    )
    assert prk == bytes.fromhex(
        "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
    )

    fixed_inputs = [
        (Protocol.DTLS, AuthMode.PSK, 41),
        (Protocol.DTLS, AuthMode.PSK_ECDHE, 42),
        (Protocol.TLS, AuthMode.PK_MUTUAL, 43),
    ]
    # each connection's (EC)DHE secret, as Connection._shared returns it
    shared = {}
    connection_shared = Connection._shared

    def capture_shared(self, priv, peer_pub):
        shared[self] = connection_shared(self, priv, peer_pub)
        return shared[self]

    monkeypatch.setattr(Connection, "_shared", capture_shared)
    for protocol, mode, seed in fixed_inputs:
        pair = run_handshake(protocol, mode, seed=seed)
        server = pair.assert_complete()
        conn = pair.client
        hashname = "sha256"
        prefix = b"dtls13" if protocol == Protocol.DTLS else b"tls13 "
        hlen = 32
        zeros = b"\x00" * hlen

        # replay the whole schedule with the scripted oracle
        transcript = conn.transcript.messages
        idx_sh = next(i for i, m in enumerate(transcript) if m[0] == 2)
        idx_sfin = next(i for i, m in enumerate(transcript) if m[0] == 20)
        th = lambda i: crypto.hash_data(HashAlg.SHA256, b"".join(transcript[: i + 1]))

        psk = conn.psk_in_use.secret if conn.psk_in_use else None
        dh = shared.get(conn)
        early = raw_hkdf_extract(hashname, b"", psk or zeros)
        derived0 = raw_expand_label(
            hashname, early, prefix, b"derived",
            crypto.hash_data(HashAlg.SHA256, b""), hlen,
        )
        hs = raw_hkdf_extract(hashname, derived0, dh or zeros)
        c_hs = raw_expand_label(hashname, hs, prefix, b"c hs traffic", th(idx_sh), hlen)
        s_hs = raw_expand_label(hashname, hs, prefix, b"s hs traffic", th(idx_sh), hlen)
        derived1 = raw_expand_label(
            hashname, hs, prefix, b"derived", crypto.hash_data(HashAlg.SHA256, b""), hlen
        )
        master = raw_hkdf_extract(hashname, derived1, zeros)
        c_ap = raw_expand_label(hashname, master, prefix, b"c ap traffic", th(idx_sfin), hlen)
        s_ap = raw_expand_label(hashname, master, prefix, b"s ap traffic", th(idx_sfin), hlen)

        ks = conn.ks
        assert ks.secret("early") == early
        assert ks.secret("handshake") == hs
        assert ks.secret("c_hs") == c_hs
        assert ks.secret("s_hs") == s_hs
        assert ks.secret("master") == master
        assert ks.secret("c_ap") == c_ap
        assert ks.secret("s_ap") == s_ap

        # traffic keys and both Finished MACs, byte for byte
        keys = conn.epochs[3]["write"]
        assert keys.key == raw_expand_label(hashname, c_ap, prefix, b"key", b"", 16)
        assert keys.iv == raw_expand_label(hashname, c_ap, prefix, b"iv", b"", 12)
        s_fin_key = raw_expand_label(hashname, s_hs, prefix, b"finished", b"", hlen)
        fin_msg = transcript[idx_sfin]
        assert fin_msg[4:] == raw_hmac(hashname, s_fin_key, th(idx_sfin - 1))
    ok(5, "every schedule derivation matches the scripted raw-HMAC/HKDF oracle on 3 input sets")


ALL_MODES = [AuthMode.PSK, AuthMode.PSK_ECDHE, AuthMode.PK_SERVER_ONLY,
             AuthMode.PK_MUTUAL, AuthMode.ZERO_RTT]


def test_06_handshake_correctness_suite(monkeypatch):
    t0 = time.perf_counter()
    for protocol in (Protocol.DTLS, Protocol.TLS):
        for mode in ALL_MODES:
            kw = {"early_payload": b"e" * 20} if mode == AuthMode.ZERO_RTT else {}
            for seed in range(100):
                pair = run_handshake(protocol, mode, seed=seed, **kw)
                server = pair.assert_complete()
                assert secrets_of(pair.client) == secrets_of(server)

    # single-bit corruption of Finished / binder / CertificateVerify
    def tamper_for(target):
        def tamper(name, raw):
            if name == target:
                return raw[:-1] + bytes([raw[-1] ^ 0x01])
            return raw
        return tamper

    cases = [
        ("finished", AuthMode.PSK, "server", "decrypt_error"),
        ("client_hello", AuthMode.PSK, "client", "decrypt_error"),  # binder bit
        ("certificate_verify", AuthMode.PK_MUTUAL, "server", "bad_certificate_verify"),
    ]
    for target, mode, side, alert in cases:
        client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, mode, seed=55)
        with monkeypatch.context() as patch:
            tamper_on_wire(patch, side, tamper_for(target))
            pair = Pair(client_cfg, server_cfg, seed=55)
            pair.run(until_ms=5_000)
        victim = pair.client if side == "server" else pair.server
        assert victim.failed and victim.failure == alert, (target, victim.failure)
        assert not any(
            e.kind == EventKind.HANDSHAKE_COMPLETE for e in victim.event_log
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"correctness suite took {elapsed:.1f}s"
    ok(6, f"1000 honest runs agree on secrets; corruptions fail distinctly ({elapsed:.1f}s)")


def test_07_retransmission_granularity():
    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PK_MUTUAL, seed=66)
    pair = Pair(client_cfg, server_cfg, seed=66)
    dropped = {"done": False}

    def keep(endpoint, rec, now):
        if endpoint != CLIENT and rec.name == "certificate_verify" and not dropped["done"]:
            dropped["done"] = True
            return False
        return True

    filter_sends(pair.driver, keep)
    pair.run()
    pair.assert_complete()
    retransmitted = [(n, d) for n, d, _, rt in pair.driver.per_message if rt]
    assert retransmitted == [("certificate_verify", "s2c")]

    completed = 0
    for seed in range(10):
        p = run_handshake(
            Protocol.DTLS, AuthMode.PSK, seed=seed,
            net=NetConfig(loss_rate=0.2, latency_ms=10, seed=seed),
        )
        if p.client.connected and p.server and p.server.connected:
            assert p.client.reliability.retries <= 8
            completed += 1
    assert completed >= 9, f"only {completed}/10 lossy seeds completed"
    ok(7, f"single drop retransmits exactly one message; {completed}/10 seeds complete at 20% loss")


def test_08_dos_statelessness():
    t0 = time.perf_counter()
    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PSK, seed=77)
    server_cfg = server_cfg._replace(dos=True)
    pair = Pair(client_cfg, server_cfg, seed=77)

    probe = Connection(client_cfg, "client", random.Random(123), conn_id="P")
    [ch_record] = probe.start(0)
    for i in range(10_000):
        resp = pair.listener.receive(ch_record.data, f"spoofed-{i}", 0)
        assert len(resp) == 1 and resp[0].name == "hello_retry_request"
    assert pair.listener.allocated == 0

    # a cookie-echoing retry still completes against the same listener
    pair.run()
    pair.assert_complete()
    assert pair.listener.allocated == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10, f"DoS criterion took {elapsed:.1f}s"
    ok(8, f"10k cookie-less hellos: 0 allocations, 10k stateless HRRs ({elapsed:.1f}s)")


def test_09_cid_continuity():
    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PSK, seed=88)
    pair = Pair(client_cfg._replace(cid=0), server_cfg._replace(cid=4), seed=88)
    pair.run()
    server = pair.assert_complete()
    hs_bytes_before = sum(
        s for n, _, s, _ in pair.driver.per_message if n not in ("app_data", "ack")
    )
    hs_msgs_before = server.reliability.next_send_msg_seq
    [rec] = pair.client.send_app_data(b"post-rebind-data", now=20_000)
    pair.listener.receive(rec.data, "client:4711", 20_010)
    assert any(e.kind == EventKind.ADDRESS_MIGRATED for e in server.event_log)
    assert any(
        e.kind == EventKind.APP_DATA and e.detail["bytes"] == 16 for e in server.event_log
    )
    assert server.reliability.next_send_msg_seq == hs_msgs_before  # no new handshake messages
    hs_bytes_after = sum(
        s for n, _, s, _ in pair.driver.per_message if n not in ("app_data", "ack")
    )
    assert hs_bytes_after == hs_bytes_before  # zero additional handshake bytes

    # without CID the rebound record is dropped
    plain = run_handshake(Protocol.DTLS, AuthMode.PSK, seed=89)
    pserver = plain.assert_complete()
    [rec2] = plain.client.send_app_data(b"lost", now=20_000)
    assert plain.listener.receive(rec2.data, "client:4711", 20_010) == []
    assert not any(e.kind == EventKind.APP_DATA for e in pserver.event_log)
    ok(9, "CID keeps the session across rebinding with zero handshake bytes; no CID drops it")


def test_10_asymmetric_op_proxy():
    psk = run_handshake(Protocol.DTLS, AuthMode.PSK, seed=90)
    pserver = psk.assert_complete()
    for c in (psk.client.counters, pserver.counters):
        assert c.dh_ops == 0 and c.sign_ops == 0 and c.verify_ops == 0

    pk = run_handshake(Protocol.DTLS, AuthMode.PK_MUTUAL, seed=90)
    kserver = pk.assert_complete()
    for c in (pk.client.counters, kserver.counters):
        assert c.dh_ops >= 2 and c.sign_ops >= 1 and c.verify_ops >= 2
    ok(10, "asymmetric ops are zero in PSK runs and strictly nonzero in ECDHE-ECDSA runs")


def test_11_scenario_determinism(tmp_path):
    s = Scenario(profile="ecdsa128", protocol="dtls", mode="pk_mutual",
                 net=NetConfig(seed=31, loss_rate=0.1))
    blob1 = run_scenario(Scenario.from_dict(json.loads(json.dumps(s.to_dict())))).to_json().encode()
    blob2 = run_scenario(Scenario.from_dict(json.loads(json.dumps(s.to_dict())))).to_json().encode()
    (tmp_path / "r1.json").write_bytes(blob1)
    (tmp_path / "r2.json").write_bytes(blob2)
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    ok(11, "identical seeds reproduce byte-identical report files")
