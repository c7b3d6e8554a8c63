import gc
import itertools
import random
import tracemalloc
import weakref

import pytest

from minitls import ec, messages, records
from minitls.bench import Scenario, build_configs
from minitls.connection import (
    EPOCH_EARLY,
    EPOCH_HANDSHAKE,
    MAX_EARLY_DATA,
    SKIP_PAD_ALLOWANCE,
    TICKET_LIFETIME_S,
    Connection,
    EventKind,
    ServerListener,
    TicketState,
    resume_config,
)
from minitls.crypto import NamedGroup, Protocol, SignatureScheme, SuiteId
from minitls.errors import ConfigError, DecodeError, NotReady
from minitls.messages import HandshakeType, PskMode
from minitls.profiles import AuthMode, PskCredential
from minitls.records import MAX_PLAINTEXT, ContentType, TrafficKeys
from minitls.reliability import RECV_WINDOW_MSGS, DtlsReliability
from minitls.simnet import CLIENT, SERVER, NetConfig

from .harness import (
    Pair,
    count_backend_keys,
    filter_sends,
    make_configs,
    run_handshake,
    secrets_of,
    tamper_on_wire,
    transcript_types,
)
from .oracles import raw_binder_split, raw_psk_binder

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
    assert pair.client.transcript.messages == server.transcript.messages


SV, GROUPS, SIG_ALGS, SNI, CID, COOKIE, SHARE, EARLY, PSK_MODES, PSK = (
    messages.ExtensionType.SUPPORTED_VERSIONS,
    messages.ExtensionType.SUPPORTED_GROUPS,
    messages.ExtensionType.SIGNATURE_ALGORITHMS,
    messages.ExtensionType.SERVER_NAME,
    messages.ExtensionType.CONNECTION_ID,
    messages.ExtensionType.COOKIE,
    messages.ExtensionType.KEY_SHARE,
    messages.ExtensionType.EARLY_DATA,
    messages.ExtensionType.PSK_KEY_EXCHANGE_MODES,
    messages.ExtensionType.PRE_SHARED_KEY,
)
# mode -> (ClientHello extension types, ServerHello extension types), in wire order
HELLO_EXTENSIONS = {
    AuthMode.PSK: ([SV, PSK_MODES, PSK], [SV, PSK]),
    AuthMode.PSK_ECDHE: ([SV, GROUPS, SHARE, PSK_MODES, PSK], [SV, SHARE, PSK]),
    AuthMode.PK_SERVER_ONLY: ([SV, GROUPS, SIG_ALGS, SNI, SHARE], [SV, SHARE]),
    AuthMode.PK_MUTUAL: ([SV, GROUPS, SIG_ALGS, SNI, SHARE], [SV, SHARE]),
    AuthMode.ZERO_RTT: ([SV, EARLY, PSK_MODES, PSK], [SV, PSK]),
}


def sent_hellos(conn) -> list:
    """The ClientHellos and ServerHellos (HelloRetryRequests included) in ``conn``'s transcript."""
    hellos = (HandshakeType.CLIENT_HELLO, HandshakeType.SERVER_HELLO)
    return [messages.decode_handshake(raw) for raw in conn.transcript.messages if raw[0] in hellos]


def extension_types(msg) -> list:
    return list(msg.extensions)


@pytest.mark.parametrize("compat", [False, True], ids=["plain", "compat"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("mode", ALL_MODES)
def test_hellos_each_side_sends(mode, protocol, compat):
    kw = {"early_payload": b"x" * 16} if mode == AuthMode.ZERO_RTT else {}
    pair = run_handshake(protocol, mode, seed=3, client_over={"compat": compat}, **kw)
    pair.assert_complete()
    ch, sh = sent_hellos(pair.client)
    assert (extension_types(ch), extension_types(sh)) == HELLO_EXTENSIONS[mode]
    assert len(ch.legacy_session_id) == (32 if compat and protocol == Protocol.TLS else 0)
    assert sh.legacy_session_id_echo == ch.legacy_session_id
    if mode in (AuthMode.PK_SERVER_ONLY, AuthMode.PK_MUTUAL):
        [(_, share)] = messages.extension(ch, SHARE, messages.read_key_share_client)
        assert len(share) == 65
        sni = ch.extensions[SNI]
        assert sni == b"\x00\x0e" + b"\x00" + b"\x00\x0b" + b"iot.example"  # one host_name entry


def test_hellos_with_connection_ids_after_a_cookie_exchange():
    pair = run_handshake(
        Protocol.DTLS, AuthMode.PK_MUTUAL, seed=3, client_over={"cid": 0}, server_over={"cid": 4, "dos": True}
    )
    pair.assert_complete()
    hrr, ch, sh = sent_hellos(pair.client)
    assert messages.is_hello_retry_request(hrr)
    assert extension_types(hrr) == [SV, COOKIE]
    assert extension_types(ch) == [SV, GROUPS, SIG_ALGS, SNI, CID, COOKIE, SHARE]
    assert extension_types(sh) == [SV, CID, SHARE]
    assert messages.extension(ch, CID, messages.read_connection_id) == b""
    assert len(messages.extension(sh, CID, messages.read_connection_id)) == 4


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


# (mode, suite, group): P-256 on the default suite, and P-521 on 0x13A4 as
# the benchmark's ecdhe_clean rows pin it
VERIFY_MEMO_CASES = [
    (AuthMode.PK_MUTUAL, SuiteId.AES_128_CCM_SHA256, NamedGroup.SECP256R1),
    (AuthMode.PK_MUTUAL, SuiteId.AES_256_CCM_SHA384, NamedGroup.SECP521R1),
    (AuthMode.PK_SERVER_ONLY, SuiteId.AES_128_CCM_SHA256, NamedGroup.SECP256R1),
]


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("mode,suite,group", VERIFY_MEMO_CASES)
def test_each_signature_verified_once_in_the_backend(protocol, mode, suite, group, monkeypatch):
    # the signer's verify-after-sign self-check reaches OpenSSL; the peer's
    # check of the same bytes under its pinned anchor is answered by the memo
    client_cfg, server_cfg, deployment = make_configs(protocol, mode, seed=69, suite=suite, group=group)
    built = count_backend_keys(monkeypatch)
    pair = Pair(client_cfg, server_cfg, seed=69)
    pair.run()
    server = pair.assert_complete()
    signers = 2 if mode == AuthMode.PK_MUTUAL else 1
    credentials = {cred.public_point for cred in (deployment["client_ec"], deployment["server_ec"]) if cred}
    assert sum(point in credentials for point in built) == signers
    assert len(built) == signers + 2  # and one ECDH on each side
    assert ec.verify.cache_info().hits == signers
    # each side still counts every check it asks for
    assert pair.client.counters.verify_ops == server.counters.verify_ops == signers
    assert (pair.client.counters.sign_ops, server.counters.sign_ops) == (signers - 1, 1)


# (mode, suite, group, the side whose CertificateVerify is tampered)
CV_TAMPER_CASES = [
    (*case, signer)
    for case in VERIFY_MEMO_CASES
    for signer in ("server", "client")
    if signer == "server" or case[0] == AuthMode.PK_MUTUAL
]


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("mode,suite,group,signer", CV_TAMPER_CASES)
def test_tampered_certificate_verify_fails_with_the_genuine_one_memoized(
    protocol, mode, suite, group, signer, monkeypatch
):
    # the genuine run with the same seed leaves the genuine signature's tuple
    # in the memo; the signer's self-check finds it, the peer's check of the
    # flipped bit misses it and fails
    client_cfg, server_cfg, _ = make_configs(protocol, mode, seed=70, suite=suite, group=group)
    ec.verify.cache_clear()
    Pair(client_cfg, server_cfg, seed=70).run()
    hits = ec.verify.cache_info().hits

    def tamper(name, raw):
        return raw[:-1] + bytes([raw[-1] ^ 0x01]) if name == "certificate_verify" else None

    tamper_on_wire(monkeypatch, signer, tamper)
    pair = Pair(client_cfg, server_cfg, seed=70)
    pair.run(until_ms=5_000)
    verifier, signed = (pair.client, pair.server) if signer == "server" else (pair.server, pair.client)
    assert verifier.failed and verifier.failure == "bad_certificate_verify"
    assert not pair.client.connected
    # the signer reads decrypt_error (RFC 8446 section 4.4.3)
    assert signed.failure == "peer_alert" and signed.event_log[-1].detail["code"] == 51
    # the server's self-check; before the client's flight, its check of the
    # server's signature and its own self-check too
    assert ec.verify.cache_info().hits == hits + (1 if signer == "server" else 3)

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
def test_server_flight_corruption_detected(target, alert, monkeypatch):
    # flip one bit inside the named message body; the record seals fine but
    # verification on the peer must fail with the distinct classification
    def tamper(name, raw):
        if name == target:
            return raw[:-1] + bytes([raw[-1] ^ 0x01])
        return raw

    tamper_on_wire(monkeypatch, "server", tamper)
    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PK_MUTUAL, seed=4)
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

    def skip_server_certificate(self, msg, epoch, now):
        if self.role == "server" and msg.MSG_TYPE == HandshakeType.CERTIFICATE:
            return []
        return emit(self, msg, epoch, now)

    monkeypatch.setattr(Connection, "_emit", skip_server_certificate)
    pair = run_handshake(protocol, AuthMode.PK_MUTUAL, seed=3)
    assert pair.client.failed
    assert pair.client.failure == "unexpected_message"


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_bad_certificate_after_request_fails_in_wait_cert(protocol, monkeypatch):
    # between CertificateRequest and Certificate the client is in wait_cert,
    # which reports carry as failed_phase
    def tamper(name, raw):
        if name == "certificate":
            return raw[:-1] + bytes([raw[-1] ^ 0x01])
        return raw

    tamper_on_wire(monkeypatch, "server", tamper)
    client_cfg, server_cfg, _ = make_configs(protocol, AuthMode.PK_MUTUAL, seed=4)
    pair = Pair(client_cfg, server_cfg, seed=4)
    pair.run(until_ms=5_000)
    assert pair.client.failed
    assert pair.client.failed_from == "wait_cert"


def flip_legacy_version(target):
    """A ``tamper_on_wire`` tamper: flip a bit of the ``target`` hello's legacy_version, the
    first two body bytes, so its body no longer decodes."""

    def tamper(name, raw):
        return raw[:4] + bytes([raw[4] ^ 0x01]) + raw[5:] if name == target else raw

    return tamper


def client_hello_message_seq(seq):
    """A ``filter_sends`` filter: every ClientHello fragment the client sends claims ``seq``."""

    def keep(endpoint, rec, now):
        if endpoint == CLIENT and rec.name == "client_hello":
            at = records.DTLS12_RECORD_HEADER_LEN + 4  # the fragment's message_seq
            return rec._replace(data=rec.data[:at] + seq.to_bytes(2, "big") + rec.data[at + 2 :])
        return True

    return keep


@pytest.mark.parametrize("split", [False, True], ids=["whole", "split"])
@pytest.mark.parametrize(
    "case,alert,code",
    [
        ("no_common_suite", "handshake_failure", 40),
        ("bad_legacy_version", "decode_error", 50),
        ("message_seq_3", None, None),
    ],
    ids=["no_common_suite", "bad_legacy_version", "message_seq_3"],
)
def test_first_client_hello_outcome_does_not_depend_on_fragmentation(case, alert, code, split, monkeypatch):
    # every first ClientHello reaches a fresh server connection through the
    # (START, ClientHello) edge, so a hello that needs two datagrams ends as one
    # that fits: no common suite is handshake_failure (RFC 8446 section 4.1.1), an
    # undecodable body decode_error, and a first fragment past message_seq 0 is
    # not a first flight, so nothing is allocated
    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PSK, seed=65)
    client_cfg = client_cfg._replace(mtu=120 if split else 1280)
    if case == "no_common_suite":
        server_cfg = server_cfg._replace(suites=(SuiteId.AES_256_GCM_SHA384,))
    if case == "bad_legacy_version":
        tamper_on_wire(monkeypatch, "client", flip_legacy_version("client_hello"))
    pair = Pair(client_cfg, server_cfg, seed=65)
    if case == "message_seq_3":
        filter_sends(pair.driver, client_hello_message_seq(3))
    pair.run(until_ms=5_000)
    first_flight = [row for row in pair.driver.per_message if row[0] == "client_hello" and not row[3]]
    assert len(first_flight) == (2 if split else 1)
    if alert is None:
        assert pair.listener.allocated == 0
        assert not any(d == "s2c" for _, d, _, _ in pair.driver.per_message)
        return
    assert pair.listener.allocated == 1
    assert pair.server.failure == alert and pair.server.failed_from == "start"
    assert pair.client.failure == "peer_alert"
    assert pair.client.event_log[-1].detail["code"] == code


def test_failed_server_connection_gives_up_its_address():
    # the server's one fatal alert is lost; the client's retransmitted
    # ClientHello reaches a fresh connection, whose alert ends the handshake
    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PSK, seed=67, suite=SuiteId.AES_256_CCM_SHA384)
    server_cfg = server_cfg._replace(suites=(SuiteId.AES_128_CCM_SHA256,))
    pair = Pair(client_cfg, server_cfg, seed=67)
    dropped = []

    def drop_first_alert(endpoint, rec, now):
        if endpoint != CLIENT and rec.name == "alert" and not dropped:
            dropped.append(now)
            return False
        return True

    filter_sends(pair.driver, drop_first_alert)
    pair.run(until_ms=300_000)
    assert len(dropped) == 1
    assert pair.client.failure == "peer_alert"
    assert pair.listener.allocated == 2
    hellos = [row for row in pair.driver.per_message if row[0] == "client_hello"]
    assert [rt for _, _, _, rt in hellos] == [False, True]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_undecodable_server_hello_is_decode_error(protocol, monkeypatch):
    # an in-order epoch-0 hello whose body does not decode is answered with
    # decode_error by either role; dropping it would buy nothing, since a
    # well-formed forged hello derails epoch 0 anyway
    tamper_on_wire(monkeypatch, "server", flip_legacy_version("server_hello"))
    client_cfg, server_cfg, _ = make_configs(protocol, AuthMode.PSK, seed=66)
    pair = Pair(client_cfg, server_cfg, seed=66)
    pair.run(until_ms=5_000)
    assert pair.client.failure == "decode_error" and pair.client.failed_from == "wait_sh"
    assert pair.server.failure == "peer_alert"


def rewrite_server_message(target, edit):
    """A ``tamper_on_wire`` tamper: decode the ``target`` message, and send the one
    ``edit`` returns for it, encoded."""
    def tamper(name, raw):
        if name != target:
            return None
        return messages.tls_form(edit(messages.decode_handshake(raw)))

    return tamper


def set_extension(msg, ext):
    """Put the ``(type, data)`` pair ``ext`` last in ``msg``'s extensions, in place of any of its type."""
    drop_extension(msg, ext[0])
    msg.extensions.update([ext])
    return msg


def drop_extension(msg, ext_type):
    msg.extensions.pop(ext_type, None)
    return msg


TWO_SUITES = (SuiteId.AES_128_CCM_SHA256, SuiteId.AES_256_CCM_SHA384)

# (mode, client suites, the server's edit of its ServerHello or EncryptedExtensions,
# alert, the alert code the server reads)
SERVER_HELLO_CHECKS = {
    "suite-not-offered": (  # RFC 8446 section 4.1.3
        AuthMode.PK_SERVER_ONLY, None,
        rewrite_server_message("server_hello", lambda sh: sh._replace(cipher_suite=0x1301)),
        "illegal_parameter", 47,
    ),
    "psk-accepted-with-another-suite": (  # RFC 8446 section 4.2.11
        AuthMode.PSK, TWO_SUITES,
        rewrite_server_message("server_hello", lambda sh: sh._replace(cipher_suite=0x13A4)),
        "illegal_parameter", 47,
    ),
    "share-for-a-group-not-offered": (
        AuthMode.PK_SERVER_ONLY, None,
        rewrite_server_message("server_hello", lambda sh: set_extension(
            sh, messages.ext_key_share_server(int(NamedGroup.SECP521R1), b"\x04" + bytes(132)))),
        "handshake_failure", 40,
    ),
    "no-key-share-in-ecdhe-mode": (
        AuthMode.PK_SERVER_ONLY, None,
        rewrite_server_message("server_hello", lambda sh: drop_extension(sh, messages.ExtensionType.KEY_SHARE)),
        "unexpected_message", 10,
    ),
    "psk-identity-not-offered": (  # RFC 8446 section 4.2.11: the client offered one identity
        AuthMode.PSK, None,
        rewrite_server_message("server_hello", lambda sh: set_extension(sh, messages.ext_pre_shared_key_server(1))),
        "illegal_parameter", 47,
    ),
    "psk-never-offered": (  # RFC 8446 section 4.2
        AuthMode.PK_SERVER_ONLY, None,
        rewrite_server_message("server_hello", lambda sh: set_extension(sh, messages.ext_pre_shared_key_server(0))),
        "unsupported_extension", 110,
    ),
    "early-data-never-sent": (
        AuthMode.PSK, None,
        rewrite_server_message("encrypted_extensions", lambda ee: set_extension(ee, messages.ext_early_data())),
        "unexpected_message", 10,
    ),
}


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("case", sorted(SERVER_HELLO_CHECKS))
def test_client_rejects_server_hello_or_extensions_it_did_not_ask_for(case, protocol, monkeypatch):
    # RFC 8446 sections 4.1.3, 4.2.8 and 4.2.10: each is a server answer the
    # client's own offer rules out
    mode, suites, tamper, alert, code = SERVER_HELLO_CHECKS[case]
    tamper_on_wire(monkeypatch, "server", tamper)
    client_cfg, server_cfg, _ = make_configs(protocol, mode, seed=67)
    if suites is not None:
        client_cfg = client_cfg._replace(suites=suites)
    pair = Pair(client_cfg, server_cfg, seed=67)
    pair.run(until_ms=5_000)
    assert pair.client.failed and pair.client.failure == alert
    assert not pair.client.connected
    assert pair.server.failure == "peer_alert" and pair.server.event_log[-1].detail["code"] == code


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize(
    "mode,signer",
    [(AuthMode.PK_SERVER_ONLY, "server"), (AuthMode.PK_MUTUAL, "server"), (AuthMode.PK_MUTUAL, "client")],
)
@pytest.mark.parametrize(
    "scheme", [0x0807, SignatureScheme.ECDSA_SECP521R1_SHA512], ids=["unknown_ed25519", "p521_not_offered"]
)
def test_certificate_verify_scheme_not_offered_is_illegal_parameter(protocol, mode, signer, scheme, monkeypatch):
    # RFC 8446 section 4.4.3: the scheme must be one the verifier offered, here
    # only P-256's; 0x0807 is a scheme this package does not know at all
    def tamper(name, raw):
        return raw[:4] + scheme.to_bytes(2, "big") + raw[6:] if name == "certificate_verify" else None

    tamper_on_wire(monkeypatch, signer, tamper)
    pair = run_handshake(protocol, mode, seed=71)
    verifier = pair.client if signer == "server" else pair.server
    assert (verifier.failure, verifier.failed_from) == ("illegal_parameter", "wait_cv")


def test_second_hello_retry_request_is_unexpected(monkeypatch):
    # the listener's stateless HelloRetryRequest was the one a handshake may
    # have (RFC 8446 section 4.1.4); the server's ServerHello is sent as another
    def tamper(name, raw):
        if name == "server_hello":
            return messages.tls_form(messages.build_hello_retry_request(int(SuiteId.AES_128_CCM_SHA256), bytes(8)))
        return None

    tamper_on_wire(monkeypatch, "server", tamper)
    pair = dos_pair(seed=72)
    pair.run(until_ms=5_000)
    assert COOKIE in pair.client.hello.extensions
    assert (pair.client.failure, pair.client.failed_from) == ("unexpected_message", "wait_sh")


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_hello_retry_request_with_a_suite_not_offered_rejected(protocol, monkeypatch):
    # the client offers only AES-128-CCM (RFC 8446 section 4.1.4)
    def tamper(name, raw):
        if name == "server_hello":
            return messages.tls_form(messages.build_hello_retry_request(int(SuiteId.AES_256_GCM_SHA384), bytes(8)))
        return None

    tamper_on_wire(monkeypatch, "server", tamper)
    pair = run_handshake(protocol, AuthMode.PSK, seed=72)
    assert (pair.client.failure, pair.client.failed_from) == ("illegal_parameter", "wait_sh")


def supported_versions(*versions):
    """A ClientHello's supported_versions (RFC 8446 section 4.2.1) listing ``versions``."""
    body = b"".join(v.to_bytes(2, "big") for v in versions)
    return messages.ExtensionType.SUPPORTED_VERSIONS, bytes([len(body)]) + body


# (the edit of the server's hello, the alert the client ends with, the code the server reads)
SERVER_VERSION_CHECKS = {
    "no-supported-versions": (  # RFC 8446 section 4.2.1
        lambda hello: drop_extension(hello, messages.ExtensionType.SUPPORTED_VERSIONS),
        "protocol_version", 70,
    ),
    "version-not-offered": (  # RFC 8446 section 4.2.1
        lambda hello: set_extension(hello, (messages.ExtensionType.SUPPORTED_VERSIONS, (0x0303).to_bytes(2, "big"))),
        "illegal_parameter", 47,
    ),
    "another-session-id": (  # RFC 8446 section 4.1.3
        lambda hello: hello._replace(legacy_session_id_echo=bytes(range(32))),
        "illegal_parameter", 47,
    ),
}


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("hrr", [False, True], ids=["server_hello", "hello_retry_request"])
@pytest.mark.parametrize("case", sorted(SERVER_VERSION_CHECKS))
def test_client_refuses_a_hello_of_a_version_or_session_it_did_not_offer(case, hrr, protocol, monkeypatch):
    # a TLS client in compatibility mode sends a 32-byte legacy_session_id to be echoed
    edit, alert, code = SERVER_VERSION_CHECKS[case]

    def tamper(name, raw):
        if name != "server_hello":
            return None
        hello = messages.decode_handshake(raw)
        if hrr:
            hello = messages.build_hello_retry_request(hello.cipher_suite, bytes(8), hello.legacy_session_id_echo)
        return messages.tls_form(edit(hello))

    tamper_on_wire(monkeypatch, "server", tamper)
    pair = run_handshake(protocol, AuthMode.PSK, seed=75, compat=protocol == Protocol.TLS)
    assert (pair.client.failure, pair.client.failed_from) == (alert, "wait_sh")
    assert pair.server.failure == "peer_alert" and pair.server.event_log[-1].detail["code"] == code


# (the edit of the client's ClientHello, the alert the server ends with, the code the client reads)
CLIENT_HELLO_CHECKS = {
    "no-supported-versions": (  # RFC 8446 section 4.2.1
        lambda ch: drop_extension(ch, messages.ExtensionType.SUPPORTED_VERSIONS),
        "protocol_version", 70,
    ),
    "lacks-this-version": (  # RFC 8446 section 4.2.1
        lambda ch: set_extension(ch, supported_versions(0x0303, 0x0302)),
        "protocol_version", 70,
    ),
    "psk-without-psk-modes": (  # RFC 8446 sections 4.2.9 and 9.2
        lambda ch: drop_extension(ch, messages.ExtensionType.PSK_KEY_EXCHANGE_MODES),
        "missing_extension", 109,
    ),
    "supported-groups-without-key-share": (  # RFC 8446 section 9.2
        lambda ch: set_extension(ch, messages.ext_supported_groups([int(NamedGroup.SECP256R1)])),
        "missing_extension", 109,
    ),
}


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("case", sorted(CLIENT_HELLO_CHECKS))
def test_server_refuses_a_client_hello_without_this_version_or_psk_modes(case, protocol, monkeypatch):
    edit, alert, code = CLIENT_HELLO_CHECKS[case]

    def tamper(name, raw):
        if name != "client_hello":
            return None
        ch = messages.decode_handshake(raw)
        psk = ch.extensions.popitem()  # pre_shared_key stays last
        ch = edit(ch)
        ch.extensions.update([psk])
        return messages.tls_form(ch)

    tamper_on_wire(monkeypatch, "client", tamper)
    pair = run_handshake(protocol, AuthMode.PSK, seed=76)
    assert (pair.server.failure, pair.server.failed_from) == (alert, "start")
    assert pair.client.failure == "peer_alert" and pair.client.event_log[-1].detail["code"] == code


def dtls_client_hello(datagram):
    """The ClientHello in the first record of ``datagram``, whole in one fragment."""
    _, _, payload, _ = records.parse_dtls_plaintext(bytes(datagram), 0)
    return messages.decode_handshake(messages.parse_dtls_fragment(payload)[0].to_tls_form())


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_hello_retry_request_without_a_cookie_is_illegal_parameter(protocol):
    # a cookie is the one thing this client changes its ClientHello for, so a
    # HelloRetryRequest without one would not change it (RFC 8446 section 4.1.4)
    client_cfg, _, _ = make_configs(protocol, AuthMode.PSK, seed=77)
    client = Connection(client_cfg, "client", random.Random(77))
    client.start(0)
    hrr = messages.build_hello_retry_request(int(client.suite), bytes(8))
    del hrr.extensions[messages.ExtensionType.COOKIE]
    raw = messages.tls_form(hrr)
    if protocol == Protocol.TLS:
        [alert] = client.handle(records.encode_tls_plaintext(ContentType.HANDSHAKE, raw), 10)
        body = alert.data[5:]
    else:
        frag = messages.DtlsFragment(raw[0], len(raw) - 4, 0, 0, raw[4:]).encode()
        [alert] = client.handle(records.encode_dtls_plaintext(ContentType.HANDSHAKE, 0, frag), 10)
        _, _, body, _ = records.parse_dtls_plaintext(alert.data, 0)
    assert (client.failure, client.failed_from) == ("illegal_parameter", "wait_sh")
    assert alert.name == "alert" and body == bytes([2, 47])


@pytest.mark.parametrize("protocol", PROTOCOLS, ids=["tls-compat", "dtls-dos"])
def test_retried_client_hello_keeps_its_legacy_session_id(protocol):
    # RFC 8446 section 4.1.2: the ClientHello that answers a HelloRetryRequest
    # changes only the key share, early_data, cookie, pre_shared_key and padding;
    # a TLS client in compatibility mode sends a 32-byte legacy_session_id
    if protocol == Protocol.TLS:
        client_cfg, _, _ = make_configs(Protocol.TLS, AuthMode.PSK, seed=77, compat=True)
        client = Connection(client_cfg, "client", random.Random(77))
        first = messages.decode_handshake(client.start(0)[0].data[5:])
        hrr = messages.build_hello_retry_request(int(client.suite), bytes(8), first.legacy_session_id)
        retry = client.handle(records.encode_tls_plaintext(ContentType.HANDSHAKE, messages.tls_form(hrr)), 10)
        second = messages.decode_handshake(retry[0].data[5:])
    else:  # the listener's stateless HelloRetryRequest
        pair = dos_pair(seed=77)
        client = pair.client
        sent = client.start(0)[0].data
        [hrr_rec] = pair.listener.receive(sent, "client:0", 0)
        first, second = dtls_client_hello(sent), dtls_client_hello(client.handle(hrr_rec.data, 10)[0].data)
    assert COOKIE in client.hello.extensions and len(first.legacy_session_id) == (32 if protocol == Protocol.TLS else 0)
    assert second.legacy_session_id == first.legacy_session_id
    assert second.random == first.random


# (client mode, the psk_key_exchange_modes it lists, whether the server selects the PSK,
# the key exchanges the server makes)
PSK_MODE_CASES = {
    "psk_ke-ignores-the-key-share": (AuthMode.PSK_ECDHE, [PskMode.PSK_KE], True, 0),
    "psk_dhe_ke-needs-a-key-share": (AuthMode.PSK, [PskMode.PSK_DHE_KE], False, 0),
    "no-known-mode-takes-the-certificate": (AuthMode.PSK_ECDHE, [7], False, 2),
}


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("case", sorted(PSK_MODE_CASES))
def test_server_uses_a_psk_only_in_a_mode_the_client_lists(case, protocol, monkeypatch):
    # RFC 8446 section 4.2.9: under psk_ke the server ignores the key share,
    # psk_dhe_ke needs one; a PSK in no listed mode is not selected, so the
    # certificate path (the client pins the server's key) or handshake_failure follows
    mode, listed, selected, dh_ops = PSK_MODE_CASES[case]
    build = messages.ext_psk_modes
    monkeypatch.setattr(messages, "ext_psk_modes", lambda modes: build(listed))
    client_cfg, server_cfg, deployment = make_configs(protocol, mode, seed=78)
    client_cfg = client_cfg._replace(peer_ec=deployment["server_ec"].public_point)
    pair = Pair(client_cfg, server_cfg, seed=78)
    pair.run(until_ms=5_000)
    server = pair.server
    assert (server.psk_in_use is not None) == selected
    assert server.counters.dh_ops == dh_ops
    if case == "psk_ke-ignores-the-key-share":  # the client offered no psk_ke of its own
        assert pair.client.failure == "unexpected_message" and server.failure == "peer_alert"
    elif mode == AuthMode.PSK:
        assert server.failure == "handshake_failure" and pair.client.failure == "peer_alert"
    else:
        pair.assert_complete()
        assert server.counters.sign_ops == 1


def test_client_hello1_hashed_with_the_hello_retry_request_suite():
    # the listener's stateless HelloRetryRequest picks the server's SHA-384 suite,
    # which the client offered second; both sides hash ClientHello1 into
    # message_hash with SHA-384 (RFC 8446 section 4.4.1)
    suites = (SuiteId.AES_128_CCM_SHA256, SuiteId.AES_256_CCM_SHA384)
    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PK_SERVER_ONLY, seed=74)
    client_cfg = client_cfg._replace(suites=suites)
    server_cfg = server_cfg._replace(suites=suites[::-1], dos=True)
    pair = Pair(client_cfg, server_cfg, seed=74)
    pair.run(until_ms=10_000)
    server = pair.assert_complete()
    assert COOKIE in pair.client.hello.extensions and pair.client.suite == SuiteId.AES_256_CCM_SHA384
    message_hash = pair.client.transcript.messages[0]
    assert message_hash[0] == HandshakeType.MESSAGE_HASH and len(message_hash) == 4 + 48
    assert pair.client.transcript.messages == server.transcript.messages


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_zero_rtt_offer_whose_psk_is_declined_fails(protocol, monkeypatch):
    # a 0-RTT client offers no key share, so a ServerHello without
    # pre_shared_key leaves it no way to key the handshake
    tamper = rewrite_server_message("server_hello", lambda sh: drop_extension(sh, messages.ExtensionType.PRE_SHARED_KEY))
    tamper_on_wire(monkeypatch, "server", tamper)
    pair = run_handshake(protocol, AuthMode.ZERO_RTT, seed=73, early_payload=b"early")
    assert (pair.client.failure, pair.client.failed_from) == ("unexpected_message", "wait_sh")


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize(
    "server_over",
    [
        {"groups": (NamedGroup.SECP521R1,)},  # the client's only key share is P-256
        {"local_ec": None},  # no PSK offered, no certificate to fall back on
    ],
    ids=["no_common_group", "neither_psk_nor_certificate"],
)
def test_server_without_a_common_key_share_or_authentication_fails(protocol, server_over):
    pair = run_handshake(protocol, AuthMode.PK_SERVER_ONLY, seed=74, server_over=server_over)
    assert (pair.server.failure, pair.server.failed_from) == ("handshake_failure", "start")
    assert pair.client.failure == "peer_alert"


# (mode, server has a certificate, the suite both sides settle on, the PSK is used)
MIXED_HASH_OUTCOMES = [
    (AuthMode.PK_SERVER_ONLY, True, SuiteId.AES_256_CCM_SHA384, False),
    (AuthMode.PK_MUTUAL, True, SuiteId.AES_256_CCM_SHA384, False),
    (AuthMode.PSK, True, SuiteId.AES_128_CCM_SHA256, True),
    (AuthMode.PSK_ECDHE, True, SuiteId.AES_128_CCM_SHA256, True),
    (AuthMode.PSK_ECDHE, False, SuiteId.AES_128_CCM_SHA256, True),
]


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("mode,server_cert,suite,with_psk", MIXED_HASH_OUTCOMES)
def test_psk_keyed_for_another_hash_picks_a_suite_of_its_hash(protocol, mode, server_cert, suite, with_psk):
    # the client offers SHA-256 and SHA-384 suites and keys its binder under the
    # first; the server prefers the SHA-384 suite, yet for a PSK it accepts it
    # picks its most-preferred shared suite of the binder's hash (RFC 8446
    # section 4.2.11); with no PSK offered its preference stands
    client_cfg, server_cfg, _ = make_configs(protocol, mode, seed=68)
    client_cfg = client_cfg._replace(suites=TWO_SUITES)
    server_cfg = server_cfg._replace(suites=TWO_SUITES[::-1], local_ec=server_cfg.local_ec if server_cert else None)
    pair = Pair(client_cfg, server_cfg, seed=68)
    pair.run(until_ms=5_000)
    server = pair.assert_complete()
    assert pair.client.suite == server.suite == suite
    assert (pair.client.psk_in_use is not None) == (server.psk_in_use is not None) == with_psk
    assert secrets_of(pair.client) == secrets_of(server)


# (mode, server alert or None when the handshake completes without the PSK)
UNSERVABLE_PSK_OUTCOMES = [(AuthMode.PSK, "handshake_failure"), (AuthMode.PSK_ECDHE, None)]


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("mode,alert", UNSERVABLE_PSK_OUTCOMES)
def test_psk_keyed_for_a_hash_the_server_lacks_is_not_selected(protocol, mode, alert):
    # the server enables only the SHA-384 suite, which a binder keyed under
    # SHA-256 cannot serve: it takes the certificate path, which the client's
    # pin of the server key accepts, or fails
    client_cfg, server_cfg, deployment = make_configs(protocol, mode, seed=68)
    client_cfg = client_cfg._replace(suites=TWO_SUITES, peer_ec=deployment["server_ec"].public_point)
    server_cfg = server_cfg._replace(suites=TWO_SUITES[1:])
    pair = Pair(client_cfg, server_cfg, seed=68)
    pair.run(until_ms=5_000)
    if alert is not None:
        assert pair.server.failed and pair.server.failure == alert
        assert not pair.client.connected
        return
    server = pair.assert_complete()
    assert pair.client.suite == server.suite == SuiteId.AES_256_CCM_SHA384
    assert pair.client.psk_in_use is None and server.psk_in_use is None


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_ticket_keyed_for_another_hash_picks_a_suite_of_its_hash(protocol):
    # a live ticket from a SHA-256 session, offered with both suites to a
    # server that prefers SHA-384, resumes on the SHA-256 suite
    first = ticketed_pair(protocol)
    first.assert_complete()
    ticket = first.client.client_tickets[0]
    resumed_cfg = resume_config(first.client.cfg, ticket)._replace(suites=TWO_SUITES)
    pair = Pair(resumed_cfg, first.listener.cfg._replace(suites=TWO_SUITES[::-1]), seed=17)
    pair.listener.ticket_db = first.listener.ticket_db
    pair.run(until_ms=5_000)
    server = pair.assert_complete()
    assert pair.client.suite == server.suite == SuiteId.AES_128_CCM_SHA256
    assert server.psk_in_use is not None and server.psk_in_use.secret == ticket.secret


def plaintext_handshake(protocol, raw: bytes) -> bytes:
    """An epoch-0 record carrying the TLS-form handshake messages ``raw``;
    on DTLS one message, as the server's msg_seq 1 in record seq 1."""
    if protocol == Protocol.TLS:
        return records.encode_tls_plaintext(ContentType.HANDSHAKE, raw)
    frag = messages.DtlsFragment(raw[0], len(raw) - 4, 1, 0, raw[4:])
    return records.encode_dtls_plaintext(ContentType.HANDSHAKE, 1, frag.encode())


def server_message(pair, msg_type) -> bytes:
    return next(raw for raw in pair.server.transcript.messages if raw[0] == msg_type)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_plaintext_handshake_record_carries_only_hellos(protocol):
    # the server's protected EncryptedExtensions goes out as a plaintext
    # record: TLS must fail (RFC 8446 section 5), DTLS drops the record
    # (RFC 9147 section 4.5.2) and completes from the retransmitted copy
    client_cfg, server_cfg, _ = make_configs(protocol, AuthMode.PSK, seed=61)
    pair = Pair(client_cfg, server_cfg, seed=61)
    swapped = []

    def unprotect_ee(endpoint, rec, now):
        if endpoint != CLIENT and rec.name == "encrypted_extensions" and not swapped:
            swapped.append(rec.data)
            forged = plaintext_handshake(protocol, server_message(pair, HandshakeType.ENCRYPTED_EXTENSIONS))
            return rec._replace(data=forged)
        return True

    filter_sends(pair.driver, unprotect_ee)
    pair.run(until_ms=10_000)
    assert swapped
    if protocol == Protocol.TLS:
        assert pair.client.failure == "unexpected_message"
        assert pair.client.failed_from == "wait_ee"
    else:
        pair.assert_complete()
        assert any(d == "s2c" and rt for _, d, _, rt in pair.driver.per_message)


@pytest.mark.parametrize("ee_bytes", [None, 3], ids=["whole-ee", "part-of-the-ee-header"])
def test_tls_handshake_message_spanning_key_change_rejected(ee_bytes):
    # ServerHello and EncryptedExtensions, whole or its first bytes, in one
    # plaintext record: EE would span the switch to handshake keys (RFC 8446 section 5.1)
    client_cfg, server_cfg, _ = make_configs(Protocol.TLS, AuthMode.PSK, seed=62)
    pair = Pair(client_cfg, server_cfg, seed=62)

    def coalesce(endpoint, rec, now):
        if endpoint == CLIENT:
            return True
        if rec.name == "server_hello":
            ee = server_message(pair, HandshakeType.ENCRYPTED_EXTENSIONS)[:ee_bytes]
            sh = server_message(pair, HandshakeType.SERVER_HELLO)
            return rec._replace(data=plaintext_handshake(Protocol.TLS, sh + ee))
        return rec.name != "encrypted_extensions"

    filter_sends(pair.driver, coalesce)
    pair.run(until_ms=10_000)
    assert pair.client.failure == "unexpected_message"
    assert pair.client.failed_from == "wait_ee"  # raised once ServerHello switched keys


def prepend_once(pair, sender: str, record_name: str, forge) -> list:
    """Through ``filter_sends``, put the bytes ``forge()`` returns in front of the
    first ``record_name`` record that ``sender`` ("client" or "server") sends, in
    the same datagram; returns the list that records when it did."""
    done = []

    def keep(endpoint, rec, now):
        if (endpoint == CLIENT) == (sender == "client") and rec.name == record_name and not done:
            done.append(now)
            return rec._replace(data=forge() + rec.data)
        return True

    filter_sends(pair.driver, keep)
    return done


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_plaintext_record_over_the_limit(protocol):
    # a 16,385-byte plaintext record in front of the ServerHello: TLS ends
    # record_overflow, alert 22, at its header (RFC 8446 section 5.1); DTLS drops
    # it with the rest of its datagram (RFC 9147 section 4.5.2) and completes from
    # the retransmitted flight
    client_cfg, server_cfg, _ = make_configs(protocol, AuthMode.PSK, seed=61)
    pair = Pair(client_cfg, server_cfg, net=NetConfig(latency_ms=10, mtu=30_000, seed=61), seed=61)
    junk = bytes(MAX_PLAINTEXT + 1)
    if protocol == Protocol.TLS:
        forged = records.encode_tls_plaintext(ContentType.HANDSHAKE, junk)
    else:
        forged = records.encode_dtls_plaintext(ContentType.HANDSHAKE, 0, junk)
    done = prepend_once(pair, "server", "server_hello", lambda: forged)
    pair.run(until_ms=10_000)
    assert done
    if protocol == Protocol.TLS:
        assert (pair.client.failure, pair.client.failed_from) == ("record_overflow", "wait_sh")
        assert pair.server.failure == "peer_alert" and pair.server.event_log[-1].detail["code"] == 22
    else:
        pair.assert_complete()
        assert pair.driver.wire["retransmitted_bytes"] > 0


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_unknown_external_psk_identity(protocol):
    # with no key share there is no certificate to fall back on (RFC 8446 section 6.2)
    client_cfg, server_cfg, deployment = make_configs(protocol, AuthMode.PSK, seed=76)
    client_cfg = client_cfg._replace(psk=deployment["psk"]._replace(identity=b"someone-else"))
    pair = Pair(client_cfg, server_cfg, seed=76)
    pair.run(until_ms=5_000)
    assert (pair.server.failure, pair.server.failed_from) == ("unknown_psk_identity", "start")
    assert pair.client.failure == "peer_alert" and pair.client.event_log[-1].detail["code"] == 115


def test_malformed_plaintext_fragment_header_dropped():
    # an epoch-0 record whose fragment header claims 50 bytes and carries 1 is
    # unauthenticated: it is dropped before the replay window sees its record
    # number, and the ServerHello behind it in the datagram is still read
    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PSK, seed=61)
    pair = Pair(client_cfg, server_cfg, seed=61)
    header = bytes([HandshakeType.SERVER_HELLO]) + (50).to_bytes(3, "big") + bytes(5) + (50).to_bytes(3, "big")
    forged = records.encode_dtls_plaintext(ContentType.HANDSHAKE, 0, header + b"\x00")
    done = prepend_once(pair, "server", "server_hello", lambda: forged)
    pair.run(until_ms=10_000)
    assert done
    pair.assert_complete()
    assert pair.driver.wire["retransmitted_bytes"] == 0


@pytest.mark.parametrize(
    "msg_type,msg_seq,sender,record_name",
    [
        # to the client: its own ClientHello, msg_seq 0, next to the ServerHello
        (HandshakeType.CLIENT_HELLO, 0, "server", "server_hello"),
        # to the server: its own ServerHello, msg_seq 1, next to the client's Finished
        (HandshakeType.SERVER_HELLO, 1, "client", "finished"),
    ],
    ids=["client", "server"],
)
def test_plaintext_hello_of_the_other_role_dropped(msg_type, msg_seq, sender, record_name):
    """In epoch 0 a client reads only ServerHello/HelloRetryRequest and a server
    only ClientHello (RFC 9147 section 6.1), so a well-formed plaintext hello of
    the other role's type is dropped.  A well-formed forged hello of the type
    the role does read can still derail the exchange; that is out of scope."""
    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PSK, seed=61)
    pair = Pair(client_cfg, server_cfg, seed=61)

    def hello():
        raw = server_message(pair, msg_type)
        frag = messages.DtlsFragment(msg_type, len(raw) - 4, msg_seq, 0, raw[4:])
        return records.encode_dtls_plaintext(ContentType.HANDSHAKE, msg_seq, frag.encode())

    done = prepend_once(pair, sender, record_name, hello)
    pair.run(until_ms=10_000)
    assert done
    pair.assert_complete()
    assert pair.driver.wire["retransmitted_bytes"] == 0


@pytest.mark.parametrize(
    "bits,sender,record_name",
    [
        (0, "server", "encrypted_extensions"),  # epoch 0 carries no protected records
        (1, "server", "encrypted_extensions"),  # a client never reads 0-RTT
        (1, "client", "finished"),  # a server that took no 0-RTT holds no epoch-1 keys
    ],
    ids=["epoch0-to-client", "epoch1-to-client", "epoch1-to-server"],
)
def test_record_for_an_epoch_without_read_keys_dropped(bits, sender, record_name):
    """Only epochs 1-3 exist (there is no KeyUpdate), so the unified header's
    epoch bits are the epoch (RFC 9147 section 4).  A record whose bits name an
    epoch the receiver holds no read keys for is dropped silently, even when it
    is sealed under keys the receiver does hold: here a fatal alert under the
    sender's handshake keys, with a length field so the real record behind it
    in the datagram is still read."""
    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PSK, seed=62)
    pair = Pair(client_cfg, server_cfg, seed=62)

    def alert_under_handshake_keys():
        conn = pair.client if sender == "client" else pair.server
        keys = conn.epochs[EPOCH_HANDSHAKE]["write"]
        copy = TrafficKeys(keys.key, keys.iv, keys.sn_key)
        return records.seal_dtls(conn.params, copy, bits, ContentType.ALERT, bytes([2, 40]), length_present=True)

    done = prepend_once(pair, sender, record_name, alert_under_handshake_keys)
    pair.run(until_ms=10_000)
    assert done
    pair.assert_complete()
    assert pair.driver.wire["retransmitted_bytes"] == 0


def server_record(pair, protocol, protected: bool, content_type: int, body: bytes) -> bytes:
    """One record as the server would send it: plaintext, or sealed under a fresh
    copy of its handshake write keys, so it takes the record number of the first
    handshake-epoch record, the one it is put in front of."""
    if not protected:
        if protocol == Protocol.TLS:
            return records.encode_tls_plaintext(content_type, body)
        return records.encode_dtls_plaintext(content_type, 0, body)
    keys = pair.server.epochs[EPOCH_HANDSHAKE]["write"]
    copy = TrafficKeys(keys.key, keys.iv, keys.sn_key)
    if protocol == Protocol.TLS:
        return records.seal_tls(pair.server.params, copy, content_type, body)
    return records.seal_dtls(pair.server.params, copy, EPOCH_HANDSHAKE, content_type, body, length_present=True)


ALERT_40 = bytes([2, 40])


@pytest.mark.parametrize(
    "protocol,protected,content_type,body,outcome",
    [
        # epoch 0 takes alerts, handshake messages and a compat CCS; any other
        # outer type is malformed (RFC 8446 section 5)
        (Protocol.TLS, False, ContentType.ACK, b"\x00\x00", "decode_error"),
        (Protocol.TLS, False, 99, b"\x00", "decode_error"),
        # a protected record carries no CCS (RFC 8446 section 5), and ACK is DTLS only
        (Protocol.TLS, True, ContentType.CHANGE_CIPHER_SPEC, b"\x01", "unexpected_message"),
        (Protocol.TLS, True, ContentType.ACK, b"\x00\x00", "unexpected_message"),
        (Protocol.DTLS, True, ContentType.CHANGE_CIPHER_SPEC, b"\x01", "unexpected_message"),
        # a DTLS ACK lists 16-byte record numbers (RFC 9147 section 7)
        (Protocol.DTLS, True, ContentType.ACK, b"\x00\x05" + bytes(5), "decode_error"),
        # a plaintext CCS in the middle of the handshake is ignored
        (Protocol.TLS, False, ContentType.CHANGE_CIPHER_SPEC, b"\x01", None),
        (Protocol.DTLS, False, ContentType.CHANGE_CIPHER_SPEC, b"\x01", None),
        # an alert ends the connection, plaintext or protected
        (Protocol.TLS, False, ContentType.ALERT, ALERT_40, "peer_alert"),
        (Protocol.DTLS, False, ContentType.ALERT, ALERT_40, "peer_alert"),
        (Protocol.TLS, True, ContentType.ALERT, ALERT_40, "peer_alert"),
        (Protocol.DTLS, True, ContentType.ALERT, ALERT_40, "peer_alert"),
    ],
    ids=[
        "tls-plain-26", "tls-plain-99", "tls-protected-ccs", "tls-protected-ack", "dtls-protected-ccs",
        "dtls-protected-ack-of-5-bytes",
        "tls-plain-ccs", "dtls-plain-ccs", "tls-plain-alert", "dtls-plain-alert", "tls-protected-alert",
        "dtls-protected-alert",
    ],
)
def test_record_content_type_classification(protocol, protected, content_type, body, outcome):
    """Each record's content type, read in epoch 0 or under protection, ends in one
    outcome; the record rides in front of the server's EncryptedExtensions."""
    client_cfg, server_cfg, _ = make_configs(protocol, AuthMode.PSK, seed=67)
    pair = Pair(client_cfg, server_cfg, seed=67)
    done = prepend_once(
        pair, "server", "encrypted_extensions",
        lambda: server_record(pair, protocol, protected, content_type, body),
    )
    pair.run(until_ms=10_000)
    assert done
    if outcome is None:
        pair.assert_complete()
        assert pair.driver.wire["retransmitted_bytes"] == 0
        return
    assert pair.client.failure == outcome and pair.client.failed_from == "wait_ee"
    if outcome == "peer_alert":
        [alert] = [e for e in pair.client.event_log if e.kind == EventKind.ALERT]
        assert alert.detail["code"] == 40


def test_tls_record_that_does_not_open_is_bad_record_mac():
    # a TLS server that declined no early data ends on a record that does not
    # open (RFC 8446 section 5.2); here the client's Finished has a flipped tag bit
    client_cfg, server_cfg, _ = make_configs(Protocol.TLS, AuthMode.PSK, seed=68)
    pair = Pair(client_cfg, server_cfg, seed=68)

    def flip_tag(endpoint, rec, now):
        if endpoint == CLIENT and rec.data[0] == ContentType.APPLICATION_DATA:
            return rec._replace(data=rec.data[:-1] + bytes([rec.data[-1] ^ 1]))
        return True

    filter_sends(pair.driver, flip_tag)
    pair.run(until_ms=5_000)
    assert (pair.server.failure, pair.server.failed_from) == ("bad_record_mac", "wait_finished")


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_server_rejects_application_data_under_handshake_keys(protocol):
    # the client seals application data under its handshake keys and sends it
    # in front of its Finished; only application traffic keys may carry it
    # (RFC 8446 section 2), so the server in wait_finished fails
    client_cfg, server_cfg, _ = make_configs(protocol, AuthMode.PSK, seed=68)
    pair = Pair(client_cfg, server_cfg, seed=68)

    def app_data_under_handshake_keys():
        keys = pair.client.epochs[EPOCH_HANDSHAKE]["write"]
        copy = TrafficKeys(keys.key, keys.iv, keys.sn_key)  # record 0: the Finished's number
        if protocol == Protocol.TLS:
            return records.seal_tls(pair.client.params, copy, ContentType.APPLICATION_DATA, b"too soon")
        return records.seal_dtls(
            pair.client.params, copy, EPOCH_HANDSHAKE, ContentType.APPLICATION_DATA, b"too soon", length_present=True
        )

    done = prepend_once(pair, "client", "finished", app_data_under_handshake_keys)
    pair.run(until_ms=10_000)
    assert done
    assert pair.server.failure == "unexpected_message" and pair.server.failed_from == "wait_finished"
    assert not any(e.kind == EventKind.APP_DATA for e in pair.server.event_log)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_empty_certificate_rejected(protocol, monkeypatch):
    # a server Certificate must carry its certificate (RFC 8446 section 4.4.2.4)
    empty = messages.tls_form(messages.Certificate(b"", []))
    tamper_on_wire(monkeypatch, "server", lambda name, raw: empty if name == "certificate" else None)
    pair = run_handshake(protocol, AuthMode.PK_SERVER_ONLY, seed=69)
    assert pair.client.failure == "decode_error"
    assert pair.client.failed_from == "wait_cert_cr"


def sent_by(pair, direction: str) -> list:
    return [name for name, d, _, _ in pair.driver.per_message if d == direction]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_client_without_a_certificate_sends_an_empty_one(protocol):
    # asked for a certificate it lacks, a client sends an empty Certificate and no
    # CertificateVerify (RFC 8446 section 4.4.2); this server requires one and
    # ends certificate_required, alert 116 (section 4.4.2.4)
    pair = run_handshake(protocol, AuthMode.PK_MUTUAL, seed=75, client_over={"local_ec": None})
    assert messages.tls_form(messages.Certificate(b"", [])) in pair.client.transcript.messages
    assert "certificate" in sent_by(pair, "c2s") and "certificate_verify" not in sent_by(pair, "c2s")
    assert pair.server.failure == "certificate_required" and pair.server.failed_from == "wait_cert_cr"
    assert pair.client.failure == "peer_alert"
    assert [e.detail["code"] for e in pair.client.event_log if e.kind == EventKind.ALERT] == [116]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_server_without_a_certificate_fails_the_handshake(protocol):
    pair = run_handshake(protocol, AuthMode.PK_MUTUAL, seed=75, server_over={"local_ec": None})
    assert pair.server.failure == "handshake_failure" and pair.server.failed_from == "start"
    assert pair.client.failure == "peer_alert"


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_signature_failing_its_self_check_is_not_sent(protocol, monkeypatch):
    sign = ec.sign

    def corrupted(private, scheme, content):
        sig = sign(private, scheme, content)
        return sig[:-1] + bytes([sig[-1] ^ 1])  # still DER, but not this content's signature

    monkeypatch.setattr(ec, "sign", corrupted)
    pair = run_handshake(protocol, AuthMode.PK_SERVER_ONLY, seed=75)
    assert pair.server.failure == "bad_certificate_verify" and pair.server.failed_from == "start"
    assert "certificate_verify" not in sent_by(pair, "s2c")


def compression_byte(raw: bytes) -> int:
    """Offset of a ClientHello's first compression method or a ServerHello's compression
    method in its TLS form: after the header, legacy_version, random and session id."""
    pos = 4 + 2 + 32
    pos += 1 + raw[pos]
    if raw[0] == HandshakeType.CLIENT_HELLO:
        return pos + 2 + int.from_bytes(raw[pos : pos + 2], "big") + 1
    return pos + 2


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize(
    "sender,name,reader_failed_from",
    [("client", "client_hello", "start"), ("server", "server_hello", "wait_sh")],
)
def test_compression_method_other_than_null_rejected(protocol, sender, name, reader_failed_from, monkeypatch):
    # TLS 1.3 hellos carry the null compression method alone (RFC 8446 sections 4.1.2, 4.1.3)
    def compressed(msg_name, raw):
        if msg_name != name:
            return None
        at = compression_byte(raw)
        assert raw[at] == 0
        return raw[:at] + b"\x01" + raw[at + 1 :]

    tamper_on_wire(monkeypatch, sender, compressed)
    pair = run_handshake(protocol, AuthMode.PSK, seed=75)
    reader = pair.server if sender == "client" else pair.client
    assert reader.failure == "decode_error" and reader.failed_from == reader_failed_from


def test_dtls_end_of_early_data_rejected(monkeypatch):
    # DTLS 1.3 omits EndOfEarlyData (RFC 9147 section 5.6): here the client sends
    # one under its early keys before its Finished, and the server that took
    # the 0-RTT data refuses it
    own_flight = Connection._own_flight

    def end_of_early_data_first(self, with_cert, now):
        out = self._emit(messages.EndOfEarlyData(), EPOCH_EARLY, now) if self.role == "client" else []
        return out + own_flight(self, with_cert, now)

    monkeypatch.setattr(Connection, "_own_flight", end_of_early_data_first)
    pair = run_handshake(Protocol.DTLS, AuthMode.ZERO_RTT, seed=18, early_payload=b"early")
    assert pair.server.early_accepted
    assert pair.server.failure == "unexpected_message"
    assert pair.server.failed_from == "wait_finished"


def test_end_of_early_data_with_a_body_rejected(monkeypatch):
    def with_body(name, raw):
        return bytes([HandshakeType.END_OF_EARLY_DATA, 0, 0, 1, 0]) if name == "end_of_early_data" else None

    tamper_on_wire(monkeypatch, "client", with_body)
    pair = run_handshake(Protocol.TLS, AuthMode.ZERO_RTT, seed=18, early_payload=b"early")
    assert pair.server.early_accepted
    assert pair.server.failure == "decode_error"
    assert pair.server.failed_from == "wait_finished"


def test_protected_fragments_whose_headers_disagree_rejected():
    # two fragments of the server's message_seq 1 claim different message lengths;
    # under handshake keys that is fatal, in front of the genuine EncryptedExtensions
    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PSK, seed=67)
    pair = Pair(client_cfg, server_cfg, seed=67)
    ee = HandshakeType.ENCRYPTED_EXTENSIONS
    frags = messages.DtlsFragment(ee, 10, 1, 0, b"\x00\x00").encode() + messages.DtlsFragment(
        ee, 11, 1, 2, b"\x00\x00"
    ).encode()
    done = prepend_once(
        pair, "server", "encrypted_extensions",
        lambda: server_record(pair, Protocol.DTLS, True, ContentType.HANDSHAKE, frags),
    )
    pair.run(until_ms=10_000)
    assert done
    assert pair.client.failure == "fragment_mismatch" and pair.client.failed_from == "wait_ee"


EPOCH_2_HEADER = 0x20 | 0x08 | 0x04 | EPOCH_HANDSHAKE  # unified header: 16-bit sequence, length, epoch 2


@pytest.mark.parametrize(
    "tail,reason",
    [
        (bytes([EPOCH_2_HEADER | 0x10]) + b"\x01\x02", "truncated connection id"),  # 2 of 4 CID bytes
        (bytes([EPOCH_2_HEADER, 0, 0, 5]), "truncated length field"),  # 1 of 2 length bytes
    ],
    ids=["cid", "length"],
)
def test_truncated_unified_header_at_the_end_of_a_datagram_dropped(tail, reason):
    # the server's whole first flight is packed into one datagram with this tail;
    # the records before it are read, and the tail is dropped silently
    with pytest.raises(DecodeError, match=reason):
        records.parse_unified(tail, 0, 4)
    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PSK, seed=70, cid=4, packing=True)
    pair = Pair(client_cfg, server_cfg, seed=70)
    done = []

    def append_tail(endpoint, rec, now):
        if endpoint != CLIENT and rec.name == "finished" and not done:
            done.append(now)
            return rec._replace(data=rec.data + tail)
        return True

    filter_sends(pair.driver, append_tail)
    pair.run(until_ms=10_000)
    assert done
    pair.assert_complete()
    assert pair.driver.wire["retransmitted_bytes"] == 0
    first_flight = [name for name, _, _ in pair.driver.ledger[1][2]]
    assert first_flight == ["server_hello", "encrypted_extensions", "finished"]


def test_dtls_new_session_ticket_outside_application_epoch_rejected(monkeypatch):
    # NewSessionTicket is a post-handshake message, so it travels under
    # application keys (RFC 8446 section 4.6, RFC 9147 section 6.1)
    emit = Connection._emit

    def ticket_in_handshake_epoch(self, msg, epoch, now):
        if msg.MSG_TYPE == HandshakeType.NEW_SESSION_TICKET:
            epoch = EPOCH_HANDSHAKE
        return emit(self, msg, epoch, now)

    monkeypatch.setattr(Connection, "_emit", ticket_in_handshake_epoch)
    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PSK, seed=63)
    pair = Pair(client_cfg, server_cfg._replace(tickets=True), seed=63)
    pair.run(until_ms=10_000)
    assert pair.client.failure == "unexpected_message"
    assert pair.client.failed_from == "connected"
    assert pair.client.client_tickets == []


def test_retransmitted_client_hello_acked_by_server_connection():
    # the server's first ServerHello is lost, so the client resends its
    # ClientHello to a server connection past that phase; the plaintext
    # ClientHello is still of a type the server reads in epoch 0, so the
    # connection ACKs the stale record and resends its own flight on its timer
    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PSK, seed=64)
    pair = Pair(client_cfg, server_cfg, seed=64)
    dropped = []

    def drop_first_server_hello(endpoint, rec, now):
        if endpoint != CLIENT and rec.name == "server_hello" and not dropped:
            dropped.append(now)
            return False
        return True

    filter_sends(pair.driver, drop_first_server_hello)
    pair.run()
    assert dropped
    pair.assert_complete()
    rows = [(name, d, rt) for name, d, _, rt in pair.driver.per_message]
    resent = rows.index(("client_hello", "c2s", True))
    assert rows[resent + 1 : resent + 3] == [("ack", "s2c", False), ("server_hello", "s2c", True)]
    assert len(pair.listener.connections()) == 1


def test_client_finished_corruption_detected(monkeypatch):
    def tamper(name, raw):
        if name == "finished":
            return raw[:-1] + bytes([raw[-1] ^ 0x80])
        return raw

    tamper_on_wire(monkeypatch, "client", tamper)
    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PSK, seed=5)
    pair = Pair(client_cfg, server_cfg, seed=5)
    pair.run(until_ms=5_000)
    assert pair.server.failed
    assert pair.server.failure == "decrypt_error"


def test_binder_corruption_detected(monkeypatch):
    from minitls import messages as m

    def tamper(name, raw):
        if name == "client_hello":
            return raw[:-1] + bytes([raw[-1] ^ 0x01])  # last binder byte
        return raw

    tamper_on_wire(monkeypatch, "client", tamper)
    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PSK, seed=6)
    pair = Pair(client_cfg, server_cfg, seed=6)
    pair.run(until_ms=5_000)
    assert pair.server is not None and pair.server.failed
    assert pair.server.failure == "decrypt_error"
    assert not pair.client.connected


def binder_case(case: str):
    """A completed PSK handshake: (pair, psk secret, binder label, hash name)."""
    if case == "psk128_256-0x13a4":
        _, client_cfg, server_cfg = build_configs(Scenario(profile="psk128_256", suite=0x13A4))
        pair = Pair(client_cfg, server_cfg, seed=8)
        pair.run()
        return pair, client_cfg.psk.secret, b"ext binder", "sha384"
    if case == "dtls-resumption":
        first = ticketed_pair(Protocol.DTLS, seed=8)
        ticket = first.client.client_tickets[0]
        pair = Pair(resume_config(first.client.cfg, ticket), first.listener.cfg, seed=9)
        pair.listener.ticket_db = first.listener.ticket_db
        pair.run()
        return pair, ticket.secret, b"res binder", "sha256"
    protocol = Protocol.TLS if case == "tls" else Protocol.DTLS
    client_cfg, server_cfg, _ = make_configs(protocol, AuthMode.PSK, seed=8)
    pair = Pair(client_cfg, server_cfg._replace(dos=case == "dtls-dos"), seed=8)
    pair.run()
    return pair, client_cfg.psk.secret, b"ext binder", "sha256"


@pytest.mark.parametrize("case", ["tls", "dtls", "psk128_256-0x13a4", "dtls-resumption", "dtls-dos"])
def test_binder_on_the_wire_matches_oracle(case):
    # both roles take the binder from KeySchedule.compute_binder over
    # messages.binder_prefix, so only an independent oracle catches a mistake
    # they share; after a HelloRetryRequest the binder also covers
    # message_hash(ClientHello1) and the HelloRetryRequest
    pair, psk, label, hashname = binder_case(case)
    server = pair.assert_complete()
    at = [raw[0] for raw in pair.client.transcript.messages].index(HandshakeType.CLIENT_HELLO)
    assert at == (2 if case == "dtls-dos" else 0)
    sent = pair.client.transcript.messages[at]
    assert server.transcript.messages[at] == sent  # as the server read it off the wire
    covered, binder = raw_binder_split(sent)
    prefix = b"tls13 " if case == "tls" else b"dtls13"
    before = b"".join(pair.client.transcript.messages[:at])
    assert binder == raw_psk_binder(hashname, prefix, psk, label, before + covered)


def test_wrong_psk_rejected():
    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PSK, seed=7)
    bad_psk = client_cfg.psk._replace(secret=b"\x00" * 32)
    client_cfg = client_cfg._replace(psk=bad_psk)
    pair = Pair(client_cfg, server_cfg, seed=7)
    pair.run(until_ms=5_000)
    assert pair.server.failed and pair.server.failure == "decrypt_error"


# --- retransmission ---------------------------------------------------------------


def test_scripted_single_drop_retransmits_only_missing_message():
    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PK_MUTUAL, seed=8)
    pair = Pair(client_cfg, server_cfg, seed=8)
    dropped = {"done": False}

    def keep(endpoint, rec, now):
        if endpoint != CLIENT and rec.name == "certificate" and not dropped["done"]:
            dropped["done"] = True
            return False
        return True

    filter_sends(pair.driver, keep)
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
    assert pair.driver.wire["retransmitted_bytes"] == 0
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


def test_total_loss_resends_the_client_hello_on_a_doubling_timer():
    # RFC 9147 section 5.8.2: the first timeout is 400 ms and each resend doubles it
    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PSK, seed=10)
    pair = Pair(client_cfg, server_cfg, seed=10)
    sent = []

    def drop(endpoint, rec, now):
        if endpoint == CLIENT and rec.name == "client_hello":
            sent.append(now)
        return False

    filter_sends(pair.driver, drop)
    pair.run(until_ms=600_000)
    assert sent == [0, 400, 1_200, 2_800, 6_000, 12_400, 25_200, 50_800, 102_000]
    assert pair.client.failure == "handshake_timeout"


def test_ack_that_empties_the_sent_table_restarts_the_timer_at_400_ms():
    rel = DtlsReliability()
    seqs = itertools.count()

    def frame(epoch, true_type, payload):
        return next(seqs), payload

    rel.send(frame, HandshakeType.FINISHED, bytes(8), "finished", 2, 100, now=0)
    rel.retransmit(400, frame)
    rel.retransmit(1_200, frame)
    assert (rel.retries, rel.next_timeout()) == (2, 2_800)
    rel.process_ack(list(rel.sent_unacked))
    assert rel.next_timeout() is None
    rel.send(frame, HandshakeType.FINISHED, bytes(8), "finished", 2, 100, now=3_000)
    assert rel.next_timeout() == 3_400


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
    server_cfg = server_cfg._replace(dos=True)
    return Pair(client_cfg, server_cfg, seed=seed)


def test_dos_cookie_round_trip():
    pair = dos_pair()
    pair.run()
    server = pair.assert_complete()
    assert [name for name, _, _, _ in pair.driver.per_message].count("hello_retry_request") == 1
    assert pair.listener.allocated == 1  # only the cookie'd retry allocates
    names = [name for name, d, _, _ in pair.driver.per_message if d == "c2s"]
    assert names.count("client_hello") == 2
    assert COOKIE in pair.client.hello.extensions
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
    cookie = m.extension(hrr, m.ExtensionType.COOKIE, m.read_cookie)

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


def ch_cookie(datagram) -> bytes:
    """The cookie echoed by the ClientHello in the first record of ``datagram``."""
    ch = dtls_client_hello(datagram)
    return messages.extension(ch, messages.ExtensionType.COOKIE, messages.read_cookie)


@pytest.mark.parametrize("case", ["malformed_cookie_body", "message_seq_0", "message_seq_3"])
def test_misnumbered_or_malformed_cookie_retry_dropped_without_allocation(case):
    # the retried ClientHello answers the HelloRetryRequest, which took
    # message_seq 0, so it must carry message_seq 1 (RFC 9147 section 5.2);
    # a cookie whose vector does not parse is not a cookie; neither may raise
    pair = dos_pair(seed=14)
    client, listener = pair.client, pair.listener
    [hrr_rec] = listener.receive(client.start(0)[0].data, "client:0", 0)
    retry = bytearray(client.handle(hrr_rec.data, 10)[0].data)
    if case == "malformed_cookie_body":
        at = bytes(retry).index(ch_cookie(retry)) - 2  # the cookie's two-byte vector length
        retry[at : at + 2] = b"\xff\xff"
    else:
        at = records.DTLS12_RECORD_HEADER_LEN + 4  # the fragment's message_seq
        retry[at : at + 2] = int(case[-1]).to_bytes(2, "big")
    assert listener.receive(bytes(retry), "client:0", 20) == []
    assert listener.allocated == 0


def test_dos_handshake_numbers_epoch_0_records_0_then_1_each_way():
    # the cookieless ClientHello and the stateless HelloRetryRequest are record 0 of
    # epoch 0, the retry and the ServerHello record 1 (after_stateless_hrr)
    pair = dos_pair(seed=18)
    plain = {CLIENT: [], SERVER: []}

    def keep(endpoint, rec, now):
        if rec.data[0] in (ContentType.HANDSHAKE, ContentType.ALERT):
            plain[endpoint].append(records.parse_dtls_plaintext(rec.data, 0)[1])
        return True

    filter_sends(pair.driver, keep)
    pair.run()
    pair.assert_complete()
    assert plain == {CLIENT: [0, 1], SERVER: [0, 1]}


# (mode, the server's settings, the alert code the client reads)
REFUSED_HELLOS = {
    "no-common-suite": (AuthMode.PK_SERVER_ONLY, {"suites": (SuiteId.AES_256_CCM_SHA384,)}, 40),
    "unknown-psk-identity": (AuthMode.PSK, {"psk": PskCredential(b"another", bytes(32)), "local_ec": None}, 115),
}


@pytest.mark.parametrize("dos", [False, True], ids=["open", "dos"])
@pytest.mark.parametrize("case", sorted(REFUSED_HELLOS))
def test_a_refused_client_hello_gets_the_same_alert_with_or_without_dos(case, dos):
    # with dos on, the listener sends the refusal's alert statelessly: nothing is allocated
    mode, server_over, code = REFUSED_HELLOS[case]
    pair = run_handshake(Protocol.DTLS, mode, seed=16, server_over=dict(server_over, dos=dos))
    assert (pair.client.failure, pair.client.failed_from) == ("peer_alert", "wait_sh")
    assert pair.client.event_log[-1].detail["code"] == code
    assert pair.listener.allocated == (0 if dos else 1)


def test_a_retry_whose_suite_hashes_otherwise_than_its_cookie_is_illegal(monkeypatch):
    # the stateless HelloRetryRequest picks the server's SHA-384 suite; the retry then
    # offers only the SHA-256 suite, which the cookie's 48-byte hash cannot have
    # come from (RFC 8446 section 4.1.4)
    hellos = []

    def tamper(name, raw):
        if name != "client_hello":
            return None
        hellos.append(raw)
        ch = messages.decode_handshake(raw)._replace(cipher_suites=[int(SuiteId.AES_128_CCM_SHA256)])
        return messages.tls_form(ch) if len(hellos) == 2 else None

    tamper_on_wire(monkeypatch, "client", tamper)
    suites = (SuiteId.AES_128_CCM_SHA256, SuiteId.AES_256_CCM_SHA384)
    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PK_SERVER_ONLY, seed=17)
    pair = Pair(client_cfg._replace(suites=suites), server_cfg._replace(suites=suites[::-1], dos=True), seed=17)
    pair.run(until_ms=5_000)
    assert COOKIE in pair.client.hello.extensions and len(hellos) == 2
    assert (pair.server.failure, pair.server.failed_from) == ("illegal_parameter", "start")
    assert pair.client.failure == "peer_alert" and pair.client.event_log[-1].detail["code"] == 47


def test_a_cookieless_client_hello_to_an_allocated_connection_is_illegal():
    # the retry that allocates the connection comes in epoch-0 record 0, which the
    # stateless exchange used up, so the connection drops it; the cookieless
    # ClientHello that follows cannot be the retry (RFC 8446 section 4.2.2)
    pair = dos_pair(seed=21)
    client, listener = pair.client, pair.listener
    first = client.start(0)[0].data
    [hrr_rec] = listener.receive(first, "client:0", 0)
    retry = bytearray(client.handle(hrr_rec.data, 10)[0].data)
    retry[5:11] = bytes(6)  # the record sequence number
    listener.receive(bytes(retry), "client:0", 20)
    [server] = listener.connections()
    assert listener.allocated == 1 and not server.failed
    cookieless = bytearray(first)
    cookieless[5:11] = (2).to_bytes(6, "big")
    at = records.DTLS12_RECORD_HEADER_LEN + 4  # the fragment's message_seq
    cookieless[at : at + 2] = (1).to_bytes(2, "big")
    listener.receive(bytes(cookieless), "client:0", 30)
    assert (server.failure, server.failed_from) == ("illegal_parameter", "start")


def test_client_forgets_hrr_record_after_retry():
    # the retried ClientHello answers the HelloRetryRequest, so no later
    # client ACK lists the stateless HRR's record
    pair = dos_pair(seed=15)
    client = pair.client
    [hrr_rec] = pair.listener.receive(client.start(0)[0].data, "client:0", 0)
    assert client.handle(hrr_rec.data, 10)
    assert COOKIE in client.hello.extensions
    assert client.reliability.recv_flight == set()


def forged_fragments(msg_type, seqs, body: bytes, claimed: int) -> bytes:
    """One plaintext DTLS datagram of one fragment per message_seq in ``seqs``,
    each carrying ``body`` and claiming a message of ``claimed`` bytes."""
    frags = b"".join(messages.DtlsFragment(msg_type, claimed, seq, 0, body).encode() for seq in seqs)
    return records.encode_dtls_plaintext(ContentType.HANDSHAKE, 0, frags)


def forgery_receiver(case):
    """(receive(datagram), datagram, reliability()) for one forged first datagram."""
    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PSK, seed=17)
    if case == "server_one_fragment":  # a fresh server connection per spoofed address
        listener = ServerListener(server_cfg, random.Random(17))
        datagram = forged_fragments(HandshakeType.CLIENT_HELLO, [0], bytes(40), (1 << 24) - 1)
        return (lambda d: listener.receive(d, "forger:1", 0)), datagram, lambda: listener.connections()[0].reliability
    client = Connection(client_cfg, "client", random.Random(17))
    client.start(0)
    if case == "client_three_fragments":
        datagram = forged_fragments(HandshakeType.SERVER_HELLO, [1, 2, 3], b"", (1 << 24) - 1)
    else:  # claims 2^16 - 1 each: megabytes, not gigabytes, where every message_seq is buffered
        datagram = forged_fragments(HandshakeType.SERVER_HELLO, range(1, 98), b"\x00", (1 << 16) - 1)
    return (lambda d: client.handle(d, 0)), datagram, lambda: client.reliability


@pytest.mark.parametrize(
    "case,datagram_len",
    [("server_one_fragment", 65), ("client_three_fragments", 49), ("client_97_fragments", 1274)],
)
def test_forged_fragment_lengths_allocate_nothing_they_claim(case, datagram_len):
    # what the receiver holds follows the bytes that arrived, and it buffers no
    # message_seq beyond its window (RFC 9147 section 5.2); the bound is far
    # below any one claimed message
    bound = 16 * 1024
    receive, datagram, _ = forgery_receiver(case)
    receive(datagram)  # warm-up: lazy caches and first-call allocations
    receive, datagram, reliability = forgery_receiver(case)
    assert len(datagram) == datagram_len
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert receive(datagram) == []
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < bound
    state = reliability()
    assert state.next_recv_msg_seq == 0
    assert 0 < len(state.inbound_frags) <= RECV_WINDOW_MSGS


# --- tickets and resumption --------------------------------------------------------


def ticketed_pair(protocol, seed=16):
    client_cfg, server_cfg, _ = make_configs(protocol, AuthMode.PSK, seed=seed)
    server_cfg = server_cfg._replace(tickets=True)
    pair = Pair(client_cfg, server_cfg, seed=seed)
    pair.run()
    return pair


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_ticket_issue_and_resume(protocol):
    pair = ticketed_pair(protocol)
    server = pair.assert_complete()
    assert pair.client.client_tickets, "client never received a ticket"
    ticket = pair.client.client_tickets[0]
    # the server keeps the ticket as the client does, but for the time it was sent
    issued = pair.listener.ticket_db[ticket.identity]
    assert issued._replace(issued_at=ticket.issued_at) == ticket

    resumed_cfg = resume_config(pair.client.cfg, ticket)
    pair2 = Pair(resumed_cfg, pair.listener.cfg, seed=99)
    pair2.listener.ticket_db = pair.listener.ticket_db  # same server state
    pair2.run()
    server2 = pair2.assert_complete()
    assert server2.psk_in_use == pair.listener.ticket_db[ticket.identity]
    assert pair2.client.counters.sign_ops == 0
    assert server2.counters.sign_ops == 0


def test_expired_ticket_falls_back_or_fails():
    pair = ticketed_pair(Protocol.DTLS, seed=17)
    pair.assert_complete()
    ticket = pair.client.client_tickets[0]
    entry = pair.listener.ticket_db[ticket.identity]
    pair.listener.ticket_db[ticket.identity] = entry._replace(issued_at=-(TICKET_LIFETIME_S * 1000 + 60_000))  # long expired

    resumed_cfg = resume_config(pair.client.cfg, ticket)
    pair2 = Pair(resumed_cfg, pair.listener.cfg, seed=100)
    pair2.listener.ticket_db = pair.listener.ticket_db
    pair2.run(until_ms=10_000)
    # plain-PSK resume offers no key share, so no certificate fallback exists
    assert not pair2.client.connected
    assert ticket.identity not in pair2.listener.ticket_db  # purged


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


def test_no_early_data_after_the_stateless_hello_retry_request():
    # RFC 8446 section 4.2.10: the ClientHello that answers a HelloRetryRequest
    # offers no early_data; the listener's stateless HRR drops the first copy
    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.ZERO_RTT, seed=19)
    pair = Pair(client_cfg, server_cfg._replace(dos=True), seed=19)
    pair.run()
    server = pair.assert_complete()
    names = [name for name, _, _, _ in pair.driver.per_message]
    assert names[:4] == ["client_hello", "early_data", "hello_retry_request", "client_hello"]
    assert names.count("early_data") == 1
    assert not any(e.kind == EventKind.EARLY_DATA for e in server.event_log)
    assert not pair.client.early_accepted and not server.early_accepted


def test_no_early_data_after_a_tls_hello_retry_request(monkeypatch):
    # the server's ServerHello goes out as a HelloRetryRequest and the rest of its
    # flight is dropped: the retried ClientHello offers no early_data and no early
    # data follows it (RFC 8446 section 4.2.10)
    def tamper(name, raw):
        if name == "server_hello":
            return messages.tls_form(messages.build_hello_retry_request(int(SuiteId.AES_128_CCM_SHA256), bytes(8)))
        return None

    tamper_on_wire(monkeypatch, "server", tamper)
    client_cfg, server_cfg, _ = make_configs(Protocol.TLS, AuthMode.ZERO_RTT, seed=20)
    pair = Pair(client_cfg, server_cfg, seed=20)
    sent = []

    def keep(endpoint, rec, now):
        if endpoint == CLIENT:
            sent.append(rec.name)
        return endpoint == CLIENT or rec.name == "server_hello"

    filter_sends(pair.driver, keep)
    pair.run(until_ms=5_000)
    assert COOKIE in pair.client.hello.extensions
    assert sent == ["client_hello", "early_data", "client_hello"]
    retried = messages.decode_handshake(pair.client.transcript.messages[2])
    assert retried.MSG_TYPE == HandshakeType.CLIENT_HELLO
    assert messages.ExtensionType.EARLY_DATA not in retried.extensions


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
    client_cfg = client_cfg._replace(cid=0)
    server_cfg = server_cfg._replace(cid=4)
    pair = Pair(client_cfg, server_cfg, seed=22)
    pair.run()
    server = pair.assert_complete()
    assert pair.client.cid_peer is not None and len(pair.client.cid_peer) == 4
    [rec] = pair.client.send_app_data(b"A", now=9_000)
    assert len(rec.data) == 2 + 4 + 1 + 1 + 16  # header gains the 4-byte CID
    # server accepts it
    out = pair.listener.receive(rec.data, "client:0", 9_100)
    assert any(e.kind == EventKind.APP_DATA for e in server.event_log)


@pytest.mark.parametrize(
    "kw,records_sent",
    [
        (dict(protocol="dtls", app_payload=2000), 2),
        (dict(protocol="dtls", app_payload=300, net=NetConfig(mtu=200)), 2),
        (dict(protocol="dtls", app_payload=2000, cid=4, packing=True), 2),
        (dict(protocol="tls", app_payload=40_000), 3),
        (dict(protocol="dtls", app_payload=512, cid=4, dos=True), 1),
    ],
    ids=["dtls-2000", "dtls-300-mtu-200", "dtls-2000-cid-packing", "tls-40000", "dtls-512-cid-dos"],
)
def test_app_payload_split_into_records_that_fit(kw, records_sent):
    sc = Scenario(**kw)
    _, client_cfg, server_cfg = build_configs(sc)
    pair = Pair(client_cfg, server_cfg, net=sc.net)
    pair.driver.app_payload = bytes(sc.app_payload)
    pair.run()
    server = pair.assert_complete()
    sizes = [size for name, _, size, _ in pair.driver.per_message if name == "app_data"]
    assert len(sizes) == records_sent
    if sc.protocol == "dtls":
        assert max(size for _, size, *_ in pair.driver.ledger) <= sc.net.mtu
    else:
        assert max(sizes) <= records.TLS_RECORD_HEADER_LEN + (1 << 14) + 256
    assert sum(e.detail["bytes"] for e in server.event_log if e.kind == EventKind.APP_DATA) == sc.app_payload


# --- CID migration -----------------------------------------------------------------


def cid_session(seed=23):
    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PSK, seed=seed)
    client_cfg = client_cfg._replace(cid=0)
    server_cfg = server_cfg._replace(cid=4)
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
    assert list(pair.listener.by_addr) == ["client:9999"]


def test_record_with_another_connections_cid_dropped():
    # the client reads only records carrying its own CID; one naming another
    # connection is dropped before any decryption
    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PSK, seed=75)
    pair = Pair(client_cfg._replace(cid=4), server_cfg._replace(cid=4), seed=75)
    pair.run()
    server = pair.assert_complete()
    [rec] = server.send_app_data(b"not yours", now=10_000)
    assert rec.data[1:5] == pair.client.cid_local
    forged = rec.data[:1] + bytes(b ^ 0xFF for b in rec.data[1:5]) + rec.data[5:]
    opens = pair.client.counters.aead_open
    assert pair.client.handle(forged, 10_010) == []
    assert pair.client.counters.aead_open == opens
    assert not any(e.kind == EventKind.APP_DATA for e in pair.client.event_log)
    assert (pair.client.failure, pair.client.failed_from) == (None, None)
    assert pair.client.handle(rec.data, 10_020) == []
    assert pair.client.event_log[-1].kind == EventKind.APP_DATA


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
        wire = pair.driver.wire
        return wire["bytes_c2s"] + wire["bytes_s2c"], pair.driver.per_message

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
    with pytest.raises(ConfigError):
        Connection(cfg._replace(psk=None), "client", random.Random(1))


def test_record_room_check_at_its_exact_bounds():
    # a DTLS handshake-epoch record holds the MTU less its 2-byte unified header, inner
    # content type and 16-byte tag, and must fit a fragment header and one message byte
    dtls, _, _ = make_configs(Protocol.DTLS, AuthMode.PSK, seed=31)
    exact = messages.DTLS_HANDSHAKE_HEADER_LEN + 1 + 2 + 1 + 16
    Connection(dtls._replace(mtu=exact), "client", random.Random(1))
    with pytest.raises(ConfigError):
        Connection(dtls._replace(mtu=exact - 1), "client", random.Random(1))
    # a TLS record holds 2^14 bytes less the padding, and must fit a 2-byte alert; the
    # tls-padding-16383 row of test_cli_configuration_error_exit_code refuses one byte less
    tls, _, _ = make_configs(Protocol.TLS, AuthMode.PSK, seed=31)
    Connection(tls._replace(pad_len=(1 << 14) - 2), "client", random.Random(1))


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


@pytest.mark.parametrize("dos", [False, True], ids=["open", "dos"])
@pytest.mark.parametrize("mtu", [1280, 300, 200])
@pytest.mark.parametrize(
    "suite,group",
    [(SuiteId.AES_128_CCM_SHA256, NamedGroup.SECP256R1), (SuiteId.AES_256_CCM_SHA384, NamedGroup.SECP521R1)],
    ids=["p256", "p521"],
)
@pytest.mark.parametrize("mode", [AuthMode.PSK, AuthMode.PSK_ECDHE, AuthMode.PK_SERVER_ONLY, AuthMode.PK_MUTUAL])
def test_clean_link_sweep(mode, suite, group, mtu, dos, monkeypatch):
    # at MTU 200 some first ClientHellos need two datagrams: a server connection
    # reassembles them and answers with its first flight, so no ACK lists their
    # epoch-0 records; the stateless cookie check needs the whole ClientHello,
    # so with dos on a hello that does not fit one datagram is dropped unallocated
    acked = []
    build_ack = messages.build_ack

    def recording_build_ack(record_numbers):
        acked.extend(record_numbers)
        return build_ack(record_numbers)

    monkeypatch.setattr(messages, "build_ack", recording_build_ack)
    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, mode, seed=5, suite=suite, group=group, mtu=mtu)
    pair = Pair(client_cfg, server_cfg._replace(dos=dos), net=NetConfig(mtu=mtu, seed=5), seed=5)
    pair.run(until_ms=600_000)
    if dos and not pair.client.connected:
        assert pair.client.failure == "handshake_timeout"
        assert pair.listener.allocated == 0
        return
    server = pair.assert_complete()
    assert secrets_of(pair.client) == secrets_of(server)
    assert not any(retransmitted for _, _, _, retransmitted in pair.driver.per_message)
    assert all(epoch != 0 for epoch, _ in acked)


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


def aligned_ticket(protocol, seed):
    """A ticketed pair's listener and its ticket, the issue and receipt times
    realigned to 0: each Pair restarts the millisecond clock at zero, so ages
    are computed on one timeline."""
    pair = ticketed_pair(protocol, seed=seed)
    pair.assert_complete()
    ticket = pair.client.client_tickets[0]._replace(issued_at=0)
    db = pair.listener.ticket_db
    db[ticket.identity] = db[ticket.identity]._replace(issued_at=0)
    return pair, ticket


def resume_with_early_data(pair, ticket, early_payload: bytes, seed: int, keep=None, **client_over):
    """``pair``'s client resumes with ``ticket`` and sends ``early_payload`` as
    0-RTT data; ``keep`` filters the resumed pair's sends (see ``filter_sends``)."""
    cfg = resume_config(pair.client.cfg, ticket)._replace(early_payload=early_payload, **client_over)
    resumed = Pair(cfg, pair.listener.cfg, seed=seed)
    resumed.listener.ticket_db = pair.listener.ticket_db
    if keep is not None:
        filter_sends(resumed.driver, keep)
    resumed.run()
    return resumed


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_resumed_zero_rtt_age_policy(protocol):
    pair, ticket = aligned_ticket(protocol, seed=40)

    # honest resume with early data: accepted
    pair2 = resume_with_early_data(pair, ticket, b"resumed-early-data", seed=41)
    server2 = pair2.assert_complete()
    assert any(e.kind == EventKind.EARLY_DATA for e in server2.event_log)
    assert server2.early_accepted

    # same ticket with the client clock off by 60 s: 0-RTT rejected, PSK still works
    pair3 = resume_with_early_data(pair, ticket._replace(issued_at=-60_000), b"stale-early-data", seed=42)
    server3 = pair3.assert_complete()  # PSK path still completes
    assert not server3.early_accepted
    assert not any(e.kind == EventKind.EARLY_DATA for e in server3.event_log)
    assert isinstance(server3.psk_in_use, TicketState)
    assert pair3.client.cfg.early_payload and not pair3.client.early_accepted
    # a declining TLS server skips the early-data records that do not open under
    # its handshake keys, counting their content and any padding against
    # max_early_data_size and an allowance for padding (RFC 8446 section 4.2.10);
    # DTLS drops them, as it holds no early read keys
    if protocol == Protocol.TLS:
        assert server3.early_left == MAX_EARLY_DATA + SKIP_PAD_ALLOWANCE - len(b"stale-early-data")
    else:
        assert server3.early_left == MAX_EARLY_DATA


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_accepted_early_data_past_max_early_data_size_is_unexpected_message(protocol):
    client_cfg, server_cfg, _ = make_configs(
        protocol, AuthMode.ZERO_RTT, seed=44, early_payload=bytes(MAX_EARLY_DATA + 1)
    )
    pair = Pair(client_cfg, server_cfg, seed=44)
    pair.run(until_ms=5_000)
    assert pair.server.early_accepted
    assert (pair.server.failure, pair.server.failed_from) == ("unexpected_message", "wait_finished")
    assert pair.client.failure == "peer_alert" and pair.client.event_log[-1].detail["code"] == 10


EMPTY_APP_RECORD = bytes([ContentType.APPLICATION_DATA, 3, 3, 0, 0])
SKIP_LIMIT = MAX_EARLY_DATA + SKIP_PAD_ALLOWANCE


@pytest.mark.parametrize("size,pad,empties,left,failure", [
    (SKIP_LIMIT, 0, 0, 0, None),
    (SKIP_LIMIT + 1, 0, 0, None, "unexpected_message"),
    # within max_early_data_size, padded to two records of 100 padding bytes each
    (16_300, 100, 0, SKIP_PAD_ALLOWANCE - 200 + MAX_EARLY_DATA - 16_300, None),
    # records too short to hold a tag fail to open too, and each counts one byte
    (SKIP_LIMIT - 2, 0, 2, 0, None),
    (MAX_EARLY_DATA, 0, SKIP_PAD_ALLOWANCE + 1, None, "unexpected_message"),
], ids=["at-the-limit", "one-past", "padded", "empty-records-at-the-limit", "empty-records-past-the-limit"])
def test_declined_tls_early_data_is_skipped_up_to_max_early_data_size(size, pad, empties, left, failure):
    # the server cannot see padding in a record it cannot open, so it counts each
    # record's body less tag and type (at least one byte) against max_early_data_size
    # and one record's expansion for padding; past that it ends as an accepting
    # server does (RFC 8446 section 4.2.10)
    def prepend_empties(endpoint, rec, now):
        nonlocal empties
        if rec.name == "early_data":
            rec, empties = rec._replace(data=EMPTY_APP_RECORD * empties + rec.data), 0
        return rec

    pair, ticket = aligned_ticket(Protocol.TLS, seed=45)
    resumed = resume_with_early_data(
        pair, ticket._replace(issued_at=-60_000), bytes(size), seed=46, keep=prepend_empties, pad_len=pad
    )
    assert not resumed.server.early_accepted
    if failure is None:
        resumed.assert_complete()
        assert resumed.server.early_left == left
        return
    assert (resumed.server.failure, resumed.server.failed_from) == (failure, "wait_finished")
    assert resumed.client.failure == "peer_alert" and resumed.client.event_log[-1].detail["code"] == 10


def test_mid_handshake_rebind_without_cid_stalls():
    client_cfg, server_cfg, _ = make_configs(Protocol.DTLS, AuthMode.PSK, seed=43)
    pair = Pair(client_cfg, server_cfg, seed=43)
    # move the client's address after the ClientHello but before its Finished

    def rebind(endpoint, rec, now):
        if endpoint == CLIENT and now >= 15:
            pair.link.addresses[CLIENT] = "client:777"
        return True

    filter_sends(pair.driver, rebind)
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
    padded_wire, plain_wire = padded.driver.wire, plain.driver.wire
    assert padded_wire["bytes_c2s"] + padded_wire["bytes_s2c"] > plain_wire["bytes_c2s"] + plain_wire["bytes_s2c"]
