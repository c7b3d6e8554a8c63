import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minitls import messages as m
from minitls.connection import Connection
from minitls.crypto import NamedGroup, Protocol, SignatureScheme, SuiteId
from minitls.errors import DecodeError, InconsistentDuplicate
from minitls.profiles import AuthMode
from minitls.records import ContentType

from .harness import make_configs

# Every codepoint this package sends, from the registries: RFC 8446 section 4 and
# appendix B.3, RFC 9146 (connection_id) and RFC 9147 (the ACK content type).  Both
# sides share each constant, so only a table written from the RFCs catches a wrong one.
CODEPOINTS = {
    ContentType: {"CHANGE_CIPHER_SPEC": 20, "ALERT": 21, "HANDSHAKE": 22, "APPLICATION_DATA": 23, "ACK": 26},
    m.HandshakeType: {
        "CLIENT_HELLO": 1, "SERVER_HELLO": 2, "NEW_SESSION_TICKET": 4, "END_OF_EARLY_DATA": 5,
        "ENCRYPTED_EXTENSIONS": 8, "CERTIFICATE": 11, "CERTIFICATE_REQUEST": 13, "CERTIFICATE_VERIFY": 15,
        "FINISHED": 20, "MESSAGE_HASH": 254,
    },
    m.ExtensionType: {
        "SERVER_NAME": 0, "SUPPORTED_GROUPS": 10, "SIGNATURE_ALGORITHMS": 13, "PRE_SHARED_KEY": 41,
        "EARLY_DATA": 42, "SUPPORTED_VERSIONS": 43, "COOKIE": 44, "PSK_KEY_EXCHANGE_MODES": 45,
        "KEY_SHARE": 51, "CONNECTION_ID": 54,
    },
    SignatureScheme: {"ECDSA_SECP256R1_SHA256": 0x0403, "ECDSA_SECP521R1_SHA512": 0x0603},
    NamedGroup: {"SECP256R1": 0x0017, "SECP521R1": 0x0019},
    m.PskMode: {"PSK_KE": 0, "PSK_DHE_KE": 1},
}


@pytest.mark.parametrize("registry", list(CODEPOINTS), ids=lambda registry: registry.__name__)
def test_each_codepoint_is_the_rfcs(registry):
    assert {member.name: member.value for member in registry} == CODEPOINTS[registry]


def psk_client_hello(rng, binder_len: int = 32) -> m.ClientHello:
    """A psk-mode ClientHello before its binder is computed: the binder is zero-filled."""
    exts = [
        m.ext_supported_versions_client(),
        m.ext_psk_modes([m.PskMode.PSK_KE]),
        m.ext_pre_shared_key_offer(b"id", 0, bytes(binder_len)),
    ]
    return m.ClientHello(rng.randbytes(32), b"", [SuiteId.AES_128_CCM_SHA256], dict(exts))


def certificate(der: bytes) -> m.Certificate:
    return m.Certificate(b"", [(der, b"")])


def sample_messages():
    rng = random.Random(11)
    ch_psk = m.ClientHello(
        rng.randbytes(32),
        b"",
        [SuiteId.AES_128_CCM_SHA256],
        dict([
            m.ext_supported_versions_client(),
            m.ext_psk_modes([m.PskMode.PSK_KE]),
            m.ext_pre_shared_key_offer(b"client-psk-1", 0x11223344, bytes(32)),
        ]),
    )
    ch_pk = m.ClientHello(
        rng.randbytes(32),
        rng.randbytes(32),
        [SuiteId.AES_128_CCM_SHA256, SuiteId.AES_256_CCM_SHA384],
        dict([
            m.ext_supported_versions_client(),
            m.ext_supported_groups([NamedGroup.SECP256R1]),
            m.ext_signature_algorithms([SignatureScheme.ECDSA_SECP256R1_SHA256]),
            m.ext_server_name("iot.example"),
            m.ext_connection_id(b"\xca\xfe\x00\x01"),
            m.ext_key_share_client([(NamedGroup.SECP256R1, b"\x04" + bytes(64))]),
        ]),
    )
    sh = m.ServerHello(
        rng.randbytes(32),
        b"",
        SuiteId.AES_128_CCM_SHA256,
        dict([
            m.ext_supported_versions_server(),
            m.ext_key_share_server(NamedGroup.SECP256R1, b"\x04" + bytes(64)),
            m.ext_pre_shared_key_server(0),
        ]),
    )
    return [
        ch_psk,
        ch_pk,
        sh,
        m.build_hello_retry_request(SuiteId.AES_128_CCM_SHA256, b"cookie-bytes"),
        m.EncryptedExtensions(dict([m.ext_early_data()])),
        m.EncryptedExtensions({}),
        certificate(b"\x30\x82" + bytes(500)),
        m.CertificateRequest(b"", dict([m.ext_signature_algorithms([SignatureScheme.ECDSA_SECP256R1_SHA256])])),
        m.CertificateVerify(SignatureScheme.ECDSA_SECP256R1_SHA256, b"\x30\x44" + bytes(68)),
        m.Finished(bytes(range(32))),
        m.NewSessionTicket(7200, 0xDEADBEEF, b"\x00", b"ticket-id-16byte", dict([m.ext_early_data_ticket(1024)])),
        m.EndOfEarlyData(),
    ]


def wire_form(msg, protocol, message_seq=0) -> bytes:
    """The message as sent: TLS form, or one unfragmented DTLS fragment."""
    raw = m.tls_form(msg)
    if protocol == Protocol.TLS:
        return raw
    body = raw[4:]
    return m.DtlsFragment(raw[0], len(body), message_seq, 0, body).encode()


def decode_wire(wire: bytes, protocol):
    if protocol == Protocol.DTLS:
        frag, used = m.parse_dtls_fragment(wire)
        assert used == len(wire)
        wire = frag.to_tls_form()
    return m.decode_handshake(wire)


def split(msg, message_seq, budget) -> list:
    raw = m.tls_form(msg)
    return m.fragment(raw[0], message_seq, raw[4:], budget)


def reassemble(frags) -> bytes:
    frags = list(frags)
    buf = m.FragmentBuffer(frags[0].msg_type, frags[0].length, frags[0].message_seq)
    for f in frags:
        buf.add(f)
    return buf.assemble().encode()


@pytest.mark.parametrize("protocol", [Protocol.TLS, Protocol.DTLS])
def test_round_trip_all_messages(protocol):
    for msg in sample_messages():
        wire = wire_form(msg, protocol, message_seq=3)
        decoded = decode_wire(wire, protocol)
        assert decoded == msg
        assert wire_form(decoded, protocol, message_seq=3) == wire


def test_header_arithmetic():
    fin = m.Finished(bytes(32))
    assert len(wire_form(fin, Protocol.TLS)) == 4 + 32
    assert len(wire_form(fin, Protocol.DTLS, message_seq=0)) == 12 + 32


def test_decode_rejects_every_truncation():
    for msg in sample_messages():
        wire = m.tls_form(msg)
        for cut in range(len(wire)):
            with pytest.raises(DecodeError):
                m.decode_handshake(wire[:cut])


def test_decode_rejects_trailing_garbage():
    wire = m.tls_form(m.Finished(bytes(32)))
    with pytest.raises(DecodeError):
        m.decode_handshake(wire + b"\x00")


def test_decode_unknown_type():
    with pytest.raises(DecodeError):
        m.decode_handshake(b"\x63\x00\x00\x00")


@settings(max_examples=300, deadline=None)
@given(st.binary(min_size=0, max_size=80))
def test_decoder_total_on_random_bytes(data):
    try:
        msg = m.decode_handshake(data)
    except DecodeError:
        return
    assert m.tls_form(msg) == data


def test_psk_extension_must_be_last():
    ch = psk_client_hello(random.Random(0))
    ch.extensions.update([m.ext_early_data()])  # after pre_shared_key
    with pytest.raises(DecodeError):
        m.decode_handshake(m.tls_form(ch))


def test_duplicate_extension_rejected():
    # a dict holds each type once, so the repeat is spliced into the encoded block
    rng = random.Random(0)
    ch = m.ClientHello(rng.randbytes(32), b"", [SuiteId.AES_128_CCM_SHA256], dict([m.ext_supported_versions_client()]))
    body = ch.encode_body()
    ext_type, data = m.ext_supported_versions_client()
    one = ext_type.to_bytes(2, "big") + len(data).to_bytes(2, "big") + data
    assert body.endswith(len(one).to_bytes(2, "big") + one)
    body = body[: -2 - len(one)] + (2 * len(one)).to_bytes(2, "big") + one + one
    with pytest.raises(DecodeError):
        m.decode_handshake(bytes([m.HandshakeType.CLIENT_HELLO]) + len(body).to_bytes(3, "big") + body)


def test_client_hello_deterministic_from_seed():
    cfg, _, _ = make_configs(Protocol.TLS, AuthMode.PSK, compat=True)
    first_flight = lambda: [rec.data for rec in Connection(cfg, "client", random.Random(77)).start(0)]
    assert first_flight() == first_flight()


def test_binder_prefix():
    for hash_len in (32, 48):
        ch = psk_client_hello(random.Random(2), binder_len=hash_len)
        full = m.tls_form(ch)
        prefix = m.binder_prefix(full, hash_len)
        assert full.startswith(prefix)
        assert len(full) - len(prefix) == 2 + 1 + hash_len
        # what is cut is exactly the binders list: one zero-filled binder
        assert full[len(prefix) :] == (1 + hash_len).to_bytes(2, "big") + bytes([hash_len]) + bytes(hash_len)


def test_hrr_sentinel_detection():
    hrr = m.build_hello_retry_request(SuiteId.AES_128_CCM_SHA256, b"c" * 33)
    assert m.is_hello_retry_request(hrr)
    assert m.parse_cookie(hrr.extensions[m.ExtensionType.COOKIE]) == b"c" * 33
    exts = dict([m.ext_supported_versions_server(), m.ext_pre_shared_key_server(0)])
    sh = m.ServerHello(bytes(32), b"", SuiteId.AES_128_CCM_SHA256, exts)
    assert not m.is_hello_retry_request(sh)


def test_server_hello_psk_selection_zero():
    exts = dict([m.ext_supported_versions_server(), m.ext_pre_shared_key_server(0)])
    sh = m.ServerHello(bytes(32), b"sid", SuiteId.AES_128_CCM_SHA256, exts)
    assert sh.extensions[m.ExtensionType.PRE_SHARED_KEY] == b"\x00\x00"
    assert sh.legacy_session_id_echo == b"sid"


def test_fragmentation_three_parts_reverse_reassembly():
    rng = random.Random(3)
    cert = certificate(rng.randbytes(3000 - 11))
    wire = wire_form(cert, Protocol.DTLS, message_seq=2)
    frags = split(cert, 2, 1200)
    assert len(frags) == 3
    assert all(len(f.encode()) <= 1200 for f in frags)
    assert reassemble(reversed(frags)) == wire


def test_fragment_single_identity():
    fin = m.Finished(bytes(32))
    wire = wire_form(fin, Protocol.DTLS, message_seq=0)
    frags = split(fin, 0, 1200)
    assert len(frags) == 1
    assert reassemble(frags) == wire


def test_fragment_random_split_points():
    rng = random.Random(4)
    for _ in range(500):
        body = rng.randbytes(rng.randrange(1, 400))
        cert = certificate(body)
        wire = wire_form(cert, Protocol.DTLS, message_seq=1)
        budget = rng.randrange(13, 200)
        frags = split(cert, 1, budget)
        rng.shuffle(frags)
        frags += [frags[0]]  # duplicate tolerated
        assert reassemble(frags) == wire


def test_fragment_gap_and_inconsistency():
    frags = split(certificate(bytes(100)), 0, 50)
    buf = m.FragmentBuffer(frags[0].msg_type, frags[0].length, frags[0].message_seq)
    for f in frags[:-1]:
        buf.add(f)
    assert not buf.complete
    bad = m.DtlsFragment(
        frags[0].msg_type,
        frags[0].length,
        frags[0].message_seq,
        frags[0].fragment_offset,
        b"\xff" * len(frags[0].body),
    )
    with pytest.raises(InconsistentDuplicate):
        reassemble([frags[0], bad])


def _bytewise_reassembly(length, pieces):
    """Per-byte reference for FragmentBuffer: the error text, "incomplete" or the body."""
    buf, have = bytearray(length), [False] * length
    for lo, data in pieces:
        for i, b in enumerate(data, start=lo):
            if have[i] and buf[i] != b:
                return f"byte {i} differs between fragments"
            buf[i], have[i] = b, True
    return bytes(buf) if all(have) else "incomplete"


def _interval_reassembly(length, pieces):
    buf = m.FragmentBuffer(11, length, 0)
    try:
        for lo, data in pieces:
            buf.add(m.DtlsFragment(11, length, 0, lo, data))
    except InconsistentDuplicate as exc:
        return str(exc)
    return buf.assemble().body if buf.complete else "incomplete"


@pytest.mark.parametrize(
    "spans, expected",
    [
        ([(60, 100), (0, 30), (30, 60)], None),  # out of order
        ([(10, 50), (40, 80), (0, 20), (70, 100), (0, 100)], None),  # overlapping, consistent
        ([(0, 20), (30, 50), (10, 40, {35, 15})], "byte 15 differs between fragments"),
        ([(0, 50), (40, 60, {55, 45})], "byte 45 differs between fragments"),
        ([(0, 30), (50, 100)], "incomplete"),
        ([(10, 100)], "incomplete"),
    ],
)
def test_fragment_buffer_intervals(spans, expected):
    body = bytes(range(100))
    pieces = []
    for lo, hi, *flipped in spans:
        data = bytearray(body[lo:hi])
        for i in flipped[0] if flipped else ():
            data[i - lo] ^= 0xFF
        pieces.append((lo, bytes(data)))
    assert _interval_reassembly(100, pieces) == _bytewise_reassembly(100, pieces)
    assert _interval_reassembly(100, pieces) == (expected or body)


def test_fragment_buffer_matches_bytewise_reference():
    rng = random.Random(12)
    for _ in range(500):
        length = rng.randrange(0, 60)
        body = rng.randbytes(length)
        pieces = []
        for _ in range(rng.randrange(0, 8)):
            lo = rng.randrange(0, length + 1)
            data = bytearray(body[lo : rng.randrange(lo, length + 1)])
            if data and rng.random() < 0.15:
                data[rng.randrange(len(data))] ^= 1
            pieces.append((lo, bytes(data)))
        assert _interval_reassembly(length, pieces) == _bytewise_reassembly(length, pieces)


def test_zero_length_message_is_complete():
    buf = m.FragmentBuffer(11, 0, 0)
    assert buf.complete
    buf.add(m.DtlsFragment(11, 0, 0, 0, b""))
    assert buf.complete and buf.assemble().body == b""


def test_fragment_range_validation():
    with pytest.raises(DecodeError):
        m.parse_dtls_fragment(
            bytes([20]) + (5).to_bytes(3, "big") + b"\x00\x00" + (3).to_bytes(3, "big") + (4).to_bytes(3, "big") + bytes(4)
        )


def test_ack_codec():
    body = m.build_ack([(2, 5), (3, 0)])
    assert len(body) == 2 + 32
    assert m.parse_ack(body) == [(2, 5), (3, 0)]
    with pytest.raises(DecodeError):
        m.parse_ack(body + b"\x00")


def test_certificate_verify_content_shape():
    th = bytes(range(32))
    content = m.certificate_verify_content("server", th)
    assert content.startswith(b" " * 64)
    assert b"server CertificateVerify" in content
    assert content.endswith(b"\x00" + th)
    assert m.certificate_verify_content("client", th) != content


def test_dump_line_format():
    raw = m.tls_form(m.Finished(bytes(32)))
    line = m.dump_line("c2s", raw)
    direction, name, length, hexpart = line.split()
    assert (direction, name, int(length)) == ("c2s", "finished", 36)
    assert bytes.fromhex(hexpart) == raw
