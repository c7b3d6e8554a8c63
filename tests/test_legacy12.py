from minitls import legacy12, messages
from minitls.crypto import NamedGroup, Protocol
from minitls.messages import ExtensionType
from minitls.profiles import AuthMode

from .harness import run_handshake


def test_model_is_deterministic():
    a = legacy12.model_messages("dtls", "pk", cert_size=500, sni="iot.example")
    b = legacy12.model_messages("dtls", "pk", cert_size=500, sni="iot.example")
    assert a == b


def test_header_constants_sum_field_widths():
    assert legacy12.TLS12_RECORD_HEADER == 1 + 2 + 2
    assert legacy12.DTLS12_RECORD_HEADER == 1 + 2 + 2 + 6 + 2
    assert legacy12.DTLS_HS_HEADER == 1 + 3 + 2 + 3 + 3
    assert legacy12.TLS_HS_HEADER == 1 + 3


def test_psk_message_set():
    rows = legacy12.model_messages("tls", "psk")
    names = [n for n, _, _ in rows]
    assert names == [
        "client_hello",
        "server_hello",
        "server_hello_done",
        "client_key_exchange",
        "change_cipher_spec",
        "finished",
        "change_cipher_spec",
        "finished",
    ]


def test_dtls_includes_hello_verify_exchange():
    rows = legacy12.model_messages("dtls", "psk")
    names = [n for n, _, _ in rows]
    assert names[:3] == ["client_hello", "hello_verify_request", "client_hello"]
    ch1 = rows[0][2]
    ch2 = rows[2][2]
    assert ch2 - ch1 == legacy12.HVR_COOKIE  # retry echoes the cookie


def test_pk_message_set_mutual():
    rows = legacy12.model_messages("dtls", "pk", mutual=True)
    names = [n for n, _, _ in rows]
    for required in ("server_key_exchange", "certificate_request", "certificate_verify"):
        assert required in names
    assert names.count("certificate") == 2
    one_way = [n for n, _, _ in legacy12.model_messages("dtls", "pk", mutual=False)]
    assert "certificate_verify" not in one_way
    assert one_way.count("certificate") == 1


def test_cert_size_sensitivity_exact():
    base = legacy12.model_total("dtls", "pk", cert_size=500)
    grown = legacy12.model_total("dtls", "pk", cert_size=800)
    assert grown - base == 2 * 300  # both directions carry one certificate


def test_tls_message_over_two_to_the_14_spans_two_records():
    # a 1.2 record holds at most 2^14 bytes (RFC 5246 section 6.2.1); the
    # Certificate message is its 4-byte header, two 3-byte lengths and the cert
    def certificate_row(cert_size):
        rows = legacy12.model_messages("tls", "pk", cert_size=cert_size, mutual=False)
        return next(size for name, _, size in rows if name == "certificate")

    fits = (1 << 14) - legacy12.TLS_HS_HEADER - 3 - 3
    assert certificate_row(fits) == legacy12.TLS12_RECORD_HEADER + (1 << 14)
    assert certificate_row(fits + 1) == 2 * legacy12.TLS12_RECORD_HEADER + (1 << 14) + 1
    # DTLS stays one record per message until the model fragments at the MTU
    rows = legacy12.model_messages("dtls", "pk", cert_size=fits + 1, mutual=False)
    dtls_cert = next(size for name, _, size in rows if name == "certificate")
    assert dtls_cert == legacy12.DTLS12_RECORD_HEADER + legacy12.DTLS_HS_HEADER + 3 + 3 + fits + 1


def test_finished_record_overhead():
    rows = dict(
        ((n, d), s) for n, d, s in legacy12.model_messages("tls", "psk")
    )
    finished = rows[("finished", "c2s")]
    assert finished == (
        legacy12.TLS12_RECORD_HEADER
        + legacy12.AEAD_EXPLICIT_NONCE
        + legacy12.TLS_HS_HEADER
        + legacy12.FINISHED_VERIFY_DATA
        + 16
    )


def test_p521_grows_key_exchange():
    p256 = legacy12.model_total("dtls", "pk", group=NamedGroup.SECP256R1)
    p521 = legacy12.model_total("dtls", "pk", group=NamedGroup.SECP521R1)
    assert p521 > p256
    # point growth twice (SKE + CKE), signature growth twice (SKE + client CV)
    delta = (133 - 65) * 2 + (legacy12.DER_SIG_LEN[NamedGroup.SECP521R1] - 72) * 2
    assert p521 - p256 == delta


def test_client_hello_fields_shared_with_1_3_are_priced_as_the_1_3_client_sends_them():
    # the SNI, supported_groups and signature_algorithms extensions encode alike
    # in 1.2 and 1.3; a "pk" 1.2 ClientHello adds them and ec_point_formats
    pair = run_handshake(Protocol.TLS, AuthMode.PK_SERVER_ONLY, seed=1)
    ch = messages.decode_handshake(pair.client.transcript.messages[0])
    kinds = (ExtensionType.SERVER_NAME, ExtensionType.SUPPORTED_GROUPS, ExtensionType.SIGNATURE_ALGORITHMS)
    sent = sum(2 + 2 + len(data) for ext_type, data in ch.extensions.items() if ext_type in kinds)  # type, length, body

    def client_hello(mode, **kw):
        return legacy12.model_messages("tls", mode, **kw)[0][2]

    assert client_hello("pk", sni=pair.client.cfg.sni) - client_hello("psk") == sent + legacy12.EC_POINT_FORMATS_EXT
