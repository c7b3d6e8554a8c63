"""Byte-size model for TLS/DTLS 1.2 handshakes.

No 1.2 cryptography lives here: every value is a per-message byte
formula derived by summing wire field widths, so each line can be
audited against the 1.2 message grammar.  The model is evaluated with
the same certificate/PSK/SNI parameters as the live 1.3 runs so that
deltas isolate protocol changes rather than configuration changes; a
field both versions encode alike is sized by the ``messages`` encoder
the 1.3 side sends it with.
"""

from . import messages
from .crypto import GROUP_PUBKEY_LEN, GROUP_SCHEME, NamedGroup, suite_params

TLS12_RECORD_HEADER = 5  # type 1 + version 2 + length 2
DTLS12_RECORD_HEADER = 13  # type 1 + version 2 + epoch 2 + seq 6 + length 2
TLS_HS_HEADER = 4  # msg_type 1 + length 3
DTLS_HS_HEADER = 12  # + message_seq 2 + frag_offset 3 + frag_length 3
TLS12_MAX_FRAGMENT = 1 << 14  # the most bytes one record holds (RFC 5246 section 6.2.1)
AEAD_EXPLICIT_NONCE = 8  # GenericAEADCipher nonce_explicit
FINISHED_VERIFY_DATA = 12  # TLS 1.2 Finished body
CCS_BODY = 1  # ChangeCipherSpec payload
HVR_COOKIE = 32  # HelloVerifyRequest cookie (DTLS 1.2 DoS exchange)
SESSION_ID_EMPTY = 1  # session id length byte, no id offered

# 1.2 companions that 1.3 made obsolete (folded into the protocol or
# replaced by tickets); embedded-stack defaults send them all:
EMS_EXT = 4  # extended_master_secret: type 2 + length 2, empty body
ETM_EXT = 4  # encrypt_then_mac offer (no echo for AEAD suites)
TICKET_EXT = 4  # empty session_ticket offer, declined by the server
RENEG_SCSV = 2  # TLS_EMPTY_RENEGOTIATION_INFO_SCSV suite code
RENEG_ECHO_EXT = 5  # renegotiation_info echo: type 2 + length 2 + len byte
SERVER_SESSION_ID = 32  # 1.2 stateful session caching assigns an id

# ECDSA signature, DER encoded: SEQUENCE hdr 2 + 2 * (INTEGER hdr 2 + 33)
DER_SIG_LEN = {NamedGroup.SECP256R1: 72, NamedGroup.SECP521R1: 2 + 2 * (2 + 67)}


def _ext(body: int) -> int:
    return 4 + body  # extension type 2 + length 2


EC_POINT_FORMATS_EXT = _ext(1 + 1)  # list length 1 + uncompressed(0)


def _plain(protocol: str, body: int) -> int:
    """One handshake message in plaintext records: on TLS, one record header per
    2^14 bytes of the message; on DTLS, one record whatever its size."""
    if protocol == "dtls":
        return DTLS12_RECORD_HEADER + DTLS_HS_HEADER + body
    message = TLS_HS_HEADER + body
    records = (message + TLS12_MAX_FRAGMENT - 1) // TLS12_MAX_FRAGMENT
    return records * TLS12_RECORD_HEADER + message


def _encrypted(protocol: str, body: int, tag_len: int) -> int:
    rec = DTLS12_RECORD_HEADER if protocol == "dtls" else TLS12_RECORD_HEADER
    hs = DTLS_HS_HEADER if protocol == "dtls" else TLS_HS_HEADER
    return rec + AEAD_EXPLICIT_NONCE + hs + body + tag_len


def _ccs(protocol: str) -> int:
    rec = DTLS12_RECORD_HEADER if protocol == "dtls" else TLS12_RECORD_HEADER
    return rec + CCS_BODY


def _client_hello_body(protocol: str, *, n_suites: int, cookie_len: int, exts: int) -> int:
    body = 2 + 32 + SESSION_ID_EMPTY  # version + random + session id
    if protocol == "dtls":
        body += 1 + cookie_len  # cookie length byte + echoed cookie
    body += 2 + 2 * n_suites + RENEG_SCSV + 1 + 1  # suites + SCSV + compression
    exts += EMS_EXT + ETM_EXT + TICKET_EXT
    return body + 2 + exts  # extension block length + extensions


def model_messages(
    protocol: str,
    mode: str,
    *,
    cert_size: int = 500,
    psk_id_len: int = 16,
    sni: str | None = None,
    n_suites: int = 1,
    group: NamedGroup = NamedGroup.SECP256R1,
    mutual: bool = True,
    suite=None,
) -> list:
    """Modeled 1.2 handshake: list of (message, direction, bytes) rows.

    ``mode`` is "psk" or "pk"; DTLS includes the HelloVerifyRequest
    exchange, matching stacks that enforce cookies.  A "pk" ClientHello
    offers ``group`` and its signature scheme, and names ``sni`` if set.
    """
    tag_len = suite_params(suite).tag_len if suite is not None else 16
    point_len = GROUP_PUBKEY_LEN[group]
    sig_len = DER_SIG_LEN[group]
    rows = []

    if mode == "psk":
        ch_exts = 0
    else:
        shared = [
            messages.ext_supported_groups([int(group)]),
            messages.ext_signature_algorithms([int(GROUP_SCHEME[group])]),
        ]
        if sni:
            shared.append(messages.ext_server_name(sni))
        ch_exts = EC_POINT_FORMATS_EXT + sum(_ext(len(data)) for _, data in shared)

    def add(name, direction, size):
        rows.append((name, direction, size))

    if protocol == "dtls":
        ch1 = _client_hello_body(protocol, n_suites=n_suites, cookie_len=0, exts=ch_exts)
        add("client_hello", "c2s", _plain(protocol, ch1))
        add("hello_verify_request", "s2c", _plain(protocol, 2 + 1 + HVR_COOKIE))
        cookie_len = HVR_COOKIE
    else:
        cookie_len = 0
    ch = _client_hello_body(protocol, n_suites=n_suites, cookie_len=cookie_len, exts=ch_exts)
    add("client_hello", "c2s", _plain(protocol, ch))

    sh_exts = EMS_EXT + RENEG_ECHO_EXT + (EC_POINT_FORMATS_EXT if mode == "pk" else 0)
    sh = 2 + 32 + SESSION_ID_EMPTY + SERVER_SESSION_ID + 2 + 1 + 2 + sh_exts
    add("server_hello", "s2c", _plain(protocol, sh))

    if mode == "pk":
        add("certificate", "s2c", _plain(protocol, 3 + 3 + cert_size))
        # curve_type 1 + named curve 2 + point length 1 + point
        # + signature algorithm 2 + signature length 2 + DER signature
        ske = 1 + 2 + 1 + point_len + 2 + 2 + sig_len
        add("server_key_exchange", "s2c", _plain(protocol, ske))
        if mutual:
            # cert types vector 1+1 + sig algs 2+2 (one scheme) + CA list 2 (empty)
            add("certificate_request", "s2c", _plain(protocol, 1 + 1 + 2 + 2 + 2))
    add("server_hello_done", "s2c", _plain(protocol, 0))

    if mode == "pk" and mutual:
        add("certificate", "c2s", _plain(protocol, 3 + 3 + cert_size))
    if mode == "psk":
        add("client_key_exchange", "c2s", _plain(protocol, 2 + psk_id_len))
    else:
        add("client_key_exchange", "c2s", _plain(protocol, 1 + point_len))
    if mode == "pk" and mutual:
        add("certificate_verify", "c2s", _plain(protocol, 2 + 2 + sig_len))

    add("change_cipher_spec", "c2s", _ccs(protocol))
    add("finished", "c2s", _encrypted(protocol, FINISHED_VERIFY_DATA, tag_len))
    add("change_cipher_spec", "s2c", _ccs(protocol))
    add("finished", "s2c", _encrypted(protocol, FINISHED_VERIFY_DATA, tag_len))
    return rows


def model_total(protocol: str, mode: str, **kwargs) -> int:
    return sum(size for _, _, size in model_messages(protocol, mode, **kwargs))
