"""Byte-exact handshake message and extension codecs.

decode(encode(m)) == m for every valid message and the decoders reject
truncations and trailing garbage, so the same bytes that feed the
transcript hash are the bytes on the wire.  DTLS messages use the
12-byte fragment header even when unfragmented; ``to_tls_form``
rewrites it to the 4-byte TLS header for transcript hashing.
"""

import struct
from dataclasses import dataclass, field
from enum import IntEnum

from .errors import DecodeError, InconsistentDuplicate

TLS_LEGACY_VERSION = 0x0303
TLS13_VERSION = 0x0304

# ServerHello.random sentinel marking a HelloRetryRequest.
HRR_RANDOM = bytes.fromhex(
    "cf21ad74e59a6111be1d8c021e65b891c2a211167abb8c5e079e09e2c8a8339c"
)

DTLS_HANDSHAKE_HEADER_LEN = 12


class HandshakeType(IntEnum):
    CLIENT_HELLO = 1
    SERVER_HELLO = 2
    NEW_SESSION_TICKET = 4
    END_OF_EARLY_DATA = 5
    ENCRYPTED_EXTENSIONS = 8
    CERTIFICATE = 11
    CERTIFICATE_REQUEST = 13
    CERTIFICATE_VERIFY = 15
    FINISHED = 20
    MESSAGE_HASH = 254


class ExtensionType(IntEnum):
    SERVER_NAME = 0
    SUPPORTED_GROUPS = 10
    SIGNATURE_ALGORITHMS = 13
    PRE_SHARED_KEY = 41
    EARLY_DATA = 42
    SUPPORTED_VERSIONS = 43
    COOKIE = 44
    PSK_KEY_EXCHANGE_MODES = 45
    KEY_SHARE = 51
    CONNECTION_ID = 54


class PskMode(IntEnum):
    PSK_KE = 0
    PSK_DHE_KE = 1


# --- primitive codec helpers -------------------------------------------------


class Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self.pos + n > len(self.data):
            raise DecodeError("truncated-message")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def uint(self, width: int) -> int:
        return int.from_bytes(self.take(width), "big")

    def vec(self, len_width: int) -> bytes:
        return self.take(self.uint(len_width))

    @property
    def remaining(self) -> int:
        return len(self.data) - self.pos

    def expect_end(self, what: str) -> None:
        if self.remaining:
            raise DecodeError(f"length-mismatch: trailing bytes after {what}")


def _vec(len_width: int, payload: bytes) -> bytes:
    return len(payload).to_bytes(len_width, "big") + payload


def _u16list(values) -> bytes:
    return b"".join(struct.pack("!H", v) for v in values)


# --- extensions ---------------------------------------------------------------


def _decode_extensions(r: Reader) -> dict:
    """An extension block as ``{type: data}`` in wire order; each type at most once (RFC 8446 section 4.2)."""
    exts = {}
    block = Reader(r.vec(2))
    while block.remaining:
        ext_type, data = block.uint(2), block.vec(2)
        if ext_type in exts:
            raise DecodeError(f"duplicate extension {ext_type}")
        exts[ext_type] = data
    return exts


def _encode_extensions(exts: dict) -> bytes:
    return _vec(2, b"".join(struct.pack("!H", t) + _vec(2, data) for t, data in exts.items()))


def ext_supported_versions_client() -> tuple:
    return ExtensionType.SUPPORTED_VERSIONS, _vec(1, struct.pack("!H", TLS13_VERSION))


def parse_supported_versions_client(data: bytes) -> list:
    r = Reader(data)
    body = Reader(r.vec(1))
    r.expect_end("supported_versions")
    versions = []
    while body.remaining:
        versions.append(body.uint(2))
    return versions


def ext_supported_versions_server() -> tuple:
    return ExtensionType.SUPPORTED_VERSIONS, struct.pack("!H", TLS13_VERSION)


def parse_supported_versions_server(data: bytes) -> int:
    r = Reader(data)
    version = r.uint(2)
    r.expect_end("supported_versions")
    return version


def ext_server_name(host: str) -> tuple:
    entry = b"\x00" + _vec(2, host.encode("ascii"))
    return ExtensionType.SERVER_NAME, _vec(2, entry)


def ext_supported_groups(groups) -> tuple:
    return ExtensionType.SUPPORTED_GROUPS, _vec(2, _u16list(groups))


def ext_signature_algorithms(schemes) -> tuple:
    return ExtensionType.SIGNATURE_ALGORITHMS, _vec(2, _u16list(schemes))


def ext_psk_modes(modes) -> tuple:
    return ExtensionType.PSK_KEY_EXCHANGE_MODES, _vec(1, bytes(modes))


def parse_psk_modes(data: bytes) -> bytes:
    r = Reader(data)
    modes = r.vec(1)
    r.expect_end("psk_key_exchange_modes")
    return modes


def ext_key_share_client(entries) -> tuple:
    body = b"".join(struct.pack("!H", g) + _vec(2, pub) for g, pub in entries)
    return ExtensionType.KEY_SHARE, _vec(2, body)


def parse_key_share_client(data: bytes) -> list:
    r = Reader(data)
    body = Reader(r.vec(2))
    r.expect_end("key_share")
    entries = []
    while body.remaining:
        group = body.uint(2)
        entries.append((group, body.vec(2)))
    return entries


def ext_key_share_server(group: int, pub: bytes) -> tuple:
    return ExtensionType.KEY_SHARE, struct.pack("!H", group) + _vec(2, pub)


def parse_key_share_server(data: bytes):
    r = Reader(data)
    group = r.uint(2)
    pub = r.vec(2)
    r.expect_end("key_share")
    return group, pub


def ext_pre_shared_key_offer(identity: bytes, obfuscated_ticket_age: int, binder: bytes) -> tuple:
    identities = _vec(2, _vec(2, identity) + struct.pack("!I", obfuscated_ticket_age))
    binders = _vec(2, _vec(1, binder))
    return ExtensionType.PRE_SHARED_KEY, identities + binders


def parse_pre_shared_key_offer(data: bytes):
    r = Reader(data)
    ids = Reader(r.vec(2))
    identity = ids.vec(2)
    age = ids.uint(4)
    ids.expect_end("psk identity list")  # single PSK identity per hello
    binders = Reader(r.vec(2))
    binder = binders.vec(1)
    binders.expect_end("psk binder list")
    r.expect_end("pre_shared_key")
    return identity, age, binder


def binder_prefix(raw_tls_form: bytes, hash_len: int) -> bytes:
    """The ClientHello bytes a PSK binder covers (RFC 8446 section 4.2.11.2):
    its TLS form up to the binders list, which ends the last extension."""
    # binders vector (2) + one length-prefixed binder (1 + hash_len)
    return raw_tls_form[: len(raw_tls_form) - (2 + 1 + hash_len)]


def ext_pre_shared_key_server(selected_identity: int) -> tuple:
    return ExtensionType.PRE_SHARED_KEY, struct.pack("!H", selected_identity)


def parse_pre_shared_key_server(data: bytes) -> int:
    r = Reader(data)
    selected_identity = r.uint(2)
    r.expect_end("pre_shared_key")
    return selected_identity


def ext_early_data() -> tuple:
    return ExtensionType.EARLY_DATA, b""


def ext_early_data_ticket(max_early_data: int) -> tuple:
    return ExtensionType.EARLY_DATA, struct.pack("!I", max_early_data)


def ext_cookie(cookie: bytes) -> tuple:
    return ExtensionType.COOKIE, _vec(2, cookie)


def parse_cookie(data: bytes) -> bytes:
    r = Reader(data)
    cookie = r.vec(2)
    r.expect_end("cookie")
    return cookie


def ext_connection_id(cid: bytes) -> tuple:
    return ExtensionType.CONNECTION_ID, _vec(1, cid)


def parse_connection_id(data: bytes) -> bytes:
    r = Reader(data)
    cid = r.vec(1)
    r.expect_end("connection_id")
    return cid


# --- handshake messages --------------------------------------------------------


@dataclass
class ClientHello:
    MSG_TYPE = HandshakeType.CLIENT_HELLO
    random: bytes
    legacy_session_id: bytes
    cipher_suites: list
    extensions: dict = field(default_factory=dict)

    def encode_body(self) -> bytes:
        return (
            struct.pack("!H", TLS_LEGACY_VERSION)
            + self.random
            + _vec(1, self.legacy_session_id)
            + _vec(2, _u16list(self.cipher_suites))
            + _vec(1, b"\x00")
            + _encode_extensions(self.extensions)
        )

    @classmethod
    def decode_body(cls, body: bytes):
        r = Reader(body)
        if r.uint(2) != TLS_LEGACY_VERSION:
            raise DecodeError("bad legacy_version")
        random = r.take(32)
        session_id = r.vec(1)
        suites = []
        sv = Reader(r.vec(2))
        while sv.remaining:
            suites.append(sv.uint(2))
        if r.vec(1) != b"\x00":
            raise DecodeError("unsupported compression methods")
        exts = _decode_extensions(r)
        r.expect_end("ClientHello")
        if ExtensionType.PRE_SHARED_KEY in exts and next(reversed(exts)) != ExtensionType.PRE_SHARED_KEY:
            raise DecodeError("pre_shared_key is not the final extension")
        return cls(random, session_id, suites, exts)


@dataclass
class ServerHello:
    MSG_TYPE = HandshakeType.SERVER_HELLO
    random: bytes
    legacy_session_id_echo: bytes
    cipher_suite: int
    extensions: dict = field(default_factory=dict)

    def encode_body(self) -> bytes:
        return (
            struct.pack("!H", TLS_LEGACY_VERSION)
            + self.random
            + _vec(1, self.legacy_session_id_echo)
            + struct.pack("!H", self.cipher_suite)
            + b"\x00"
            + _encode_extensions(self.extensions)
        )

    @classmethod
    def decode_body(cls, body: bytes):
        r = Reader(body)
        if r.uint(2) != TLS_LEGACY_VERSION:
            raise DecodeError("bad legacy_version")
        random = r.take(32)
        sid = r.vec(1)
        suite = r.uint(2)
        if r.uint(1) != 0:
            raise DecodeError("bad compression method")
        exts = _decode_extensions(r)
        r.expect_end("ServerHello")
        return cls(random, sid, suite, exts)


@dataclass
class EncryptedExtensions:
    MSG_TYPE = HandshakeType.ENCRYPTED_EXTENSIONS
    extensions: dict = field(default_factory=dict)

    def encode_body(self) -> bytes:
        return _encode_extensions(self.extensions)

    @classmethod
    def decode_body(cls, body: bytes):
        r = Reader(body)
        exts = _decode_extensions(r)
        r.expect_end("EncryptedExtensions")
        return cls(exts)


@dataclass
class Certificate:
    MSG_TYPE = HandshakeType.CERTIFICATE
    request_context: bytes = b""
    entries: list = field(default_factory=list)  # (cert_data, extensions bytes)

    def encode_body(self) -> bytes:
        body = b"".join(_vec(3, data) + _vec(2, exts) for data, exts in self.entries)
        return _vec(1, self.request_context) + _vec(3, body)

    @classmethod
    def decode_body(cls, body: bytes):
        r = Reader(body)
        ctx = r.vec(1)
        lst = Reader(r.vec(3))
        r.expect_end("Certificate")
        entries = []
        while lst.remaining:
            entries.append((lst.vec(3), lst.vec(2)))
        return cls(ctx, entries)


@dataclass
class CertificateRequest:
    MSG_TYPE = HandshakeType.CERTIFICATE_REQUEST
    request_context: bytes = b""
    extensions: dict = field(default_factory=dict)

    def encode_body(self) -> bytes:
        return _vec(1, self.request_context) + _encode_extensions(self.extensions)

    @classmethod
    def decode_body(cls, body: bytes):
        r = Reader(body)
        ctx = r.vec(1)
        exts = _decode_extensions(r)
        r.expect_end("CertificateRequest")
        return cls(ctx, exts)


@dataclass
class CertificateVerify:
    MSG_TYPE = HandshakeType.CERTIFICATE_VERIFY
    scheme: int
    signature: bytes

    def encode_body(self) -> bytes:
        return struct.pack("!H", self.scheme) + _vec(2, self.signature)

    @classmethod
    def decode_body(cls, body: bytes):
        r = Reader(body)
        scheme = r.uint(2)
        sig = r.vec(2)
        r.expect_end("CertificateVerify")
        return cls(scheme, sig)


@dataclass
class Finished:
    MSG_TYPE = HandshakeType.FINISHED
    verify_data: bytes

    def encode_body(self) -> bytes:
        return self.verify_data

    @classmethod
    def decode_body(cls, body: bytes):
        return cls(body)


@dataclass
class NewSessionTicket:
    MSG_TYPE = HandshakeType.NEW_SESSION_TICKET
    lifetime: int
    age_add: int
    nonce: bytes
    ticket: bytes
    extensions: dict = field(default_factory=dict)

    def encode_body(self) -> bytes:
        return (
            struct.pack("!II", self.lifetime, self.age_add)
            + _vec(1, self.nonce)
            + _vec(2, self.ticket)
            + _encode_extensions(self.extensions)
        )

    @classmethod
    def decode_body(cls, body: bytes):
        r = Reader(body)
        lifetime = r.uint(4)
        age_add = r.uint(4)
        nonce = r.vec(1)
        ticket = r.vec(2)
        exts = _decode_extensions(r)
        r.expect_end("NewSessionTicket")
        return cls(lifetime, age_add, nonce, ticket, exts)


@dataclass
class EndOfEarlyData:
    MSG_TYPE = HandshakeType.END_OF_EARLY_DATA

    def encode_body(self) -> bytes:
        return b""

    @classmethod
    def decode_body(cls, body: bytes):
        if body:
            raise DecodeError("EndOfEarlyData carries no body")
        return cls()


_MESSAGE_TYPES = {
    cls.MSG_TYPE: cls
    for cls in (
        ClientHello,
        ServerHello,
        EncryptedExtensions,
        Certificate,
        CertificateRequest,
        CertificateVerify,
        Finished,
        NewSessionTicket,
        EndOfEarlyData,
    )
}


def tls_form(msg) -> bytes:
    body = msg.encode_body()
    return bytes([msg.MSG_TYPE]) + len(body).to_bytes(3, "big") + body


def message_hash(digest: bytes) -> bytes:
    """The synthetic message_hash message standing in for ClientHello1
    after a HelloRetryRequest (RFC 8446 section 4.4.1)."""
    return bytes([HandshakeType.MESSAGE_HASH, 0, 0, len(digest)]) + digest


def decode_handshake(data: bytes):
    """Decode one TLS-form handshake message (4-byte header)."""
    r = Reader(data)
    msg_type = r.uint(1)
    body = r.vec(3)
    r.expect_end("handshake message")
    cls = _MESSAGE_TYPES.get(msg_type)
    if cls is None:
        raise DecodeError(f"unknown-type: handshake type {msg_type}")
    return cls.decode_body(body)


# --- DTLS fragmentation ---------------------------------------------------------


@dataclass
class DtlsFragment:
    msg_type: int
    length: int
    message_seq: int
    fragment_offset: int
    body: bytes

    def encode(self) -> bytes:
        return (
            bytes([self.msg_type])
            + self.length.to_bytes(3, "big")
            + struct.pack("!H", self.message_seq)
            + self.fragment_offset.to_bytes(3, "big")
            + len(self.body).to_bytes(3, "big")
            + self.body
        )

    @property
    def complete(self) -> bool:
        return self.fragment_offset == 0 and len(self.body) == self.length

    def to_tls_form(self) -> bytes:
        """Drop message_seq/fragment fields so DTLS and TLS hash alike; for a ``complete`` fragment."""
        return bytes([self.msg_type]) + self.length.to_bytes(3, "big") + self.body


def parse_dtls_fragment(data: bytes) -> tuple:
    """Parse one fragment from the front of ``data``; returns (fragment, consumed)."""
    r = Reader(data)
    msg_type = r.uint(1)
    length = r.uint(3)
    message_seq = r.uint(2)
    offset = r.uint(3)
    frag_len = r.uint(3)
    if offset + frag_len > length:
        raise DecodeError("fragment range exceeds message length")
    body = r.take(frag_len)
    return DtlsFragment(msg_type, length, message_seq, offset, body), r.pos


def fragment(msg_type: int, message_seq: int, body: bytes, mtu_budget: int) -> list:
    """Split one handshake message body into DTLS fragments, each at most
    ``mtu_budget`` bytes encoded; ``mtu_budget`` exceeds the fragment header."""
    chunk = mtu_budget - DTLS_HANDSHAKE_HEADER_LEN
    return [
        DtlsFragment(msg_type, len(body), message_seq, off, body[off : off + chunk])
        for off in range(0, len(body), chunk) or [0]  # zero-length body: one carrier
    ]


class FragmentBuffer:
    """Collects fragments of one message; order-insensitive, duplicate-tolerant.

    ``runs`` holds the bytes received as sorted ``(start, bytes)`` pairs,
    merged wherever they overlap or touch, so the buffer grows with the
    bytes that arrive, never with the length a header claims.
    """

    def __init__(self, msg_type: int, length: int, message_seq: int):
        self.msg_type = msg_type
        self.length = length
        self.message_seq = message_seq
        self.runs: list = []

    def add(self, frag: DtlsFragment) -> None:
        if (frag.msg_type, frag.length, frag.message_seq) != (
            self.msg_type,
            self.length,
            self.message_seq,
        ):
            raise InconsistentDuplicate("fragment header fields disagree")
        start, body = frag.fragment_offset, frag.body
        end = start + len(body)
        before, after = [], []
        for lo, run in self.runs:
            hi = lo + len(run)
            if hi < start:
                before.append((lo, run))
            elif lo > end:
                after.append((lo, run))
            else:
                a, b = max(lo, start), min(hi, end)
                if run[a - lo : b - lo] != body[a - start : b - start]:
                    i = next(i for i in range(a, b) if run[i - lo] != body[i - start])
                    raise InconsistentDuplicate(f"byte {i} differs between fragments")
                if lo < start:
                    start, body = lo, run[: start - lo] + body
                if hi > end:
                    end, body = hi, body + run[end - lo :]
        self.runs = before + [(start, body)] + after

    @property
    def complete(self) -> bool:
        # a run as long as the message starts at 0, and any other run would touch it and merge
        return len(self.runs[0][1]) == self.length if self.runs else self.length == 0

    def assemble(self) -> DtlsFragment:
        """The whole message as one fragment; only a ``complete`` buffer holds it."""
        return DtlsFragment(self.msg_type, self.length, self.message_seq, 0, self.runs[0][1] if self.runs else b"")


# --- builders ---------------------------------------------------------------------


def build_hello_retry_request(suite: int, cookie: bytes, session_id_echo: bytes = b"") -> ServerHello:
    return ServerHello(HRR_RANDOM, session_id_echo, suite, dict([ext_supported_versions_server(), ext_cookie(cookie)]))


def is_hello_retry_request(sh: ServerHello) -> bool:
    return sh.random == HRR_RANDOM


_CV_CONTEXT = {
    "server": b"TLS 1.3, server CertificateVerify",
    "client": b"TLS 1.3, client CertificateVerify",
}


def certificate_verify_content(role: str, transcript_hash: bytes) -> bytes:
    """Bytes actually signed: 64 pad bytes, role context, NUL, transcript hash."""
    return b" " * 64 + _CV_CONTEXT[role] + b"\x00" + transcript_hash


# --- ACK bodies (DTLS record content type 26, not a handshake message) ------------


def build_ack(record_numbers) -> bytes:
    body = b"".join(struct.pack("!QQ", epoch, seq) for epoch, seq in record_numbers)
    return _vec(2, body)


def parse_ack(data: bytes) -> list:
    r = Reader(data)
    body = Reader(r.vec(2))
    r.expect_end("ack")
    if body.remaining % 16:
        raise DecodeError("ack entries must be 16 bytes each")
    out = []
    while body.remaining:
        out.append((body.uint(8), body.uint(8)))
    return out


def dump_line(direction: str, raw_tls_form: bytes) -> str:
    """One transcript-dump line: direction, message name, length, hex."""
    try:
        name = HandshakeType(raw_tls_form[0]).name.lower()
    except ValueError:
        name = f"type_{raw_tls_form[0]}"
    return f"{direction} {name} {len(raw_tls_form)} {raw_tls_form.hex()}"
