"""Client and server connection state machines.

One Connection per endpoint, driven by explicit simulated time.  The
DTLS side adds per-message retransmission with explicit ACK records
(``reliability.DtlsReliability``), stateless cookie DoS protection, CID
demultiplexing and anti-replay; the TLS side runs the same flows over a
reliable stream.

Which handshake message each side accepts is one table per role,
``Connection.TRANSITIONS``: (phase, handshake type) -> the read epoch the
message must arrive in, its handler, and whether it implicitly acknowledges
this side's last DTLS flight.  The table's epochs give the types each role
reads in each epoch (``Connection.ACCEPTS``), checked on every DTLS fragment
header and every TLS message.  A message outside the table is
``unexpected_message``, except in a DTLS plaintext (epoch 0) record: that is
unauthenticated, so it is dropped silently.
"""

import hmac
import random
from enum import Enum
from typing import NamedTuple

from . import crypto, ec, messages, records
from .crypto import GROUP_SCHEME, Protocol, SuiteId
from .errors import (
    AuthenticationFailure,
    BadSignature,
    CertificateRequired,
    ConfigError,
    DecodeError,
    DecryptError,
    HandshakeFailure,
    HandshakeTimeout,
    IllegalParameter,
    MissingExtension,
    NotReady,
    ProtocolError,
    ProtocolVersion,
    RecordOverflow,
    UnexpectedMessage,
    UnknownPskIdentity,
    UnsupportedExtension,
)
from .keyschedule import KeySchedule, PskKind
from .messages import ExtensionType, HandshakeType, PskMode
from .profiles import EcCredential, PskCredential
from .records import ContentType, OutRecord, ReplayWindow
from .reliability import DtlsReliability

TICKET_LIFETIME_S = 7200
TICKET_AGE_TOLERANCE_MS = 10_000
# max_early_data_size: the 0-RTT bytes a server advertises in its tickets and reads (RFC 8446 section 4.2.10)
MAX_EARLY_DATA = 1 << 14
# padding a declining TLS server cannot see in the 0-RTT records it skips: it skips
# up to this much past MAX_EARLY_DATA, one record's expansion (RFC 8446 section 5.2)
SKIP_PAD_ALLOWANCE = records.MAX_CIPHERTEXT - records.MAX_PLAINTEXT

EPOCH_PLAIN = 0
EPOCH_EARLY = 1
EPOCH_HANDSHAKE = 2
EPOCH_APP = 3


class Phase(Enum):
    START = "start"
    WAIT_SH = "wait_sh"
    WAIT_EE = "wait_ee"
    WAIT_CERT_CR = "wait_cert_cr"
    WAIT_CERT = "wait_cert"
    WAIT_CV = "wait_cv"
    WAIT_FINISHED = "wait_finished"
    CONNECTED = "connected"
    FAILED = "failed"


class EventKind(str, Enum):
    FLIGHT_READY = "flight_ready"
    HANDSHAKE_COMPLETE = "handshake_complete"
    APP_DATA = "app_data"
    EARLY_DATA = "early_data"
    TICKET = "ticket"
    ALERT = "alert"
    ADDRESS_MIGRATED = "address_migrated"


class Event(NamedTuple):
    t: int
    kind: EventKind
    detail: dict = {}

    def line(self, conn_id: str) -> str:
        detail = ",".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"{self.t} {conn_id} {self.kind.value} {detail}"


class OpCounters:
    """One connection's operation counts.  Each starts at the class's 0; the first
    ``+= 1`` gives the instance its own."""

    aead_seal: int = 0
    aead_open: int = 0
    hash_blocks: int = 0
    dh_ops: int = 0
    sign_ops: int = 0
    verify_ops: int = 0
    hkdf_ops: int = 0

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__annotations__}


class Transcript:
    """The handshake messages in TLS form, in order, and the only code that hashes them
    (RFC 8446 section 4.4.1).  Only ``digest`` counts its blocks in ``hash_blocks``."""

    def __init__(self, counters: OpCounters):
        self.messages: list = []
        self.counters = counters

    def append(self, raw: bytes) -> None:
        self.messages.append(raw)

    def digest(self, alg) -> bytes:
        self.counters.hash_blocks += (sum(map(len, self.messages)) + 63) // 64
        return crypto.transcript_hash(self.messages, alg)

    def binder_digest(self, raw: bytes, params) -> bytes:
        """The hash a PSK binder covers: the messages before the ClientHello ``raw``,
        then ``raw`` up to its binders list (RFC 8446 section 4.2.11.2)."""
        return crypto.transcript_hash(self.messages + [messages.binder_prefix(raw, params.hash_len)], params.hash_alg)

    def restart(self, alg, hrr_raw: bytes, ch1_digest: bytes | None = None) -> None:
        """After a HelloRetryRequest ``hrr_raw``, ClientHello1 (the one message held, or
        ``ch1_digest`` from a stateless server's cookie) collapses into message_hash."""
        ch1_digest = ch1_digest or crypto.transcript_hash(self.messages, alg)
        self.messages = [messages.message_hash(ch1_digest), hrr_raw]


class TicketState(NamedTuple):
    """A resumption PSK from one NewSessionTicket, as the server that issued it and the
    client that received it each hold it: ``identity`` is the ticket, ``secret`` the PSK.
    It reads as a ``PskCredential`` but is not one, so ``isinstance`` tells the two apart."""

    identity: bytes
    secret: bytes
    suite: SuiteId
    age_add: int
    issued_at: int  # when this side sent (server) or received (client) it, in ms


class ConnConfig(NamedTuple):
    """What one endpoint holds and allows; ``Connection`` acts on each setting alone.
    A client offers a key share iff ``groups``, a PSK iff ``psk`` (an external
    credential, or the ticket ``resume_config`` puts there), early data iff
    ``early_payload``, and asks for a signature iff it pins ``peer_ec``.  A server
    signs with ``local_ec`` iff it accepts no PSK, and asks the client for a
    certificate iff it pins ``peer_ec``."""

    protocol: Protocol
    suites: tuple
    groups: tuple = ()
    psk: PskCredential | TicketState | None = None
    local_ec: EcCredential | None = None
    peer_ec: bytes | None = None  # pinned peer public point (trust anchor)
    sni: str | None = None
    compat: bool = False
    early_payload: bytes = b""
    cid: int | None = None  # RFC 9146 CID length asked of the peer: 0 asks none, None sends no extension
    pad_len: int = 0
    tickets: bool = False
    dos: bool = False
    mtu: int = 1280
    packing: bool = False


class Decision(NamedTuple):
    """A server's answer to one ClientHello (``negotiate``)."""

    suite: SuiteId
    share: tuple | None  # the (NamedGroup, client public point) used: none under psk_ke (RFC 8446 section 4.2.9)
    psk: PskCredential | TicketState | None = None  # to try, with the binder and ticket age offered for it
    binder: bytes = b""
    obfuscated_age: int = 0


def negotiate(cfg: ConnConfig, ticket_db: dict, ch, now: int) -> Decision:
    """Every rule of a server with ``cfg`` and ``ticket_db`` on a ClientHello ``ch`` that
    needs no key, in order: version, mandatory extensions, suite, key share, PSK modes and
    identity, certificate fallback.  Raises the refusal.  An accepted PSK takes the
    most-preferred shared suite of its binder's hash (RFC 8446 section 4.2.11).  Its one
    write drops an expired ticket."""
    versions = messages.extension(ch, ExtensionType.SUPPORTED_VERSIONS, messages.read_supported_versions_client)
    if versions is None or messages.TLS13_VERSION not in versions:
        raise ProtocolVersion("ClientHello does not offer this version")  # RFC 8446 section 4.2.1
    exts = ch.extensions  # RFC 8446 section 9.2
    if ExtensionType.PRE_SHARED_KEY not in exts and not (
        ExtensionType.SUPPORTED_GROUPS in exts and ExtensionType.SIGNATURE_ALGORITHMS in exts
    ):
        raise MissingExtension("ClientHello without pre_shared_key lacks supported_groups or signature_algorithms")
    if (ExtensionType.SUPPORTED_GROUPS in exts) != (ExtensionType.KEY_SHARE in exts):
        raise MissingExtension("ClientHello has one of supported_groups and key_share without the other")
    shared = [suite for suite in cfg.suites if suite in ch.cipher_suites]
    if not shared:
        raise HandshakeFailure("no common cipher suite")
    share = None
    entries = messages.extension(ch, ExtensionType.KEY_SHARE, messages.read_key_share_client)
    if entries is not None:
        share = next(((crypto.NamedGroup(g), pub) for g, pub in entries if g in cfg.groups), None)
        if share is None:
            raise HandshakeFailure("no offered key-share group is enabled here")
    psk, dhe, age, binder = None, False, 0, b""
    if ExtensionType.PRE_SHARED_KEY in ch.extensions:
        modes = messages.extension(ch, ExtensionType.PSK_KEY_EXCHANGE_MODES, messages.read_psk_modes)
        if modes is None:
            raise MissingExtension("pre_shared_key without psk_key_exchange_modes")  # RFC 8446 section 4.2.9
        dhe = share is not None and PskMode.PSK_DHE_KE in modes
        if dhe or PskMode.PSK_KE in modes:  # else no mode the client allows fits its offer
            identity, age, binder = messages.extension(ch, ExtensionType.PRE_SHARED_KEY, messages.read_pre_shared_key_offer)
            psk = ticket_db.get(identity)
            if psk is not None and now - psk.issued_at > TICKET_LIFETIME_S * 1000:
                del ticket_db[identity]
                psk = None
            if psk is None and cfg.psk is not None and identity == cfg.psk.identity:
                psk = cfg.psk
    keyed = [suite for suite in shared if crypto.suite_params(suite).hash_len == len(binder)]
    suite = keyed[0] if psk is not None and keyed else shared[0]
    if suite not in keyed:
        psk = None  # none offered, or keyed for another hash than every shared suite's
    if psk is None and (share is None or cfg.local_ec is None):
        if suite in keyed:  # offered for this suite's hash, yet neither configured nor live
            raise UnknownPskIdentity("psk identity is neither configured nor a live ticket")  # RFC 8446 section 6.2
        raise HandshakeFailure("no PSK accepted, and no certificate with a client key share to fall back on")
    return Decision(SuiteId(suite), share if psk is None or dhe else None, psk, binder, age)


class Edge(NamedTuple):
    epoch: int  # the read epoch the message must arrive in (RFC 9147 section 6.1)
    handler: object  # Connection method (self, msg, tls_form, now) -> list of OutRecord
    implicit_ack: bool = False  # it starts the peer's next flight (RFC 9147 section 7.2)


class Connection:
    def __init__(self, cfg: ConnConfig, role: str, rng: random.Random, conn_id: str = ""):
        if cfg.early_payload and cfg.psk is None and role == "client":
            raise ConfigError("0-RTT requires PSK or resumption material")
        self.cfg = cfg
        self.role = role
        self.peer_role = "server" if role == "client" else "client"
        self.transitions = self.TRANSITIONS[role]
        self.accepts = self.ACCEPTS[role]
        self.rng = rng
        self.conn_id = conn_id or role[0].upper()
        self.protocol = cfg.protocol
        self.phase = Phase.START
        self.counters = OpCounters()
        self.event_log: list = []
        self.failure: str | None = None
        self.failed_from: str | None = None

        self.params = crypto.suite_params(cfg.suites[0])
        self.ks: KeySchedule | None = None
        self.transcript = Transcript(self.counters)

        self.epochs: dict = {}  # epoch -> {"read": TrafficKeys, "write": TrafficKeys}
        self.write_epoch = EPOCH_PLAIN  # the latest non-early write keys: alerts and ACKs go out in it
        self.plain_write_seq = 0
        self.plain_window = ReplayWindow()

        self.reliability = DtlsReliability() if self.protocol == Protocol.DTLS else None
        # a record holds a DTLS fragment header and a byte of its message, or a 2-byte alert
        least = messages.DTLS_HANDSHAKE_HEADER_LEN + 1 if self.reliability is not None else 2
        if self._record_room(EPOCH_HANDSHAKE) < least:
            raise ConfigError("padding and mtu leave a record too little room")

        self.cid_local = rng.randbytes(cfg.cid) if cfg.cid else None  # peers put this in records they send us
        self.cid_peer: bytes | None = None  # we put this in records we send
        self.ticket_db: dict = {}  # server: the listener's resumption ticket table
        self.ch1_digest: bytes | None = None  # server: Hash(ClientHello1) from a stateless HelloRetryRequest's cookie

        self.dh_priv = None
        self.hello = None  # client: the ClientHello it sent last, binder filled in: its one record of its offer
        self.client_cert_requested = False
        self.early_accepted = False
        self.skip_early = False  # TLS server: records that fail to open may be 0-RTT data it declined
        self.early_left = MAX_EARLY_DATA
        self.psk_in_use: PskCredential | None = None  # the PSK the handshake uses: external, or a TicketState
        self.client_tickets: list = []
        self.auth_reads = 0  # records that decrypted successfully

        self._stream_buf = b""
        self._hs_buf = b""  # reassembly buffer for the TLS handshake stream
        self._tls_read_epoch = EPOCH_PLAIN

    # ------------------------------------------------------------------ util

    def _event(self, now: int, kind: EventKind, **detail) -> None:
        self.event_log.append(Event(now, kind, detail))

    @property
    def connected(self) -> bool:
        return self.phase == Phase.CONNECTED

    @property
    def failed(self) -> bool:
        return self.phase == Phase.FAILED

    @property
    def suite(self) -> SuiteId:
        return self.params.suite

    def _teardown(self, now: int, alert: str, **detail) -> None:
        self.failed_from = self.phase.value
        self.phase = Phase.FAILED
        self.failure = alert
        if self.reliability is not None:
            self.reliability.stop()
        self._event(now, EventKind.ALERT, alert=alert, **detail)

    def _fail(self, now: int, exc: ProtocolError) -> list:
        self._teardown(now, exc.alert, fatal=True)
        return self._emit_alert(exc.code)

    def _peer_alert(self, now: int, body: bytes) -> None:
        self._teardown(now, "peer_alert", code=body[1] if len(body) > 1 else -1)

    def _emit_alert(self, code: int) -> list:
        try:
            _, data = self._frame(self.write_epoch, ContentType.ALERT, bytes([2, code]))
            return [OutRecord(data, "alert")]
        except ProtocolError:
            return []

    def _install(self, epoch: int, direction: str, secret: bytes) -> None:
        self.epochs.setdefault(epoch, {})[direction] = self.ks.traffic_keys(secret)
        if epoch != EPOCH_EARLY:  # 0-RTT keys move neither; a TLS server that takes 0-RTT reads epoch 1 first
            if direction == "write":
                self.write_epoch = epoch
            else:
                self._tls_read_epoch = epoch

    def _new_schedule(self, psk: PskCredential | None = None) -> None:
        kind = PskKind.RESUMPTION if isinstance(psk, TicketState) else PskKind.EXTERNAL
        secret = psk.secret if psk is not None else None
        self.ks = KeySchedule(self.suite, self.protocol, self.counters).init_early(secret, kind)

    # ------------------------------------------------------------- crypto ops

    def _keypair(self, group):
        self.counters.dh_ops += 1
        return ec.keypair(group, self.rng)

    def _shared(self, priv, peer_pub):
        self.counters.dh_ops += 1
        return ec.shared_secret(priv, peer_pub)

    def _sign(self, cred: EcCredential, content: bytes) -> bytes:
        self.counters.sign_ops += 1
        sig = ec.sign(cred.private, cred.scheme, content)
        # verify-after-sign: never emit a signature that fails locally
        if not self._verify(cred.public_point, cred.scheme, content, sig):
            raise BadSignature("self-check of fresh signature failed")
        return sig

    def _verify(self, pub: bytes, scheme, content: bytes, sig: bytes) -> bool:
        self.counters.verify_ops += 1
        return ec.verify(pub, scheme, content, sig)

    # ------------------------------------------------------------ sending side

    def _frame(self, epoch: int, true_type: int, payload: bytes):
        """(record sequence number, wire bytes) of one outgoing record:
        plaintext in epoch 0, sealed under the epoch's write keys after."""
        if epoch == EPOCH_PLAIN:
            seq = self.plain_write_seq
            if self.protocol == Protocol.TLS:
                return seq, records.encode_tls_plaintext(true_type, payload)
            self.plain_write_seq += 1
            return seq, records.encode_dtls_plaintext(true_type, seq, payload)
        keys = self.epochs[epoch]["write"]
        seq = keys.write_seq  # consumed by the seal
        self.counters.aead_seal += 1
        if self.protocol == Protocol.TLS:
            return seq, records.seal_tls(self.params, keys, true_type, payload, self.cfg.pad_len)
        cid = self.cid_peer if true_type == ContentType.APPLICATION_DATA and self.cid_peer else b""
        return seq, records.seal_dtls(
            self.params,
            keys,
            epoch,
            true_type,
            payload,
            cid=cid,
            length_present=self.cfg.packing,
            pad_len=self.cfg.pad_len,
        )

    def _emit(self, msg, epoch: int, now: int) -> list:
        """Append one handshake message to the transcript, then send it."""
        raw = messages.tls_form(msg)
        if msg.MSG_TYPE != HandshakeType.NEW_SESSION_TICKET:
            self.transcript.append(raw)
        name = messages.HANDSHAKE_NAMES[msg.MSG_TYPE]
        if self.protocol == Protocol.TLS:  # a message longer than one record spans several (RFC 8446 section 5.1)
            return self._records(epoch, ContentType.HANDSHAKE, raw, name)
        return self.reliability.send(self._frame, raw[0], raw[4:], name, epoch, self._record_room(epoch), now)

    def _record_room(self, epoch: int) -> int:
        """Content bytes one record of ``epoch`` carries: 2^14 less the padding (RFC 8446
        section 5.4) and, on DTLS, no more than one datagram of the MTU holds (RFC 9147
        section 4) with the record's header, inner content type, padding and tag."""
        if epoch == EPOCH_PLAIN:
            room, overhead = records.MAX_PLAINTEXT, records.DTLS12_RECORD_HEADER_LEN
        else:
            room = records.MAX_PLAINTEXT - self.cfg.pad_len
            header = records.unified_header_size(0, False, self.cfg.packing)
            overhead = header + 1 + self.cfg.pad_len + self.params.tag_len
        if self.reliability is not None:
            room = min(room, self.cfg.mtu - overhead)
        return room

    def _fake_ccs(self) -> list:
        # compat mode artifact: legacy type 20, body 0x01, sent once, ignored on receipt
        if self.protocol != Protocol.TLS or not self.cfg.compat:
            return []
        return [OutRecord(self._frame(EPOCH_PLAIN, ContentType.CHANGE_CIPHER_SPEC, b"\x01")[1], "ccs")]

    # ------------------------------------------ authentication (RFC 8446 §4.4)

    def _hs_traffic(self, role: str) -> bytes:
        return self.ks.secret("c_hs" if role == "client" else "s_hs")

    def _own_flight(self, with_cert: bool, now: int) -> list:
        """This side's Certificate and CertificateVerify when ``with_cert``,
        then its Finished."""
        out = []
        if with_cert:
            # a client asked for a certificate it lacks sends an empty Certificate
            # and no CertificateVerify (RFC 8446 section 4.4.2)
            cred = self.cfg.local_ec
            entries = [(cred.cert_der, b"")] if cred is not None else []
            out += self._emit(messages.Certificate(b"", entries), EPOCH_HANDSHAKE, now)
            if cred is not None:
                content = messages.certificate_verify_content(self.role, self.transcript.digest(self.params.hash_alg))
                cv = messages.CertificateVerify(int(cred.scheme), self._sign(cred, content))
                out += self._emit(cv, EPOCH_HANDSHAKE, now)
        mac = self.ks.finished_mac(self._hs_traffic(self.role), self.transcript.digest(self.params.hash_alg))
        return out + self._emit(messages.Finished(mac), EPOCH_HANDSHAKE, now)

    def _peer_certificate(self, cert, raw: bytes, now: int) -> list:
        if not cert.entries:  # RFC 8446 section 4.4.2.4
            if self.role == "client":
                raise DecodeError("server sent an empty Certificate")
            raise CertificateRequired("client sent an empty Certificate")
        self.transcript.append(raw)
        self.phase = Phase.WAIT_CV
        return []

    def _peer_certificate_verify(self, cv, raw: bytes, now: int) -> list:
        if cv.scheme not in self._scheme_list():  # RFC 8446 section 4.4.3
            raise IllegalParameter(f"{self.peer_role} CertificateVerify scheme {cv.scheme:#06x} was not offered")
        content = messages.certificate_verify_content(self.peer_role, self.transcript.digest(self.params.hash_alg))
        anchor = self.cfg.peer_ec
        if anchor is None or not self._verify(anchor, crypto.SignatureScheme(cv.scheme), content, cv.signature):
            raise BadSignature(f"{self.peer_role} CertificateVerify did not verify")
        self.transcript.append(raw)
        self.phase = Phase.WAIT_FINISHED
        return []

    def _peer_finished(self, fin, raw: bytes) -> None:
        th = self.transcript.digest(self.params.hash_alg)
        if not self.ks.verify_finished(self._hs_traffic(self.peer_role), th, fin.verify_data):
            raise DecryptError(f"{self.peer_role} Finished MAC mismatch")
        self.transcript.append(raw)

    # -------------------------------------------------------------- client side

    def start(self, now: int) -> list:
        """Client only: build and emit the first flight."""
        if self.role != "client" or self.phase != Phase.START:
            raise NotReady("start() applies to a fresh client")
        out = self._client_hello_flight(now, cookie=None)
        self._event(now, EventKind.FLIGHT_READY, flight="client_hello")
        return out

    def _client_hello_flight(self, now: int, cookie: bytes | None) -> list:
        """Extensions in canonical order; pre_shared_key last, its binder zero-filled until computed."""
        cfg, psk = self.cfg, self.cfg.psk
        age = (now - psk.issued_at + psk.age_add) & 0xFFFFFFFF if isinstance(psk, TicketState) else 0
        # no early data in the ClientHello that answers an HRR (RFC 8446 section 4.2.10)
        early = bool(cfg.early_payload) and cookie is None
        exts = [messages.ext_supported_versions_client()]
        if cfg.groups:
            if self.dh_priv is None:
                self.dh_priv, pub = self._keypair(cfg.groups[0])
            else:
                pub = ec.public_point(self.dh_priv)
            exts.append(messages.ext_supported_groups([int(g) for g in cfg.groups]))
        if cfg.peer_ec is not None:
            exts.append(messages.ext_signature_algorithms([int(s) for s in self._scheme_list()]))
        if cfg.sni is not None:
            exts.append(messages.ext_server_name(cfg.sni))
        cid = self._advertised_cid()
        if cid is not None:
            exts.append(messages.ext_connection_id(cid))
        if cookie is not None:
            exts.append(messages.ext_cookie(cookie))
        if cfg.groups:
            exts.append(messages.ext_key_share_client([(int(cfg.groups[0]), pub)]))  # exactly one key share
        if early:
            exts.append(messages.ext_early_data())
        if psk is not None:
            exts.append(messages.ext_psk_modes([PskMode.PSK_DHE_KE if cfg.groups else PskMode.PSK_KE]))
            zero_binder = bytes(self.params.hash_len)
            exts.append(messages.ext_pre_shared_key_offer(psk.identity, age, zero_binder))
        if self.hello is None:
            client_random = self.rng.randbytes(32)
            session_id = self.rng.randbytes(32) if cfg.compat and self.protocol == Protocol.TLS else b""
        else:  # the retry keeps both (RFC 8446 section 4.1.2)
            client_random, session_id = self.hello.random, self.hello.legacy_session_id
        ch = self.hello = messages.ClientHello(client_random, session_id, [int(s) for s in cfg.suites], dict(exts))
        self._new_schedule(psk)
        if psk is not None:
            binder = self.ks.compute_binder(self.transcript.binder_digest(messages.tls_form(ch), self.params))
            ch.extensions.update([messages.ext_pre_shared_key_offer(psk.identity, age, binder)])
        out = self._emit(ch, EPOCH_PLAIN, now)
        self.phase = Phase.WAIT_SH
        if early:
            out.extend(self._send_early_data())
        return out

    def _scheme_list(self):
        return [GROUP_SCHEME[g] for g in self.cfg.groups] or [crypto.SignatureScheme.ECDSA_SECP256R1_SHA256]

    def _advertised_cid(self) -> bytes | None:
        if self.protocol != Protocol.DTLS or self.cfg.cid is None:
            return None
        return self.cid_local or b""  # empty: "I send CIDs but do not need to receive them"

    def _send_early_data(self) -> list:
        secret = self.ks.derive_early_traffic(self.transcript.digest(self.params.hash_alg))
        self._install(EPOCH_EARLY, "write", secret)
        return self._records(EPOCH_EARLY, ContentType.APPLICATION_DATA, self.cfg.early_payload, "early_data")

    # -------------------------------------------------------------- receive path

    def handle(self, data: bytes, now: int) -> list:
        """Feed one datagram (DTLS) or stream chunk (TLS)."""
        if self.phase == Phase.FAILED:
            return []
        try:
            if self.protocol == Protocol.TLS:
                return self._handle_stream(data, now)
            return self._handle_datagram(data, now)
        except ProtocolError as exc:
            return self._fail(now, exc)

    def _handle_stream(self, data: bytes, now: int) -> list:
        self._stream_buf += data
        out = []
        while self.phase != Phase.FAILED and len(self._stream_buf) >= records.TLS_RECORD_HEADER_LEN:
            total = records.TLS_RECORD_HEADER_LEN + records.tls_record_length(self._stream_buf)
            if len(self._stream_buf) < total:
                break
            record = self._stream_buf[:total]
            self._stream_buf = self._stream_buf[total:]
            epoch, content_type, payload = EPOCH_PLAIN, record[0], record[5:]
            if content_type == ContentType.APPLICATION_DATA:
                epoch = self._tls_read_epoch
                try:
                    content_type, payload = self._open(epoch, records.open_tls, record)
                except AuthenticationFailure:
                    if not self.skip_early:
                        raise
                    # 0-RTT data this server declined: skipped (RFC 8446 section 4.2.10),
                    # each record counting its body less tag and type, and at least 1
                    self._take_early(max(1, len(payload) - self.params.tag_len - 1))
                    continue
                self.skip_early = False
            out.extend(self._read_record(epoch, content_type, payload, None, now))
        return out

    def _handle_datagram(self, data: bytes, now: int) -> list:
        out = []
        offset = 0
        while offset < len(data) and self.phase != Phase.FAILED:
            first = data[offset]
            if records.is_unified_header(first):
                try:
                    parsed = records.parse_unified(data, offset, len(self.cid_local or b""))
                except (DecodeError, RecordOverflow):
                    break  # malformed or oversized tail: drop the rest of the datagram (RFC 9147 section 4.5.2)
                offset += parsed.consumed
                epoch = parsed.epoch_low  # the whole epoch: only epochs 1-3 exist, as there is no KeyUpdate
                if parsed.cid and self.cid_local and parsed.cid != self.cid_local:
                    continue  # not our connection id
                try:
                    seq, content_type, payload = self._open(epoch, records.open_dtls, parsed)
                except ProtocolError:
                    continue  # no keys for the epoch (e.g. rejected early data), bad or replayed: dropped, never fatal
            elif first in (ContentType.HANDSHAKE, ContentType.ALERT, ContentType.CHANGE_CIPHER_SPEC):
                try:
                    content_type, seq, payload, used = records.parse_dtls_plaintext(data, offset)
                except (DecodeError, RecordOverflow):
                    break
                offset += used
                epoch = EPOCH_PLAIN
            else:
                break  # unknown first byte: not a record, drop remainder
            out.extend(self._read_record(epoch, content_type, payload, (epoch, seq), now))
        out.extend(self.reliability.flush_acks(now, self._frame, self.write_epoch))
        return out

    def _take_early(self, size: int) -> None:
        """Count ``size`` bytes of 0-RTT data against ``MAX_EARLY_DATA`` (RFC 8446 section 4.2.10)."""
        self.early_left -= size
        if self.early_left < 0:
            raise UnexpectedMessage("early data past max_early_data_size")

    def _open(self, epoch: int, open_record, record) -> tuple:
        """``open_record(params, keys, record)`` under the read keys of ``epoch``: each try
        counts in ``counters.aead_open``, each record that authenticates in ``auth_reads``."""
        try:
            keys = self.epochs[epoch]["read"]
        except KeyError:
            raise UnexpectedMessage(f"protected record in epoch {epoch}, which has no read keys") from None
        self.counters.aead_open += 1
        opened = open_record(self.params, keys, record)
        self.auth_reads += 1
        return opened

    def _read_record(self, epoch: int, content_type: int, payload: bytes, rec_num, now: int) -> list:
        """The content of one record read in ``epoch``, plaintext in epoch 0 and deprotected
        after; ``rec_num`` is its DTLS record number (None on TLS)."""
        if content_type == ContentType.ALERT:
            self._peer_alert(now, payload)
            return []
        if content_type == ContentType.HANDSHAKE:
            if self.reliability is None:
                return self._feed_handshake_stream(payload, epoch, now)
            if epoch != EPOCH_PLAIN:
                return self.reliability.receive(self._fragments(payload, epoch), rec_num, now, self._dispatch_message)
            try:
                frags = self._fragments(payload, EPOCH_PLAIN)
            except ProtocolError:
                return []  # invalid and unauthenticated: dropped silently (RFC 9147 section 4.5.2)
            if self.plain_window.seen(rec_num[1]):
                self.reliability.ack_now(now, rec_num)
                return []
            self.plain_window.add(rec_num[1])
            return self.reliability.receive(frags, rec_num, now, self._dispatch_message)
        if epoch == EPOCH_PLAIN:
            if content_type == ContentType.CHANGE_CIPHER_SPEC:
                return []  # compat artifact: ignored, zero crypto operations
            raise DecodeError(f"unexpected outer type {content_type}")
        if content_type == ContentType.ACK and self.reliability is not None:
            self.reliability.process_ack(messages.parse_ack(payload))
            return []
        if content_type != ContentType.APPLICATION_DATA:
            raise UnexpectedMessage(f"inner content type {content_type}")
        if epoch == EPOCH_EARLY:  # only a server that accepted 0-RTT holds early read keys
            self._take_early(len(payload))
            self._event(now, EventKind.EARLY_DATA, bytes=len(payload), replay_uncertain=True)
        elif self.connected:
            self._event(now, EventKind.APP_DATA, bytes=len(payload))
        else:
            raise UnexpectedMessage("application data before the handshake allows it")
        return []

    # --------------------------------------------------- handshake msg plumbing

    def _feed_handshake_stream(self, data: bytes, epoch: int, now: int) -> list:
        """Handshake bytes of one TLS record read under ``epoch``: each message must be
        of a type this role reads in that epoch (RFC 8446 section 5), and no bytes
        of a record may be left over once it is no longer the read epoch (section 5.1)."""
        self._hs_buf += data
        out = []
        while len(self._hs_buf) >= 4:
            total = 4 + int.from_bytes(self._hs_buf[1:4], "big")
            if len(self._hs_buf) < total:
                break
            raw = self._hs_buf[:total]
            self._hs_buf = self._hs_buf[total:]
            if raw[0] not in self.accepts[epoch]:
                raise UnexpectedMessage(f"handshake type {raw[0]} in epoch {epoch}")
            out.extend(self._dispatch_message(messages.decode_handshake(raw), raw, now))
        if self._hs_buf and epoch != self._tls_read_epoch:
            raise UnexpectedMessage("handshake message spans a key change")
        return out

    def _fragments(self, payload: bytes, epoch: int) -> list:
        """The fragments of one DTLS handshake record read under ``epoch``; each must
        parse and be of a type this role reads in that epoch."""
        frags, offset = [], 0
        while offset < len(payload):
            frag, used = messages.parse_dtls_fragment(payload[offset:])
            offset += used
            if frag.msg_type not in self.accepts[epoch]:
                raise UnexpectedMessage(f"handshake type {frag.msg_type} in epoch {epoch}")
            frags.append(frag)
        return frags

    # ---------------------------------------------------------- timers

    def next_timeout(self):
        return None if self.reliability is None else self.reliability.next_timeout()

    def on_timeout(self, now: int) -> list:
        if self.phase == Phase.FAILED or self.reliability is None:
            return []
        out = self.reliability.flush_acks(now, self._frame, self.write_epoch)
        try:
            return out + self.reliability.retransmit(now, self._frame)
        except HandshakeTimeout as exc:
            return out + self._fail(now, exc)

    # ---------------------------------------------------------- dispatch table

    def _dispatch_message(self, msg, raw: bytes, now: int) -> list:
        """Take one complete, in-order handshake message by its ``TRANSITIONS`` edge.
        Its read epoch was checked as its type arrived, so a DTLS message of an
        epoch-0 type came in plaintext: out of phase it is dropped (RFC 9147 section 4.5.2)."""
        t = msg.MSG_TYPE
        edge = self.transitions.get((self.phase, t))
        if edge is None:
            if self.reliability is not None and t in self.accepts[EPOCH_PLAIN]:
                return []
            raise UnexpectedMessage(f"{HandshakeType(t).name} in phase {self.phase.value}")
        if edge.implicit_ack and self.reliability is not None:
            self.reliability.implicit_ack()
        return edge.handler(self, msg, raw, now)

    # -- client message handling ------------------------------------------------

    def _client_handle_hrr(self, hrr, raw: bytes, now: int) -> list:
        if ExtensionType.COOKIE in self.hello.extensions:  # it answered one already
            raise UnexpectedMessage("second HelloRetryRequest")
        cookie = messages.extension(hrr, ExtensionType.COOKIE, messages.read_cookie)
        if cookie is None:  # the only change this client makes to a retried ClientHello (RFC 8446 section 4.1.4)
            raise IllegalParameter("HelloRetryRequest without a cookie would not change the ClientHello")
        if hrr.cipher_suite not in self.hello.cipher_suites:
            raise IllegalParameter("HelloRetryRequest picked a suite we did not offer")
        self.params = crypto.suite_params(hrr.cipher_suite)  # ClientHello1 is hashed with it (RFC 8446 section 4.4.1)
        self.transcript.restart(self.params.hash_alg, raw)
        self.ks = None
        self.epochs.pop(EPOCH_EARLY, None)  # 0-RTT does not survive an HRR
        if self.reliability is not None:
            self.reliability.end_flight()  # the retried ClientHello answers the HRR
        out = self._client_hello_flight(now, cookie=cookie)
        self._event(now, EventKind.FLIGHT_READY, flight="client_hello_retry")
        return out

    def _client_handle_sh(self, sh, raw: bytes, now: int) -> list:
        # a HelloRetryRequest too: RFC 8446 sections 4.1.3 and 4.2.1
        version = messages.extension(sh, ExtensionType.SUPPORTED_VERSIONS, messages.read_supported_versions_server)
        if version is None:
            raise ProtocolVersion("ServerHello without supported_versions")
        if version != messages.TLS13_VERSION:
            raise IllegalParameter("ServerHello selects a version we did not offer")
        hello = self.hello
        if sh.legacy_session_id_echo != hello.legacy_session_id:
            raise IllegalParameter("ServerHello echoes another legacy_session_id")
        if messages.is_hello_retry_request(sh):
            return self._client_handle_hrr(sh, raw, now)
        if sh.cipher_suite not in hello.cipher_suites:  # RFC 8446 section 4.1.3
            raise IllegalParameter("server picked a suite we did not offer")
        selected = messages.extension(sh, ExtensionType.PRE_SHARED_KEY, messages.read_pre_shared_key_server)
        psk_offered = ExtensionType.PRE_SHARED_KEY in hello.extensions
        if selected is not None:
            if not psk_offered:
                raise UnsupportedExtension("pre_shared_key in a ServerHello to a ClientHello without one")
            if selected != 0:  # RFC 8446 section 4.2.11
                raise IllegalParameter("server selected a PSK identity we did not offer")
            self.psk_in_use = self.cfg.psk
        if sh.cipher_suite != int(self.suite):
            if selected is not None:  # RFC 8446 section 4.2.11
                raise IllegalParameter("PSK acceptance requires the PSK's suite")
            self.params = crypto.suite_params(sh.cipher_suite)
            self.ks = None
        self.transcript.append(raw)
        if selected is None and psk_offered:
            # server declined the PSK: continue as a pure (EC)DHE handshake
            if ExtensionType.EARLY_DATA in hello.extensions:
                raise UnexpectedMessage("0-RTT offer requires PSK acceptance")
            self.ks = None
        if self.ks is None:
            self._new_schedule()

        dh = None
        offered = messages.extension(hello, ExtensionType.KEY_SHARE, messages.read_key_share_client)
        share = messages.extension(sh, ExtensionType.KEY_SHARE, messages.read_key_share_server)
        if share is not None:
            group, server_pub = share
            if offered is None or group != offered[0][0]:
                raise HandshakeFailure("server share for a group we did not offer")
            dh = self._shared(self.dh_priv, server_pub)
        elif offered is not None:
            raise UnexpectedMessage("expected a key_share in ServerHello")

        self.cid_peer = messages.extension(sh, ExtensionType.CONNECTION_ID, messages.read_connection_id) or None

        self.ks.advance_handshake(dh, self.transcript.digest(self.params.hash_alg))
        self._install(EPOCH_HANDSHAKE, "read", self.ks.secret("s_hs"))
        self._install(EPOCH_HANDSHAKE, "write", self.ks.secret("c_hs"))
        self.phase = Phase.WAIT_EE
        return []

    def _client_handle_ee(self, ee, raw: bytes, now: int) -> list:
        self.transcript.append(raw)
        accepted = ExtensionType.EARLY_DATA in ee.extensions
        if accepted and ExtensionType.EARLY_DATA not in self.hello.extensions:
            raise UnexpectedMessage("server accepted early data we never sent")
        self.early_accepted = accepted
        self.phase = Phase.WAIT_FINISHED if self.psk_in_use is not None else Phase.WAIT_CERT_CR
        return []

    def _client_handle_cr(self, cr, raw: bytes, now: int) -> list:
        self.client_cert_requested = True
        self.transcript.append(raw)
        self.phase = Phase.WAIT_CERT
        return []

    def _client_handle_finished(self, fin, raw: bytes, now: int) -> list:
        self._peer_finished(fin, raw)
        self.ks.advance_master(self.transcript.digest(self.params.hash_alg))
        self._install(EPOCH_APP, "read", self.ks.secret("s_ap"))
        out = self._fake_ccs()
        if self.early_accepted and self.protocol == Protocol.TLS:
            out += self._emit(messages.EndOfEarlyData(), EPOCH_EARLY, now)
        out += self._own_flight(with_cert=self.client_cert_requested, now=now)
        self._install(EPOCH_APP, "write", self.ks.secret("c_ap"))
        self.ks.derive_resumption(self.transcript.digest(self.params.hash_alg))
        if self.reliability is not None:
            self.reliability.end_flight()
        self.phase = Phase.CONNECTED
        self._event(now, EventKind.FLIGHT_READY, flight="client_second")
        self._event(now, EventKind.HANDSHAKE_COMPLETE)
        return out

    def _client_handle_ticket(self, nst, raw: bytes, now: int) -> list:
        ticket = TicketState(nst.ticket, self.ks.resumption_psk(nst.nonce), self.suite, nst.age_add, now)
        self.client_tickets.append(ticket)
        self._event(now, EventKind.TICKET, ticket=nst.ticket.hex())
        if self.reliability is not None:
            self.reliability.ack_now(now)  # no responding flight: explicit ACK
        return []

    # ---------------------------------------------------------------- server side

    def after_stateless_hrr(self, ch1_digest: bytes) -> None:
        """Take up a DTLS handshake after the listener's stateless HelloRetryRequest (record 0
        and message_seq 0 each way), its cookie carrying ClientHello1's ``ch1_digest``."""
        self.ch1_digest = ch1_digest
        self.plain_write_seq = 1
        self.plain_window.add(0)
        self.reliability.next_send_msg_seq = self.reliability.next_recv_msg_seq = 1

    def _server_handle_client_hello(self, ch, raw: bytes, now: int) -> list:
        if self.reliability is not None:
            self.reliability.after_client_hello()
        decision = negotiate(self.cfg, self.ticket_db, ch, now)
        self.params = crypto.suite_params(decision.suite)
        if self.ch1_digest is not None:  # the retry answers the listener's HelloRetryRequest, rebuilt here
            cookie = messages.extension(ch, ExtensionType.COOKIE, messages.read_cookie)
            if cookie is None or len(self.ch1_digest) != self.params.hash_len:  # RFC 8446 sections 4.1.4, 4.2.2
                raise IllegalParameter("retried ClientHello without its cookie, or of a suite of another hash")
            hrr = messages.build_hello_retry_request(int(self.suite), cookie, ch.legacy_session_id)
            self.transcript.restart(self.params.hash_alg, messages.tls_form(hrr), self.ch1_digest)
        psk, share = decision.psk, decision.share
        offered_early = ExtensionType.EARLY_DATA in ch.extensions
        if psk is not None:
            self._new_schedule(psk)
            binder = self.ks.compute_binder(self.transcript.binder_digest(raw, self.params))
            if not hmac.compare_digest(binder, decision.binder):
                raise DecryptError("psk binder mismatch")
            self.psk_in_use = psk
            self.early_accepted = offered_early
            if offered_early and isinstance(psk, TicketState):
                real_age = (decision.obfuscated_age - psk.age_add) & 0xFFFFFFFF
                self.early_accepted = abs(real_age - (now - psk.issued_at)) <= TICKET_AGE_TOLERANCE_MS
        self.transcript.append(raw)  # after the binder check, which covers the messages before it
        self.skip_early = self.protocol == Protocol.TLS and offered_early and not self.early_accepted
        if self.skip_early:
            self.early_left += SKIP_PAD_ALLOWANCE
        if self.early_accepted:
            secret = self.ks.derive_early_traffic(self.transcript.digest(self.params.hash_alg))
            self._install(EPOCH_EARLY, "read", secret)
        request_cert = psk is None and self.cfg.peer_ec is not None

        exts = [messages.ext_supported_versions_server()]
        peer_cid = messages.extension(ch, ExtensionType.CONNECTION_ID, messages.read_connection_id)
        if peer_cid is not None:
            self.cid_peer = peer_cid or None
            cid = self._advertised_cid()
            if cid is not None:
                exts.append(messages.ext_connection_id(cid))

        dh = None
        if share is not None:
            group, client_pub = share
            priv, pub = self._keypair(group)
            dh = self._shared(priv, client_pub)
            exts.append(messages.ext_key_share_server(int(group), pub))

        if psk is None:
            self._new_schedule()
        else:
            exts.append(messages.ext_pre_shared_key_server(0))

        sh = messages.ServerHello(self.rng.randbytes(32), ch.legacy_session_id, int(self.suite), dict(exts))
        out = self._emit(sh, EPOCH_PLAIN, now)
        self.ks.advance_handshake(dh, self.transcript.digest(self.params.hash_alg))
        self._install(EPOCH_HANDSHAKE, "write", self.ks.secret("s_hs"))
        self._install(EPOCH_HANDSHAKE, "read", self.ks.secret("c_hs"))
        out += self._fake_ccs()
        ee_exts = [messages.ext_early_data()] if self.early_accepted else []
        out += self._emit(messages.EncryptedExtensions(dict(ee_exts)), EPOCH_HANDSHAKE, now)
        if request_cert:
            sig_algs = messages.ext_signature_algorithms([int(s) for s in self._scheme_list()])
            out += self._emit(messages.CertificateRequest(b"", dict([sig_algs])), EPOCH_HANDSHAKE, now)
        out += self._own_flight(with_cert=psk is None, now=now)

        self.ks.advance_master(self.transcript.digest(self.params.hash_alg))
        self._install(EPOCH_APP, "write", self.ks.secret("s_ap"))
        if self.early_accepted and self.protocol == Protocol.TLS:
            self._tls_read_epoch = EPOCH_EARLY  # the client's 0-RTT records come before its handshake records
        self.phase = Phase.WAIT_CERT_CR if request_cert else Phase.WAIT_FINISHED
        self._event(now, EventKind.FLIGHT_READY, flight="server_first")
        return out

    def _server_handle_eoed(self, eoed, raw: bytes, now: int) -> list:
        # DTLS 1.3 omits EndOfEarlyData (RFC 9147 section 5.6); only a server that
        # accepted 0-RTT holds the epoch-1 read keys it arrives under
        if self.protocol != Protocol.TLS:
            raise UnexpectedMessage("EndOfEarlyData on DTLS")
        self.transcript.append(raw)
        self._tls_read_epoch = EPOCH_HANDSHAKE
        return []

    def _server_handle_finished(self, fin, raw: bytes, now: int) -> list:
        self._peer_finished(fin, raw)
        self._install(EPOCH_APP, "read", self.ks.secret("c_ap"))
        self.ks.derive_resumption(self.transcript.digest(self.params.hash_alg))
        self.phase = Phase.CONNECTED
        self._event(now, EventKind.HANDSHAKE_COMPLETE)
        out = []
        if self.reliability is not None:
            out += self.reliability.end_flight(self._frame, self.write_epoch)
        if self.cfg.tickets:
            out.extend(self._issue_ticket(now))
        return out

    def _issue_ticket(self, now: int) -> list:
        nonce = bytes(8)  # the one ticket this connection issues
        ticket_id = self.rng.randbytes(16)
        age_add = self.rng.getrandbits(32)
        psk = self.ks.resumption_psk(nonce)
        self.ticket_db[ticket_id] = TicketState(ticket_id, psk, self.suite, age_add, now)
        nst = messages.NewSessionTicket(
            TICKET_LIFETIME_S, age_add, nonce, ticket_id, dict([messages.ext_early_data_ticket(MAX_EARLY_DATA)])
        )
        self._event(now, EventKind.TICKET, ticket=ticket_id.hex())
        return self._emit(nst, EPOCH_APP, now)

    # ----------------------------------------------------------------- app data

    def send_app_data(self, payload: bytes, now: int) -> list:
        if not self.connected:
            raise NotReady("application data before the handshake allows it")
        return self._records(EPOCH_APP, ContentType.APPLICATION_DATA, payload, "app_data")

    def _records(self, epoch: int, content_type: int, data: bytes, name: str) -> list:
        """``data`` split into records of ``epoch`` that fit, at least one: each
        ``_record_room`` less the CID the peer asked for."""
        size = self._record_room(epoch) - len(self.cid_peer or b"")
        if size < 1:
            raise ConfigError("padding and mtu leave no room for application data")
        return [
            OutRecord(self._frame(epoch, content_type, data[i : i + size])[1], name)
            for i in range(0, len(data) or 1, size)
        ]

    # ------------------------------------------------------- transition tables

    # role -> (phase, handshake type) -> Edge.  Each row cites its transition
    # in RFC 8446 Appendix A.1 (client) or A.2 (server), or the RFC 8446 section
    # that adds it; a HelloRetryRequest is a ServerHello its handler tells apart.
    TRANSITIONS = {
        "client": {
            (Phase.WAIT_SH, HandshakeType.SERVER_HELLO): Edge(EPOCH_PLAIN, _client_handle_sh, True),  # A.1
            (Phase.WAIT_EE, HandshakeType.ENCRYPTED_EXTENSIONS): Edge(EPOCH_HANDSHAKE, _client_handle_ee),  # A.1
            (Phase.WAIT_CERT_CR, HandshakeType.CERTIFICATE_REQUEST): Edge(EPOCH_HANDSHAKE, _client_handle_cr),  # A.1
            (Phase.WAIT_CERT_CR, HandshakeType.CERTIFICATE): Edge(EPOCH_HANDSHAKE, _peer_certificate),  # A.1
            (Phase.WAIT_CERT, HandshakeType.CERTIFICATE): Edge(EPOCH_HANDSHAKE, _peer_certificate),  # A.1
            (Phase.WAIT_CV, HandshakeType.CERTIFICATE_VERIFY): Edge(EPOCH_HANDSHAKE, _peer_certificate_verify),  # A.1
            (Phase.WAIT_FINISHED, HandshakeType.FINISHED): Edge(EPOCH_HANDSHAKE, _client_handle_finished),  # A.1
            (Phase.CONNECTED, HandshakeType.NEW_SESSION_TICKET): Edge(EPOCH_APP, _client_handle_ticket),  # 4.6.1
        },
        "server": {
            (Phase.START, HandshakeType.CLIENT_HELLO): Edge(EPOCH_PLAIN, _server_handle_client_hello),  # A.2
            (Phase.WAIT_CERT_CR, HandshakeType.CERTIFICATE): Edge(EPOCH_HANDSHAKE, _peer_certificate, True),  # A.2
            (Phase.WAIT_CV, HandshakeType.CERTIFICATE_VERIFY): Edge(EPOCH_HANDSHAKE, _peer_certificate_verify),  # A.2
            (Phase.WAIT_FINISHED, HandshakeType.END_OF_EARLY_DATA): Edge(EPOCH_EARLY, _server_handle_eoed),  # A.2
            (Phase.WAIT_FINISHED, HandshakeType.FINISHED): Edge(EPOCH_HANDSHAKE, _server_handle_finished, True),  # A.2
        },
    }
    # role -> read epoch -> the handshake types that role takes in that epoch
    ACCEPTS = {
        role: {epoch: {t for (_, t), edge in table.items() if edge.epoch == epoch} for epoch in range(EPOCH_APP + 1)}
        for role, table in TRANSITIONS.items()
    }


def resume_config(cfg: ConnConfig, ticket: TicketState) -> ConnConfig:
    """Client config for a resumed handshake using a stored ticket."""
    return cfg._replace(psk=ticket, suites=(ticket.suite,))


class ServerListener:
    """Owns the accept path: cookie secret, ticket table, demux tables.  It routes
    each datagram or stream chunk by connection id or address and otherwise only
    decides whether it gets a fresh connection, which reads its first ClientHello
    itself through the (START, ClientHello) edge of ``Connection.TRANSITIONS``,
    whole or split across datagrams.  With ``dos`` the stateless cookie check
    needs the whole ClientHello, so one that does not fit a datagram is dropped
    unallocated."""

    def __init__(self, cfg: ConnConfig, rng: random.Random):
        self.cfg = cfg
        self.rng = rng
        self.cookie_secret = rng.randbytes(32)
        self.ticket_db: dict = {}
        self.by_addr: dict = {}
        self.by_cid: dict = {}
        self.allocated = 0

    # -- cookie machinery ------------------------------------------------------

    def check_cookie(self, cookie: bytes, address: str):
        """The Hash(ClientHello1) that ``cookie`` (0x00, the hash, a 32-byte MAC) carries
        when this listener made it for ``address``, else None."""
        ch_hash, mac = cookie[1:-32], cookie[-32:]
        if cookie[:1] != b"\x00" or not ch_hash:
            return None
        ok = crypto.hmac_verify(crypto.HashAlg.SHA256, self.cookie_secret, address.encode() + ch_hash, mac)
        return ch_hash if ok else None

    def connections(self) -> list:
        return list(self.by_addr.values())  # _route_by_cid keeps one address per connection

    # -- accept / demux -----------------------------------------------------------

    def receive(self, data: bytes, source: str, now: int) -> list:
        if self.cfg.protocol == Protocol.DTLS and data and records.is_unified_header(data[0]) and (data[0] & 0x10):
            return self._route_by_cid(data, source, now)
        conn = self.by_addr.get(source)
        if conn is not None and (conn.connected or conn.failed) and data[:1] == bytes([ContentType.HANDSHAKE]):
            # a plaintext flight from an established address starts over (e.g. a
            # resumption attempt), as does a retransmission to a failed connection
            # whose alert was lost; retire the old binding
            del self.by_addr[source]
            if conn.cid_local:
                self.by_cid.pop(conn.cid_local, None)
            conn = None
        if conn is not None:
            return conn.handle(data, now)
        if self.cfg.protocol == Protocol.TLS:
            return self._fresh_connection(source).handle(data, now)
        return self._accept_datagram(data, source, now)

    def _route_by_cid(self, data: bytes, source: str, now: int) -> list:
        cid = bytes(data[1 : 1 + (self.cfg.cid or 0)])
        conn = self.by_cid.get(cid)
        if conn is None:
            return []  # unknown-cid: dropped
        reads_before = conn.auth_reads
        out = conn.handle(data, now)
        if conn.auth_reads > reads_before and self.by_addr.get(source) is not conn:
            # authenticated record from a new source: move the binding
            for addr in [a for a, c in self.by_addr.items() if c is conn]:
                del self.by_addr[addr]
            self.by_addr[source] = conn
            conn._event(now, EventKind.ADDRESS_MIGRATED, address=source)
        return out

    def _fresh_connection(self, source: str):
        self.allocated += 1
        conn = Connection(self.cfg, "server", self.rng, conn_id=f"S{self.allocated}")
        conn.ticket_db = self.ticket_db
        self.by_addr[source] = conn
        if conn.cid_local:
            self.by_cid[conn.cid_local] = conn
        return conn

    def _accept_datagram(self, data: bytes, source: str, now: int) -> list:
        """DTLS datagram from an unknown address.  Without ``dos`` a ClientHello fragment with
        message_seq 0 gets a connection; with it a whole cookieless ClientHello gets the
        answer of ``_stateless_hrr``, and one with message_seq 1 whose cookie checks out a
        connection (RFC 9147 section 5.1).  The connection then reads the datagram itself."""
        try:
            ctype, _, payload, _ = records.parse_dtls_plaintext(data, 0)
            frag, _ = messages.parse_dtls_fragment(payload)
            if ctype != ContentType.HANDSHAKE or frag.msg_type != HandshakeType.CLIENT_HELLO:
                return []
            if not self.cfg.dos:
                return self._fresh_connection(source).handle(data, now) if frag.message_seq == 0 else []
            if not frag.complete:
                return []
            raw = frag.to_tls_form()
            ch = messages.decode_handshake(raw)
            cookie = messages.extension(ch, ExtensionType.COOKIE, messages.read_cookie)
        except ProtocolError:
            return []  # not a plausible first flight: silently dropped
        if cookie is None:
            return [self._stateless_hrr(raw, ch, source, now)]
        ch1_hash = self.check_cookie(cookie, source)
        if ch1_hash is None or frag.message_seq != 1:
            return []  # bad cookie, or not the retry's message_seq: silently dropped, nothing allocated
        conn = self._fresh_connection(source)
        conn.after_stateless_hrr(ch1_hash)
        return conn.handle(data, now)

    def _stateless_hrr(self, raw_ch: bytes, ch, source: str, now: int) -> OutRecord:
        """Epoch-0 record 0 that answers a cookieless ClientHello: the HelloRetryRequest of
        its ``negotiate`` decision, or the alert of its refusal."""
        try:
            suite = crypto.suite_params(negotiate(self.cfg, self.ticket_db, ch, now).suite)
        except ProtocolError as exc:
            return OutRecord(records.encode_dtls_plaintext(ContentType.ALERT, 0, bytes([2, exc.code])), "alert")
        # cookie: 0x00 + Hash(ClientHello1) + MAC(address || Hash(ClientHello1)); embedding the
        # hash keeps the retry transcript reconstructible with zero server-side state
        ch_hash = crypto.hash_data(suite.hash_alg, raw_ch)
        mac = crypto.hmac_digest(crypto.HashAlg.SHA256, self.cookie_secret, source.encode() + ch_hash)
        hrr = messages.build_hello_retry_request(int(suite.suite), b"\x00" + ch_hash + mac, ch.legacy_session_id)
        body = messages.tls_form(hrr)
        frag = messages.DtlsFragment(HandshakeType.SERVER_HELLO, len(body) - 4, 0, 0, body[4:]).encode()
        record = records.encode_dtls_plaintext(ContentType.HANDSHAKE, 0, frag)
        return OutRecord(record, "hello_retry_request")
