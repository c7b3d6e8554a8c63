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
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple

from . import crypto, ec, messages, records
from .crypto import GROUP_SCHEME, Protocol, SuiteId
from .errors import (
    BadSignature,
    ConfigConflict,
    DecodeError,
    DecryptError,
    ExpiredTicket,
    HandshakeFailure,
    HandshakeTimeout,
    IllegalParameter,
    NotReady,
    ProtocolError,
    UnexpectedMessage,
    UnknownTicket,
)
from .keyschedule import KeySchedule, PskKind
from .messages import ExtensionType, HandshakeType, PskMode
from .profiles import (
    ECDHE_FAMILY,
    PK_FAMILY,
    PSK_FAMILY,
    AuthMode,
    EcCredential,
    PskCredential,
)
from .records import ContentType, OutRecord, ReplayWindow
from .reliability import DtlsReliability

TICKET_LIFETIME_S = 7200
TICKET_AGE_TOLERANCE_MS = 10_000

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


@dataclass
class Event:
    t: int
    kind: EventKind
    detail: dict = field(default_factory=dict)

    def line(self, conn_id: str) -> str:
        detail = ",".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"{self.t} {conn_id} {self.kind.value} {detail}"


@dataclass
class OpCounters:
    aead_seal: int = 0
    aead_open: int = 0
    hash_blocks: int = 0
    dh_ops: int = 0
    sign_ops: int = 0
    verify_ops: int = 0
    hkdf_ops: int = 0

    def to_dict(self) -> dict:
        return dict(self.__dict__)


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


@dataclass
class TicketState:
    """Client-side resumption material from one NewSessionTicket."""

    ticket: bytes
    psk: bytes
    suite: SuiteId
    age_add: int
    received_at: int


_ALERT_CODES = {
    "close_notify": 0,
    "unexpected_message": 10,
    "bad_record_mac": 20,
    "handshake_failure": 40,
    "bad_certificate_verify": 42,
    "illegal_parameter": 47,
    "decode_error": 50,
    "decrypt_error": 51,
}


@dataclass
class ConnConfig:
    protocol: Protocol
    mode: AuthMode
    suites: tuple
    groups: tuple = ()
    psk: PskCredential | None = None
    local_ec: EcCredential | None = None
    peer_ec: EcCredential | None = None  # pinned peer public key (trust anchor)
    sni: str | None = None
    compat: bool = False
    early_payload: bytes = b""
    cid: int | None = None  # RFC 9146 CID length asked of the peer: 0 asks none, None sends no extension
    pad_len: int = 0
    tickets: bool = False
    dos: bool = False
    mtu: int = 1280
    packing: bool = False
    resume: TicketState | None = None


def _expired(ticket: dict, now: int) -> bool:
    return now - ticket["issued_at"] > TICKET_LIFETIME_S * 1000


def _choose_suite(cfg: ConnConfig, ticket_db: dict, ch, now: int) -> SuiteId:
    """The server's most-preferred suite that the client offers. When the
    ClientHello offers a PSK this server accepts (its external PSK or a live
    ticket), the most-preferred such suite with the hash the binder is keyed
    with, if there is one (RFC 8446 section 4.2.11)."""
    shared = [suite for suite in cfg.suites if suite in ch.cipher_suites]
    if not shared:
        raise HandshakeFailure("no common cipher suite")
    ext = messages.find_extension(ch.extensions, ExtensionType.PRE_SHARED_KEY)
    if ext is not None and len(shared) > 1:
        identity, _, binder = messages.parse_pre_shared_key_offer(ext.data)
        ticket = ticket_db.get(identity)
        if ticket is None:
            accepted = cfg.psk is not None and identity == cfg.psk.identity
        else:
            accepted = not _expired(ticket, now)
        keyed = [suite for suite in shared if crypto.suite_params(suite).hash_len == len(binder)]
        if accepted and keyed:
            return SuiteId(keyed[0])
    return SuiteId(shared[0])


class Edge(NamedTuple):
    epoch: int  # the read epoch the message must arrive in (RFC 9147 section 6.1)
    handler: object  # Connection method (self, msg, tls_form, now) -> list of OutRecord
    implicit_ack: bool = False  # it starts the peer's next flight (RFC 9147 section 7.2)


class Connection:
    def __init__(self, cfg: ConnConfig, role: str, rng: random.Random, conn_id: str = ""):
        if cfg.mode == AuthMode.ZERO_RTT and cfg.psk is None and cfg.resume is None and role == "client":
            raise ConfigConflict("0-RTT requires PSK or resumption material")
        if role == "server" and cfg.mode in PK_FAMILY:
            if cfg.local_ec is None:
                raise ConfigConflict("certificate mode without a server credential")
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

        self.suite = cfg.suites[0]
        self.params = crypto.suite_params(self.suite)
        self.ks: KeySchedule | None = None
        self.transcript = Transcript(self.counters)

        self.epochs: dict = {}  # epoch -> {"read": TrafficKeys, "write": TrafficKeys}
        self.write_epoch = EPOCH_PLAIN  # the latest non-early write keys: alerts and ACKs go out in it
        self.plain_write_seq = 0
        self.plain_window = ReplayWindow()

        self.reliability = DtlsReliability() if self.protocol == Protocol.DTLS else None
        if self.reliability is not None:
            self._fragment_budget(EPOCH_HANDSHAKE)  # ConfigConflict before any send when no fragment fits

        self.cid_local = rng.randbytes(cfg.cid) if cfg.cid else None  # peers put this in records they send us
        self.cid_peer: bytes | None = None  # we put this in records we send
        self.ticket_db: dict = {}  # server: the listener's resumption ticket table

        self.dh_priv = None
        self.client_cert_requested = False
        self.early_accepted = False
        self.hrr_done = False
        self.psk_in_use: PskCredential | None = None
        self.psk_kind_in_use = PskKind.EXTERNAL
        self.obfuscated_age = 0
        self.client_tickets: list = []
        self.ticket_nonce_counter = 0
        self.auth_reads = 0  # records that decrypted successfully

        self._stream_buf = b""
        self._hs_buf = b""  # reassembly buffer for the TLS handshake stream
        self._tls_read_epoch = EPOCH_PLAIN
        self._ccs_sent = False

    # ------------------------------------------------------------------ util

    def _event(self, now: int, kind: EventKind, **detail) -> None:
        self.event_log.append(Event(now, kind, detail))

    @property
    def connected(self) -> bool:
        return self.phase == Phase.CONNECTED

    @property
    def failed(self) -> bool:
        return self.phase == Phase.FAILED

    def _teardown(self, now: int, alert: str, **detail) -> None:
        self.failed_from = self.phase.value
        self.phase = Phase.FAILED
        self.failure = alert
        if self.reliability is not None:
            self.reliability.stop()
        self._event(now, EventKind.ALERT, alert=alert, **detail)

    def _fail(self, now: int, exc: ProtocolError) -> list:
        self._teardown(now, exc.alert, fatal=True)
        return self._emit_alert(_ALERT_CODES.get(exc.alert, 80))

    def _peer_alert(self, now: int, body: bytes) -> None:
        self._teardown(now, "peer_alert", code=body[1] if len(body) > 1 else -1)

    def _emit_alert(self, code: int) -> list:
        try:
            _, data = self._frame(self.write_epoch, ContentType.ALERT, bytes([2, code]))
            return [OutRecord(data, "alert")]
        except ProtocolError:
            return []

    def _install(self, epoch: int, direction: str, secret: bytes) -> None:
        keys = self.ks.traffic_keys(secret)
        self.epochs.setdefault(epoch, {})[direction] = keys
        if direction == "write" and epoch != EPOCH_EARLY:
            self.write_epoch = epoch
        elif direction == "read" and self.protocol == Protocol.DTLS:
            keys.window = ReplayWindow()

    def _new_schedule(self, psk: bytes | None = None, kind: PskKind = PskKind.EXTERNAL) -> None:
        self.ks = KeySchedule(self.suite, self.protocol, self.counters).init_early(psk, kind)

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
        name = HandshakeType(raw[0]).name.lower()
        if self.protocol == Protocol.TLS:
            return [OutRecord(self._frame(epoch, ContentType.HANDSHAKE, raw)[1], name)]
        return self.reliability.send(self._frame, raw[0], raw[4:], name, epoch, self._fragment_budget(epoch), now)

    def _fragment_budget(self, epoch: int) -> int:
        if epoch == EPOCH_PLAIN:
            overhead = records.DTLS12_RECORD_HEADER_LEN
        else:
            header = records.unified_header_size(0, False, self.cfg.packing)
            overhead = header + 1 + self.cfg.pad_len + self.params.tag_len  # 1: the inner content type
        budget = self.cfg.mtu - overhead
        if budget <= messages.DTLS_HANDSHAKE_HEADER_LEN:
            raise ConfigConflict("mtu too small for any handshake fragment")
        return budget

    def _fake_ccs(self) -> list:
        # compat mode artifact: legacy type 20, body 0x01, sent once, ignored on receipt
        if self.protocol != Protocol.TLS or not self.cfg.compat or self._ccs_sent:
            return []
        self._ccs_sent = True
        return [OutRecord(self._frame(EPOCH_PLAIN, ContentType.CHANGE_CIPHER_SPEC, b"\x01")[1], "ccs")]

    # ------------------------------------------ authentication (RFC 8446 §4.4)

    def _hs_traffic(self, role: str) -> bytes:
        return self.ks.secret("c_hs" if role == "client" else "s_hs")

    def _own_flight(self, with_cert: bool, now: int) -> list:
        """This side's Certificate and CertificateVerify when ``with_cert``,
        then its Finished."""
        out = []
        if with_cert:
            cred = self.cfg.local_ec
            if cred is None:
                raise ConfigConflict(f"{self.role} certificate requested but not configured")
            out += self._emit(messages.Certificate(b"", [(cred.cert_der, b"")]), EPOCH_HANDSHAKE, now)
            content = messages.certificate_verify_content(self.role, self.transcript.digest(self.params.hash_alg))
            cv = messages.CertificateVerify(int(cred.scheme), self._sign(cred, content))
            out += self._emit(cv, EPOCH_HANDSHAKE, now)
        mac = self.ks.finished_mac(self._hs_traffic(self.role), self.transcript.digest(self.params.hash_alg))
        return out + self._emit(messages.Finished(mac), EPOCH_HANDSHAKE, now)

    def _peer_certificate(self, cert, raw: bytes, now: int) -> list:
        if not cert.entries:
            raise UnexpectedMessage(f"{self.peer_role} sent an empty Certificate")
        self.transcript.append(raw)
        self.phase = Phase.WAIT_CV
        return []

    def _peer_certificate_verify(self, cv, raw: bytes, now: int) -> list:
        if cv.scheme not in self._scheme_list():  # RFC 8446 section 4.4.3
            raise IllegalParameter(f"{self.peer_role} CertificateVerify scheme {cv.scheme:#06x} was not offered")
        content = messages.certificate_verify_content(self.peer_role, self.transcript.digest(self.params.hash_alg))
        anchor = self.cfg.peer_ec
        if anchor is None or not self._verify(
            anchor.public_point, crypto.SignatureScheme(cv.scheme), content, cv.signature
        ):
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

    def _psk_offer(self, now: int):
        if self.cfg.resume is not None:
            tk = self.cfg.resume
            age_ms = now - tk.received_at
            self.obfuscated_age = (age_ms + tk.age_add) & 0xFFFFFFFF
            self.psk_kind_in_use = PskKind.RESUMPTION
            self.psk_in_use = PskCredential(tk.ticket, tk.psk)
            return self.psk_in_use
        if self.cfg.psk is not None and self.cfg.mode in PSK_FAMILY:
            self.obfuscated_age = 0
            self.psk_in_use = self.cfg.psk
            return self.psk_in_use
        return None

    def _client_hello_flight(self, now: int, cookie: bytes | None) -> list:
        """Extensions in canonical order; pre_shared_key last, its binder zero-filled until computed."""
        cfg = self.cfg
        psk = self._psk_offer(now)
        offer_share = cfg.mode in ECDHE_FAMILY
        early_data = cfg.mode == AuthMode.ZERO_RTT and bool(cfg.early_payload)
        exts = [messages.ext_supported_versions_client()]
        if offer_share:
            if not cfg.groups:
                raise ConfigConflict("key-share modes need a named group")
            if self.dh_priv is None:
                self.dh_priv, pub = self._keypair(cfg.groups[0])
            else:
                pub = self.dh_priv.public_bytes()
            exts.append(messages.ext_supported_groups([int(g) for g in cfg.groups]))
        if cfg.mode in PK_FAMILY:
            exts.append(messages.ext_signature_algorithms([int(s) for s in self._scheme_list()]))
            if cfg.sni is not None:
                exts.append(messages.ext_server_name(cfg.sni))
        cid = self._advertised_cid()
        if cid is not None:
            exts.append(messages.ext_connection_id(cid))
        if cookie is not None:
            exts.append(messages.ext_cookie(cookie))
        if offer_share:
            exts.append(messages.ext_key_share_client([(int(cfg.groups[0]), pub)]))  # exactly one key share
        if early_data:
            exts.append(messages.ext_early_data())
        if psk is not None:
            exts.append(messages.ext_psk_modes([PskMode.PSK_DHE_KE if offer_share else PskMode.PSK_KE]))
            zero_binder = bytes(self.params.hash_len)
            exts.append(messages.ext_pre_shared_key_offer(psk.identity, self.obfuscated_age, zero_binder))
        ch = messages.ClientHello(self.rng.randbytes(32), b"", [int(s) for s in cfg.suites], exts)
        if cfg.compat and self.protocol == Protocol.TLS:
            ch.legacy_session_id = self.rng.randbytes(32)
        self._new_schedule(psk.secret if psk else None, self.psk_kind_in_use)
        if psk is not None:
            binder = self.ks.compute_binder(self.transcript.binder_digest(messages.tls_form(ch), self.params))
            ch.extensions[-1] = messages.ext_pre_shared_key_offer(psk.identity, self.obfuscated_age, binder)
        out = self._emit(ch, EPOCH_PLAIN, now)
        self.phase = Phase.WAIT_SH
        if early_data:
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
        _, rec = self._frame(EPOCH_EARLY, ContentType.APPLICATION_DATA, self.cfg.early_payload)
        return [OutRecord(rec, "early_data")]

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
                content_type, payload = self._open(epoch, records.open_tls, record)
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
                except DecodeError:
                    break  # malformed tail: drop the rest of the datagram
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
                except DecodeError:
                    break
                offset += used
                epoch = EPOCH_PLAIN
            else:
                break  # unknown first byte: not a record, drop remainder
            out.extend(self._read_record(epoch, content_type, payload, (epoch, seq), now))
        out.extend(self.reliability.flush_acks(now, self._frame, self.write_epoch))
        return out

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
        if self.hrr_done:
            raise UnexpectedMessage("second HelloRetryRequest")
        self.hrr_done = True
        cookie_ext = messages.find_extension(hrr.extensions, ExtensionType.COOKIE)
        if cookie_ext is None:
            raise UnexpectedMessage("HelloRetryRequest without a cookie")
        cookie = messages.parse_cookie(cookie_ext.data)
        if hrr.cipher_suite not in [int(s) for s in self.cfg.suites]:
            raise IllegalParameter("HelloRetryRequest picked a suite we did not offer")
        self.suite = SuiteId(hrr.cipher_suite)  # ClientHello1 is hashed with it (RFC 8446 section 4.4.1)
        self.params = crypto.suite_params(self.suite)
        self.transcript.restart(self.params.hash_alg, raw)
        self.ks = None
        self.epochs.pop(EPOCH_EARLY, None)  # 0-RTT does not survive an HRR
        if self.reliability is not None:
            self.reliability.end_flight()  # the retried ClientHello answers the HRR
        out = self._client_hello_flight(now, cookie=cookie)
        self._event(now, EventKind.FLIGHT_READY, flight="client_hello_retry")
        return out

    def _client_handle_sh(self, sh, raw: bytes, now: int) -> list:
        if messages.is_hello_retry_request(sh):
            return self._client_handle_hrr(sh, raw, now)
        if sh.cipher_suite not in [int(s) for s in self.cfg.suites]:
            raise HandshakeFailure("server picked a suite we did not offer")
        psk_ext = messages.find_extension(sh.extensions, ExtensionType.PRE_SHARED_KEY)
        if sh.cipher_suite != int(self.suite):
            if psk_ext is not None:
                raise HandshakeFailure("PSK acceptance requires the PSK's suite")
            self.suite = SuiteId(sh.cipher_suite)
            self.params = crypto.suite_params(self.suite)
            self.ks = None
        self.transcript.append(raw)
        if psk_ext is None and self.psk_in_use is not None:
            # server declined the PSK: continue as a pure (EC)DHE handshake
            self.psk_in_use = None
            if self.cfg.mode == AuthMode.ZERO_RTT:
                raise UnexpectedMessage("0-RTT offer requires PSK acceptance")
            self.ks = None
        if self.ks is None:
            self._new_schedule()

        dh = None
        share_ext = messages.find_extension(sh.extensions, ExtensionType.KEY_SHARE)
        if share_ext is not None:
            group, server_pub = messages.parse_key_share_server(share_ext.data)
            if self.dh_priv is None or group != int(self.dh_priv.group):
                raise HandshakeFailure("server share for a group we did not offer")
            dh = self._shared(self.dh_priv, server_pub)
        elif self.cfg.mode in ECDHE_FAMILY:
            raise UnexpectedMessage("expected a key_share in ServerHello")

        cid_ext = messages.find_extension(sh.extensions, ExtensionType.CONNECTION_ID)
        if cid_ext is not None:
            self.cid_peer = messages.parse_connection_id(cid_ext.data) or None

        self.ks.advance_handshake(dh, self.transcript.digest(self.params.hash_alg))
        self._install(EPOCH_HANDSHAKE, "read", self.ks.secret("s_hs"))
        self._install(EPOCH_HANDSHAKE, "write", self.ks.secret("c_hs"))
        self._tls_read_epoch = EPOCH_HANDSHAKE
        self.phase = Phase.WAIT_EE
        return []

    def _client_handle_ee(self, ee, raw: bytes, now: int) -> list:
        self.transcript.append(raw)
        accepted = messages.find_extension(ee.extensions, ExtensionType.EARLY_DATA) is not None
        if accepted and self.cfg.mode != AuthMode.ZERO_RTT:
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
        self._tls_read_epoch = EPOCH_APP
        if self.reliability is not None:
            self.reliability.end_flight()
        self.phase = Phase.CONNECTED
        self._event(now, EventKind.FLIGHT_READY, flight="client_second")
        self._event(now, EventKind.HANDSHAKE_COMPLETE)
        return out

    def _client_handle_ticket(self, nst, raw: bytes, now: int) -> list:
        state = TicketState(
            ticket=nst.ticket,
            psk=self.ks.resumption_psk(nst.nonce),
            suite=self.suite,
            age_add=nst.age_add,
            received_at=now,
        )
        self.client_tickets.append(state)
        self._event(now, EventKind.TICKET, ticket=nst.ticket.hex())
        if self.reliability is not None:
            self.reliability.ack_now(now)  # no responding flight: explicit ACK
        return []

    # ---------------------------------------------------------------- server side

    def after_stateless_hrr(self, ch1_digest: bytes, hrr_raw: bytes) -> None:
        """Take up a DTLS handshake after the listener's stateless HelloRetryRequest ``hrr_raw``
        (record 0 and message_seq 0 each way), its cookie carrying ClientHello1's ``ch1_digest``."""
        self.transcript.restart(self.params.hash_alg, hrr_raw, ch1_digest)
        self.plain_write_seq = 1
        self.plain_window.add(0)
        self.reliability.next_send_msg_seq = self.reliability.next_recv_msg_seq = 1

    def _server_handle_client_hello(self, ch, raw: bytes, now: int) -> list:
        if self.reliability is not None:
            self.reliability.after_client_hello()
        self.suite = _choose_suite(self.cfg, self.ticket_db, ch, now)
        self.params = crypto.suite_params(self.suite)

        share = None
        share_ext = messages.find_extension(ch.extensions, ExtensionType.KEY_SHARE)
        if share_ext is not None:
            for group, pub in messages.parse_key_share_client(share_ext.data):
                if group in [int(g) for g in self.cfg.groups]:
                    share = (crypto.NamedGroup(group), pub)
                    break
            if share is None:
                raise HandshakeFailure("no offered key-share group is enabled here")

        psk = self._server_select_psk(ch, raw, now, fallback_possible=share is not None)
        self.transcript.append(raw)  # after the binder check, which covers the messages before it
        if self.early_accepted:
            secret = self.ks.derive_early_traffic(self.transcript.digest(self.params.hash_alg))
            self._install(EPOCH_EARLY, "read", secret)
        mode = self._server_mode(psk, share)

        exts = [messages.ext_supported_versions_server()]
        cid_ext = messages.find_extension(ch.extensions, ExtensionType.CONNECTION_ID)
        if cid_ext is not None:
            self.cid_peer = messages.parse_connection_id(cid_ext.data) or None
            cid = self._advertised_cid()
            if cid is not None:
                exts.append(messages.ext_connection_id(cid))

        dh = None
        if mode in ECDHE_FAMILY:
            group, client_pub = share
            priv, pub = self._keypair(group)
            dh = self._shared(priv, client_pub)
            exts.append(messages.ext_key_share_server(int(group), pub))

        if psk is None:
            self._new_schedule()
        else:
            exts.append(messages.ext_pre_shared_key_server(0))

        sh = messages.ServerHello(self.rng.randbytes(32), ch.legacy_session_id, int(self.suite), exts)
        out = self._emit(sh, EPOCH_PLAIN, now)
        self.ks.advance_handshake(dh, self.transcript.digest(self.params.hash_alg))
        self._install(EPOCH_HANDSHAKE, "write", self.ks.secret("s_hs"))
        self._install(EPOCH_HANDSHAKE, "read", self.ks.secret("c_hs"))
        out += self._fake_ccs()
        ee_exts = [messages.ext_early_data()] if self.early_accepted else []
        out += self._emit(messages.EncryptedExtensions(ee_exts), EPOCH_HANDSHAKE, now)
        if mode == AuthMode.PK_MUTUAL:
            sig_algs = messages.ext_signature_algorithms([int(s) for s in self._scheme_list()])
            out += self._emit(messages.CertificateRequest(b"", [sig_algs]), EPOCH_HANDSHAKE, now)
        out += self._own_flight(with_cert=mode in PK_FAMILY, now=now)

        self.ks.advance_master(self.transcript.digest(self.params.hash_alg))
        self._install(EPOCH_APP, "write", self.ks.secret("s_ap"))
        if self.early_accepted and self.protocol == Protocol.TLS:
            self._tls_read_epoch = EPOCH_EARLY
        else:
            self._tls_read_epoch = EPOCH_HANDSHAKE
        self.phase = Phase.WAIT_CERT_CR if mode == AuthMode.PK_MUTUAL else Phase.WAIT_FINISHED
        self._event(now, EventKind.FLIGHT_READY, flight="server_first")
        return out

    def _server_select_psk(self, ch, raw_ch: bytes, now: int, fallback_possible: bool):
        ext = messages.find_extension(ch.extensions, ExtensionType.PRE_SHARED_KEY)
        if ext is None:
            return None
        identity, obf_age, binder = messages.parse_pre_shared_key_offer(ext.data)
        if len(binder) != self.params.hash_len:
            return None  # keyed for another hash: not selectable with this suite (RFC 8446 section 4.2.11)
        resumed = self.ticket_db.get(identity)
        try:
            if resumed is not None:
                if _expired(resumed, now):
                    del self.ticket_db[identity]
                    raise ExpiredTicket("resumption ticket past its lifetime")
                psk_secret, kind = resumed["psk"], PskKind.RESUMPTION
            elif self.cfg.psk is not None and identity == self.cfg.psk.identity:
                psk_secret, kind = self.cfg.psk.secret, PskKind.EXTERNAL
            else:
                raise UnknownTicket("psk identity is neither configured nor a ticket")
        except (ExpiredTicket, UnknownTicket):
            if fallback_possible and self.cfg.local_ec is not None:
                return None  # fall back to the certificate path
            raise

        self._new_schedule(psk_secret, kind)
        if not hmac.compare_digest(self.ks.compute_binder(self.transcript.binder_digest(raw_ch, self.params)), binder):
            raise DecryptError("psk binder mismatch")
        self.psk_in_use = PskCredential(identity, psk_secret)
        self.psk_kind_in_use = kind
        if messages.find_extension(ch.extensions, ExtensionType.EARLY_DATA) is not None:
            self.early_accepted = True
            if resumed is not None:
                real_age = (obf_age - resumed["age_add"]) & 0xFFFFFFFF
                self.early_accepted = abs(real_age - (now - resumed["issued_at"])) <= TICKET_AGE_TOLERANCE_MS
        return self.psk_in_use

    def _server_mode(self, psk, share) -> AuthMode:
        if psk is not None:
            return AuthMode.PSK_ECDHE if share is not None else AuthMode.PSK
        if self.cfg.local_ec is None:
            raise HandshakeFailure("no PSK accepted and no certificate configured")
        if share is None:
            raise HandshakeFailure("certificate mode requires a client key share")
        return AuthMode.PK_MUTUAL if self.cfg.mode == AuthMode.PK_MUTUAL else AuthMode.PK_SERVER_ONLY

    def _server_handle_eoed(self, eoed, raw: bytes, now: int) -> list:
        # DTLS 1.3 omits EndOfEarlyData (RFC 9147 section 5.6)
        if not (self.early_accepted and self.protocol == Protocol.TLS):
            raise UnexpectedMessage("EndOfEarlyData without accepted 0-RTT")
        self.transcript.append(raw)
        self._tls_read_epoch = EPOCH_HANDSHAKE
        return []

    def _server_handle_finished(self, fin, raw: bytes, now: int) -> list:
        self._peer_finished(fin, raw)
        self._install(EPOCH_APP, "read", self.ks.secret("c_ap"))
        self.ks.derive_resumption(self.transcript.digest(self.params.hash_alg))
        self._tls_read_epoch = EPOCH_APP
        self.phase = Phase.CONNECTED
        self._event(now, EventKind.HANDSHAKE_COMPLETE)
        out = []
        if self.reliability is not None:
            out += self.reliability.end_flight(self._frame, self.write_epoch)
        if self.cfg.tickets:
            out.extend(self._issue_ticket(now))
        return out

    def _issue_ticket(self, now: int) -> list:
        nonce = self.ticket_nonce_counter.to_bytes(8, "big")
        self.ticket_nonce_counter += 1
        ticket_id = self.rng.randbytes(16)
        age_add = self.rng.getrandbits(32)
        psk = self.ks.resumption_psk(nonce)
        self.ticket_db[ticket_id] = {"psk": psk, "issued_at": now, "age_add": age_add}
        nst = messages.NewSessionTicket(
            TICKET_LIFETIME_S, age_add, nonce, ticket_id, [messages.ext_early_data_ticket(1 << 14)]
        )
        self._event(now, EventKind.TICKET, ticket=ticket_id.hex())
        return self._emit(nst, EPOCH_APP, now)

    # ----------------------------------------------------------------- app data

    def send_app_data(self, payload: bytes, now: int) -> list:
        """``payload`` split into records that fit: each inner plaintext at most 2^14 + 1
        bytes (RFC 8446 section 5.4) and, on DTLS, each record one datagram of the MTU."""
        if not self.connected:
            raise NotReady("application data before the handshake allows it")
        size = (1 << 14) - self.cfg.pad_len
        if self.reliability is not None:  # a handshake fragment's room, less the CID the peer asked for
            size = min(size, self._fragment_budget(EPOCH_APP) - len(self.cid_peer or b""))
        if size < 1:
            raise ConfigConflict("padding and mtu leave no room for application data")
        return [
            OutRecord(self._frame(EPOCH_APP, ContentType.APPLICATION_DATA, payload[i : i + size])[1], "app_data")
            for i in range(0, len(payload) or 1, size)
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
    return replace(cfg, resume=ticket, psk=None, suites=(ticket.suite,))


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

    def check_cookie(self, cookie: bytes, address: str, hash_len: int):
        """Returns the embedded Hash(ClientHello1) when valid, else None."""
        if len(cookie) != 1 + hash_len + 32 or cookie[0] != 0:
            return None
        ch_hash, mac = cookie[1 : 1 + hash_len], cookie[1 + hash_len :]
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
        """DTLS datagram from an unknown address: a connection is allocated only when
        the first record carries a ClientHello fragment with message_seq 0, or with
        ``dos`` a whole ClientHello with message_seq 1 whose cookie checks out
        (RFC 9147 section 5.1).  The connection then reads the datagram itself."""
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
            suite = crypto.suite_params(_choose_suite(self.cfg, self.ticket_db, ch, now))
            cookie_ext = messages.find_extension(ch.extensions, ExtensionType.COOKIE)
            cookie = None if cookie_ext is None else messages.parse_cookie(cookie_ext.data)
        except ProtocolError:
            return []  # not a plausible first flight, or no common suite: silently dropped
        if cookie is None:
            return [self._stateless_hrr(raw, ch, suite, source)]
        ch1_hash = self.check_cookie(cookie, source, suite.hash_len)
        if ch1_hash is None or frag.message_seq != 1:
            return []  # bad cookie, or not the retry's message_seq: silently dropped, nothing allocated
        hrr = messages.build_hello_retry_request(int(suite.suite), cookie, ch.legacy_session_id)
        conn = self._fresh_connection(source)
        conn.after_stateless_hrr(ch1_hash, messages.tls_form(hrr))
        return conn.handle(data, now)

    def _stateless_hrr(self, raw_ch: bytes, ch, suite, source: str) -> OutRecord:
        # cookie: 0x00 + Hash(ClientHello1) + MAC(address || Hash(ClientHello1)); embedding the
        # hash keeps the retry transcript reconstructible with zero server-side state
        ch_hash = crypto.hash_data(suite.hash_alg, raw_ch)
        mac = crypto.hmac_digest(crypto.HashAlg.SHA256, self.cookie_secret, source.encode() + ch_hash)
        hrr = messages.build_hello_retry_request(int(suite.suite), b"\x00" + ch_hash + mac, ch.legacy_session_id)
        body = messages.tls_form(hrr)
        frag = messages.DtlsFragment(HandshakeType.SERVER_HELLO, len(body) - 4, 0, 0, body[4:]).encode()
        record = records.encode_dtls_plaintext(ContentType.HANDSHAKE, 0, frag)
        return OutRecord(record, "hello_retry_request")
