"""Client and server connection state machines.

One Connection per endpoint, driven by explicit simulated time.  The
DTLS side adds per-message retransmission with explicit ACK records
(``reliability.DtlsReliability``), stateless cookie DoS protection, CID
demultiplexing and anti-replay; the TLS side runs the same flows over a
reliable stream.
"""

import random
from dataclasses import dataclass, field, replace
from enum import Enum

from . import crypto, ec, messages, records
from .crypto import Protocol, SuiteId
from .errors import (
    BadBinder,
    BadFinished,
    BadSignature,
    ConfigConflict,
    DecodeError,
    ExpiredTicket,
    HandshakeTimeout,
    NoCommonGroup,
    NoCommonSuite,
    NotReady,
    ProtocolError,
    UnexpectedMessage,
    UnknownTicket,
)
from .keyschedule import KeySchedule, PskKind
from .messages import ExtensionType, HandshakeType
from .profiles import (
    ECDHE_FAMILY,
    GROUP_SCHEME,
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


@dataclass
class TicketState:
    """Client-side resumption material from one NewSessionTicket."""

    ticket: bytes
    psk: bytes
    suite: SuiteId
    age_add: int
    received_at: int
    lifetime_s: int
    max_early_data: int


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
    mutual: bool = False
    sni: str | None = None
    compat: bool = False
    early_payload: bytes = b""
    cid_len: int = 0  # length of the CID this endpoint asks peers to send
    offer_cid: bool = False  # send the extension even with an empty CID
    pad_len: int = 0
    tickets: bool = False
    dos: bool = False
    mtu: int = 1280
    packing: bool = False
    resume: TicketState | None = None
    debug_tamper: object = None  # test hook: fn(name, tls_form) -> tls_form


def _negotiate(server_pref, client_offer, exc, what):
    for item in server_pref:
        if item in client_offer:
            return item
    raise exc(f"no common {what}")


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
        self.transcript: list = []  # TLS-form handshake bytes, in order

        self.epochs: dict = {}  # epoch -> {"read": TrafficKeys, "write": TrafficKeys}
        self.windows: dict = {}  # epoch -> ReplayWindow (DTLS receive)
        self.plain_write_seq = 0
        self.plain_window = ReplayWindow()

        self.reliability = DtlsReliability() if self.protocol == Protocol.DTLS else None

        self.cid_local: bytes | None = None  # peers put this in records they send us
        self.cid_peer: bytes | None = None  # we put this in records we send
        self.peer_offered_cid = False
        self.ticket_db: dict = {}  # server: the listener's resumption ticket table

        self.dh_priv = None
        self.dh_secret: bytes | None = None  # retained for schedule audits
        self.client_cert_requested = False
        self.early_accepted = False
        self.early_rejected = False
        self.hrr_done = False
        self.psk_in_use: PskCredential | None = None
        self.psk_kind_in_use = PskKind.EXTERNAL
        self.obfuscated_age = 0
        self.client_tickets: list = []
        self.ticket_nonce_counter = 0
        self.auth_reads = 0  # records that decrypted successfully

        self._now = 0
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
            _, data = self._frame(self._current_write_epoch(), ContentType.ALERT, bytes([2, code]))
            return [OutRecord(data, "alert")]
        except (ProtocolError, KeyError):
            return []

    def _current_write_epoch(self) -> int:
        for epoch in (EPOCH_APP, EPOCH_HANDSHAKE):
            if "write" in self.epochs.get(epoch, {}):
                return epoch
        return EPOCH_PLAIN

    def _install(self, epoch: int, direction: str, secret: bytes) -> None:
        keys = self.ks.traffic_keys(secret)
        self.epochs.setdefault(epoch, {})[direction] = keys
        if direction == "read":
            self.windows[epoch] = ReplayWindow()

    def _th(self) -> bytes:
        self.counters.hash_blocks += (sum(map(len, self.transcript)) + 63) // 64
        return crypto.transcript_hash(self.transcript, self.params.hash_alg)

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

    def _emit(self, msg, epoch: int) -> list:
        """Append one handshake message to the transcript, then send it.

        ``debug_tamper`` changes only the copy on the wire, so the peer sees
        a message this side never hashed."""
        raw = messages.tls_form(msg)
        if msg.MSG_TYPE != HandshakeType.NEW_SESSION_TICKET:
            self.transcript.append(raw)
        name = HandshakeType(raw[0]).name.lower()
        if self.cfg.debug_tamper is not None:
            raw = self.cfg.debug_tamper(name, raw) or raw
        if self.protocol == Protocol.TLS:
            return [OutRecord(self._frame(epoch, ContentType.HANDSHAKE, raw)[1], name)]
        return self.reliability.send(self._frame, raw[0], raw[4:], name, epoch, self._fragment_budget(epoch), self._now)

    def _fragment_budget(self, epoch: int) -> int:
        if epoch == EPOCH_PLAIN:
            overhead = records.DTLS12_RECORD_HEADER_LEN
        else:
            overhead = (
                records.unified_header_size(0, False, self.cfg.packing)
                + 1
                + self.cfg.pad_len
                + self.params.tag_len
            )
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
        return self.ks.client_hs_traffic if role == "client" else self.ks.server_hs_traffic

    def _own_flight(self, with_cert: bool) -> list:
        """This side's Certificate and CertificateVerify when ``with_cert``,
        then its Finished."""
        out = []
        if with_cert:
            cred = self.cfg.local_ec
            if cred is None:
                raise ConfigConflict(f"{self.role} certificate requested but not configured")
            out += self._emit(messages.build_certificate(b"", [cred.cert_der]), EPOCH_HANDSHAKE)
            content = messages.certificate_verify_content(self.role, self._th())
            cv = messages.CertificateVerify(int(cred.scheme), self._sign(cred, content))
            out += self._emit(cv, EPOCH_HANDSHAKE)
        mac = self.ks.finished_mac(self._hs_traffic(self.role), self._th())
        return out + self._emit(messages.Finished(mac), EPOCH_HANDSHAKE)

    def _peer_certificate(self, cert, raw: bytes) -> list:
        if not cert.entries:
            raise UnexpectedMessage(f"{self.peer_role} sent an empty Certificate")
        self.transcript.append(raw)
        self.phase = Phase.WAIT_CV
        return []

    def _peer_certificate_verify(self, cv, raw: bytes) -> list:
        content = messages.certificate_verify_content(self.peer_role, self._th())
        anchor = self.cfg.peer_ec
        if anchor is None or not self._verify(
            anchor.public_point, crypto.SignatureScheme(cv.scheme), content, cv.signature
        ):
            raise BadSignature(f"{self.peer_role} CertificateVerify did not verify")
        self.transcript.append(raw)
        self.phase = Phase.WAIT_FINISHED
        return []

    def _peer_finished(self, fin, raw: bytes) -> None:
        if not self.ks.verify_finished(self._hs_traffic(self.peer_role), self._th(), fin.verify_data):
            raise BadFinished(f"{self.peer_role} Finished MAC mismatch")
        self.transcript.append(raw)

    # -------------------------------------------------------------- client side

    def start(self, now: int) -> list:
        """Client only: build and emit the first flight."""
        if self.role != "client" or self.phase != Phase.START:
            raise NotReady("start() applies to a fresh client")
        self._now = now
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
        cfg = self.cfg
        psk = self._psk_offer(now)
        offer_share = cfg.mode in ECDHE_FAMILY
        cert_mode = cfg.mode in PK_FAMILY
        share_entries = None
        if offer_share:
            if not cfg.groups:
                raise ConfigConflict("key-share modes need a named group")
            if self.dh_priv is None:
                self.dh_priv, pub = self._keypair(cfg.groups[0])
            else:
                pub = self.dh_priv.public_bytes()
            share_entries = [(int(cfg.groups[0]), pub)]  # exactly one key share
        psk_modes = None
        if psk is not None:
            psk_modes = [
                messages.PskMode.PSK_DHE_KE if offer_share else messages.PskMode.PSK_KE
            ]
        ch = messages.build_client_hello(
            self.rng,
            [int(s) for s in cfg.suites],
            compat_session=cfg.compat and self.protocol == Protocol.TLS,
            key_share_entries=share_entries,
            groups=[int(g) for g in cfg.groups] if offer_share else None,
            sig_algs=[int(s) for s in self._scheme_list()] if cert_mode else None,
            server_name=cfg.sni if cert_mode else None,
            psk_identity=psk.identity if psk else None,
            obfuscated_age=self.obfuscated_age,
            binder_len=self.params.hash_len if psk else 0,
            psk_modes=psk_modes,
            early_data=cfg.mode == AuthMode.ZERO_RTT and bool(cfg.early_payload),
            cookie=cookie,
            cid=self._advertised_cid(),
        )
        self._new_schedule(psk.secret if psk else None, self.psk_kind_in_use)
        if psk is not None:
            trunc = messages.truncated_tls_form(ch, self.params.hash_len)
            th = crypto.transcript_hash(self.transcript + [trunc], self.params.hash_alg)
            messages.patch_binder(ch, self.ks.compute_binder(th))
        out = self._emit(ch, EPOCH_PLAIN)
        self.phase = Phase.WAIT_SH
        if cfg.mode == AuthMode.ZERO_RTT and cfg.early_payload:
            out.extend(self._send_early_data())
        return out

    def _scheme_list(self):
        return [GROUP_SCHEME[g] for g in self.cfg.groups] or [
            crypto.SignatureScheme.ECDSA_SECP256R1_SHA256
        ]

    def _advertised_cid(self) -> bytes | None:
        if self.protocol != Protocol.DTLS:
            return None
        if self.cfg.cid_len:
            if self.cid_local is None:
                self.cid_local = self.rng.randbytes(self.cfg.cid_len)
            return self.cid_local
        if self.cfg.offer_cid:
            return b""  # "I send CIDs but do not need to receive them"
        return None

    def _send_early_data(self) -> list:
        secret = self.ks.derive_early_traffic(self._th())
        self._install(EPOCH_EARLY, "write", secret)
        _, rec = self._frame(EPOCH_EARLY, ContentType.APPLICATION_DATA, self.cfg.early_payload)
        return [OutRecord(rec, "early_data")]

    # -------------------------------------------------------------- receive path

    def handle(self, data: bytes, now: int) -> list:
        """Feed one datagram (DTLS) or stream chunk (TLS)."""
        self._now = now
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
        while self.phase != Phase.FAILED:
            if len(self._stream_buf) < records.TLS_RECORD_HEADER_LEN:
                break
            total = records.TLS_RECORD_HEADER_LEN + records.tls_record_length(self._stream_buf)
            if len(self._stream_buf) < total:
                break
            record = self._stream_buf[:total]
            self._stream_buf = self._stream_buf[total:]
            out.extend(self._handle_tls_record(record, now))
        return out

    def _handle_tls_record(self, record: bytes, now: int) -> list:
        outer = record[0]
        payload = record[5:]
        if outer == ContentType.CHANGE_CIPHER_SPEC:
            return []  # compat artifact: ignored, zero crypto operations
        if outer == ContentType.ALERT:
            self._peer_alert(now, payload)
            return []
        if outer == ContentType.HANDSHAKE:
            return self._feed_handshake_stream(payload, now)
        if outer != ContentType.APPLICATION_DATA:
            raise DecodeError(f"unexpected outer type {outer}")
        epoch = self._tls_read_epoch
        if epoch == EPOCH_PLAIN or "read" not in self.epochs.get(epoch, {}):
            raise UnexpectedMessage("protected record before any keys")
        keys = self.epochs[epoch]["read"]
        self.counters.aead_open += 1
        true_type, inner = records.open_tls(self.params, keys, record)
        self.auth_reads += 1
        return self._dispatch_record_payload(epoch, true_type, inner, now, rec_num=None)

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
                out.extend(self._handle_unified(parsed, now))
            elif first in (
                ContentType.HANDSHAKE,
                ContentType.ALERT,
                ContentType.CHANGE_CIPHER_SPEC,
            ):
                try:
                    ctype, seq, payload, used = records.parse_dtls_plaintext(data, offset)
                except DecodeError:
                    break
                offset += used
                if ctype == ContentType.ALERT:
                    self._peer_alert(now, payload)
                    continue
                if ctype == ContentType.CHANGE_CIPHER_SPEC:
                    continue
                if self.plain_window.seen(seq):
                    self.reliability.ack_now(now, (EPOCH_PLAIN, seq))
                    continue
                self.plain_window.add(seq)
                out.extend(self.reliability.receive(payload, (EPOCH_PLAIN, seq), now, self._dispatch_message))
            else:
                break  # unknown first byte: not a record, drop remainder
        out.extend(self.reliability.flush_acks(now, self._frame, self._current_write_epoch))
        return out

    def _handle_unified(self, parsed, now: int) -> list:
        epoch = self._match_epoch(parsed.epoch_low)
        if epoch is None or "read" not in self.epochs.get(epoch, {}):
            return []  # no keys for that epoch (e.g. rejected early data)
        if parsed.cid and self.cid_local and parsed.cid != self.cid_local:
            return []  # not our connection id
        keys = self.epochs[epoch]["read"]
        window = self.windows[epoch]
        try:
            self.counters.aead_open += 1
            seq, true_type, inner = records.open_dtls(self.params, keys, window, parsed)
        except ProtocolError:
            return []  # bad or replayed datagrams are dropped, never fatal
        self.auth_reads += 1
        return self._dispatch_record_payload(epoch, true_type, inner, now, rec_num=(epoch, seq))

    def _match_epoch(self, epoch_low: int):
        for epoch in self.epochs:
            if epoch != EPOCH_PLAIN and epoch % 4 == epoch_low:
                return epoch
        return None

    def _dispatch_record_payload(self, epoch, true_type, payload, now, rec_num) -> list:
        if true_type == ContentType.HANDSHAKE:
            if self.protocol == Protocol.TLS:
                return self._feed_handshake_stream(payload, now)
            return self.reliability.receive(payload, rec_num, now, self._dispatch_message)
        if true_type == ContentType.ACK and self.protocol == Protocol.DTLS:
            self.reliability.process_ack(messages.parse_ack(payload))
            return []
        if true_type == ContentType.ALERT:
            self._peer_alert(now, payload)
            return []
        if true_type == ContentType.APPLICATION_DATA:
            return self._handle_app_payload(epoch, payload, now)
        raise UnexpectedMessage(f"inner content type {true_type}")

    def _handle_app_payload(self, epoch: int, payload: bytes, now: int) -> list:
        if epoch == EPOCH_EARLY:
            if self.role != "server":
                raise UnexpectedMessage("early data sent to a client")
            if not self.early_accepted:
                return []  # rejected 0-RTT: deprotected and discarded
            self._event(now, EventKind.EARLY_DATA, bytes=len(payload), replay_uncertain=True)
            return []
        allowed = self.connected or (self.role == "server" and self.phase == Phase.WAIT_FINISHED)
        if not allowed:
            raise UnexpectedMessage("application data before the handshake allows it")
        self._event(now, EventKind.APP_DATA, bytes=len(payload))
        return []

    # --------------------------------------------------- handshake msg plumbing

    def _feed_handshake_stream(self, data: bytes, now: int) -> list:
        self._hs_buf += data
        out = []
        while len(self._hs_buf) >= 4 and self.phase != Phase.FAILED:
            total = 4 + int.from_bytes(self._hs_buf[1:4], "big")
            if len(self._hs_buf) < total:
                break
            raw = self._hs_buf[:total]
            self._hs_buf = self._hs_buf[total:]
            msg = messages.decode_handshake(raw)
            out.extend(self._dispatch_message(msg, raw, now))
        return out

    # ---------------------------------------------------------- timers

    def next_timeout(self):
        return None if self.reliability is None else self.reliability.next_timeout()

    def on_timeout(self, now: int) -> list:
        if self.phase == Phase.FAILED or self.reliability is None:
            return []
        self._now = now
        out = self.reliability.flush_acks(now, self._frame, self._current_write_epoch)
        try:
            return out + self.reliability.retransmit(now, self._frame)
        except HandshakeTimeout as exc:
            return out + self._fail(now, exc)

    # ---------------------------------------------------------- dispatch table

    def _dispatch_message(self, msg, raw: bytes, now: int) -> list:
        if self.role == "client":
            return self._client_message(msg, raw, now)
        return self._server_message(msg, raw, now)

    # -- client message handling ------------------------------------------------

    def _client_message(self, msg, raw: bytes, now: int) -> list:
        t = msg.MSG_TYPE
        if self.phase == Phase.WAIT_SH and t == HandshakeType.SERVER_HELLO:
            if self.reliability is not None:
                self.reliability.implicit_ack()
            if messages.is_hello_retry_request(msg):
                return self._client_handle_hrr(msg, raw, now)
            return self._client_handle_sh(msg, raw, now)
        if self.phase == Phase.WAIT_EE and t == HandshakeType.ENCRYPTED_EXTENSIONS:
            return self._client_handle_ee(msg, raw, now)
        if self.phase == Phase.WAIT_CERT_CR and t == HandshakeType.CERTIFICATE_REQUEST:
            self.client_cert_requested = True
            self.transcript.append(raw)
            self.phase = Phase.WAIT_CERT
            return []
        if self.phase in (Phase.WAIT_CERT_CR, Phase.WAIT_CERT) and t == HandshakeType.CERTIFICATE:
            return self._peer_certificate(msg, raw)
        if self.phase == Phase.WAIT_CV and t == HandshakeType.CERTIFICATE_VERIFY:
            return self._peer_certificate_verify(msg, raw)
        if self.phase == Phase.WAIT_FINISHED and t == HandshakeType.FINISHED:
            return self._client_handle_finished(msg, raw, now)
        if self.connected and t == HandshakeType.NEW_SESSION_TICKET:
            return self._client_handle_ticket(msg, now)
        raise UnexpectedMessage(f"{HandshakeType(t).name} in phase {self.phase.value}")

    def _client_handle_hrr(self, hrr, raw: bytes, now: int) -> list:
        if self.hrr_done:
            raise UnexpectedMessage("second HelloRetryRequest")
        self.hrr_done = True
        cookie_ext = messages.find_extension(hrr.extensions, ExtensionType.COOKIE)
        if cookie_ext is None:
            raise UnexpectedMessage("HelloRetryRequest without a cookie")
        cookie = messages.parse_cookie(cookie_ext.data)
        # transcript restart: ClientHello1 collapses into message_hash
        ch1 = self.transcript[0]
        digest = crypto.hash_data(self.params.hash_alg, ch1)
        self.transcript = [crypto.message_hash(digest), raw]
        self.ks = None
        self.epochs.pop(EPOCH_EARLY, None)  # 0-RTT does not survive an HRR
        if self.reliability is not None:
            self.reliability.end_flight()  # the retried ClientHello answers the HRR
        out = self._client_hello_flight(now, cookie=cookie)
        self._event(now, EventKind.FLIGHT_READY, flight="client_hello_retry")
        return out

    def _client_handle_sh(self, sh, raw: bytes, now: int) -> list:
        if sh.cipher_suite not in [int(s) for s in self.cfg.suites]:
            raise NoCommonSuite("server picked a suite we did not offer")
        psk_ext = messages.find_extension(sh.extensions, ExtensionType.PRE_SHARED_KEY)
        if sh.cipher_suite != int(self.suite):
            if psk_ext is not None:
                raise NoCommonSuite("PSK acceptance requires the PSK's suite")
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
                raise NoCommonGroup("server share for a group we did not offer")
            dh = self._shared(self.dh_priv, server_pub)
            self.dh_secret = dh
        elif self.cfg.mode in ECDHE_FAMILY:
            raise UnexpectedMessage("expected a key_share in ServerHello")

        cid_ext = messages.find_extension(sh.extensions, ExtensionType.CONNECTION_ID)
        if cid_ext is not None:
            self.cid_peer = messages.parse_connection_id(cid_ext.data) or None

        self.ks.advance_handshake(dh, self._th())
        self._install(EPOCH_HANDSHAKE, "read", self.ks.server_hs_traffic)
        self._install(EPOCH_HANDSHAKE, "write", self.ks.client_hs_traffic)
        self._tls_read_epoch = EPOCH_HANDSHAKE
        self.phase = Phase.WAIT_EE
        return []

    def _client_handle_ee(self, ee, raw: bytes, now: int) -> list:
        self.transcript.append(raw)
        accepted = messages.find_extension(ee.extensions, ExtensionType.EARLY_DATA) is not None
        if accepted and self.cfg.mode != AuthMode.ZERO_RTT:
            raise UnexpectedMessage("server accepted early data we never sent")
        self.early_accepted = accepted
        self.early_rejected = self.cfg.mode == AuthMode.ZERO_RTT and not accepted
        self.phase = Phase.WAIT_FINISHED if self.psk_in_use is not None else Phase.WAIT_CERT_CR
        return []

    def _client_handle_finished(self, fin, raw: bytes, now: int) -> list:
        self._peer_finished(fin, raw)
        self.ks.advance_master(self._th())
        self._install(EPOCH_APP, "read", self.ks.server_ap_traffic)
        out = self._fake_ccs()
        if self.early_accepted and self.protocol == Protocol.TLS:
            out += self._emit(messages.EndOfEarlyData(), EPOCH_EARLY)
        out += self._own_flight(with_cert=self.client_cert_requested)
        self._install(EPOCH_APP, "write", self.ks.client_ap_traffic)
        self.ks.derive_resumption(self._th())
        self._tls_read_epoch = EPOCH_APP
        if self.reliability is not None:
            self.reliability.end_flight()
        self.phase = Phase.CONNECTED
        self._event(now, EventKind.FLIGHT_READY, flight="client_second")
        self._event(now, EventKind.HANDSHAKE_COMPLETE)
        return out

    def _client_handle_ticket(self, nst, now: int) -> list:
        ext = messages.find_extension(nst.extensions, ExtensionType.EARLY_DATA)
        state = TicketState(
            ticket=nst.ticket,
            psk=self.ks.resumption_psk(nst.nonce),
            suite=self.suite,
            age_add=nst.age_add,
            received_at=now,
            lifetime_s=nst.lifetime,
            max_early_data=int.from_bytes(ext.data, "big") if ext else 0,
        )
        self.client_tickets.append(state)
        self._event(now, EventKind.TICKET, ticket=nst.ticket.hex())
        if self.reliability is not None:
            self.reliability.ack_now(now)  # no responding flight: explicit ACK
        return []

    # ---------------------------------------------------------------- server side

    def _server_message(self, msg, raw: bytes, now: int) -> list:
        t = msg.MSG_TYPE
        if t == HandshakeType.CLIENT_HELLO:
            if self.phase != Phase.START or self.protocol != Protocol.TLS:
                raise UnexpectedMessage("ClientHello at the wrong time")
            return self.server_handle_client_hello(msg, raw, now)
        if self.phase == Phase.WAIT_CERT_CR and t == HandshakeType.CERTIFICATE:
            if self.reliability is not None:
                self.reliability.implicit_ack()
            return self._peer_certificate(msg, raw)
        if self.phase == Phase.WAIT_CV and t == HandshakeType.CERTIFICATE_VERIFY:
            return self._peer_certificate_verify(msg, raw)
        if self.phase == Phase.WAIT_FINISHED and t == HandshakeType.END_OF_EARLY_DATA:
            if not (self.early_accepted and self.protocol == Protocol.TLS):
                raise UnexpectedMessage("EndOfEarlyData without accepted 0-RTT")
            self.transcript.append(raw)
            self._tls_read_epoch = EPOCH_HANDSHAKE
            return []
        if self.phase == Phase.WAIT_FINISHED and t == HandshakeType.FINISHED:
            return self._server_handle_finished(msg, raw, now)
        raise UnexpectedMessage(f"{HandshakeType(t).name} in phase {self.phase.value}")

    def server_handle_client_hello(self, ch, raw: bytes, now: int, retry_transcript=None, ch_rec_seq: int = 0) -> list:
        """Entered once the listener's cookie policy has been satisfied."""
        self._now = now
        if retry_transcript is not None:
            self.transcript = list(retry_transcript)
            self.plain_write_seq = 1  # the stateless HRR used record seq 0
            self.plain_window.add(0)
        if self.reliability is not None:
            self.reliability.after_client_hello(retried=retry_transcript is not None)
            self.plain_window.add(ch_rec_seq)
        self.transcript.append(raw)

        self.suite = SuiteId(
            _negotiate([int(s) for s in self.cfg.suites], ch.cipher_suites, NoCommonSuite, "cipher suite")
        )
        self.params = crypto.suite_params(self.suite)

        share = None
        share_ext = messages.find_extension(ch.extensions, ExtensionType.KEY_SHARE)
        if share_ext is not None:
            for group, pub in messages.parse_key_share_client(share_ext.data):
                if group in [int(g) for g in self.cfg.groups]:
                    share = (crypto.NamedGroup(group), pub)
                    break
            if share is None:
                raise NoCommonGroup("no offered key-share group is enabled here")

        psk = self._server_select_psk(ch, raw, now, fallback_possible=share is not None)
        mode = self._server_mode(psk, share)

        cid_ext = messages.find_extension(ch.extensions, ExtensionType.CONNECTION_ID)
        if cid_ext is not None:
            self.peer_offered_cid = True
            self.cid_peer = messages.parse_connection_id(cid_ext.data) or None

        dh = None
        key_share_entry = None
        if mode in ECDHE_FAMILY:
            group, client_pub = share
            priv, pub = self._keypair(group)
            dh = self._shared(priv, client_pub)
            self.dh_secret = dh
            key_share_entry = (int(group), pub)

        if psk is None:
            self._new_schedule()

        sh = messages.build_server_hello(
            self.rng.randbytes(32),
            ch.legacy_session_id,
            int(self.suite),
            key_share_entry=key_share_entry,
            selected_psk=0 if psk is not None else None,
            cid=self._advertised_cid() if self.peer_offered_cid else None,
        )
        out = self._emit(sh, EPOCH_PLAIN)
        self.ks.advance_handshake(dh, self._th())
        self._install(EPOCH_HANDSHAKE, "write", self.ks.server_hs_traffic)
        self._install(EPOCH_HANDSHAKE, "read", self.ks.client_hs_traffic)
        out += self._fake_ccs()
        ee_exts = [messages.ext_early_data()] if self.early_accepted else []
        out += self._emit(messages.EncryptedExtensions(ee_exts), EPOCH_HANDSHAKE)
        if mode == AuthMode.PK_MUTUAL:
            cr = messages.build_certificate_request([int(s) for s in self._scheme_list()])
            out += self._emit(cr, EPOCH_HANDSHAKE)
            self.client_cert_requested = True
        out += self._own_flight(with_cert=mode in PK_FAMILY)

        self.ks.advance_master(self._th())
        self._install(EPOCH_APP, "write", self.ks.server_ap_traffic)
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
        resumed = self.ticket_db.get(identity)
        try:
            if resumed is not None:
                if now - resumed["issued_at"] > resumed["lifetime_s"] * 1000:
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
        trunc = raw_ch[: len(raw_ch) - messages.psk_binders_trailer_len(self.params.hash_len)]
        th = crypto.transcript_hash(self.transcript[:-1] + [trunc], self.params.hash_alg)
        if not crypto.hmac_verify(
            self.params.hash_alg, self.ks.finished_key(self.ks.binder_key), th, binder
        ):
            raise BadBinder("psk binder mismatch")
        self.psk_in_use = PskCredential(identity, psk_secret)
        self.psk_kind_in_use = kind

        wants_early = messages.find_extension(ch.extensions, ExtensionType.EARLY_DATA) is not None
        if wants_early:
            fresh = True
            if resumed is not None:
                real_age = (obf_age - resumed["age_add"]) & 0xFFFFFFFF
                fresh = abs(real_age - (now - resumed["issued_at"])) <= TICKET_AGE_TOLERANCE_MS
            if fresh:
                self.early_accepted = True
                secret = self.ks.derive_early_traffic(self._th())
                self._install(EPOCH_EARLY, "read", secret)
        return self.psk_in_use

    def _server_mode(self, psk, share) -> AuthMode:
        if psk is not None:
            return AuthMode.PSK_ECDHE if share is not None else AuthMode.PSK
        if self.cfg.local_ec is None:
            raise NoCommonSuite("no PSK accepted and no certificate configured")
        if share is None:
            raise NoCommonGroup("certificate mode requires a client key share")
        return AuthMode.PK_MUTUAL if self.cfg.mutual else AuthMode.PK_SERVER_ONLY

    def _server_handle_finished(self, fin, raw: bytes, now: int) -> list:
        self._peer_finished(fin, raw)
        self._install(EPOCH_APP, "read", self.ks.client_ap_traffic)
        self.ks.derive_resumption(self._th())
        self._tls_read_epoch = EPOCH_APP
        self.phase = Phase.CONNECTED
        self._event(now, EventKind.HANDSHAKE_COMPLETE)
        out = []
        if self.reliability is not None:
            self.reliability.implicit_ack()
            out += self.reliability.end_flight(self._frame, self._current_write_epoch)
        if self.cfg.tickets:
            out.extend(self._issue_ticket(now))
        return out

    def _issue_ticket(self, now: int) -> list:
        nonce = self.ticket_nonce_counter.to_bytes(8, "big")
        self.ticket_nonce_counter += 1
        ticket_id = self.rng.randbytes(16)
        age_add = self.rng.getrandbits(32)
        psk = self.ks.resumption_psk(nonce)
        self.ticket_db[ticket_id] = {
            "psk": psk,
            "suite": self.suite,
            "issued_at": now,
            "age_add": age_add,
            "lifetime_s": TICKET_LIFETIME_S,
        }
        nst = messages.build_new_session_ticket(
            TICKET_LIFETIME_S, age_add, nonce, ticket_id, max_early_data=1 << 14
        )
        self._event(now, EventKind.TICKET, ticket=ticket_id.hex())
        return self._emit(nst, EPOCH_APP)

    # ----------------------------------------------------------------- app data

    def send_app_data(self, payload: bytes, now: int) -> list:
        self._now = now
        if not self.connected:
            raise NotReady("application data before the handshake allows it")
        return [OutRecord(self._frame(EPOCH_APP, ContentType.APPLICATION_DATA, payload)[1], "app_data")]


def resume_config(cfg: ConnConfig, ticket: TicketState) -> ConnConfig:
    """Client config for a resumed handshake using a stored ticket."""
    return replace(cfg, resume=ticket, psk=None, suites=(ticket.suite,))


class ServerListener:
    """Owns the accept path: cookie secret, ticket table, demux tables."""

    def __init__(self, cfg: ConnConfig, rng: random.Random):
        self.cfg = cfg
        self.rng = rng
        self.cookie_secret = rng.randbytes(32)
        self.ticket_db: dict = {}
        self.by_addr: dict = {}
        self.by_cid: dict = {}
        self._conn_counter = 0
        self._stateless_hrr_count = 0

    # -- cookie machinery ------------------------------------------------------

    def mint_cookie(self, address: str, ch_hash: bytes) -> bytes:
        # 0x00 + Hash(ClientHello1) + MAC(address || Hash(ClientHello1));
        # embedding the hash keeps the retry transcript reconstructible with
        # zero server-side state.
        mac = crypto.hmac_digest(
            crypto.HashAlg.SHA256, self.cookie_secret, address.encode() + ch_hash
        )
        return b"\x00" + ch_hash + mac

    def check_cookie(self, cookie: bytes, address: str, hash_len: int):
        """Returns the embedded Hash(ClientHello1) when valid, else None."""
        if len(cookie) != 1 + hash_len + 32 or cookie[0] != 0:
            return None
        ch_hash, mac = cookie[1 : 1 + hash_len], cookie[1 + hash_len :]
        ok = crypto.hmac_verify(
            crypto.HashAlg.SHA256, self.cookie_secret, address.encode() + ch_hash, mac
        )
        return ch_hash if ok else None

    @property
    def allocated(self) -> int:
        return self._conn_counter

    @property
    def stateless_hrr_count(self) -> int:
        return self._stateless_hrr_count

    def connections(self) -> list:
        seen = {}
        for conn in self.by_addr.values():
            seen[id(conn)] = conn
        return list(seen.values())

    # -- accept / demux -----------------------------------------------------------

    def receive(self, data: bytes, source: str, now: int) -> list:
        if self.cfg.protocol == Protocol.TLS:
            conn = self.by_addr.get(source)
            if conn is not None and conn.connected and data[:1] == bytes([ContentType.HANDSHAKE]):
                del self.by_addr[source]  # a fresh stream handshake starts over
                conn = None
            if conn is None:
                conn = self._fresh_connection(source)
            return conn.handle(data, now)
        if data and records.is_unified_header(data[0]) and (data[0] & 0x10):
            return self._route_by_cid(data, source, now)
        conn = self.by_addr.get(source)
        if conn is not None:
            if conn.connected and data and data[0] == ContentType.HANDSHAKE:
                # a plaintext flight from an established address starts over
                # (e.g. a resumption attempt); retire the old binding
                del self.by_addr[source]
                if conn.cid_local:
                    self.by_cid.pop(conn.cid_local, None)
                return self._accept_datagram(data, source, now)
            return conn.handle(data, now)
        return self._accept_datagram(data, source, now)

    def _route_by_cid(self, data: bytes, source: str, now: int) -> list:
        cid = bytes(data[1 : 1 + self.cfg.cid_len])
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
        self._conn_counter += 1
        conn = Connection(self.cfg, "server", self.rng, conn_id=f"S{self._conn_counter}")
        conn.ticket_db = self.ticket_db
        self.by_addr[source] = conn
        if self.cfg.cid_len:
            conn.cid_local = self.rng.randbytes(self.cfg.cid_len)
            self.by_cid[conn.cid_local] = conn
        return conn

    def _accept_datagram(self, data: bytes, source: str, now: int) -> list:
        """Datagram from an unknown address: DTLS cookie policy applies."""
        try:
            ctype, ch_rec_seq, payload, used = records.parse_dtls_plaintext(data, 0)
            if ctype != ContentType.HANDSHAKE:
                return []
            frag, _ = messages.parse_dtls_fragment(payload)
            if frag.msg_type != HandshakeType.CLIENT_HELLO or not frag.complete:
                return []
            raw = frag.to_tls_form()
            ch = messages.decode_handshake(raw)
        except ProtocolError:
            return []  # not a plausible first flight: silently dropped

        try:
            suite = crypto.suite_params(
                SuiteId(_negotiate([int(s) for s in self.cfg.suites], ch.cipher_suites, NoCommonSuite, "suite"))
            )
        except ProtocolError:
            return []

        retry_transcript = None
        if self.cfg.dos:
            cookie_ext = messages.find_extension(ch.extensions, ExtensionType.COOKIE)
            if cookie_ext is None:
                return [self._stateless_hrr(raw, ch, suite, source)]
            cookie = messages.parse_cookie(cookie_ext.data)
            ch1_hash = self.check_cookie(cookie, source, suite.hash_len)
            if ch1_hash is None:
                return []  # bad-cookie: silently dropped, nothing allocated
            hrr = messages.build_hello_retry_request(
                int(suite.suite), cookie, ch.legacy_session_id
            )
            retry_transcript = [crypto.message_hash(ch1_hash), messages.tls_form(hrr)]

        conn = self._fresh_connection(source)
        try:
            out = conn.server_handle_client_hello(
                ch, raw, now, retry_transcript=retry_transcript, ch_rec_seq=ch_rec_seq
            )
        except ProtocolError as exc:
            return conn._fail(now, exc)
        if used < len(data):
            out.extend(conn.handle(data[used:], now))  # e.g. 0-RTT in the same datagram
        return out

    def _stateless_hrr(self, raw_ch: bytes, ch, suite, source: str) -> OutRecord:
        ch_hash = crypto.hash_data(suite.hash_alg, raw_ch)
        cookie = self.mint_cookie(source, ch_hash)
        hrr = messages.build_hello_retry_request(int(suite.suite), cookie, ch.legacy_session_id)
        body = messages.tls_form(hrr)
        frag = messages.DtlsFragment(
            HandshakeType.SERVER_HELLO, len(body) - 4, 0, 0, len(body) - 4, body[4:]
        ).encode()
        record = records.encode_dtls_plaintext(ContentType.HANDSHAKE, 0, frag)
        self._stateless_hrr_count += 1
        return OutRecord(record, "hello_retry_request")
