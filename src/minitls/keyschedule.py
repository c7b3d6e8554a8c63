"""The TLS/DTLS 1.3 secret tree: key derivation only.

One instance per connection.  Stages advance strictly
fresh -> early -> handshake -> master; reading a secret before its
stage raises WrongStage.  All transcript inputs are digests computed
by the caller, so the schedule itself stays byte-oriented and pure.
``traffic_keys`` returns a ``records.TrafficKeys``, which owns the
record sequence state of its epoch.
"""

from enum import Enum, IntEnum

from . import crypto
from .crypto import Protocol
from .errors import WrongStage
from .records import TrafficKeys


class KsStage(IntEnum):
    FRESH = 0
    EARLY = 1
    HANDSHAKE = 2
    MASTER = 3


class PskKind(str, Enum):
    EXTERNAL = "external"
    RESUMPTION = "resumption"


# SSLKEYLOGFILE labels (draft-ietf-tls-keylogfile) of the secrets the key
# log covers, by their name in the secret tree.
_KEYLOG_LABELS = {
    "c_early": "CLIENT_EARLY_TRAFFIC_SECRET",
    "c_hs": "CLIENT_HANDSHAKE_TRAFFIC_SECRET",
    "s_hs": "SERVER_HANDSHAKE_TRAFFIC_SECRET",
    "c_ap": "CLIENT_TRAFFIC_SECRET_0",
    "s_ap": "SERVER_TRAFFIC_SECRET_0",
    "exporter": "EXPORTER_SECRET",
}


class KeySchedule:
    def __init__(self, suite_id, protocol: Protocol, counters):
        self.params = crypto.suite_params(suite_id)
        self.protocol = protocol
        self.stage = KsStage.FRESH
        self.counters = counters
        self._keylog = None
        self._client_random = b""
        self._empty_digest = crypto.hash_data(self.params.hash_alg, b"")
        self._secrets: dict[str, bytes] = {}

    # -- plumbing -----------------------------------------------------------

    def _extract(self, salt: bytes, ikm: bytes) -> bytes:
        self.counters.hkdf_ops += 1
        return crypto.hkdf_extract(salt, ikm, self.params.hash_alg)

    def expand_label(self, secret: bytes, label: bytes, context: bytes, out_len: int) -> bytes:
        self.counters.hkdf_ops += 1
        return crypto.hkdf_expand_label(
            secret, label, context, out_len, self.params.hash_alg, self.protocol
        )

    def derive_secret(self, secret: bytes, label: bytes, transcript_digest: bytes) -> bytes:
        return self.expand_label(secret, label, transcript_digest, self.params.hash_len)

    def _store(self, name: str, secret: bytes) -> bytes:
        self._secrets[name] = secret
        if self._keylog is not None and name in _KEYLOG_LABELS:
            self._keylog(f"{_KEYLOG_LABELS[name]} {self._client_random.hex()} {secret.hex()}")
        return secret

    def set_keylog(self, writer, client_random: bytes) -> None:
        """Enable the debug keylog emitter (off by default)."""
        self._keylog = writer
        self._client_random = client_random

    def secret(self, name: str) -> bytes:
        """One secret of the tree by name: early, binder, c_early, handshake,
        c_hs, s_hs, master, c_ap, s_ap, exporter or res_master.  A secret is
        stored only once its stage derives it."""
        try:
            return self._secrets[name]
        except KeyError:
            raise WrongStage(f"{name} not available at stage {self.stage.name}") from None

    # -- stage transitions ----------------------------------------------------

    def init_early(self, psk: bytes | None = None, psk_kind: PskKind = PskKind.EXTERNAL):
        if self.stage != KsStage.FRESH:
            raise WrongStage("init_early on a non-fresh schedule")
        early = self._store("early", self._extract(b"", psk or bytes(self.params.hash_len)))
        label = b"ext binder" if psk_kind == PskKind.EXTERNAL else b"res binder"
        self._store("binder", self.derive_secret(early, label, self._empty_digest))
        self.stage = KsStage.EARLY
        return self

    def derive_early_traffic(self, th_client_hello: bytes) -> bytes:
        if self.stage != KsStage.EARLY:
            raise WrongStage("early traffic secret requires stage early")
        early = self._secrets["early"]
        return self._store("c_early", self.derive_secret(early, b"c e traffic", th_client_hello))

    def advance_handshake(self, dh_shared: bytes | None, th_through_server_hello: bytes):
        if self.stage != KsStage.EARLY:
            raise WrongStage("advance_handshake requires stage early")
        derived = self.derive_secret(self._secrets["early"], b"derived", self._empty_digest)
        hs = self._store("handshake", self._extract(derived, dh_shared or bytes(self.params.hash_len)))
        th = th_through_server_hello
        self._store("c_hs", self.derive_secret(hs, b"c hs traffic", th))
        self._store("s_hs", self.derive_secret(hs, b"s hs traffic", th))
        self.stage = KsStage.HANDSHAKE
        return self

    def advance_master(self, th_through_server_finished: bytes):
        if self.stage != KsStage.HANDSHAKE:
            raise WrongStage("advance_master requires stage handshake")
        derived = self.derive_secret(self._secrets["handshake"], b"derived", self._empty_digest)
        master = self._store("master", self._extract(derived, bytes(self.params.hash_len)))
        th = th_through_server_finished
        self._store("c_ap", self.derive_secret(master, b"c ap traffic", th))
        self._store("s_ap", self.derive_secret(master, b"s ap traffic", th))
        self._store("exporter", self.derive_secret(master, b"exp master", th))
        self.stage = KsStage.MASTER
        return self

    def derive_resumption(self, th_through_client_finished: bytes) -> bytes:
        if self.stage != KsStage.MASTER:
            raise WrongStage("resumption master requires stage master")
        master = self._secrets["master"]
        return self._store("res_master", self.derive_secret(master, b"res master", th_through_client_finished))

    # -- derived material -------------------------------------------------------

    def traffic_keys(self, secret: bytes) -> TrafficKeys:
        key = self.expand_label(secret, b"key", b"", self.params.key_len)
        iv = self.expand_label(secret, b"iv", b"", self.params.iv_len)
        sn_key = None
        if self.protocol == Protocol.DTLS:
            sn_key = self.expand_label(secret, b"sn", b"", self.params.key_len)
        return TrafficKeys(key, iv, sn_key)

    def finished_key(self, base_secret: bytes) -> bytes:
        return self.expand_label(base_secret, b"finished", b"", self.params.hash_len)

    def finished_mac(self, base_secret: bytes, th: bytes) -> bytes:
        return crypto.hmac_digest(self.params.hash_alg, self.finished_key(base_secret), th)

    def verify_finished(self, base_secret: bytes, th: bytes, mac: bytes) -> bool:
        return crypto.hmac_verify(self.params.hash_alg, self.finished_key(base_secret), th, mac)

    def compute_binder(self, th_truncated_hello: bytes) -> bytes:
        """The PSK binder over the hash of the transcript up to the binders
        list; both roles compute it here (RFC 8446 section 4.2.11.2)."""
        key = self.finished_key(self.secret("binder"))
        return crypto.hmac_digest(self.params.hash_alg, key, th_truncated_hello)

    def resumption_psk(self, ticket_nonce: bytes) -> bytes:
        base = self.secret("res_master")
        return self.expand_label(base, b"resumption", ticket_nonce, self.params.hash_len)
