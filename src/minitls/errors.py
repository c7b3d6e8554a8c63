"""Exception hierarchy shared by all protocol modules.

Each class carries the alert it stands for twice: ``alert``, the short
classification string that ends up in event logs and reports, and ``code``,
the byte ``Connection._fail`` sends in the alert record (RFC 8446 section 6).
Every class is one of three kinds:

- wire: the peer can see it, and ``code`` is the RFC 8446 section 6 number of
  its alert;
- internal: a fault of this side that can reach ``_fail``, sent as
  ``internal_error`` (80), the ``ProtocolError`` default;
- local: never passed to ``_fail`` (configuration, an API misuse, the link's
  errors, a DTLS record dropped as a replay).

One class per alert: two classes share an alert only where an ``except``
clause or a test tells them apart (``WrongStage``, and ``BadSignature``,
which is sent as ``decrypt_error``).
"""


class ProtocolError(Exception):
    alert = "internal_error"
    code = 80


class ConfigError(ProtocolError):
    """A scenario, profile, override or setting this package refuses (``bench`` exit code 4)."""

    alert = "config_error"


class LengthOverflow(ProtocolError):
    alert = "length_overflow"


class AuthenticationFailure(ProtocolError):
    """AEAD tag or MAC mismatch; distinct from decode errors."""

    alert = "bad_record_mac"
    code = 20


class IllegalParameter(ProtocolError):
    """A field the peer chose outside what this side allows: an invalid curve
    point, a CertificateVerify scheme this side did not offer."""

    alert = "illegal_parameter"
    code = 47


class WrongStage(ProtocolError):
    """Key-schedule operation invoked out of stage order."""

    alert = "internal_error"


class SequenceOverflow(ProtocolError):
    alert = "sequence_overflow"


class DecodeError(ProtocolError):
    """Malformed wire bytes: truncated-message, length-mismatch, unknown-type,
    an outer content type no record of this protocol carries."""

    alert = "decode_error"
    code = 50


class RecordOverflow(ProtocolError):
    alert = "record_overflow"
    code = 22


class ReplayedRecord(ProtocolError):
    alert = "replayed_record"


class InconsistentDuplicate(ProtocolError):
    """Two fragments claim the same range with different bytes."""

    alert = "fragment_mismatch"


class UnexpectedMessage(ProtocolError):
    alert = "unexpected_message"
    code = 10


class DecryptError(ProtocolError):
    """A Finished MAC or PSK binder that does not verify."""

    alert = "decrypt_error"
    code = 51


class BadSignature(ProtocolError):
    """A CertificateVerify signature that does not verify; sent as decrypt_error
    (RFC 8446 section 4.4.3)."""

    alert = "bad_certificate_verify"
    code = 51


class CertificateRequired(ProtocolError):
    """A client answered a CertificateRequest with an empty Certificate."""

    alert = "certificate_required"
    code = 116


class HandshakeFailure(ProtocolError):
    """No cipher suite, key-share group or authentication both sides accept."""

    alert = "handshake_failure"
    code = 40


class ProtocolVersion(ProtocolError):
    """A hello that offers or selects no version this side speaks (RFC 8446 section 4.2.1)."""

    alert = "protocol_version"
    code = 70


class MissingExtension(ProtocolError):
    """A pre_shared_key offer without psk_key_exchange_modes (RFC 8446 section 4.2.9)."""

    alert = "missing_extension"
    code = 109


class UnsupportedExtension(ProtocolError):
    """An extension response to no request of this side's (RFC 8446 section 4.2)."""

    alert = "unsupported_extension"
    code = 110


class HandshakeTimeout(ProtocolError):
    alert = "handshake_timeout"


class NotReady(ProtocolError):
    alert = "not_ready"


class UnknownPskIdentity(ProtocolError):
    """An offered PSK identity that is neither the configured one nor a live ticket."""

    alert = "unknown_psk_identity"
    code = 115


class OversizedDatagram(ProtocolError):
    alert = "oversized_datagram"
