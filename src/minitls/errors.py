"""Exception hierarchy shared by all protocol modules.

One class per alert: two classes share an alert only where an ``except``
clause or a test tells them apart (``WrongStage``, ``BadOuterType``, and
``BadSignature``, whose wire code is ``DecryptError``'s).  The ``alert``
attribute is the short classification string that ends up in event logs;
``connection._ALERT_CODES`` maps it to the code of the alert record.
"""


class ProtocolError(Exception):
    alert = "internal_error"


class UnknownSuite(ProtocolError):
    alert = "unknown_suite"


class LengthOverflow(ProtocolError):
    alert = "length_overflow"


class AuthenticationFailure(ProtocolError):
    """AEAD tag or MAC mismatch; distinct from decode errors."""

    alert = "bad_record_mac"


class IllegalParameter(ProtocolError):
    """A field the peer chose outside what this side allows: an invalid curve
    point, a CertificateVerify scheme this side did not offer."""

    alert = "illegal_parameter"


class WrongStage(ProtocolError):
    """Key-schedule operation invoked out of stage order."""

    alert = "internal_error"


class SequenceOverflow(ProtocolError):
    alert = "sequence_overflow"


class DecodeError(ProtocolError):
    """Malformed wire bytes: truncated-message, length-mismatch, unknown-type."""

    alert = "decode_error"


class ConfigConflict(ProtocolError):
    alert = "config_conflict"


class RecordOverflow(ProtocolError):
    alert = "record_overflow"


class BadOuterType(ProtocolError):
    alert = "decode_error"


class ReplayedRecord(ProtocolError):
    alert = "replayed_record"


class InconsistentDuplicate(ProtocolError):
    """Two fragments claim the same range with different bytes."""

    alert = "fragment_mismatch"


class UnexpectedMessage(ProtocolError):
    alert = "unexpected_message"


class DecryptError(ProtocolError):
    """A Finished MAC or PSK binder that does not verify."""

    alert = "decrypt_error"


class BadSignature(ProtocolError):
    """A CertificateVerify signature that does not verify; sent as decrypt_error."""

    alert = "bad_certificate_verify"


class CertificateRequired(ProtocolError):
    """A client answered a CertificateRequest with an empty Certificate."""

    alert = "certificate_required"


class HandshakeFailure(ProtocolError):
    """No cipher suite, key-share group or authentication both sides accept."""

    alert = "handshake_failure"


class HandshakeTimeout(ProtocolError):
    alert = "handshake_timeout"


class NotReady(ProtocolError):
    alert = "not_ready"


class UnknownPskIdentity(ProtocolError):
    """An offered PSK identity that is neither the configured one nor a live ticket."""

    alert = "unknown_psk_identity"


class UnknownProfile(ProtocolError):
    alert = "unknown_profile"


class IllegalOverride(ProtocolError):
    alert = "illegal_override"


class OversizedDatagram(ProtocolError):
    alert = "oversized_datagram"
