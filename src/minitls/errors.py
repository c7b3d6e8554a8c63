"""Exception hierarchy shared by all protocol modules.

Every failure mode that a peer or the bench harness needs to tell apart
gets its own class; the ``alert`` attribute is the short classification
string that ends up in event logs and alert records.
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


class InvalidPoint(ProtocolError):
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


class AllZeroInner(ProtocolError):
    """Protected record whose inner plaintext was entirely padding."""

    alert = "unexpected_message"


class BadOuterType(ProtocolError):
    alert = "decode_error"


class ReplayedRecord(ProtocolError):
    alert = "replayed_record"


class FragmentGap(ProtocolError):
    alert = "fragment_gap"


class InconsistentDuplicate(ProtocolError):
    """Two fragments claim the same range with different bytes."""

    alert = "fragment_mismatch"


class UnexpectedMessage(ProtocolError):
    alert = "unexpected_message"


class BadFinished(ProtocolError):
    alert = "decrypt_error"


class BadBinder(ProtocolError):
    alert = "decrypt_error"


class BadSignature(ProtocolError):
    alert = "bad_certificate_verify"


class NoCommonSuite(ProtocolError):
    alert = "handshake_failure"


class NoCommonGroup(ProtocolError):
    alert = "handshake_failure"


class HandshakeTimeout(ProtocolError):
    alert = "handshake_timeout"


class NotReady(ProtocolError):
    alert = "not_ready"


class UnknownTicket(ProtocolError):
    alert = "unknown_ticket"


class ExpiredTicket(ProtocolError):
    alert = "expired_ticket"


class UnknownProfile(ProtocolError):
    alert = "unknown_profile"


class IllegalOverride(ProtocolError):
    alert = "illegal_override"


class OversizedDatagram(ProtocolError):
    alert = "oversized_datagram"
