"""Every class in ``errors`` is wire, internal or local, and sends one code.

- wire: the peer reads ``code``, the RFC 8446 section 6 number of the alert it sends;
- internal: a fault of this side that can reach ``Connection._fail``, sent as
  ``internal_error`` (80);
- local: never passed to ``_fail``, so its inherited code 80 is never sent.

A new class shows up as an edit to one list.
"""

import pytest

from minitls import errors

# RFC 8446 section 6 AlertDescription, less the RESERVED values
RFC_8446_ALERTS = {
    "close_notify": 0,
    "unexpected_message": 10,
    "bad_record_mac": 20,
    "record_overflow": 22,
    "handshake_failure": 40,
    "bad_certificate": 42,
    "unsupported_certificate": 43,
    "certificate_revoked": 44,
    "certificate_expired": 45,
    "certificate_unknown": 46,
    "illegal_parameter": 47,
    "unknown_ca": 48,
    "access_denied": 49,
    "decode_error": 50,
    "decrypt_error": 51,
    "protocol_version": 70,
    "insufficient_security": 71,
    "internal_error": 80,
    "inappropriate_fallback": 86,
    "user_canceled": 90,
    "missing_extension": 109,
    "unsupported_extension": 110,
    "unrecognized_name": 112,
    "bad_certificate_status_response": 113,
    "unknown_psk_identity": 115,
    "certificate_required": 116,
    "no_application_protocol": 120,
}

# class -> the alert it sends
WIRE = {
    errors.UnexpectedMessage: "unexpected_message",
    errors.AuthenticationFailure: "bad_record_mac",
    errors.RecordOverflow: "record_overflow",
    errors.HandshakeFailure: "handshake_failure",
    errors.IllegalParameter: "illegal_parameter",
    errors.DecodeError: "decode_error",
    errors.DecryptError: "decrypt_error",
    errors.BadSignature: "decrypt_error",  # a CertificateVerify that fails (RFC 8446 section 4.4.3)
    errors.UnknownPskIdentity: "unknown_psk_identity",
    errors.CertificateRequired: "certificate_required",
    errors.ProtocolVersion: "protocol_version",
    errors.MissingExtension: "missing_extension",
    errors.UnsupportedExtension: "unsupported_extension",
}
INTERNAL = [
    errors.ProtocolError,
    errors.WrongStage,
    errors.LengthOverflow,
    errors.SequenceOverflow,
    errors.InconsistentDuplicate,
    errors.HandshakeTimeout,
]
LOCAL = [errors.ConfigError, errors.NotReady, errors.OversizedDatagram, errors.ReplayedRecord]


def error_classes() -> set:
    return {cls for cls in vars(errors).values() if isinstance(cls, type) and issubclass(cls, errors.ProtocolError)}


def test_each_class_is_wire_internal_or_local():
    listed = [*WIRE, *INTERNAL, *LOCAL]
    assert len(listed) == len(set(listed))
    assert set(listed) == error_classes()


@pytest.mark.parametrize("cls", list(WIRE), ids=lambda cls: cls.__name__)
def test_wire_class_sends_the_code_of_its_alert(cls):
    assert cls.code == RFC_8446_ALERTS[WIRE[cls]] != RFC_8446_ALERTS["internal_error"]
    # a classification string that names an RFC alert names the one sent
    assert cls.alert == WIRE[cls] or cls.alert not in RFC_8446_ALERTS


@pytest.mark.parametrize("cls", INTERNAL + LOCAL, ids=lambda cls: cls.__name__)
def test_internal_and_local_classes_keep_internal_error(cls):
    assert cls.code == RFC_8446_ALERTS["internal_error"]


def test_each_alert_string_names_one_code():
    codes: dict = {}
    for cls in error_classes():
        codes.setdefault(cls.alert, set()).add(cls.code)
    assert {alert: c for alert, c in codes.items() if len(c) != 1} == {}
    assert all(codes[alert] == {RFC_8446_ALERTS[alert]} for alert in codes if alert in RFC_8446_ALERTS)
