"""``connection.negotiate``: each server rule on a ClientHello, one at a time, and
the one call each ClientHello gets on both accept paths."""

import random

import pytest

from minitls import connection, messages, records
from minitls.connection import TICKET_LIFETIME_S, Connection, TicketState, negotiate
from minitls.crypto import NamedGroup, Protocol, SuiteId
from minitls.errors import HandshakeFailure, UnknownPskIdentity
from minitls.messages import ExtensionType, PskMode
from minitls.profiles import AuthMode, PskCredential

from .harness import Pair, make_configs

SHA256_SUITE, SHA384_SUITE = SuiteId.AES_128_CCM_SHA256, SuiteId.AES_256_CCM_SHA384


def configs(mode, **both):
    """TLS client and server configs for ``mode`` (see ``make_configs``)."""
    client_cfg, server_cfg, _ = make_configs(Protocol.TLS, mode, seed=90, **both)
    return client_cfg, server_cfg


def first_client_hello(client_cfg, modes=None):
    """The decoded ClientHello a client with ``client_cfg`` sends first; ``modes``
    replaces its psk_key_exchange_modes list."""
    client = Connection(client_cfg, "client", random.Random(90))
    ch = messages.decode_handshake(client.start(0)[0].data[records.TLS_RECORD_HEADER_LEN :])
    if modes is not None:
        assert ExtensionType.PSK_KEY_EXCHANGE_MODES in ch.extensions
        ch.extensions.update([messages.ext_psk_modes(modes)])  # in its place: pre_shared_key stays last
    return ch


@pytest.mark.parametrize("server_suites", [(SHA256_SUITE, SHA384_SUITE), (SHA384_SUITE, SHA256_SUITE)])
def test_the_server_preference_picks_the_suite(server_suites):
    client_cfg, server_cfg = configs(AuthMode.PK_SERVER_ONLY)
    ch = first_client_hello(client_cfg._replace(suites=(SHA256_SUITE, SHA384_SUITE)))
    decision = negotiate(server_cfg._replace(suites=server_suites), {}, ch, 0)
    assert decision.suite == server_suites[0] and decision.psk is None
    assert decision.share[0] == NamedGroup.SECP256R1


def test_an_accepted_psk_takes_a_suite_of_its_binder_hash():
    # the client keys its binder with its first suite's hash, SHA-256, and the
    # server prefers its SHA-384 suite (RFC 8446 section 4.2.11)
    client_cfg, server_cfg = configs(AuthMode.PSK)
    ch = first_client_hello(client_cfg._replace(suites=(SHA256_SUITE, SHA384_SUITE)))
    decision = negotiate(server_cfg._replace(suites=(SHA384_SUITE, SHA256_SUITE)), {}, ch, 0)
    assert (decision.suite, decision.psk) == (SHA256_SUITE, server_cfg.psk)
    assert len(decision.binder) == 32
    # with no shared suite of that hash the PSK goes unused, and a PSK-only hello has no fallback
    with pytest.raises(HandshakeFailure, match="no PSK accepted"):
        negotiate(server_cfg._replace(suites=(SHA384_SUITE,)), {}, ch, 0)


# (client mode, the psk_key_exchange_modes it lists, the PSK is used, the client share is used)
PSK_MODE_RULES = {
    "psk_ke-drops-the-key-share": (AuthMode.PSK_ECDHE, [PskMode.PSK_KE], True, False),
    "psk_dhe_ke-keeps-the-key-share": (AuthMode.PSK_ECDHE, [PskMode.PSK_DHE_KE], True, True),
    "psk_dhe_ke-without-a-key-share": (AuthMode.PSK, [PskMode.PSK_DHE_KE], False, False),
    "no-known-mode": (AuthMode.PSK_ECDHE, [7], False, True),
}


@pytest.mark.parametrize("case", sorted(PSK_MODE_RULES))
def test_a_psk_is_used_only_in_a_listed_mode_that_fits(case):
    # RFC 8446 section 4.2.9
    mode, modes, with_psk, with_share = PSK_MODE_RULES[case]
    client_cfg, server_cfg = configs(mode)
    ch = first_client_hello(client_cfg, modes)
    if not with_psk and not with_share:
        with pytest.raises(HandshakeFailure, match="no PSK accepted"):
            negotiate(server_cfg, {}, ch, 0)
        return
    decision = negotiate(server_cfg, {}, ch, 0)
    assert (decision.psk is not None, decision.share is not None) == (with_psk, with_share)


def test_no_shared_key_share_group_is_refused():
    client_cfg, server_cfg = configs(AuthMode.PK_SERVER_ONLY)
    with pytest.raises(HandshakeFailure, match="key-share group"):
        negotiate(server_cfg._replace(groups=(NamedGroup.SECP521R1,)), {}, first_client_hello(client_cfg), 0)


TICKET = TicketState(b"ticket-identity!", bytes(32), SHA256_SUITE, age_add=0, issued_at=0)
EXPIRED_AT = TICKET_LIFETIME_S * 1000 + 1


@pytest.mark.parametrize("mode", [AuthMode.PSK, AuthMode.PSK_ECDHE])
def test_a_live_ticket_is_used_and_an_expired_one_dropped(mode):
    client_cfg, server_cfg = configs(mode)
    ch = first_client_hello(client_cfg._replace(psk=TICKET))
    ticket_db = {TICKET.identity: TICKET}
    assert negotiate(server_cfg, ticket_db, ch, EXPIRED_AT - 1).psk == TICKET
    if mode == AuthMode.PSK_ECDHE:  # the client's key share and the server's certificate
        decision = negotiate(server_cfg, ticket_db, ch, EXPIRED_AT)
        assert decision.psk is None and decision.share is not None
    else:
        with pytest.raises(UnknownPskIdentity):
            negotiate(server_cfg, ticket_db, ch, EXPIRED_AT)
    assert ticket_db == {}


@pytest.mark.parametrize("certificate", [True, False], ids=["certificate", "no_certificate"])
@pytest.mark.parametrize("mode", [AuthMode.PSK, AuthMode.PSK_ECDHE])
def test_an_unknown_identity_falls_back_to_a_certificate_or_is_refused(mode, certificate):
    # RFC 8446 section 6.2; the fallback needs the client's key share too
    client_cfg, server_cfg = configs(mode)
    ch = first_client_hello(client_cfg._replace(psk=PskCredential(b"unknown", bytes(32))))
    server_cfg = server_cfg._replace(local_ec=server_cfg.local_ec if certificate else None)
    if certificate and mode == AuthMode.PSK_ECDHE:
        decision = negotiate(server_cfg, {}, ch, 0)
        assert decision.psk is None and decision.share is not None
    else:
        with pytest.raises(UnknownPskIdentity):
            negotiate(server_cfg, {}, ch, 0)


@pytest.mark.parametrize(
    "protocol,dos,calls", [(Protocol.TLS, False, 1), (Protocol.DTLS, False, 1), (Protocol.DTLS, True, 2)],
    ids=["tls", "dtls", "dtls-dos"],
)
def test_each_client_hello_is_negotiated_once(protocol, dos, calls, monkeypatch):
    # with dos on, the listener negotiates ClientHello1 and the connection the retry
    negotiated = []
    decide = connection.negotiate

    def counting(cfg, ticket_db, ch, now):
        negotiated.append(ExtensionType.COOKIE in ch.extensions)
        return decide(cfg, ticket_db, ch, now)

    monkeypatch.setattr(connection, "negotiate", counting)
    client_cfg, server_cfg, _ = make_configs(protocol, AuthMode.PSK_ECDHE, seed=91)
    pair = Pair(client_cfg, server_cfg._replace(dos=dos), seed=91)
    pair.run()
    pair.assert_complete()
    assert negotiated == [False, True][:calls]
