"""``connection.negotiate``: each server rule on a ClientHello, one at a time, and
the one call each ClientHello gets on both accept paths; then each rule by which a
client builds its ClientHello, read from ``Connection.hello`` after ``start()``."""

import random

import pytest

from minitls import bench, connection, messages, records
from minitls.connection import TICKET_LIFETIME_S, Connection, TicketState, negotiate
from minitls.crypto import NamedGroup, Protocol, SuiteId
from minitls.errors import HandshakeFailure, MissingExtension, UnknownPskIdentity
from minitls.messages import ExtensionType, PskMode
from minitls.profiles import PSK_FAMILY, AuthMode, PskCredential, profile_names, resolve

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


# (client mode, the extensions taken out of its ClientHello)
MANDATORY_EXTENSION_RULES = {
    "no-psk-without-groups-or-schemes": (
        AuthMode.PK_SERVER_ONLY, [ExtensionType.SUPPORTED_GROUPS, ExtensionType.SIGNATURE_ALGORITHMS],
    ),
    "no-psk-without-supported_groups": (
        AuthMode.PK_SERVER_ONLY, [ExtensionType.SUPPORTED_GROUPS, ExtensionType.KEY_SHARE],
    ),
    "no-psk-without-signature_algorithms": (AuthMode.PK_SERVER_ONLY, [ExtensionType.SIGNATURE_ALGORITHMS]),
    "key_share-without-supported_groups": (AuthMode.PSK_ECDHE, [ExtensionType.SUPPORTED_GROUPS]),
    "supported_groups-without-key_share": (AuthMode.PSK_ECDHE, [ExtensionType.KEY_SHARE]),
}


@pytest.mark.parametrize("case", sorted(MANDATORY_EXTENSION_RULES))
def test_a_client_hello_without_a_mandatory_extension_is_refused(case):
    # RFC 8446 section 9.2: a ClientHello without pre_shared_key carries
    # supported_groups and signature_algorithms, and supported_groups comes
    # with key_share; a server aborts any other with missing_extension
    mode, removed = MANDATORY_EXTENSION_RULES[case]
    client_cfg, server_cfg = configs(mode)
    ch = first_client_hello(client_cfg)
    negotiate(server_cfg, {}, ch, 0)  # whole, it is accepted
    for ext_type in removed:
        del ch.extensions[ext_type]
    with pytest.raises(MissingExtension) as refused:
        negotiate(server_cfg, {}, ch, 0)
    assert refused.value.code == 109


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


# -- the client's ClientHello -----------------------------------------------------


def sent_hello(client_cfg, now=0):
    """The ClientHello a client with ``client_cfg`` records when it starts at ``now``."""
    client = Connection(client_cfg, "client", random.Random(92))
    client.start(now)
    return client.hello


def test_a_client_shares_a_key_for_its_first_group_only():
    groups = (NamedGroup.SECP521R1, NamedGroup.SECP256R1)
    client_cfg, _ = configs(AuthMode.PSK_ECDHE)
    hello = sent_hello(client_cfg._replace(groups=groups))
    [(group, _)] = messages.extension(hello, ExtensionType.KEY_SHARE, messages.read_key_share_client)
    assert group == groups[0]
    assert hello.extensions[ExtensionType.SUPPORTED_GROUPS] == messages.ext_supported_groups(groups)[1]


# (client mode, ticket or external PSK, the psk_key_exchange_modes it lists, the obfuscated age)
CLIENT_PSK_RULES = {
    "external-psk_ke": (AuthMode.PSK, None, PskMode.PSK_KE, 0),
    "external-psk_dhe_ke": (AuthMode.PSK_ECDHE, None, PskMode.PSK_DHE_KE, 0),
    # sent at 5,000 ms: (4,900 + 2^32 - 256) mod 2^32
    "ticket-psk_ke": (AuthMode.PSK, TICKET._replace(age_add=0xFFFFFF00, issued_at=100), PskMode.PSK_KE, 4_644),
}


@pytest.mark.parametrize("case", sorted(CLIENT_PSK_RULES))
def test_a_client_offers_its_psk_in_the_mode_its_groups_allow(case):
    # RFC 8446 sections 4.2.9 and 4.2.11.1: psk_dhe_ke iff it sends a key share, else
    # psk_ke; a ticket's age is the milliseconds since issue plus its age_add, mod 2^32,
    # and an external PSK's is 0
    mode, ticket, psk_mode, age = CLIENT_PSK_RULES[case]
    client_cfg, _ = configs(mode)
    if ticket is not None:
        client_cfg = client_cfg._replace(psk=ticket)
    hello = sent_hello(client_cfg, now=5_000)
    identity, obfuscated_age, binder = messages.extension(
        hello, ExtensionType.PRE_SHARED_KEY, messages.read_pre_shared_key_offer
    )
    modes = messages.extension(hello, ExtensionType.PSK_KEY_EXCHANGE_MODES, messages.read_psk_modes)
    assert (identity, obfuscated_age, list(modes)) == (client_cfg.psk.identity, age, [psk_mode])
    assert binder != bytes(len(binder))  # the recorded hello carries its computed binder


@pytest.mark.parametrize("protocol", [Protocol.TLS, Protocol.DTLS])
def test_every_bench_client_hello_is_accepted(protocol):
    # each profile's modes, and psk_ecdhe where it has groups, as bench builds them
    for name in profile_names():
        prof = resolve(name)
        modes = prof.modes | ({AuthMode.PSK_ECDHE} if prof.groups else set())
        for mode in sorted(modes):
            scenario = bench.Scenario(profile=name, protocol=protocol.value, mode=mode.value)
            _, client_cfg, server_cfg = bench.build_configs(scenario)
            decision = negotiate(server_cfg, {}, sent_hello(client_cfg), 0)
            assert (decision.psk is not None) == (mode in PSK_FAMILY), (name, mode)
