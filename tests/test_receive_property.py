"""One mutated honest record or handshake message never makes the receive path raise.

A send filter rewrites one record of an honest handshake: a bit flip, a
truncation, or up to 20 bytes of trailing junk.  A second test rewrites one
byte of one plaintext handshake message before it is sealed, so the mutation
reaches the decoders instead of ending at ``bad_record_mac``.  The run must
return, and each side must end connected, failed with a named alert, or still
waiting because the mutated record was dropped silently.  A local class never
reaches ``Connection._fail``, so no side fails with its alert.

Each test draws its 200 examples from a pinned ``seed``, with no example
database, so an edit of a test body does not change which examples run.
"""

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from minitls.connection import EventKind
from minitls.crypto import Protocol
from minitls.profiles import AuthMode

from .harness import Pair, filter_sends, make_configs, tamper_on_wire
from .test_errors import LOCAL, error_classes

NAMED_ALERTS = {cls.alert for cls in error_classes() if cls not in LOCAL} - {"internal_error"} | {"peer_alert"}
ALERT_CODES = {cls.alert: cls.code for cls in error_classes()}

MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 4095), st.integers(0, 7)),
    st.tuples(st.just("truncate"), st.integers(0, 4095)),
    st.tuples(st.just("junk"), st.binary(min_size=1, max_size=20)),
)


def mutate(data: bytes, mutation) -> bytes:
    kind, *args = mutation
    if kind == "flip":
        pos, bit = args
        i = pos % len(data)
        return data[:i] + bytes([data[i] ^ (1 << bit)]) + data[i + 1 :]
    if kind == "truncate":
        return data[: args[0] % len(data)]
    return data + args[0]


@seed(4301)
@settings(max_examples=200, deadline=None, database=None)
@given(
    protocol=st.sampled_from([Protocol.TLS, Protocol.DTLS]),
    mode=st.sampled_from(
        [AuthMode.PSK, AuthMode.PSK_ECDHE, AuthMode.PK_SERVER_ONLY, AuthMode.PK_MUTUAL]
    ),
    victim=st.integers(0, 12),
    mutation=MUTATIONS,
)
def test_one_mutated_record_ends_connected_failed_or_waiting(protocol, mode, victim, mutation):
    client_cfg, server_cfg, _ = make_configs(protocol, mode, seed=5)
    pair = Pair(client_cfg, server_cfg, seed=5)
    sent = [0]

    def mutate_one(endpoint, rec, now):
        if sent[0] == victim:
            rec = rec._replace(data=mutate(rec.data, mutation))
        sent[0] += 1
        return rec

    filter_sends(pair.driver, mutate_one)
    pair.run()
    for conn in (pair.client, pair.server):
        if conn is not None and conn.failed:
            assert conn.failure in NAMED_ALERTS, conn.failure


# the handshake messages each side sends, by mode
SENT = {
    AuthMode.PSK: {"client": ["client_hello", "finished"], "server": ["server_hello", "encrypted_extensions", "finished"]},
    AuthMode.PK_MUTUAL: {
        "client": ["client_hello", "certificate", "certificate_verify", "finished"],
        "server": [
            "server_hello", "encrypted_extensions", "certificate_request", "certificate", "certificate_verify", "finished"
        ],
    },
}
SENT[AuthMode.PSK_ECDHE] = SENT[AuthMode.PSK]
VICTIMS = [(mode, sender, name) for mode, by_sender in SENT.items() for sender, names in by_sender.items() for name in names]


@seed(4302)
@settings(max_examples=200, deadline=None, database=None)
@given(
    protocol=st.sampled_from([Protocol.TLS, Protocol.DTLS]),
    victim=st.sampled_from(VICTIMS),
    pos=st.integers(0, 199),
    flip=st.booleans(),
)
def test_one_mutated_handshake_message_ends_in_the_alert_its_class_sends(protocol, victim, pos, flip):
    # one handshake message gets its low bit flipped, or 0xff written, at one of
    # its first 200 bytes, before it is fragmented or sealed
    mode, sender, target = victim
    client_cfg, server_cfg, _ = make_configs(protocol, mode, seed=6)
    mutated = []

    def mutate_one(name, raw):
        if name != target:
            return None
        i = pos % len(raw)
        mutated.append(i)
        return raw[:i] + bytes([raw[i] ^ 1 if flip else 0xFF]) + raw[i + 1 :]

    with pytest.MonkeyPatch.context() as mp:
        tamper_on_wire(mp, sender, mutate_one)
        pair = Pair(client_cfg, server_cfg, seed=6)
        pair.run()
    assert len(mutated) == 1
    sides = [pair.client, pair.server]
    for conn, peer in (sides, sides[::-1]):
        if conn is None or not conn.failed:
            continue
        assert conn.failure in NAMED_ALERTS, conn.failure
        if conn.failure != "peer_alert" and peer is not None and peer.failure == "peer_alert":
            read = next(e.detail["code"] for e in peer.event_log if e.kind == EventKind.ALERT)
            assert read == ALERT_CODES[conn.failure], (conn.failure, read)
