"""One mutated honest record never makes the receive path raise.

A send filter rewrites one record of an honest handshake: a bit flip, a
truncation, or up to 20 bytes of trailing junk.  The run must return, and
each side must end connected, failed with a named alert, or still waiting
because the mutated record was dropped silently.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from minitls import errors
from minitls.crypto import Protocol
from minitls.profiles import AuthMode

from .harness import Pair, filter_sends, make_configs

NAMED_ALERTS = {
    cls.alert
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.ProtocolError) and cls is not errors.ProtocolError
} - {"internal_error"} | {"peer_alert"}

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


@settings(max_examples=200, deadline=None, derandomize=True)
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
            rec.data = mutate(rec.data, mutation)
        sent[0] += 1
        return True

    filter_sends(pair.driver, mutate_one)
    pair.run()
    for conn in (pair.client, pair.server):
        if conn is not None and conn.failed:
            assert conn.failure in NAMED_ALERTS, conn.failure
