"""Every handshake message outside ``Connection.TRANSITIONS`` gets its classified outcome.

For each role and protocol the test puts a fresh connection in each phase,
gives it read keys for every epoch, and feeds it one complete, in-order
message of each handshake type under each epoch for which the table has no
edge.  TLS fails with ``unexpected_message``, and so does DTLS under a
protected epoch.  DTLS drops a plaintext (epoch 0) record silently: before
reassembly when no phase takes the type in epoch 0, so its message_seq is
never taken, and after reassembly when only the phase is wrong.
"""

import random

import pytest

from minitls import messages, records
from minitls.connection import EPOCH_APP, EPOCH_PLAIN, Connection, Phase
from minitls.crypto import Protocol, SignatureScheme
from minitls.messages import HandshakeType
from minitls.profiles import AuthMode
from minitls.records import ContentType

from .harness import DEFAULT_SUITE, make_configs

SECRET = bytes(32)  # a traffic secret of the SHA-256 default suite
SCHEME = int(SignatureScheme.ECDSA_SECP256R1_SHA256)


def sample_messages() -> dict:
    """handshake type -> one well-formed message of that type, in TLS form."""
    built = [
        messages.ClientHello(
            random.Random(0).randbytes(32), b"", [int(DEFAULT_SUITE)], dict([messages.ext_supported_versions_client()])
        ),
        messages.ServerHello(bytes(32), b"", int(DEFAULT_SUITE), dict([messages.ext_supported_versions_server()])),
        messages.NewSessionTicket(7200, 0, bytes(8), bytes(16)),
        messages.EndOfEarlyData(),
        messages.EncryptedExtensions({}),
        messages.Certificate(b"", [(bytes(8), b"")]),
        messages.CertificateRequest(b"", dict([messages.ext_signature_algorithms([SCHEME])])),
        messages.CertificateVerify(SCHEME, bytes(8)),
        messages.Finished(bytes(32)),
    ]
    sample = {msg.MSG_TYPE: messages.tls_form(msg) for msg in built}
    sample[HandshakeType.MESSAGE_HASH] = bytes([HandshakeType.MESSAGE_HASH, 0, 0, 32]) + bytes(32)
    return sample


def outside_table(role: str) -> list:
    """(phase, type, epoch) for which ``role``'s table has no edge."""
    table = Connection.TRANSITIONS[role]
    return [
        (phase, msg_type, epoch)
        for phase in Phase
        if phase != Phase.FAILED  # a failed connection reads nothing
        for msg_type in HandshakeType
        for epoch in range(EPOCH_APP + 1)
        if (phase, msg_type) not in table or table[(phase, msg_type)].epoch != epoch
    ]


def feed(cfg, role: str, phase: Phase, epoch: int, raw: bytes):
    """A fresh ``role`` connection in ``phase`` and its output for one record
    carrying ``raw`` (DTLS: msg_seq 0, record seq 0) under ``epoch``."""
    conn = Connection(cfg, role, random.Random(0))
    conn.phase = phase
    conn._new_schedule()
    for protected in range(EPOCH_PLAIN + 1, EPOCH_APP + 1):
        conn._install(protected, "read", SECRET)
    keys = conn.ks.traffic_keys(SECRET)
    if cfg.protocol == Protocol.TLS:
        conn._tls_read_epoch = epoch
        if epoch == EPOCH_PLAIN:
            record = records.encode_tls_plaintext(ContentType.HANDSHAKE, raw)
        else:
            record = records.seal_tls(conn.params, keys, ContentType.HANDSHAKE, raw)
    else:
        frag = messages.DtlsFragment(raw[0], len(raw) - 4, 0, 0, raw[4:]).encode()
        if epoch == EPOCH_PLAIN:
            record = records.encode_dtls_plaintext(ContentType.HANDSHAKE, 0, frag)
        else:
            record = records.seal_dtls(conn.params, keys, epoch, ContentType.HANDSHAKE, frag)
    return conn, conn.handle(record, 0)


def test_sample_covers_every_handshake_type():
    assert set(sample_messages()) == set(HandshakeType)


@pytest.mark.parametrize("protocol", [Protocol.TLS, Protocol.DTLS], ids=["tls", "dtls"])
@pytest.mark.parametrize("role", ["client", "server"])
def test_message_outside_table_is_classified(role, protocol):
    client_cfg, server_cfg, _ = make_configs(protocol, AuthMode.PSK)
    cfg = client_cfg if role == "client" else server_cfg
    sample = sample_messages()
    combos = outside_table(role)
    wrong = []
    for phase, msg_type, epoch in combos:
        conn, out = feed(cfg, role, phase, epoch, sample[msg_type])
        if protocol == Protocol.DTLS and epoch == EPOCH_PLAIN:
            before_reassembly = msg_type not in Connection.ACCEPTS[role][EPOCH_PLAIN]
            reassembled = conn.reliability.next_recv_msg_seq == 1
            ok = not conn.failed and out == [] and reassembled != before_reassembly
        else:
            ok = conn.failure == "unexpected_message"
        if not ok:
            wrong.append((phase.value, msg_type.name, epoch, conn.failure))
    assert len(combos) > 250
    assert wrong == []
