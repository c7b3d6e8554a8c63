"""Shared test scaffolding: client/server pairs and vector files."""

import pathlib
import random
from dataclasses import replace

from minitls import ec
from minitls.bench import Driver
from minitls.connection import ConnConfig, Connection, ServerListener
from minitls.crypto import NamedGroup, Protocol, SuiteId
from minitls.messages import HandshakeType
from minitls.profiles import AuthMode, EcCredential, make_deployment
from minitls.records import ContentType
from minitls.reliability import DtlsReliability
from minitls.simnet import DatagramLink, NetConfig, StreamLink

DEFAULT_SUITE = SuiteId.AES_128_CCM_SHA256
VECTOR_DIR = pathlib.Path(__file__).parent / "vectors"


def load_hex_vectors(path) -> list:
    """Parse a vector file: one record per line, whitespace-separated hex
    fields, ``-`` for an empty field, ``#`` starts a comment."""
    records = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            records.append([bytes.fromhex(f) if f != "-" else b"" for f in line.split()])
    return records


def public_half(cred: EcCredential) -> EcCredential:
    return replace(cred, private=None)


def make_configs(
    protocol: Protocol,
    mode: AuthMode,
    *,
    seed: int = 0,
    suite: SuiteId = DEFAULT_SUITE,
    group: NamedGroup = NamedGroup.SECP256R1,
    cert_size: int = 500,
    mutual: bool | None = None,
    **both,
):
    deployment = make_deployment(seed, [group], cert_size)
    ec_modes = (AuthMode.PK_MUTUAL, AuthMode.PK_SERVER_ONLY, AuthMode.PSK_ECDHE)
    psk_modes = (AuthMode.PSK, AuthMode.PSK_ECDHE, AuthMode.ZERO_RTT)
    if mutual is None:
        mutual = mode == AuthMode.PK_MUTUAL
    common = dict(
        protocol=protocol,
        mode=mode,
        suites=(suite,),
        groups=(group,) if mode in ec_modes else (),
        **both,
    )
    client = ConnConfig(
        psk=deployment["psk"] if mode in psk_modes else None,
        local_ec=deployment["client_ec"][group] if mutual else None,
        peer_ec=public_half(deployment["server_ec"][group]),
        sni="iot.example" if mode in (AuthMode.PK_MUTUAL, AuthMode.PK_SERVER_ONLY) else None,
        **common,
    )
    server = ConnConfig(
        psk=deployment["psk"] if mode in psk_modes else None,
        local_ec=deployment["server_ec"][group],
        peer_ec=public_half(deployment["client_ec"][group]) if mutual else None,
        **common,
    )
    return client, server, deployment


class Pair:
    def __init__(
        self,
        client_cfg: ConnConfig,
        server_cfg: ConnConfig,
        *,
        net: NetConfig | None = None,
        seed: int = 0,
    ):
        net = net or NetConfig(latency_ms=10, seed=seed)
        self.net = net
        link_cls = DatagramLink if client_cfg.protocol == Protocol.DTLS else StreamLink
        self.link = link_cls(net)
        self.client = Connection(client_cfg, "client", random.Random(f"c{seed}"), conn_id="C")
        self.listener = ServerListener(server_cfg, random.Random(f"s{seed}"))
        self.driver = Driver(self.client, self.listener, self.link)

    def run(self, until_ms: int = 60_000) -> int:
        return self.driver.run(until_ms)

    @property
    def server(self):
        conns = self.listener.connections()
        return conns[0] if conns else None

    def assert_complete(self):
        assert self.client.connected, f"client: {self.client.phase} ({self.client.failure})"
        server = self.server
        assert server is not None and server.connected, (
            f"server: {server and server.phase} ({server and server.failure})"
        )
        return server


def run_handshake(protocol, mode, *, seed=0, net=None, client_over=None, server_over=None, **kw):
    client_cfg, server_cfg, deployment = make_configs(protocol, mode, seed=seed, **kw)
    if client_over:
        client_cfg = replace(client_cfg, **client_over)
    if server_over:
        server_cfg = replace(server_cfg, **server_over)
    pair = Pair(client_cfg, server_cfg, net=net, seed=seed)
    pair.run()
    return pair


def secrets_of(conn):
    return {name: conn.ks.secret(name) for name in ("c_hs", "s_hs", "c_ap", "s_ap", "exporter", "res_master")}


def transcript_types(conn):
    return [raw[0] for raw in conn.transcript.messages]


def tamper_on_wire(monkeypatch, role: str, tamper) -> None:
    """Change the handshake messages that ``role`` ("client" or "server") sends
    on the wire: ``tamper(name, tls_form)`` returns the TLS form to send in
    place of each one, or None to send it unchanged.  The sender's transcript
    still holds the message it built.

    Patches ``Connection._frame`` (TLS: one handshake message per record) and
    ``DtlsReliability.send`` (DTLS: the whole message body before it is
    fragmented, so a split message is tampered too) by name; a rename of
    either must be made here as well."""
    frame, send = Connection._frame, DtlsReliability.send

    def tampered_frame(self, epoch, true_type, payload):
        if self.role == role and self.protocol == Protocol.TLS and true_type == ContentType.HANDSHAKE:
            payload = tamper(HandshakeType(payload[0]).name.lower(), payload) or payload
        return frame(self, epoch, true_type, payload)

    def tampered_send(self, frame_cb, msg_type, body, name, epoch, budget, now):
        if frame_cb.__self__.role == role:
            raw = bytes([msg_type]) + len(body).to_bytes(3, "big") + body
            raw = tamper(name, raw) or raw
            msg_type, body = raw[0], raw[4:]
        return send(self, frame_cb, msg_type, body, name, epoch, budget, now)

    monkeypatch.setattr(Connection, "_frame", tampered_frame)
    monkeypatch.setattr(DtlsReliability, "send", tampered_send)


def filter_sends(driver: Driver, keep) -> None:
    """Wrap ``driver.send`` on this one driver: ``keep(endpoint, OutRecord, now)``
    sees every record before it is packed into a datagram, may rewrite its
    ``data``, and drops it by returning False."""
    send = driver.send
    driver.send = lambda endpoint, outs, now: send(endpoint, [r for r in outs if keep(endpoint, r, now)], now)


def count_backend_keys(monkeypatch) -> list:
    """Empty the ``ec.verify`` memo and record the point of every OpenSSL public
    key built from here on: one per signature verified in the backend and one
    per ECDH."""
    ec.verify.cache_clear()
    built = []
    backend_public = ec._backend_public

    def counting(group, point):
        built.append(point)
        return backend_public(group, point)

    monkeypatch.setattr(ec, "_backend_public", counting)
    return built
