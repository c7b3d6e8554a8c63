"""Scenario runner and report generation.

Executes a client/server pair over the simulated network, accounts
every wire byte per message, models the equivalent 1.2 handshake, and
renders text/CSV/JSON comparisons including the published reference
totals the implementation is benchmarked against.
"""

import dataclasses
import io
import json
import random
from dataclasses import dataclass, field

from . import legacy12
from .connection import (
    ConnConfig,
    Connection,
    EventKind,
    OpCounters,
    ServerListener,
    resume_config,
)
from .crypto import NamedGroup, Protocol, SuiteId, suite_params
from .errors import IllegalOverride, UnknownSuite
from .profiles import (
    ECDHE_FAMILY,
    PK_FAMILY,
    PSK_FAMILY,
    AuthMode,
    EcCredential,
    make_deployment,
    resolve,
)
from .simnet import CLIENT, SERVER, DatagramLink, NetConfig, StreamLink, checked_from_dict

MAX_SIM_MS = 300_000  # outlasts the full 8-step retransmission backoff ladder

# Published bytes-over-the-air totals used as the comparison baseline:
# (label, protocol, mode family, suite, 1.2 bytes, 1.3 bytes).
REFERENCE_TABLE = [
    ("TLS PSK AES-128-CCM", "tls", "psk", SuiteId.AES_128_CCM_SHA256, 337, 380),
    ("TLS ECDHE-ECDSA AES-128-CCM", "tls", "pk", SuiteId.AES_128_CCM_SHA256, 1308, 1371),
    ("TLS ECDHE-ECDSA AES-256-CCM", "tls", "pk", SuiteId.AES_256_CCM_SHA384, 1454, 1415),
    ("DTLS PSK AES-128-CCM", "dtls", "psk", SuiteId.AES_128_CCM_SHA256, 627, 467),
    ("DTLS ECDHE-ECDSA AES-128-CCM", "dtls", "pk", SuiteId.AES_128_CCM_SHA256, 1726, 1500),
    ("DTLS ECDHE-ECDSA AES-256-CCM", "dtls", "pk", SuiteId.AES_256_CCM_SHA384, 1879, 1542),
]

CSV_HEADER = "scenario,protocol,mode,suite,bytes_c2s,bytes_s2c,total,datagrams,retrans,paper_ref,deviation_pct"


@dataclass
class Scenario:
    profile: str = "psk128"
    protocol: str = "dtls"
    mode: str = "psk"
    suite: int | None = None
    net: NetConfig = field(default_factory=NetConfig)
    overrides: dict = field(default_factory=dict)
    app_payload: int = 0  # bytes each way after the handshake (0 = handshake only)
    early_payload: int = 16  # 0-RTT first-flight bytes (zero_rtt mode only)
    cid: int | None = None
    packing: bool = False
    pad_len: int = 0
    compare_paper: bool = False
    dos: bool = False
    resume: bool = False  # run a ticket handshake first, then resume

    def key(self) -> str:
        return f"{self.profile}-{self.protocol}-{self.mode}-s{self.net.seed}"

    @classmethod
    def from_dict(cls, d: dict):
        if isinstance(d, dict) and isinstance(d.get("net"), dict):
            d = dict(d, net=NetConfig.from_dict(d["net"]))
        return checked_from_dict(cls, d)


@dataclass
class Report:
    scenario: Scenario
    ok: bool
    failure: str | None
    failed_phase: str | None
    flights: int
    wire: dict
    per_message: list
    counters_client: dict
    counters_server: dict
    events: list
    rtt_to_first_appdata_ms: int | None
    legacy12_total: int
    suite: int
    finished_at_ms: int

    def total(self) -> int:
        return self.wire["bytes_c2s"] + self.wire["bytes_s2c"]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


class Driver:
    """Event loop shuttling records between one client and one listener."""

    def __init__(self, client: Connection, listener: ServerListener, link):
        self.client = client
        self.listener = listener
        self.link = link
        # only DTLS packs records into datagrams; a TLS stream sends each record
        self.packing = client.cfg.packing and client.protocol == Protocol.DTLS
        self.mtu = link.config.mtu
        # one row per datagram sent: (direction, size, ((name, size, retransmit), ...),
        # copies the link queued, any record retransmitted); wire and per_message fold it
        self.ledger: list = []
        self.app_payload = b""
        self._app_sent = False

    def send(self, endpoint: str, outs, now: int) -> None:
        """Pack ``outs`` into datagrams (one record each unless packing) and book each."""
        records, data, retransmit = (), b"", False
        for rec in outs:
            size = len(rec.data)
            if records and (not self.packing or len(data) + size > self.mtu):
                self._book(endpoint, records, data, retransmit, now)
                records, data, retransmit = (), b"", False
            records += ((rec.name, size, rec.retransmit),)
            data += rec.data
            retransmit = retransmit or rec.retransmit
        if records:
            self._book(endpoint, records, data, retransmit, now)

    def _book(self, endpoint: str, records: tuple, data: bytes, retransmit: bool, now: int) -> None:
        copies = self.link.send(endpoint, data, now)
        direction = "c2s" if endpoint == CLIENT else "s2c"
        self.ledger.append((direction, len(data), records, copies, retransmit))

    @property
    def wire(self) -> dict:
        """Per-direction totals.  A lost datagram still counts its bytes; a
        duplicate counts twice except in ``retransmitted_bytes``; a packed
        datagram counts whole as retransmitted when any record in it is."""
        w = dict.fromkeys(("bytes_c2s", "bytes_s2c", "framed_c2s", "framed_s2c", "datagrams_c2s",
                           "datagrams_s2c", "retransmitted_bytes", "dropped", "duplicated"), 0)
        framing = self.link.config.framing_overhead
        for d, size, _, copies, retransmit in self.ledger:
            n = copies or 1
            w["bytes_" + d] += n * size
            w["framed_" + d] += n * (size + framing)
            w["datagrams_" + d] += n
            if retransmit:
                w["retransmitted_bytes"] += size
            if copies == 0:
                w["dropped"] += 1
            elif copies == 2:
                w["duplicated"] += 1
        return w

    @property
    def per_message(self) -> list:
        """(name, direction, size, retransmit) per record, in send order."""
        return [
            (name, direction, size, retransmit)
            for direction, _, records, _, _ in self.ledger
            for name, size, retransmit in records
        ]

    def _next_event_time(self):
        nxt = self.link.next_time()
        for endpoint in (self.client, *self.listener.connections()):
            t = endpoint.next_timeout()
            if t is not None and (nxt is None or t < nxt):
                nxt = t
        return nxt

    def run(self, until_ms: int = MAX_SIM_MS, start_ms: int = 0) -> int:
        until_ms += start_ms
        self.send(CLIENT, self.client.start(start_ms), start_ms)
        now = start_ms
        while True:
            nxt = self._next_event_time()
            if nxt is None or nxt > until_ms:
                break
            now = max(now, nxt)
            for dest, source, data in self.link.poll(now):
                if dest == CLIENT:
                    self.send(CLIENT, self.client.handle(data, now), now)
                else:
                    self.send(SERVER, self.listener.receive(data, source, now), now)
            for endpoint in (self.client, *self.listener.connections()):
                t = endpoint.next_timeout()
                if t is not None and t <= now:
                    self.send(CLIENT if endpoint is self.client else SERVER, endpoint.on_timeout(now), now)
            if self.app_payload and not self._app_sent and self.client.connected:
                self._app_sent = True
                self.send(CLIENT, self.client.send_app_data(self.app_payload, now), now)
            if self.client.failed:
                server_active = any(not c.failed for c in self.listener.connections())
                if not server_active or self.link.next_time() is None:
                    break
        return now


def _public_half(cred: EcCredential) -> EcCredential:
    return dataclasses.replace(cred, private=None)


def build_configs(scenario: Scenario):
    """Resolve the profile into concrete client/server ConnConfigs."""
    try:
        protocol = Protocol(scenario.protocol)
    except ValueError as exc:
        raise IllegalOverride(str(exc)) from None
    if scenario.cid is not None and not 0 <= scenario.cid <= 16:
        raise IllegalOverride("cid length must be 0..16")
    if scenario.cid is not None and protocol != Protocol.DTLS:
        raise IllegalOverride("a connection id needs dtls")
    if scenario.pad_len < 0 or scenario.app_payload < 0 or scenario.early_payload < 0:
        raise IllegalOverride("padding and payload sizes must not be negative")
    net = scenario.net
    if not (0 <= net.loss_rate <= 1 and 0 <= net.dup_rate <= 1 and 0 <= net.reorder_rate <= 1):
        raise IllegalOverride("loss, dup and reorder rates must lie in [0, 1]")
    if net.latency_ms < 0 or net.framing_overhead < 0:
        raise IllegalOverride("latency and framing overhead must not be negative")
    prof = resolve(scenario.profile, scenario.overrides)
    try:
        mode = AuthMode(scenario.mode)
        suites = (suite_params(scenario.suite).suite,) if scenario.suite else prof.suites
    except (ValueError, UnknownSuite) as exc:
        raise IllegalOverride(str(exc)) from None
    if mode not in prof.modes and mode != AuthMode.PSK_ECDHE:
        raise IllegalOverride(f"mode {mode.value} not allowed by profile {prof.name}")
    groups = prof.groups
    if groups:
        # pair symmetric strength with the matching curve: 128-bit AES with
        # P-256, 256-bit AES with P-521 (when the profile enables it)
        preferred = (
            NamedGroup.SECP521R1 if suite_params(suites[0]).key_len == 32 else NamedGroup.SECP256R1
        )
        if preferred in groups:
            # a pinned suite also pins its curve; otherwise prefer the match
            groups = (preferred,) if scenario.suite else (
                (preferred,) + tuple(g for g in groups if g != preferred)
            )

    deployment = make_deployment(net.seed, groups, prof.cert_size)
    psk = deployment["psk"]
    needs_cert = mode in PK_FAMILY
    mutual = mode == AuthMode.PK_MUTUAL
    group = groups[0] if groups else None

    common = dict(
        protocol=protocol,
        suites=suites,
        groups=groups if mode in ECDHE_FAMILY else (),
        compat=prof.compat_mode and protocol == Protocol.TLS,
        pad_len=scenario.pad_len,
        mtu=net.mtu,
        packing=scenario.packing,
        sni=prof.sni_hostname if needs_cert else None,
    )
    client_cfg = ConnConfig(
        mode=mode,
        psk=psk if mode in PSK_FAMILY else None,
        local_ec=deployment["client_ec"].get(group) if mutual else None,
        peer_ec=_public_half(deployment["server_ec"][group]) if needs_cert else None,
        early_payload=bytes(scenario.early_payload) if mode == AuthMode.ZERO_RTT else b"",
        cid=0 if scenario.cid is not None else None,  # offer CIDs, ask for none
        **common,
    )
    server_cfg = ConnConfig(
        mode=mode,
        psk=psk if mode in PSK_FAMILY else None,
        local_ec=deployment["server_ec"].get(group) if needs_cert else None,
        peer_ec=_public_half(deployment["client_ec"][group]) if mutual else None,
        tickets=prof.tickets,
        dos=scenario.dos,
        cid=scenario.cid or None,  # ask for scenario.cid bytes; at 0 send no extension
        **common,
    )
    return prof, client_cfg, server_cfg


def run_scenario(scenario: Scenario) -> Report:
    prof, client_cfg, server_cfg = build_configs(scenario)
    protocol = client_cfg.protocol
    seed = scenario.net.seed
    link_cls = DatagramLink if protocol == Protocol.DTLS else StreamLink
    link = link_cls(scenario.net)
    client_rng = random.Random(f"client-{seed}")
    server_rng = random.Random(f"server-{seed}")

    client = Connection(client_cfg, "client", client_rng, conn_id="C")
    start_ms = 0
    warm_failed = False
    if scenario.resume:
        # warm leg issues a ticket; the measured leg resumes with it
        warm_server_cfg = dataclasses.replace(server_cfg, tickets=True)
        listener = ServerListener(warm_server_cfg, server_rng)
        driver = Driver(client, listener, link_cls(scenario.net))
        finished_at = driver.run()
        # with no ticket (the warm leg failed, or its ticket was lost), the warm leg is the report
        warm_failed = not client.client_tickets
        if not warm_failed:
            client = Connection(
                resume_config(client_cfg, client.client_tickets[0]),
                "client",
                random.Random(f"client-resumed-{seed}"),
                conn_id="C2",
            )
            start_ms = finished_at + 100
    else:
        listener = ServerListener(server_cfg, server_rng)
    if not warm_failed:
        driver = Driver(client, listener, link)
        driver.app_payload = bytes(scenario.app_payload)
        finished_at = driver.run(start_ms=start_ms)

    server_conns = listener.connections()
    server = server_conns[0] if server_conns else None
    ok = client.connected and server is not None and server.connected and not warm_failed
    failure = client.failure or (server.failure if server else "no-server-connection")
    failed_phase = None
    if not ok:
        victim = client if client.failure else server
        failed_phase = (victim.failed_from or victim.phase.value) if victim is not None else "accept"
    if warm_failed:
        failure, failed_phase = failure or "no-ticket", f"warm:{failed_phase}"
    rtt = None
    if scenario.mode == AuthMode.ZERO_RTT.value:
        rtt = 0
    else:
        for ev in client.event_log:
            if ev.kind == EventKind.HANDSHAKE_COMPLETE:
                rtt = ev.t - start_ms
                break

    events = [ev.line(client.conn_id) for ev in client.event_log]
    if server is not None:
        events += [ev.line(server.conn_id) for ev in server.event_log]
    flights = sum(
        1
        for conn in (client, server)
        if conn is not None
        for ev in conn.event_log
        if ev.kind == EventKind.FLIGHT_READY
    )

    legacy_kwargs = dict(
        cert_size=prof.cert_size,
        psk_id_len=len(client_cfg.psk.identity) if client_cfg.psk else 16,
        sni_len=len(prof.sni_hostname) if prof.sni_hostname and family(scenario.mode) == "pk" else None,
        n_suites=len(client_cfg.suites),
        group=client_cfg.groups[0] if client_cfg.groups else legacy12.NamedGroup.SECP256R1,
        mutual=scenario.mode == AuthMode.PK_MUTUAL,
        suite=client.suite,
    )
    legacy_total = legacy12.model_total(scenario.protocol, family(scenario.mode), **legacy_kwargs)

    return Report(
        scenario=scenario,
        ok=ok,
        failure=None if ok else failure,
        failed_phase=failed_phase,
        flights=flights,
        wire=driver.wire,
        per_message=driver.per_message,
        counters_client=client.counters.to_dict(),
        counters_server=(server.counters.to_dict() if server else OpCounters().to_dict()),
        events=events,
        rtt_to_first_appdata_ms=rtt,
        legacy12_total=legacy_total,
        suite=int(client.suite),
        finished_at_ms=finished_at,
    )


def family(mode: str) -> str:
    """``"psk"`` or ``"pk"``: the mode family that the 1.2 model and the
    reference table key on."""
    return "psk" if AuthMode(mode) in PSK_FAMILY else "pk"


def paper_reference(report: Report):
    fam = family(report.scenario.mode)
    for label, protocol, ref_fam, suite, v12, v13 in REFERENCE_TABLE:
        if protocol == report.scenario.protocol and ref_fam == fam and int(suite) == report.suite:
            return label, v12, v13
    return None


def deviation_pct(report: Report, ref_13: int) -> float:
    """Measured 1.3 total against a published 1.3 total, in percent."""
    return 100.0 * (report.total() - ref_13) / ref_13


def emit(reports, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps([r.to_dict() for r in reports], sort_keys=True, indent=2)
    if fmt == "csv":
        out = io.StringIO()
        out.write(CSV_HEADER + "\n")
        for r in reports:
            ref = paper_reference(r)
            paper_ref = ref[2] if ref else ""
            deviation = f"{deviation_pct(r, ref[2]):.1f}" if ref else ""
            out.write(
                ",".join(
                    str(x)
                    for x in (
                        r.scenario.key(),
                        r.scenario.protocol,
                        r.scenario.mode,
                        f"0x{r.suite:04x}",
                        r.wire["bytes_c2s"],
                        r.wire["bytes_s2c"],
                        r.total(),
                        r.wire["datagrams_c2s"] + r.wire["datagrams_s2c"],
                        r.wire["retransmitted_bytes"],
                        paper_ref,
                        deviation,
                    )
                )
                + "\n"
            )
        return out.getvalue()
    if fmt == "text":
        lines = []
        header = f"{'configuration':38} {'1.2 model':>9} {'1.3 measured':>12} {'diff':>7}"
        compare = any(r.scenario.compare_paper for r in reports)
        if compare:
            header += f" {'paper 1.2':>9} {'paper 1.3':>9} {'dev%':>6}"
        lines.append(header)
        lines.append("-" * len(header))
        for r in reports:
            total = r.total()
            row = f"{r.scenario.key():38} {r.legacy12_total:>9} {total:>12} {total - r.legacy12_total:>+7}"
            if compare:
                ref = paper_reference(r)
                if ref:
                    _, v12, v13 = ref
                    row += f" {v12:>9} {v13:>9} {deviation_pct(r, v13):>+6.1f}"
                else:
                    row += f" {'-':>9} {'-':>9} {'-':>6}"
            if not r.ok:
                row += f"  FAILED({r.failure})"
            lines.append(row)
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
