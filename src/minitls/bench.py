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
from .crypto import Protocol, SuiteId
from .errors import ProtocolError
from .profiles import (
    ECDHE_FAMILY,
    PK_FAMILY,
    PSK_FAMILY,
    AuthMode,
    EcCredential,
    make_deployment,
    resolve,
)
from .simnet import CLIENT, SERVER, DatagramLink, NetConfig, StreamLink

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

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["net"] = self.net.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict):
        d = dict(d)
        d["net"] = NetConfig.from_dict(d.get("net", {}))
        return cls(**d)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))


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
        return {
            "scenario": self.scenario.to_dict(),
            "ok": self.ok,
            "failure": self.failure,
            "failed_phase": self.failed_phase,
            "flights": self.flights,
            "wire": self.wire,
            "per_message": [list(r) for r in self.per_message],
            "counters_client": self.counters_client,
            "counters_server": self.counters_server,
            "events": self.events,
            "rtt_to_first_appdata_ms": self.rtt_to_first_appdata_ms,
            "legacy12_total": self.legacy12_total,
            "suite": self.suite,
            "finished_at_ms": self.finished_at_ms,
        }

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
        self.per_message: list = []
        self.send_filter = None  # fn(endpoint, OutRecord, now) -> keep?
        self.app_payload = b""
        self._app_sent = False

    def send(self, endpoint: str, outs, now: int) -> None:
        outs = list(outs)
        if self.send_filter is not None:
            outs = [r for r in outs if self.send_filter(endpoint, r, now)]
        direction = "c2s" if endpoint == CLIENT else "s2c"
        if self.packing:
            batch: list = []
            size = 0
            for rec in outs:
                if batch and size + len(rec.data) > self.mtu:
                    self._send_batch(endpoint, batch, now)
                    batch, size = [], 0
                batch.append(rec)
                size += len(rec.data)
            if batch:
                self._send_batch(endpoint, batch, now)
        else:
            for rec in outs:
                self.per_message.append((rec.name, direction, len(rec.data), rec.retransmit))
                self.link.send(endpoint, rec.data, now, retransmit=rec.retransmit)

    def _send_batch(self, endpoint: str, batch, now: int) -> None:
        direction = "c2s" if endpoint == CLIENT else "s2c"
        retransmit = any(r.retransmit for r in batch)
        for rec in batch:
            self.per_message.append((rec.name, direction, len(rec.data), rec.retransmit))
        self.link.send(endpoint, b"".join(r.data for r in batch), now, retransmit=retransmit)

    def _next_event_time(self):
        times = []
        if self.link.next_time() is not None:
            times.append(self.link.next_time())
        t = self.client.next_timeout()
        if t is not None:
            times.append(t)
        for conn in self.listener.connections():
            t = conn.next_timeout()
            if t is not None:
                times.append(t)
        return min(times) if times else None

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
            if self.client.next_timeout() is not None and self.client.next_timeout() <= now:
                self.send(CLIENT, self.client.on_timeout(now), now)
            for conn in self.listener.connections():
                if conn.next_timeout() is not None and conn.next_timeout() <= now:
                    self.send(SERVER, conn.on_timeout(now), now)
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
    overrides = dict(scenario.overrides)
    if scenario.cid is not None:
        overrides.setdefault("cid", scenario.cid)
    prof = resolve(scenario.profile, overrides or None)
    mode = AuthMode(scenario.mode)
    if mode not in prof.modes and mode != AuthMode.PSK_ECDHE:
        raise ProtocolError(f"mode {mode.value} not allowed by profile {prof.name}")
    protocol = Protocol(scenario.protocol)
    suites = (SuiteId(scenario.suite),) if scenario.suite else prof.suites
    groups = prof.groups
    if groups:
        # pair symmetric strength with the matching curve: 128-bit AES with
        # P-256, 256-bit AES with P-521 (when the profile enables it)
        from .crypto import NamedGroup, suite_params

        preferred = (
            NamedGroup.SECP521R1 if suite_params(suites[0]).key_len == 32 else NamedGroup.SECP256R1
        )
        if preferred in groups:
            # a pinned suite also pins its curve; otherwise prefer the match
            groups = (preferred,) if scenario.suite else (
                (preferred,) + tuple(g for g in groups if g != preferred)
            )

    deployment = make_deployment(scenario.net.seed, groups, prof.cert_size)
    psk = deployment["psk"]
    needs_cert = mode in PK_FAMILY
    group = groups[0] if groups else None

    common = dict(
        protocol=protocol,
        suites=suites,
        groups=groups if mode in ECDHE_FAMILY else (),
        compat=prof.compat_mode and protocol == Protocol.TLS,
        pad_len=scenario.pad_len,
        mtu=scenario.net.mtu,
        packing=scenario.packing,
        sni=prof.sni_hostname if needs_cert else None,
    )
    client_cfg = ConnConfig(
        mode=mode,
        psk=psk if mode in PSK_FAMILY else None,
        local_ec=deployment["client_ec"].get(group) if needs_cert and prof.mutual_auth else None,
        peer_ec=_public_half(deployment["server_ec"][group]) if needs_cert else None,
        early_payload=bytes(scenario.early_payload) if mode == AuthMode.ZERO_RTT else b"",
        offer_cid=scenario.cid is not None and protocol == Protocol.DTLS,
        **common,
    )
    server_cfg = ConnConfig(
        mode=mode,
        psk=psk if mode in PSK_FAMILY else None,
        local_ec=deployment["server_ec"].get(group) if needs_cert else None,
        peer_ec=_public_half(deployment["client_ec"][group]) if needs_cert and prof.mutual_auth else None,
        mutual=prof.mutual_auth and mode == AuthMode.PK_MUTUAL,
        tickets=prof.tickets,
        dos=scenario.dos,
        cid_len=(prof.cid or scenario.cid or 0) if protocol == Protocol.DTLS and scenario.cid is not None else 0,
        **common,
    )
    return prof, client_cfg, server_cfg


def run_scenario(scenario: Scenario) -> Report:
    prof, client_cfg, server_cfg = build_configs(scenario)
    protocol = Protocol(scenario.protocol)
    seed = scenario.net.seed
    link_cls = DatagramLink if protocol == Protocol.DTLS else StreamLink
    link = link_cls(scenario.net)
    client_rng = random.Random(f"client-{seed}")
    server_rng = random.Random(f"server-{seed}")

    client = Connection(client_cfg, "client", client_rng, conn_id="C")
    start_ms = 0
    if scenario.resume:
        # warm leg issues a ticket; the measured leg resumes with it
        warm_server_cfg = dataclasses.replace(server_cfg, tickets=True)
        listener = ServerListener(warm_server_cfg, server_rng)
        warm = Driver(client, listener, link_cls(scenario.net))
        warm_end = warm.run()
        if not client.client_tickets:
            raise ProtocolError("warm handshake issued no ticket to resume")
        ticket = client.client_tickets[0]
        client = Connection(
            resume_config(client_cfg, ticket),
            "client",
            random.Random(f"client-resumed-{seed}"),
            conn_id="C2",
        )
        start_ms = warm_end + 100
    else:
        listener = ServerListener(server_cfg, server_rng)
    driver = Driver(client, listener, link)
    if scenario.app_payload:
        driver.app_payload = bytes(scenario.app_payload)
    finished_at = driver.run(start_ms=start_ms)

    server_conns = listener.connections()
    server = server_conns[0] if server_conns else None
    ok = client.connected and server is not None and server.connected
    failure = client.failure or (server.failure if server else "no-server-connection")
    failed_phase = None
    if not ok:
        victim = client if client.failure else server
        failed_phase = (victim.failed_from or victim.phase.value) if victim is not None else "accept"
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
        mutual=server_cfg.mutual,
        suite=client.suite,
    )
    legacy_total = legacy12.model_total(scenario.protocol, family(scenario.mode), **legacy_kwargs)

    return Report(
        scenario=scenario,
        ok=ok,
        failure=None if ok else failure,
        failed_phase=failed_phase,
        flights=flights,
        wire=link.stats.to_dict(),
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
