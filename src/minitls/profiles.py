"""Named test profiles and deterministic credentials.

The five profiles mirror the benchmark configurations: two PSK-only
builds, two certificate builds, and a ``full`` build with every feature
switched on.  Certificates are synthetic opaque blobs of configurable
size; peers verify CertificateVerify against out-of-band pinned public
keys, so no ASN.1 parsing exists anywhere.
"""

import random
from dataclasses import dataclass, field, replace
from enum import Enum

from . import ec
from .crypto import GROUP_SCHEME, NamedGroup, SignatureScheme, SuiteId
from .errors import ConfigError


class AuthMode(str, Enum):
    PK_MUTUAL = "pk_mutual"
    PK_SERVER_ONLY = "pk_server_only"
    PSK = "psk"
    PSK_ECDHE = "psk_ecdhe"
    ZERO_RTT = "zero_rtt"


PSK_FAMILY = {AuthMode.PSK, AuthMode.PSK_ECDHE, AuthMode.ZERO_RTT}
PK_FAMILY = {AuthMode.PK_MUTUAL, AuthMode.PK_SERVER_ONLY}
ECDHE_FAMILY = PK_FAMILY | {AuthMode.PSK_ECDHE}  # the modes that send a key share

@dataclass(frozen=True)
class Profile:
    name: str
    suites: tuple
    modes: frozenset
    groups: tuple = ()
    compat_mode: bool = False
    zero_rtt: bool = False
    tickets: bool = False
    sni_hostname: str | None = None
    cert_size: int = 500


_PROFILES = {
    "psk128": Profile(
        name="psk128",
        suites=(SuiteId.AES_128_CCM_SHA256,),
        modes=frozenset({AuthMode.PSK}),
    ),
    "psk128_256": Profile(
        name="psk128_256",
        suites=(SuiteId.AES_128_CCM_SHA256, SuiteId.AES_256_CCM_SHA384),
        modes=frozenset({AuthMode.PSK}),
    ),
    "ecdsa128": Profile(
        name="ecdsa128",
        suites=(SuiteId.AES_128_CCM_SHA256,),
        modes=frozenset({AuthMode.PK_MUTUAL, AuthMode.PK_SERVER_ONLY}),
        groups=(NamedGroup.SECP256R1,),
        sni_hostname="iot.example",
    ),
    "ecdsa128_256": Profile(
        name="ecdsa128_256",
        suites=(SuiteId.AES_128_CCM_SHA256, SuiteId.AES_256_CCM_SHA384),
        modes=frozenset({AuthMode.PK_MUTUAL, AuthMode.PK_SERVER_ONLY}),
        groups=(NamedGroup.SECP256R1, NamedGroup.SECP521R1),
        sni_hostname="iot.example",
    ),
    # psk_ecdhe stays out of the default mode set here; it remains
    # reachable through an explicit modes override.
    "full": Profile(
        name="full",
        suites=(SuiteId.AES_128_CCM_SHA256, SuiteId.AES_256_CCM_SHA384),
        modes=frozenset(
            {AuthMode.PSK, AuthMode.PK_MUTUAL, AuthMode.PK_SERVER_ONLY, AuthMode.ZERO_RTT}
        ),
        groups=(NamedGroup.SECP256R1, NamedGroup.SECP521R1),
        compat_mode=True,
        zero_rtt=True,
        tickets=True,
        sni_hostname="iot.example",
    ),
}

# The one certificate a Certificate message carries, with the 9 bytes that frame it
# (request context, list and entry lengths, no extensions), fills a handshake body
# of at most 2^24 - 1 bytes (RFC 8446 sections 4 and 4.4.2).
MAX_CERT_SIZE = (1 << 24) - 1 - 9

_OVERRIDABLE = {
    "modes",
    "groups",
    "compat_mode",
    "zero_rtt",
    "cert_size",
}


def profile_names() -> list:
    return sorted(_PROFILES)


def resolve(name: str, overrides: dict | None = None) -> Profile:
    """Profile table entry with overrides applied and validated."""
    base = _PROFILES.get(name)
    if base is None:
        raise ConfigError(f"unknown profile {name!r}")
    if not overrides:
        return base
    unknown = set(overrides) - _OVERRIDABLE
    if unknown:
        raise ConfigError(f"not override knobs: {sorted(unknown)}")
    merged = dict(overrides)
    try:
        if "modes" in merged:
            merged["modes"] = frozenset(AuthMode(m) for m in merged["modes"])
        if "groups" in merged:
            merged["groups"] = tuple(NamedGroup(g) for g in merged["groups"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    prof = replace(base, **merged)
    _validate(base, prof)
    return prof


def _validate(base: Profile, prof: Profile) -> None:
    if base.name.startswith("psk") and prof.modes & PK_FAMILY:
        raise ConfigError("psk profiles permit no certificate modes")
    if base.name.startswith("ecdsa") and prof.modes & PSK_FAMILY:
        raise ConfigError("ecdsa profiles permit no PSK modes")
    if prof.zero_rtt and not (prof.modes & PSK_FAMILY):
        raise ConfigError("0-RTT requires a PSK-capable mode")
    if prof.modes & ECDHE_FAMILY and not prof.groups:
        raise ConfigError("(EC)DHE modes need at least one named group")
    if type(prof.cert_size) is not int or not 0 <= prof.cert_size <= MAX_CERT_SIZE:
        raise ConfigError(f"cert_size must be a byte count up to {MAX_CERT_SIZE}, not {prof.cert_size!r}")


# --- credentials -----------------------------------------------------------------


@dataclass(frozen=True)
class PskCredential:
    identity: bytes
    secret: bytes


@dataclass(frozen=True)
class EcCredential:
    group: NamedGroup
    private: ec.PrivateKey = field(repr=False, compare=False)  # public_point determines it
    public_point: bytes
    cert_der: bytes = b""

    @property
    def scheme(self) -> SignatureScheme:
        return GROUP_SCHEME[self.group]


def synthetic_cert(rng: random.Random, cert_size: int) -> bytes:
    """Opaque stand-in certificate blob of exactly cert_size bytes."""
    return rng.randbytes(cert_size)


def make_deployment(seed: int, group, cert_size: int, holders) -> dict:
    """Deterministic credential material for one client/server pair: the PSK, and
    a credential on ``group`` for each role in ``holders`` ("client", "server").
    Once any role holds one, both roles' scalars and certificates are drawn, in
    one order, so a seed gives each role the same credential whoever else holds one."""
    rng = random.Random(f"minitls-creds-{seed}")
    psk = PskCredential(identity=b"bench-psk-" + rng.randbytes(6), secret=rng.randbytes(32))
    out = {"psk": psk, "client_ec": None, "server_ec": None}
    for role in ("client", "server") if holders else ():
        d, cert = ec.scalar(group, rng), synthetic_cert(rng, cert_size)
        if role in holders:
            priv = ec.private_key(group, d)
            out[f"{role}_ec"] = EcCredential(group, priv, ec.public_point(priv), cert)
    return out
