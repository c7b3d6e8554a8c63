"""ECDHE key agreement and deterministic ECDSA over P-256 / P-521.

Everything is delegated to the OpenSSL backend: key generation from an
injected scalar, point validation, Diffie-Hellman, verification, and
signing in OpenSSL's RFC 6979 deterministic mode, which the wire tests
need for byte-identical signatures across runs and processes.

A private key is OpenSSL's own key object, derived once from its scalar by
``private_key`` (or ``keypair``); ``shared_secret``/``sign`` reuse it. Peer
public keys are decoded and validated on every call.

``verify`` is memoized, bounded to ``VERIFY_MEMO_SIZE`` entries, on its
full input (public point, scheme, message, signature). ECDSA verification
is a pure function of those four values, so a repeated check is answered
from the table and a change to any byte of any of them misses it and is
verified in full. Both endpoints of one process verify every
CertificateVerify over identical bytes: the signer's verify-after-sign
self-check is still computed by OpenSSL, and the peer's check of the same
signature under its pinned anchor is the repeat. The table holds only
public inputs and a bool, no key material. ECDH results and anything the
key schedule derives are secrets and are never memoized: a process-global
table must not hold them.
"""

import functools

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec as _ec

from .crypto import GROUP_SCHEME, NamedGroup, SignatureScheme
from .errors import IllegalParameter

# Group orders; private scalars are drawn from [1, n).
_ORDER = {
    NamedGroup.SECP256R1: 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551,
    NamedGroup.SECP521R1: 0x01FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFA51868783BF2F966B7FCC0148F709A5D03BB5C9B8899C47AEBB6FB71E91386409,
}
_BACKEND_CURVES = {
    NamedGroup.SECP256R1: _ec.SECP256R1,
    NamedGroup.SECP521R1: _ec.SECP521R1,
}
_SCHEME_CURVE = {scheme: _BACKEND_CURVES[group] for group, scheme in GROUP_SCHEME.items()}
_SCHEME_BACKEND_HASH = {
    SignatureScheme.ECDSA_SECP256R1_SHA256: hashes.SHA256,
    SignatureScheme.ECDSA_SECP521R1_SHA512: hashes.SHA512,
}
# Entries of the ``verify`` memo; one handshake adds at most two.
VERIFY_MEMO_SIZE = 64

# What ``private_key`` and ``keypair`` return: OpenSSL's key object itself.
PrivateKey = _ec.EllipticCurvePrivateKey


def scalar(group: NamedGroup, rng) -> int:
    """A private scalar in [1, n), drawn from the injected RNG."""
    return rng.randrange(1, _ORDER[group])


def private_key(group: NamedGroup, d: int) -> PrivateKey:
    """The OpenSSL key of scalar ``d``: one derivation."""
    return _ec.derive_private_key(d, _BACKEND_CURVES[group]())


def public_point(priv: PrivateKey) -> bytes:
    """The uncompressed point 0x04 || X || Y of the key's public half."""
    numbers = priv.public_key().public_numbers()
    size = (priv.curve.key_size + 7) // 8
    return b"\x04" + numbers.x.to_bytes(size, "big") + numbers.y.to_bytes(size, "big")


def _backend_public(curve, point: bytes):
    try:
        return _ec.EllipticCurvePublicKey.from_encoded_point(curve, point)
    except ValueError as exc:
        raise IllegalParameter(str(exc)) from None


def keypair(group: NamedGroup, rng) -> tuple[PrivateKey, bytes]:
    """Fresh keypair with the private scalar drawn from the injected RNG."""
    priv = private_key(group, scalar(group, rng))
    return priv, public_point(priv)


def shared_secret(priv: PrivateKey, peer_public: bytes) -> bytes:
    """ECDH: x-coordinate of d*Q, field-length bytes."""
    return priv.exchange(_ec.ECDH(), _backend_public(priv.curve, peer_public))


def sign(priv: PrivateKey, scheme: SignatureScheme, message: bytes) -> bytes:
    """Deterministic ECDSA, DER-encoded; identical inputs give identical bytes."""
    if priv.curve.name != _SCHEME_CURVE[scheme].name:
        raise ValueError("signature scheme does not match the key's curve")
    return priv.sign(message, _ec.ECDSA(_SCHEME_BACKEND_HASH[scheme](), deterministic_signing=True))


@functools.lru_cache(maxsize=VERIFY_MEMO_SIZE)
def verify(
    public: bytes, scheme: SignatureScheme, message: bytes, signature: bytes
) -> bool:
    """Signature check; returns False (never raises) on any invalid input.
    Memoized on all four arguments (see the module docstring)."""
    try:
        key = _backend_public(_SCHEME_CURVE[scheme](), public)
        key.verify(signature, message, _ec.ECDSA(_SCHEME_BACKEND_HASH[scheme]()))
        return True
    except (InvalidSignature, IllegalParameter, ValueError):
        return False
