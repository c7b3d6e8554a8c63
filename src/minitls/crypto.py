"""Cipher-suite registry and primitive wrappers.

The protocol core never touches an algorithm directly: everything goes
through the registry defined here, so swapping AEAD/hash backends never
leaks into handshake or record code.  The hashes (through ``hashlib``),
the AEADs and raw AES come from OpenSSL.  The RFC 2104 HMAC keying, the
RFC 5869 HKDF chain and the HkdfLabel scheme are implemented here: the two
wire protocols prefix labels differently, and OpenSSL's MAC and KDF objects
cost a context per derivation that two hash objects do not.
"""

import hashlib
import hmac as _hmac
import struct
from enum import Enum, IntEnum
from typing import NamedTuple

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.ciphers.aead import AESCCM, AESGCM

from .errors import AuthenticationFailure, ConfigError, LengthOverflow


class Protocol(str, Enum):
    TLS = "tls"
    DTLS = "dtls"


class SuiteId(IntEnum):
    AES_128_CCM_SHA256 = 0x1304
    AES_256_GCM_SHA384 = 0x1302
    # Not an IANA assignment: 256-bit CCM paired with SHA-384, registered
    # here so 256-bit CCM configurations are expressible.
    AES_256_CCM_SHA384 = 0x13A4


class AeadAlg(IntEnum):
    AES_CCM = 1
    AES_GCM = 2


class HashAlg(IntEnum):
    SHA256 = 1
    SHA384 = 2


_HASHES = {HashAlg.SHA256: hashlib.sha256, HashAlg.SHA384: hashlib.sha384}
_HASH_LENS = {alg: new().digest_size for alg, new in _HASHES.items()}
_BLOCK_SIZES = {alg: new().block_size for alg, new in _HASHES.items()}
# RFC 2104 pads: every key byte XORed with 0x36 (inner) or 0x5c (outer).
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


class SuiteParams(NamedTuple):
    suite: SuiteId
    key_len: int
    iv_len: int
    tag_len: int
    hash_len: int
    aead_alg: AeadAlg
    hash_alg: HashAlg


_REGISTRY = {
    SuiteId.AES_128_CCM_SHA256: SuiteParams(
        SuiteId.AES_128_CCM_SHA256, 16, 12, 16, 32, AeadAlg.AES_CCM, HashAlg.SHA256
    ),
    SuiteId.AES_256_GCM_SHA384: SuiteParams(
        SuiteId.AES_256_GCM_SHA384, 32, 12, 16, 48, AeadAlg.AES_GCM, HashAlg.SHA384
    ),
    SuiteId.AES_256_CCM_SHA384: SuiteParams(
        SuiteId.AES_256_CCM_SHA384, 32, 12, 16, 48, AeadAlg.AES_CCM, HashAlg.SHA384
    ),
}


def suite_params(suite_id: int) -> SuiteParams:
    """Look up the registry entry for a 16-bit suite code."""
    try:
        return _REGISTRY[SuiteId(suite_id)]
    except (ValueError, KeyError):
        raise ConfigError(f"no such cipher suite: 0x{suite_id:04x}") from None


class NamedGroup(IntEnum):
    SECP256R1 = 0x0017
    SECP521R1 = 0x0019


# Uncompressed point: 0x04 || X || Y, i.e. 2 * field_len + 1.
GROUP_PUBKEY_LEN = {NamedGroup.SECP256R1: 65, NamedGroup.SECP521R1: 133}


class SignatureScheme(IntEnum):
    ECDSA_SECP256R1_SHA256 = 0x0403
    ECDSA_SECP521R1_SHA512 = 0x0603


# The one ECDSA scheme each curve signs with.
GROUP_SCHEME = {
    NamedGroup.SECP256R1: SignatureScheme.ECDSA_SECP256R1_SHA256,
    NamedGroup.SECP521R1: SignatureScheme.ECDSA_SECP521R1_SHA512,
}


# --- hash / HMAC -----------------------------------------------------------


def hash_data(alg: HashAlg, data: bytes) -> bytes:
    return _HASHES[alg](data).digest()


def hmac_digest(alg: HashAlg, key: bytes, data: bytes) -> bytes:
    """RFC 2104: a key longer than the hash block is hashed first; the key,
    zero-padded to the block, then keys an inner and an outer hash."""
    new = _HASHES[alg]
    block = _BLOCK_SIZES[alg]
    if len(key) > block:
        key = new(key).digest()
    key = key.ljust(block, b"\x00")
    inner = new(key.translate(_IPAD) + data)
    return new(key.translate(_OPAD) + inner.digest()).digest()


def hmac_verify(alg: HashAlg, key: bytes, data: bytes, mac: bytes) -> bool:
    return _hmac.compare_digest(hmac_digest(alg, key, data), mac)


# --- HKDF ------------------------------------------------------------------


def hkdf_extract(salt: bytes, ikm: bytes, alg: HashAlg) -> bytes:
    """HKDF-Extract; HMAC zero-pads the key, so an empty salt is the
    hash-length run of zero bytes RFC 5869 asks for."""
    return hmac_digest(alg, salt, ikm)


def hkdf_expand(prk: bytes, info: bytes, out_len: int, alg: HashAlg) -> bytes:
    """RFC 5869 section 2.3: T(i) = HMAC(PRK, T(i-1) | info | i), at most
    255 blocks."""
    hash_len = _HASH_LENS[alg]
    if out_len > 255 * hash_len:
        raise LengthOverflow(f"HKDF-Expand output {out_len} exceeds 255 * {hash_len} bytes")
    okm = t = b""
    i = 0
    while i * hash_len < out_len:
        i += 1
        t = hmac_digest(alg, prk, t + info + bytes((i,)))
        okm += t
    return okm[:out_len]


LABEL_PREFIX = {Protocol.TLS: b"tls13 ", Protocol.DTLS: b"dtls13"}
_LABEL_HEADER = struct.Struct("!HB")  # uint16 length, then the label's length byte


def hkdf_label(label: bytes, context: bytes, out_len: int, protocol: Protocol) -> bytes:
    full = LABEL_PREFIX[protocol] + label
    if not 7 <= len(full) <= 255:  # RFC 8446 section 7.1: opaque label<7..255>
        raise LengthOverflow(f"prefixed label of {len(full)} bytes outside 7..255")
    return (
        _LABEL_HEADER.pack(out_len, len(full))
        + full
        + bytes((len(context),))
        + context
    )


def hkdf_expand_label(
    prk: bytes,
    label: bytes,
    context: bytes,
    out_len: int,
    alg: HashAlg,
    protocol: Protocol,
) -> bytes:
    return hkdf_expand(prk, hkdf_label(label, context, out_len, protocol), out_len, alg)


# --- AEAD ------------------------------------------------------------------


def aead_cipher(params: SuiteParams, key: bytes):
    """The suite's AEAD object under ``key``; build once per key and reuse."""
    if len(key) != params.key_len:
        raise ValueError(f"key must be {params.key_len} bytes")
    if params.aead_alg == AeadAlg.AES_CCM:
        return AESCCM(key, tag_length=params.tag_len)
    return AESGCM(key)


def aead_seal(aead, nonce: bytes, aad: bytes, plaintext: bytes) -> bytes:
    return aead.encrypt(nonce, plaintext, aad)


def aead_open(aead, nonce: bytes, aad: bytes, ciphertext: bytes) -> bytes:
    try:
        return aead.decrypt(nonce, ciphertext, aad)
    except InvalidTag:
        raise AuthenticationFailure("AEAD tag mismatch") from None


_AES = algorithms.AES  # looked up once: the module attribute goes through a __getattr__
_ECB = modes.ECB()


def block_cipher(key: bytes):
    """Raw AES encryptor; ECB keeps no state between whole blocks, so one serves many."""
    return Cipher(_AES(key), _ECB).encryptor()


def block_encrypt(encryptor, block: bytes) -> bytes:
    """One raw AES block; used only for sequence-number masking."""
    return encryptor.update(block)


# --- transcript hash -------------------------------------------------------

def transcript_hash(messages, alg: HashAlg) -> bytes:
    """One-shot transcript hash over an ordered message sequence."""
    return hash_data(alg, b"".join(messages))
