"""Independent re-implementations used as oracles.

Everything here is deliberately written from the primitive definitions
(ipad/opad HMAC, counter-chained HKDF) and shares no code with the
package, so agreement is meaningful.
"""

import hashlib
import struct

_BLOCK = {"sha256": 64, "sha384": 128}


def raw_hmac(hashname: str, key: bytes, data: bytes) -> bytes:
    block = _BLOCK[hashname]
    if len(key) > block:
        key = hashlib.new(hashname, key).digest()
    key = key + b"\x00" * (block - len(key))
    ipad = bytes(b ^ 0x36 for b in key)
    opad = bytes(b ^ 0x5C for b in key)
    inner = hashlib.new(hashname, ipad + data).digest()
    return hashlib.new(hashname, opad + inner).digest()


def raw_hkdf_extract(hashname: str, salt: bytes, ikm: bytes) -> bytes:
    if not salt:
        salt = b"\x00" * hashlib.new(hashname).digest_size
    return raw_hmac(hashname, salt, ikm)


def raw_hkdf_expand(hashname: str, prk: bytes, info: bytes, out_len: int) -> bytes:
    out = b""
    t = b""
    i = 1
    while len(out) < out_len:
        t = raw_hmac(hashname, prk, t + info + bytes([i]))
        out += t
        i += 1
    return out[:out_len]


def raw_hkdf_label(prefix: bytes, label: bytes, context: bytes, out_len: int) -> bytes:
    full = prefix + label
    return (
        struct.pack("!HB", out_len, len(full))
        + full
        + struct.pack("!B", len(context))
        + context
    )


def raw_expand_label(
    hashname: str, prk: bytes, prefix: bytes, label: bytes, context: bytes, out_len: int
) -> bytes:
    return raw_hkdf_expand(
        hashname, prk, raw_hkdf_label(prefix, label, context, out_len), out_len
    )


def raw_derive_secret(
    hashname: str, prk: bytes, prefix: bytes, label: bytes, transcript: bytes
) -> bytes:
    digest = hashlib.new(hashname, transcript).digest()
    return raw_expand_label(hashname, prk, prefix, label, digest, len(digest))


def raw_binder_split(client_hello: bytes):
    """Walk a TLS-form ClientHello whose last extension is pre_shared_key with
    one binder; return (the bytes the binder covers, the binder)."""

    def u16(at: int) -> int:
        return struct.unpack_from("!H", client_hello, at)[0]

    at = 4 + 2 + 32  # handshake header, legacy_version, random
    at += 1 + client_hello[at]  # legacy_session_id
    at += 2 + u16(at)  # cipher_suites
    at += 1 + client_hello[at]  # legacy_compression_methods
    end = at + 2 + u16(at)
    at += 2
    while at < end:
        ext_type, data_at = u16(at), at + 4
        at = data_at + u16(at + 2)
    assert at == end == len(client_hello) and ext_type == 41  # pre_shared_key
    binders_at = data_at + 2 + u16(data_at)  # past the identities
    binders = client_hello[binders_at:]
    assert u16(binders_at) == len(binders) - 2 and binders[2] == len(binders) - 3
    return client_hello[:binders_at], binders[3:]


def raw_psk_binder(hashname: str, prefix: bytes, psk: bytes, label: bytes, covered: bytes) -> bytes:
    """RFC 8446 section 4.2.11.2: HMAC under the finished key of the binder key
    over the hash of ``covered`` (the transcript up to the binders list)."""
    early = raw_hkdf_extract(hashname, b"", psk)
    binder_key = raw_derive_secret(hashname, early, prefix, label, b"")
    finished_key = raw_expand_label(hashname, binder_key, prefix, b"finished", b"", len(binder_key))
    return raw_hmac(hashname, finished_key, hashlib.new(hashname, covered).digest())
