import hashlib
import hmac
import random

import pytest
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.kdf.hkdf import HKDFExpand

from minitls import crypto, messages
from minitls.crypto import HashAlg, Protocol, SuiteId
from minitls.errors import AuthenticationFailure, ConfigError, LengthOverflow

from .harness import VECTOR_DIR, load_hex_vectors
from .oracles import raw_expand_label, raw_hkdf_expand, raw_hkdf_extract, raw_hmac


# (package enum, hashlib name, OpenSSL reference through cryptography)
HASHES = [
    (HashAlg.SHA256, "sha256", hashes.SHA256()),
    (HashAlg.SHA384, "sha384", hashes.SHA384()),
]
PREFIXES = {Protocol.TLS: b"tls13 ", Protocol.DTLS: b"dtls13"}

ALL_SUITES = [
    SuiteId.AES_128_CCM_SHA256,
    SuiteId.AES_256_GCM_SHA384,
    SuiteId.AES_256_CCM_SHA384,
]


def test_registry_entries():
    p128 = crypto.suite_params(SuiteId.AES_128_CCM_SHA256)
    assert (p128.key_len, p128.hash_len, p128.tag_len) == (16, 32, 16)
    p256 = crypto.suite_params(SuiteId.AES_256_GCM_SHA384)
    assert (p256.key_len, p256.hash_len) == (32, 48)
    for sid in ALL_SUITES:
        params = crypto.suite_params(sid)
        assert params.iv_len == 12 and params.tag_len == 16
        assert params.hash_len in (32, 48)


def test_unknown_suite():
    with pytest.raises(ConfigError):
        crypto.suite_params(0x0000)


def test_hmac_matches_openssl_and_raw_oracle():
    """Key lengths around the block size take each keying branch of RFC 2104."""
    rng = random.Random(0x2104)
    for alg, name, _ in HASHES:
        size, block = hashlib.new(name).digest_size, hashlib.new(name).block_size
        for key_len in (0, 1, size, block - 1, block, block + 1, 200):
            key = rng.randbytes(key_len)
            for data_len in (0, 1, 55, 56, 63, 64, 65, 111, 112, 127, 128, 129, 255, 300):
                data = rng.randbytes(data_len)
                got = crypto.hmac_digest(alg, key, data)
                assert got == hmac.digest(key, data, name) == raw_hmac(name, key, data)
                assert crypto.hmac_verify(alg, key, data, got)


def test_hkdf_expand_matches_openssl_and_raw_oracle():
    rng = random.Random(0x5869)
    for alg, name, reference in HASHES:
        size = hashlib.new(name).digest_size
        prk, info = rng.randbytes(size), rng.randbytes(20)
        for out_len in (0, 1, size, size + 1, 255 * size):
            got = crypto.hkdf_expand(prk, info, out_len, alg)
            assert len(got) == out_len
            assert got == HKDFExpand(reference, out_len, info).derive(prk)
            assert got == raw_hkdf_expand(name, prk, info, out_len)


def test_hkdf_extract_published_vectors():
    for salt, ikm, info, prk, okm in load_hex_vectors(VECTOR_DIR / "hkdf_sha256.txt"):
        assert crypto.hkdf_extract(salt, ikm, HashAlg.SHA256) == prk
        assert crypto.hkdf_expand(prk, info, len(okm), HashAlg.SHA256) == okm


def test_hkdf_extract_empty_salt_is_zero_fill():
    prk = crypto.hkdf_extract(b"", b"", HashAlg.SHA256)
    assert prk == raw_hmac("sha256", b"\x00" * 32, b"")


def test_hkdf_extract_matches_raw_oracle():
    rng = random.Random(0x5EED)
    for alg, name in [(HashAlg.SHA256, "sha256"), (HashAlg.SHA384, "sha384")]:
        for _ in range(50):
            salt = rng.randbytes(rng.randrange(0, 80))
            ikm = rng.randbytes(rng.randrange(0, 80))
            assert crypto.hkdf_extract(salt, ikm, alg) == raw_hkdf_extract(name, salt, ikm)


def test_expand_label_matches_raw_oracle():
    rng = random.Random(0xBEEF)
    for alg, name, _ in HASHES:
        size = hashlib.new(name).digest_size
        for _trial in range(50):
            prk = rng.randbytes(size)
            label = bytes(rng.choices(b"abcdefgh", k=rng.randrange(1, 12)))
            context = rng.randbytes(rng.randrange(0, 48))
            out_len = rng.randrange(1, 3 * size + 2)
            for proto, prefix in PREFIXES.items():
                got = crypto.hkdf_expand_label(prk, label, context, out_len, alg, proto)
                assert got == raw_expand_label(name, prk, prefix, label, context, out_len)


def test_expand_label_length_bounds():
    """RFC 8446 section 7.1: the prefixed label is opaque<7..255>."""
    prk = b"\x07" * 32
    for proto, prefix in PREFIXES.items():
        for n in (1, 243, 244, 249):
            label = b"a" * n
            got = crypto.hkdf_expand_label(prk, label, b"", 16, HashAlg.SHA256, proto)
            assert got == raw_expand_label("sha256", prk, prefix, label, b"", 16)
        for n in (0, 250):
            with pytest.raises(LengthOverflow):
                crypto.hkdf_expand_label(prk, b"a" * n, b"", 16, HashAlg.SHA256, proto)


def test_expand_label_protocols_diverge():
    prk = b"\x42" * 32
    tls = crypto.hkdf_expand_label(prk, b"key", b"", 16, HashAlg.SHA256, Protocol.TLS)
    dtls = crypto.hkdf_expand_label(prk, b"key", b"", 16, HashAlg.SHA256, Protocol.DTLS)
    assert tls != dtls
    assert len(tls) == len(dtls) == 16


def test_expand_zero_length():
    assert crypto.hkdf_expand_label(b"\x01" * 32, b"x", b"", 0, HashAlg.SHA256, Protocol.TLS) == b""


def test_expand_length_overflow():
    for alg, name, _ in HASHES:
        size = hashlib.new(name).digest_size
        with pytest.raises(LengthOverflow):
            crypto.hkdf_expand(b"\x01" * size, b"", 255 * size + 1, alg)


def test_aead_round_trip_all_suites():
    rng = random.Random(7)
    for sid in ALL_SUITES:
        params = crypto.suite_params(sid)
        for _ in range(100):
            aead = crypto.aead_cipher(params, rng.randbytes(params.key_len))
            nonce = rng.randbytes(params.iv_len)
            aad = rng.randbytes(rng.randrange(0, 32))
            pt = rng.randbytes(rng.randrange(0, 200))
            ct = crypto.aead_seal(aead, nonce, aad, pt)
            assert len(ct) == len(pt) + params.tag_len
            assert crypto.aead_open(aead, nonce, aad, ct) == pt


def test_aead_empty_plaintext_is_tag_only():
    params = crypto.suite_params(SuiteId.AES_128_CCM_SHA256)
    ct = crypto.aead_seal(crypto.aead_cipher(params, b"k" * 16), b"n" * 12, b"", b"")
    assert len(ct) == params.tag_len


def test_aead_tamper_detection():
    rng = random.Random(99)
    params = crypto.suite_params(SuiteId.AES_128_CCM_SHA256)
    key, nonce, aad = crypto.aead_cipher(params, b"k" * 16), b"n" * 12, b"associated"
    pt = b"payload bytes"
    ct = crypto.aead_seal(key, nonce, aad, pt)
    for _ in range(1000):
        target = rng.choice(["ct", "aad", "nonce"])
        if target == "ct":
            i = rng.randrange(len(ct))
            bad = ct[:i] + bytes([ct[i] ^ (1 << rng.randrange(8))]) + ct[i + 1 :]
            args = (key, nonce, aad, bad)
        elif target == "aad":
            i = rng.randrange(len(aad))
            bad = aad[:i] + bytes([aad[i] ^ (1 << rng.randrange(8))]) + aad[i + 1 :]
            args = (key, nonce, bad, ct)
        else:
            i = rng.randrange(len(nonce))
            bad = nonce[:i] + bytes([nonce[i] ^ (1 << rng.randrange(8))]) + nonce[i + 1 :]
            args = (key, bad, aad, ct)
        with pytest.raises(AuthenticationFailure):
            crypto.aead_open(*args)


def test_transcript_empty_sha256():
    assert crypto.transcript_hash([], HashAlg.SHA256) == bytes.fromhex(
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


def test_transcript_incremental_matches_oneshot():
    ch, sh = b"\x01\x00\x00\x02ab", b"\x02\x00\x00\x02cd"
    h = hashlib.sha256()
    h.update(ch)
    h.update(sh)
    assert h.digest() == hashlib.sha256(ch + sh).digest()
    assert h.digest() == crypto.transcript_hash([ch, sh], HashAlg.SHA256)


def test_transcript_hello_retry_replacement():
    ch1 = b"\x01\x00\x00\x05hello"
    hrr = b"\x02\x00\x00\x03hrr"
    ch2 = b"\x01\x00\x00\x05again"
    synthetic = messages.message_hash(crypto.hash_data(HashAlg.SHA256, ch1))
    expected_synth = bytes([254, 0, 0, 32]) + hashlib.sha256(ch1).digest()
    assert synthetic == expected_synth
    digest = crypto.transcript_hash([synthetic, hrr, ch2], HashAlg.SHA256)
    assert digest == hashlib.sha256(expected_synth + hrr + ch2).digest()


def test_vector_loader_skips_comments(tmp_path):
    f = tmp_path / "v.txt"
    f.write_text("# comment\n\naabb - cc # trailing\n")
    assert load_hex_vectors(f) == [[b"\xaa\xbb", b"", b"\xcc"]]
