import hashlib
import random

import pytest

from minitls import crypto
from minitls.crypto import HashAlg, Protocol, SuiteId
from minitls.errors import AuthenticationFailure, LengthOverflow, UnknownSuite

from .harness import VECTOR_DIR, load_hex_vectors
from .oracles import raw_expand_label, raw_hkdf_extract, raw_hmac


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
    with pytest.raises(UnknownSuite):
        crypto.suite_params(0x0000)


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
    prefixes = {Protocol.TLS: b"tls13 ", Protocol.DTLS: b"dtls13"}
    for _ in range(50):
        prk = rng.randbytes(32)
        label = bytes(rng.choices(b"abcdefgh", k=rng.randrange(1, 12)))
        context = rng.randbytes(rng.randrange(0, 48))
        out_len = rng.randrange(1, 64)
        for proto, prefix in prefixes.items():
            got = crypto.hkdf_expand_label(prk, label, context, out_len, HashAlg.SHA256, proto)
            assert got == raw_expand_label("sha256", prk, prefix, label, context, out_len)


def test_expand_label_protocols_diverge():
    prk = b"\x42" * 32
    tls = crypto.hkdf_expand_label(prk, b"key", b"", 16, HashAlg.SHA256, Protocol.TLS)
    dtls = crypto.hkdf_expand_label(prk, b"key", b"", 16, HashAlg.SHA256, Protocol.DTLS)
    assert tls != dtls
    assert len(tls) == len(dtls) == 16


def test_expand_zero_length():
    assert crypto.hkdf_expand_label(b"\x01" * 32, b"x", b"", 0, HashAlg.SHA256, Protocol.TLS) == b""


def test_expand_length_overflow():
    with pytest.raises(LengthOverflow):
        crypto.hkdf_expand(b"\x01" * 32, b"", 255 * 32 + 1, HashAlg.SHA256)


def test_aead_round_trip_all_suites():
    rng = random.Random(7)
    for sid in ALL_SUITES:
        params = crypto.suite_params(sid)
        for _ in range(100):
            aead = crypto.aead_cipher(params, rng.randbytes(params.key_len))
            nonce = rng.randbytes(params.iv_len)
            aad = rng.randbytes(rng.randrange(0, 32))
            pt = rng.randbytes(rng.randrange(0, 200))
            ct = crypto.aead_seal(params, aead, nonce, aad, pt)
            assert len(ct) == len(pt) + params.tag_len
            assert crypto.aead_open(params, aead, nonce, aad, ct) == pt


def test_aead_empty_plaintext_is_tag_only():
    params = crypto.suite_params(SuiteId.AES_128_CCM_SHA256)
    ct = crypto.aead_seal(params, crypto.aead_cipher(params, b"k" * 16), b"n" * 12, b"", b"")
    assert len(ct) == params.tag_len


def test_aead_tamper_detection():
    rng = random.Random(99)
    params = crypto.suite_params(SuiteId.AES_128_CCM_SHA256)
    key, nonce, aad = crypto.aead_cipher(params, b"k" * 16), b"n" * 12, b"associated"
    pt = b"payload bytes"
    ct = crypto.aead_seal(params, key, nonce, aad, pt)
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
            crypto.aead_open(params, *args)


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
    synthetic = crypto.message_hash(crypto.hash_data(HashAlg.SHA256, ch1))
    expected_synth = bytes([254, 0, 0, 32]) + hashlib.sha256(ch1).digest()
    assert synthetic == expected_synth
    digest = crypto.transcript_hash([synthetic, hrr, ch2], HashAlg.SHA256)
    assert digest == hashlib.sha256(expected_synth + hrr + ch2).digest()


def test_vector_loader_skips_comments(tmp_path):
    f = tmp_path / "v.txt"
    f.write_text("# comment\n\naabb - cc # trailing\n")
    assert load_hex_vectors(f) == [[b"\xaa\xbb", b"", b"\xcc"]]
