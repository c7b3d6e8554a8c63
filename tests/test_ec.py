import random

import pytest
from cryptography.hazmat.primitives.asymmetric import ec as backend_ec
from cryptography.hazmat.primitives.asymmetric.utils import decode_dss_signature

from minitls import bench, ec
from minitls.crypto import NamedGroup, SignatureScheme
from minitls.errors import IllegalParameter

from .harness import count_backend_keys

# Deterministic-ECDSA known answers (RFC 6979 appendix A.2.5 and A.2.7):
# (group, scheme, private x, message, r, s).
P256_X = 0xC9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721
P521_X = 0x0FAD06DAA62BA3B25D2FB40133DA757205DE67F5BB0018FEE8C86E1B68C7E75CAA896EB32F1F47C70855836A6D16FCC1466F6D8FBEC67DB89EC0C08B0E996B83538
P256 = (NamedGroup.SECP256R1, SignatureScheme.ECDSA_SECP256R1_SHA256, P256_X)
P521 = (NamedGroup.SECP521R1, SignatureScheme.ECDSA_SECP521R1_SHA512, P521_X)
KNOWN_ANSWERS = [
    (
        *P256,
        b"sample",
        0xEFD48B2AACB6A8FD1140DD9CD45E81D69D2C877B56AAF991C34D0EA84EAF3716,
        0xF7CB1C942D657C41D436C7A1B6E29F65F3E900DBB9AFF4064DC4AB2F843ACDA8,
    ),
    (
        *P256,
        b"test",
        0xF1ABB023518351CD71D881567B1EA663ED3EFCF6C5132B354F28D3B0B7D38367,
        0x019F4113742A2B14BD25926B49C649155F267E60D3814B4C0CC84250E46F0083,
    ),
    (
        *P521,
        b"sample",
        0x0C328FAFCBD79DD77850370C46325D987CB525569FB63C5D3BC53950E6D4C5F174E25A1EE9017B5D450606ADD152B534931D7D4E8455CC91F9B15BF05EC36E377FA,
        0x0617CCE7CF5064806C467F678D3B4080D6F1CC50AF26CA209417308281B68AF282623EAA63E5B5C0723D8B8C37FF0777B1A20F8CCB1DCCC43997F1EE0E44DA4A67A,
    ),
    (
        *P521,
        b"test",
        0x13E99020ABF5CEE7525D16B69B229652AB6BDF2AFFCAEF38773B4B7D08725F10CDB93482FDCC54EDCEE91ECA4166B2A7C6265EF0CE2BD7051B7CEF945BABD47EE6D,
        0x1FBD0013C674AA79CB39849527916CE301C66EA7CE8B80682786AD60F98F7E78A19CA69EFF5C57400E3B3A0AD66CE0978214D13BAF4E9AC60752F7B155E2DE4DCE3,
    ),
]


@pytest.mark.parametrize(
    "group,scheme,x,message,r,s",
    KNOWN_ANSWERS,
    ids=[f"{m.decode()}-{r}-{s}" for *_, m, r, s in KNOWN_ANSWERS],
)
def test_deterministic_ecdsa_published_vectors(group, scheme, x, message, r, s):
    priv = ec.private_key(group, x)
    sig = ec.sign(priv, scheme, message)
    assert decode_dss_signature(sig) == (r, s)
    assert ec.verify(ec.public_point(priv), scheme, message, sig)


@pytest.mark.parametrize(
    "group,scheme",
    [
        (NamedGroup.SECP256R1, SignatureScheme.ECDSA_SECP256R1_SHA256),
        (NamedGroup.SECP521R1, SignatureScheme.ECDSA_SECP521R1_SHA512),
    ],
)
def test_sign_is_deterministic_and_verifies(group, scheme):
    priv, pub = ec.keypair(group, random.Random(1234))
    msg = b"handshake transcript stand-in"
    sig1 = ec.sign(priv, scheme, msg)
    sig2 = ec.sign(priv, scheme, msg)
    assert sig1 == sig2
    assert ec.verify(pub, scheme, msg, sig1)


def test_verify_rejects_flipped_message_bit():
    priv, pub = ec.keypair(NamedGroup.SECP256R1, random.Random(5))
    scheme = SignatureScheme.ECDSA_SECP256R1_SHA256
    sig = ec.sign(priv, scheme, b"message")
    assert not ec.verify(pub, scheme, b"messagf", sig)
    assert not ec.verify(pub, scheme, b"message", sig[:-1] + bytes([sig[-1] ^ 1]))
    assert not ec.verify(pub, scheme, b"message", b"")


def test_cross_curve_key_scheme_mismatch():
    priv, _ = ec.keypair(NamedGroup.SECP521R1, random.Random(6))
    with pytest.raises(ValueError):
        ec.sign(priv, SignatureScheme.ECDSA_SECP256R1_SHA256, b"m")


@pytest.mark.parametrize(
    "group,secret_len", [(NamedGroup.SECP256R1, 32), (NamedGroup.SECP521R1, 66)]
)
def test_ecdh_symmetry(group, secret_len):
    rng = random.Random(42)
    for _ in range(100):
        a_priv, a_pub = ec.keypair(group, rng)
        b_priv, b_pub = ec.keypair(group, rng)
        ab = ec.shared_secret(a_priv, b_pub)
        ba = ec.shared_secret(b_priv, a_pub)
        assert ab == ba
        assert len(ab) == secret_len


def test_invalid_points_rejected():
    priv, _ = ec.keypair(NamedGroup.SECP256R1, random.Random(9))
    with pytest.raises(IllegalParameter):
        ec.shared_secret(priv, bytes(65))
    with pytest.raises(IllegalParameter):
        ec.shared_secret(priv, b"\x04" + b"\x01" * 64)
    with pytest.raises(IllegalParameter):
        ec.shared_secret(priv, b"")


def test_public_bytes_are_uncompressed_points():
    _, pub256 = ec.keypair(NamedGroup.SECP256R1, random.Random(10))
    _, pub521 = ec.keypair(NamedGroup.SECP521R1, random.Random(10))
    assert len(pub256) == 65 and pub256[0] == 0x04
    assert len(pub521) == 133 and pub521[0] == 0x04


@pytest.mark.parametrize(
    "profile, protocol, mode, suite, derivations",
    [
        ("full", "dtls", "psk", None, 0),
        ("full", "tls", "zero_rtt", None, 0),
        ("ecdsa128_256", "tls", "pk_mutual", None, 4),  # P-256, with P-521 enabled too
        ("ecdsa128", "tls", "pk_server_only", None, 3),  # P-256
        ("ecdsa128_256", "dtls", "pk_mutual", 0x13A4, 4),  # P-521
    ],
)
def test_each_private_key_is_derived_once(monkeypatch, profile, protocol, mode, suite, derivations):
    derived = []
    derive = backend_ec.derive_private_key

    def counting_derive(*args):
        derived.append(args)
        return derive(*args)

    monkeypatch.setattr(backend_ec, "derive_private_key", counting_derive)
    report = bench.run_scenario(
        bench.Scenario(profile=profile, protocol=protocol, mode=mode, suite=suite)
    )
    assert report.ok
    # One key per credential a side holds, on the handshake's one group, and one
    # per ephemeral ECDHE key; signing and ECDH reuse them. No key is built for
    # a group or a side that holds none.
    assert len(derived) == derivations


def test_verify_memo_answers_identical_inputs_once(monkeypatch):
    priv, pub = ec.keypair(NamedGroup.SECP256R1, random.Random(11))
    scheme = SignatureScheme.ECDSA_SECP256R1_SHA256
    sig = ec.sign(priv, scheme, b"content")
    built = count_backend_keys(monkeypatch)
    assert all(ec.verify(pub, scheme, b"content", sig) for _ in range(3))
    assert len(built) == 1
    assert ec.verify.cache_info().hits == 2


def test_verify_memo_misses_on_any_changed_input(monkeypatch):
    # each tampered form is verified in full, after the genuine tuple is cached
    priv, pub = ec.keypair(NamedGroup.SECP256R1, random.Random(12))
    _, other_pub = ec.keypair(NamedGroup.SECP256R1, random.Random(13))
    scheme = SignatureScheme.ECDSA_SECP256R1_SHA256
    sig = ec.sign(priv, scheme, b"content")
    built = count_backend_keys(monkeypatch)
    assert ec.verify(pub, scheme, b"content", sig)
    tampered = [
        (other_pub, scheme, b"content", sig),
        (pub, SignatureScheme.ECDSA_SECP521R1_SHA512, b"content", sig),
        (pub, scheme, b"contenu", sig),
        (pub, scheme, b"content", sig[:-1] + bytes([sig[-1] ^ 1])),
    ]
    for args in tampered:
        assert not ec.verify(*args)
    # the P-521 scheme's key build rejects the P-256 point
    assert built == [pub, other_pub, pub, pub, pub]
    assert ec.verify.cache_info().hits == 0


def test_verify_memo_is_bounded(monkeypatch):
    priv, pub = ec.keypair(NamedGroup.SECP256R1, random.Random(14))
    scheme = SignatureScheme.ECDSA_SECP256R1_SHA256
    sig = ec.sign(priv, scheme, b"content")
    built = count_backend_keys(monkeypatch)
    for i in range(1000):
        assert not ec.verify(pub, scheme, b"content %d" % i, sig)
    assert len(built) == 1000
    info = ec.verify.cache_info()
    assert info.maxsize == ec.VERIFY_MEMO_SIZE
    assert info.currsize <= info.maxsize
