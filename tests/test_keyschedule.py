import hashlib
import itertools
import random

import pytest

from minitls.connection import OpCounters
from minitls.crypto import Protocol, SuiteId, hash_data, HashAlg
from minitls.errors import SequenceOverflow, WrongStage
from minitls.keyschedule import KeySchedule, KsStage, PskKind
from minitls.records import SEQ_LIMIT, TrafficKeys

from .oracles import (
    raw_derive_secret,
    raw_expand_label,
    raw_hkdf_extract,
    raw_hmac,
)

TLS_PREFIX = b"tls13 "
DTLS_PREFIX = b"dtls13"


def scripted_chain(hashname, prefix, psk, dh, binder_label, th_ch, th_sh, th_sfin):
    """Full Extract/Expand chain written out step by step, independent of
    the implementation under test."""
    hlen = hashlib.new(hashname).digest_size
    zeros = b"\x00" * hlen
    early = raw_hkdf_extract(hashname, b"", psk or zeros)
    binder = raw_derive_secret(hashname, early, prefix, binder_label, b"")
    c_early = raw_expand_label(hashname, early, prefix, b"c e traffic", th_ch, hlen)
    derived0 = raw_derive_secret(hashname, early, prefix, b"derived", b"")
    hs = raw_hkdf_extract(hashname, derived0, dh or zeros)
    c_hs = raw_expand_label(hashname, hs, prefix, b"c hs traffic", th_sh, hlen)
    s_hs = raw_expand_label(hashname, hs, prefix, b"s hs traffic", th_sh, hlen)
    derived1 = raw_derive_secret(hashname, hs, prefix, b"derived", b"")
    master = raw_hkdf_extract(hashname, derived1, zeros)
    c_ap = raw_expand_label(hashname, master, prefix, b"c ap traffic", th_sfin, hlen)
    s_ap = raw_expand_label(hashname, master, prefix, b"s ap traffic", th_sfin, hlen)
    exporter = raw_expand_label(hashname, master, prefix, b"exp master", th_sfin, hlen)
    return {
        "early": early,
        "binder": binder,
        "c_early": c_early,
        "handshake": hs,
        "c_hs": c_hs,
        "s_hs": s_hs,
        "master": master,
        "c_ap": c_ap,
        "s_ap": s_ap,
        "exporter": exporter,
    }


FIXED_INPUTS = [
    # (psk, dh, kind): plain external PSK, PSK+DH, and no-PSK (pure DH)
    (b"\x11" * 16, None, PskKind.EXTERNAL),
    (b"\x22" * 32, b"\x33" * 32, PskKind.RESUMPTION),
    (None, b"\x44" * 32, PskKind.EXTERNAL),
]


@pytest.mark.parametrize("psk,dh,kind", FIXED_INPUTS)
@pytest.mark.parametrize("protocol,prefix", [(Protocol.TLS, TLS_PREFIX), (Protocol.DTLS, DTLS_PREFIX)])
def test_full_chain_matches_scripted_oracle(psk, dh, kind, protocol, prefix):
    th_ch = hash_data(HashAlg.SHA256, b"client hello bytes")
    th_sh = hash_data(HashAlg.SHA256, b"through server hello")
    th_sfin = hash_data(HashAlg.SHA256, b"through server finished")

    ks = KeySchedule(SuiteId.AES_128_CCM_SHA256, protocol, OpCounters())
    ks.init_early(psk, kind)
    ks.derive_early_traffic(th_ch)
    ks.advance_handshake(dh, th_sh)
    ks.advance_master(th_sfin)

    label = b"ext binder" if kind == PskKind.EXTERNAL else b"res binder"
    want = scripted_chain("sha256", prefix, psk, dh, label, th_ch, th_sh, th_sfin)
    assert {name: ks.secret(name) for name in want} == want


def test_absent_psk_uses_zero_fill():
    ks = KeySchedule(SuiteId.AES_128_CCM_SHA256, Protocol.TLS, OpCounters()).init_early()
    assert ks.secret("early") == raw_hkdf_extract("sha256", b"", b"\x00" * 32)


def test_binder_label_selection():
    ext = KeySchedule(SuiteId.AES_128_CCM_SHA256, Protocol.TLS, OpCounters()).init_early(
        b"p" * 16, PskKind.EXTERNAL
    )
    res = KeySchedule(SuiteId.AES_128_CCM_SHA256, Protocol.TLS, OpCounters()).init_early(
        b"p" * 16, PskKind.RESUMPTION
    )
    assert ext.secret("binder") != res.secret("binder")
    assert ext.secret("early") == res.secret("early")


def test_binder_matches_raw_hmac_oracle():
    ks = KeySchedule(SuiteId.AES_128_CCM_SHA256, Protocol.TLS, OpCounters()).init_early(b"q" * 16)
    th = hash_data(HashAlg.SHA256, b"truncated client hello")
    fk = raw_expand_label("sha256", ks.secret("binder"), TLS_PREFIX, b"finished", b"", 32)
    assert ks.compute_binder(th) == raw_hmac("sha256", fk, th)


def test_traffic_keys_shape_and_oracle():
    secret = bytes(range(32))
    tls = KeySchedule(SuiteId.AES_128_CCM_SHA256, Protocol.TLS, OpCounters())
    dtls = KeySchedule(SuiteId.AES_128_CCM_SHA256, Protocol.DTLS, OpCounters())
    kt = tls.traffic_keys(secret)
    kd = dtls.traffic_keys(secret)
    assert kt.sn_key is None
    assert kd.sn_key is not None and len(kd.sn_key) == 16
    assert len(kt.key) == 16 and len(kt.iv) == 12
    assert kt.key == raw_expand_label("sha256", secret, TLS_PREFIX, b"key", b"", 16)
    assert kt.iv == raw_expand_label("sha256", secret, TLS_PREFIX, b"iv", b"", 12)
    assert kd.sn_key == raw_expand_label("sha256", secret, DTLS_PREFIX, b"sn", b"", 16)


def test_sequence_counters():
    keys = TrafficKeys(b"k" * 16, b"i" * 12, None)
    assert keys.next_write_seq() == 0
    assert keys.next_write_seq() == 1
    keys.write_seq = SEQ_LIMIT
    with pytest.raises(SequenceOverflow):
        keys.next_write_seq()
    keys.note_read(5)
    keys.note_read(3)
    assert keys.window.next_expected == 6
    with pytest.raises(SequenceOverflow):
        keys.note_read(SEQ_LIMIT)


def _fresh():
    return KeySchedule(SuiteId.AES_128_CCM_SHA256, Protocol.TLS, OpCounters())


TH = hash_data(HashAlg.SHA256, b"x")

OPS = {
    "init_early": lambda ks: ks.init_early(b"p" * 16),
    "derive_early_traffic": lambda ks: ks.derive_early_traffic(TH),
    "advance_handshake": lambda ks: ks.advance_handshake(b"d" * 32, TH),
    "advance_master": lambda ks: ks.advance_master(TH),
    "derive_resumption": lambda ks: ks.derive_resumption(TH),
    "compute_binder": lambda ks: ks.compute_binder(TH),
    "resumption_psk": lambda ks: ks.resumption_psk(b"\x00"),
}

# Each step of a handshake, in order, and the secrets it derives.
STEPS = [
    ("init_early", ("early", "binder")),
    ("derive_early_traffic", ("c_early",)),
    ("advance_handshake", ("handshake", "c_hs", "s_hs")),
    ("advance_master", ("master", "c_ap", "s_ap", "exporter")),
    ("derive_resumption", ("res_master",)),
]
SECRET_NAMES = [name for _, names in STEPS for name in names]

# Which operations are legal at each stage.
LEGAL = {
    KsStage.FRESH: {"init_early"},
    KsStage.EARLY: {"derive_early_traffic", "advance_handshake", "compute_binder"},
    KsStage.HANDSHAKE: {"advance_master"},
    KsStage.MASTER: {"derive_resumption", "compute_binder", "resumption_psk"},
}


def _at_stage(stage: KsStage) -> KeySchedule:
    ks = _fresh()
    if stage >= KsStage.EARLY:
        ks.init_early(b"p" * 16)
    if stage >= KsStage.HANDSHAKE:
        ks.advance_handshake(b"d" * 32, TH)
    if stage >= KsStage.MASTER:
        ks.advance_master(TH)
        ks.derive_resumption(TH)
    return ks


@pytest.mark.parametrize("stage", list(KsStage))
@pytest.mark.parametrize("op", sorted(OPS))
def test_stage_machine_exhaustive(stage, op):
    ks = _at_stage(stage)
    legal = op in LEGAL[stage] or (op == "compute_binder" and stage >= KsStage.EARLY)
    if legal:
        OPS[op](ks)
    else:
        with pytest.raises(WrongStage):
            OPS[op](ks)


@pytest.mark.parametrize("name", SECRET_NAMES)
def test_each_secret_guarded_until_its_stage(name):
    ks = _fresh()
    for op, derived in STEPS:
        with pytest.raises(WrongStage, match=f"{name} not available at stage {ks.stage.name}"):
            ks.secret(name)
        OPS[op](ks)
        if name in derived:
            break
    assert len(ks.secret(name)) == 32


def test_every_secret_pairwise_distinct():
    rng = random.Random(2024)
    ks = KeySchedule(SuiteId.AES_128_CCM_SHA256, Protocol.TLS, OpCounters())
    ks.init_early(rng.randbytes(32))
    ks.derive_early_traffic(rng.randbytes(32))
    ks.advance_handshake(rng.randbytes(32), rng.randbytes(32))
    ks.advance_master(rng.randbytes(32))
    ks.derive_resumption(rng.randbytes(32))
    secrets = [ks.secret(name) for name in SECRET_NAMES]
    assert len(secrets) == 11
    for a, b in itertools.combinations(secrets, 2):
        assert a != b


def test_protocol_separation():
    args = (b"p" * 16, PskKind.EXTERNAL)
    tls = KeySchedule(SuiteId.AES_128_CCM_SHA256, Protocol.TLS, OpCounters()).init_early(*args)
    dtls = KeySchedule(SuiteId.AES_128_CCM_SHA256, Protocol.DTLS, OpCounters()).init_early(*args)
    tls.advance_handshake(b"d" * 32, TH)
    dtls.advance_handshake(b"d" * 32, TH)
    assert tls.secret("early") == dtls.secret("early")  # raw extract, no label yet
    assert tls.secret("binder") != dtls.secret("binder")
    assert tls.secret("c_hs") != dtls.secret("c_hs")
    assert tls.traffic_keys(b"t" * 32).key != dtls.traffic_keys(b"t" * 32).key


def test_resumption_psks_distinct_by_nonce():
    ks = _at_stage(KsStage.MASTER)
    assert ks.resumption_psk(b"\x00") != ks.resumption_psk(b"\x01")


def test_finished_mac_round_trip():
    ks = _at_stage(KsStage.HANDSHAKE)
    mac = ks.finished_mac(ks.secret("s_hs"), TH)
    assert len(mac) == 32
    assert ks.verify_finished(ks.secret("s_hs"), TH, mac)
    assert not ks.verify_finished(ks.secret("s_hs"), TH, mac[:-1] + b"\x00")


def test_keylog_lines():
    lines = []
    ks = KeySchedule(SuiteId.AES_128_CCM_SHA256, Protocol.TLS, OpCounters())
    ks.set_keylog(lines.append, b"\xab" * 32)
    ks.init_early(b"p" * 16)
    ks.derive_early_traffic(TH)
    ks.advance_handshake(None, TH)
    ks.advance_master(TH)
    assert len(lines) == 6
    label, crand, secret = lines[0].split()
    assert label == "CLIENT_EARLY_TRAFFIC_SECRET"
    assert crand == "ab" * 32
    assert bytes.fromhex(secret) == ks.secret("c_early")

