import itertools
import random

import pytest

from minitls import crypto, records
from minitls.crypto import SuiteId
from minitls.errors import (
    AuthenticationFailure,
    DecodeError,
    RecordOverflow,
    ReplayedRecord,
    SequenceOverflow,
    UnexpectedMessage,
)
from minitls.records import SEQ_LIMIT, ContentType, ReplayWindow, TrafficKeys

from .harness import VECTOR_DIR, load_hex_vectors

P128 = crypto.suite_params(SuiteId.AES_128_CCM_SHA256)


def tls_keys():
    return TrafficKeys(b"k" * 16, b"i" * 12, None)

def dtls_keys():
    return TrafficKeys(b"k" * 16, b"i" * 12, b"n" * 16)

def dtls_read_keys():
    keys = dtls_keys()
    keys.window = ReplayWindow()
    return keys


def test_nonce_for():
    iv = bytes(range(12))
    assert records.nonce_for(iv, 0) == iv
    n1 = records.nonce_for(iv, 1)
    assert n1[:-1] == iv[:-1] and n1[-1] == iv[-1] ^ 1
    seen = {records.nonce_for(iv, s) for s in range(10_000)}
    assert len(seen) == 10_000


def test_legacy_header_ladder():
    assert records.TLS_RECORD_HEADER_LEN == 5  # TLS 1.2 and TLS 1.3
    assert records.DTLS12_RECORD_HEADER_LEN == 13
    assert records.unified_header_size(0, False, False) == 2  # header byte + 8-bit sequence
    assert records.unified_header_size(4, False, True) == 8  # + 4-byte CID + length


def test_tls_seal_length_arithmetic():
    keys = tls_keys()
    rec = records.seal_tls(P128, keys, ContentType.APPLICATION_DATA, bytes(100))
    assert len(rec) == 5 + 100 + 1 + 16
    padded = records.seal_tls(P128, keys, ContentType.APPLICATION_DATA, bytes(100), pad_len=10)
    assert len(padded) == 5 + 100 + 1 + 10 + 16


def test_tls_round_trip_with_padding():
    rng = random.Random(8)
    for _ in range(50):
        w, r = tls_keys(), tls_keys()
        payload = rng.randbytes(rng.randrange(0, 300))
        pad = rng.randrange(0, 20)
        true_type = rng.choice([ContentType.HANDSHAKE, ContentType.APPLICATION_DATA, ContentType.ALERT])
        rec = records.seal_tls(P128, w, true_type, payload, pad_len=pad)
        got_type, got = records.open_tls(P128, r, rec)
        assert (got_type, got) == (true_type, payload)


def test_tls_sequence_advances_and_binds():
    w, r = tls_keys(), tls_keys()
    r1 = records.seal_tls(P128, w, ContentType.APPLICATION_DATA, b"one")
    r2 = records.seal_tls(P128, w, ContentType.APPLICATION_DATA, b"two")
    assert records.open_tls(P128, r, r1)[1] == b"one"
    assert records.open_tls(P128, r, r2)[1] == b"two"
    # replaying record 1 at sequence 2 fails
    with pytest.raises(AuthenticationFailure):
        records.open_tls(P128, r, r1)


def test_tls_tamper_leaves_read_seq():
    w, r = tls_keys(), tls_keys()
    rec = bytearray(records.seal_tls(P128, w, ContentType.APPLICATION_DATA, b"payload"))
    rec[-1] ^= 1
    with pytest.raises(AuthenticationFailure):
        records.open_tls(P128, r, bytes(rec))
    assert r.window.next_expected == 0


def test_tls_all_zero_inner():
    w, r = tls_keys(), tls_keys()
    inner = bytes(5)
    header = bytes([0x17, 0x03, 0x03]) + (len(inner) + 16).to_bytes(2, "big")
    ct = crypto.aead_seal(w.aead(P128), records.nonce_for(w.iv, 0), header, inner)
    with pytest.raises(UnexpectedMessage):
        records.open_tls(P128, r, header + ct)


def test_tls_bad_outer_type():
    with pytest.raises(DecodeError):
        records.open_tls(P128, tls_keys(), b"\x16\x03\x03\x00\x01\x00")


def test_tls_record_overflow():
    with pytest.raises(RecordOverflow):
        records.seal_tls(P128, tls_keys(), 23, bytes(1 << 14 + 1))


@pytest.mark.parametrize(
    "content_type,limit", [(ContentType.HANDSHAKE, 1 << 14), (ContentType.APPLICATION_DATA, (1 << 14) + 256)],
    ids=["plaintext", "protected"],
)
def test_tls_record_length_over_the_limit_on_receipt(content_type, limit):
    # RFC 8446 sections 5.1 and 5.2: the header alone decides, before the body arrives
    header = bytes([content_type, 0x03, 0x03])
    assert records.tls_record_length(header + limit.to_bytes(2, "big")) == limit
    with pytest.raises(RecordOverflow):
        records.tls_record_length(header + (limit + 1).to_bytes(2, "big"))


def test_inner_plaintext_over_the_limit_on_receipt():
    # 2^14 content bytes, the type and one byte of padding: 2^14 + 2 (RFC 8446 section 5.4)
    w, r = tls_keys(), tls_keys()
    inner = bytes(1 << 14) + bytes([ContentType.APPLICATION_DATA, 0])
    header = bytes([0x17, 0x03, 0x03]) + (len(inner) + 16).to_bytes(2, "big")
    ct = crypto.aead_seal(w.aead(P128), records.nonce_for(w.iv, 0), header, inner)
    with pytest.raises(RecordOverflow):
        records.open_tls(P128, r, header + ct)


def test_dtls_records_over_the_limit_on_receipt():
    plain = records.encode_dtls_plaintext(ContentType.HANDSHAKE, 0, bytes((1 << 14) + 1))
    with pytest.raises(RecordOverflow):
        records.parse_dtls_plaintext(plain, 0)
    # a unified header without a length field: the record runs to the datagram's end
    with pytest.raises(RecordOverflow):
        records.parse_unified(b"\x20\x00" + bytes((1 << 14) + 257), 0, 0)


def test_dtls_minimal_record_is_19_bytes():
    keys = dtls_keys()
    rec = records.seal_dtls(P128, keys, 3, ContentType.APPLICATION_DATA, b"")
    assert len(rec) == 2 + (0 + 1 + 16)
    assert rec[0] == 0x23


def test_dtls_header_field_width_sum():
    keys = dtls_keys()
    rec = records.seal_dtls(
        P128, keys, 3, ContentType.APPLICATION_DATA, b"",
        cid=b"\x01\x02\x03\x04", length_present=True,
    )
    parsed = records.parse_unified(rec, 0, 4)
    assert len(parsed.header) == 1 + 4 + 1 + 2
    assert records.unified_header_size(4, False, True) == 8


FLAG_COMBOS = list(itertools.product([b"", b"\xc1\xd2\xe3\xf4"], [False, True], [False, True]))


@pytest.mark.parametrize("cid,seq16,lenp", FLAG_COMBOS)
def test_dtls_round_trip_all_flag_combos(cid, seq16, lenp):
    rng = random.Random(hash((cid, seq16, lenp)) & 0xFFFF)
    w, r = dtls_keys(), dtls_read_keys()
    for _ in range(30):
        payload = rng.randbytes(rng.randrange(0, 200))
        rec = records.seal_dtls(
            P128, w, 3, ContentType.APPLICATION_DATA, payload,
            cid=cid, seq_16bit=seq16, length_present=lenp, pad_len=rng.randrange(0, 8),
        )
        parsed = records.parse_unified(rec, 0, len(cid))
        assert parsed.cid == cid
        assert len(rec) - len(parsed.ciphertext) == records.unified_header_size(len(cid), seq16, lenp)
        seq, true_type, got = records.open_dtls(P128, r, parsed)
        assert (true_type, got) == (ContentType.APPLICATION_DATA, payload)
        assert parsed.consumed == len(rec)


def test_dtls_seal_matches_golden_fixtures():
    vectors = load_hex_vectors(VECTOR_DIR / "dtls_headers.txt")
    assert len(vectors) == 8
    for flags, cid, payload, wire in vectors:
        keys = dtls_keys()
        rec = records.seal_dtls(
            P128, keys, 3, ContentType.APPLICATION_DATA, payload,
            cid=cid,
            seq_16bit=bool(flags[0] & 2),
            length_present=bool(flags[0] & 1),
        )
        assert rec == wire


def test_dtls_seq_reconstruction():
    assert records.reconstruct_seq(0x2E, 1, 300) == 302
    assert records.reconstruct_seq(0xFF, 1, 256) == 255
    assert records.reconstruct_seq(0x00, 1, 255) == 256
    assert records.reconstruct_seq(0x01, 2, 70000) == 65537
    assert records.reconstruct_seq(5, 1, 0) == 5


def nearest_seq(seq_low: int, seq_len: int, expected: int) -> int:
    """Brute force: of the non-negative values with these low bits from two or three
    periods below ``expected`` to two above, the nearest, the lower one on a tie."""
    mod = 1 << (8 * seq_len)
    start = max(0, expected - 2 * mod) // mod * mod + seq_low
    return min(range(start, expected + 2 * mod, mod), key=lambda v: (abs(v - expected), v))


def test_dtls_seq_reconstruction_matches_brute_force():
    for expected in range(1024):
        for seq_low in range(256):
            assert records.reconstruct_seq(seq_low, 1, expected) == nearest_seq(seq_low, 1, expected)
    rng = random.Random(9147)
    for expected in [0, 1, 32767, 32768, 32769, 65535, 65536, 2**47] + rng.sample(range(1 << 20), 200):
        for seq_low in [0, 1, 0x7FFF, 0x8000, 0xFFFF] + rng.sample(range(1 << 16), 20):
            assert records.reconstruct_seq(seq_low, 2, expected) == nearest_seq(seq_low, 2, expected)


def test_dtls_replay_rejected():
    w, r = dtls_keys(), dtls_read_keys()
    rec = records.seal_dtls(P128, w, 3, ContentType.APPLICATION_DATA, b"x")
    records.open_dtls(P128, r, records.parse_unified(rec, 0, 0))
    with pytest.raises(ReplayedRecord):
        records.open_dtls(P128, r, records.parse_unified(rec, 0, 0))


def test_dtls_out_of_order_within_window():
    w, r = dtls_keys(), dtls_read_keys()
    recs = [
        records.seal_dtls(P128, w, 3, ContentType.APPLICATION_DATA, bytes([i]))
        for i in range(10)
    ]
    order = [3, 0, 1, 2, 9, 4, 5, 8, 6, 7]
    for i in order:
        seq, _, payload = records.open_dtls(P128, r, records.parse_unified(recs[i], 0, 0))
        assert seq == i and payload == bytes([i])


def test_dtls_read_keeps_one_record_of_its_highest_sequence():
    w, r = dtls_keys(), dtls_read_keys()
    for rec in [records.seal_dtls(P128, w, 3, ContentType.APPLICATION_DATA, b"x") for _ in range(3)]:
        records.open_dtls(P128, r, records.parse_unified(rec, 0, 0))
    assert r.window.next_expected == 3
    with pytest.raises(SequenceOverflow):
        r.note_read(SEQ_LIMIT)
    assert r.window.max_seq == 2  # the sequence limit is checked before the window moves


def test_replay_window_permutation_invariant():
    rng = random.Random(500)
    window = ReplayWindow()
    seqs = list(range(1000))
    # bounded-displacement shuffle keeps deliveries within the 64-wide window
    for i in range(0, 1000, 32):
        chunk = seqs[i : i + 32]
        rng.shuffle(chunk)
        seqs[i : i + 32] = chunk
    with_dups = seqs + rng.sample(seqs, 200)
    accepted = []
    for s in with_dups:
        if not window.seen(s):
            window.add(s)
            accepted.append(s)
    assert sorted(accepted) == list(range(1000))


def test_replay_window_jumps_far_ahead_in_64_bits():
    # a jump of 2^47 leaves one bit set, not a 2^47-bit shift
    window = ReplayWindow()
    window.add(0)
    window.add(2**47)
    assert (window.max_seq, window.bits) == (2**47, 1)
    assert window.seen(2**47) and window.seen(0)


def test_dtls_aad_binds_header_bits():
    w = dtls_keys()
    cid = b"\xaa\xbb\xcc\xdd"
    rec = records.seal_dtls(
        P128, w, 3, ContentType.APPLICATION_DATA, b"payload", cid=cid, length_present=True
    )
    parsed = records.parse_unified(rec, 0, 4)
    hdr_len = len(parsed.header)
    for byte_idx in range(hdr_len):
        for bit in range(8):
            mutated = bytearray(rec)
            mutated[byte_idx] ^= 1 << bit
            r = dtls_read_keys()
            try:
                p = records.parse_unified(bytes(mutated), 0, 4)
                with pytest.raises((AuthenticationFailure, UnexpectedMessage, DecodeError)):
                    records.open_dtls(P128, r, p)
            except DecodeError:
                pass  # flag bits may make the header unparseable, also a rejection


def test_dtls_sequence_privacy():
    rng = random.Random(31337)
    hidden = 0
    trials = 300
    for _ in range(trials):
        keys = TrafficKeys(rng.randbytes(16), rng.randbytes(12), rng.randbytes(16))
        keys.write_seq = 5
        rec = records.seal_dtls(P128, keys, 3, ContentType.APPLICATION_DATA, b"hello")
        if rec[1] != 5:  # wire byte at the sequence position
            hidden += 1
        reader = TrafficKeys(keys.key, keys.iv, keys.sn_key)
        reader.window = ReplayWindow()
        reader.window.max_seq = 4
        seq, _, _ = records.open_dtls(P128, reader, records.parse_unified(rec, 0, 0))
        assert seq == 5  # demasking recovers the counter
    assert hidden >= trials * 0.99


def test_dtls_two_records_one_datagram():
    w, r = dtls_keys(), dtls_read_keys()
    first = records.seal_dtls(P128, w, 3, ContentType.APPLICATION_DATA, b"first", length_present=True)
    last = records.seal_dtls(P128, w, 3, ContentType.APPLICATION_DATA, b"last")
    datagram = first + last
    p1 = records.parse_unified(datagram, 0, 0)
    _, _, payload1 = records.open_dtls(P128, r, p1)
    p2 = records.parse_unified(datagram, p1.consumed, 0)
    _, _, payload2 = records.open_dtls(P128, r, p2)
    assert (payload1, payload2) == (b"first", b"last")
    assert p1.consumed + p2.consumed == len(datagram)


def test_dtls_overhead_always_beats_dtls12():
    # every achievable header size from the minimal form to the ladder max
    for cid_len, seq16, lenp in itertools.product([0, 4], [False, True], [False, True]):
        size = records.unified_header_size(cid_len, seq16, lenp)
        if size <= records.unified_header_size(4, False, True):
            assert 5 <= records.DTLS12_RECORD_HEADER_LEN - size <= 11


def test_dtls_plaintext_records():
    rec = records.encode_dtls_plaintext(ContentType.HANDSHAKE, 7, b"hello")
    assert len(rec) == 13 + 5
    ctype, seq, payload, consumed = records.parse_dtls_plaintext(rec, 0)
    assert (ctype, seq, payload, consumed) == (ContentType.HANDSHAKE, 7, b"hello", 18)
    two = rec + records.encode_dtls_plaintext(ContentType.ALERT, 8, b"\x02\x28")
    _, _, _, used = records.parse_dtls_plaintext(two, 0)
    ctype2, seq2, payload2, _ = records.parse_dtls_plaintext(two, used)
    assert (ctype2, seq2, payload2) == (ContentType.ALERT, 8, b"\x02\x28")
    with pytest.raises(DecodeError, match="only exist in epoch 0"):
        records.parse_dtls_plaintext(rec[:3] + (1).to_bytes(2, "big") + rec[5:], 0)
    with pytest.raises(DecodeError, match="record length mismatch"):
        records.parse_dtls_plaintext(rec[:-1], 0)


def test_dtls_epoch_builds_one_aead_and_one_sn_encryptor(monkeypatch):
    built = {"aead": 0, "ecb": 0}
    aesccm, cipher = crypto.AESCCM, crypto.Cipher

    def counting_aesccm(*args, **kwargs):
        built["aead"] += 1
        return aesccm(*args, **kwargs)

    def counting_cipher(*args, **kwargs):
        built["ecb"] += 1
        return cipher(*args, **kwargs)

    monkeypatch.setattr(crypto, "AESCCM", counting_aesccm)
    monkeypatch.setattr(crypto, "Cipher", counting_cipher)
    keys = dtls_read_keys()
    recs = [records.seal_dtls(P128, keys, 3, ContentType.APPLICATION_DATA, bytes([i])) for i in range(10)]
    for i, rec in enumerate(recs):
        seq, _, payload = records.open_dtls(P128, keys, records.parse_unified(rec, 0, 0))
        assert (seq, payload) == (i, bytes([i]))
    assert built == {"aead": 1, "ecb": 1}


def test_reused_record_ciphers_keep_every_check():
    short_key = TrafficKeys(b"k" * 15, b"i" * 12, b"n" * 16)
    with pytest.raises(ValueError):
        records.seal_dtls(P128, short_key, 3, ContentType.APPLICATION_DATA, b"x")
    w, r = dtls_keys(), dtls_read_keys()
    first, second = (records.seal_dtls(P128, w, 3, ContentType.APPLICATION_DATA, b"x") for _ in range(2))
    records.open_dtls(P128, r, records.parse_unified(first, 0, 0))  # builds r's ciphers
    flipped = bytearray(second)
    flipped[-1] ^= 1  # a tag bit
    with pytest.raises(AuthenticationFailure):
        records.open_dtls(P128, r, records.parse_unified(bytes(flipped), 0, 0))
    with pytest.raises(ReplayedRecord):
        records.open_dtls(P128, r, records.parse_unified(first, 0, 0))
    seq, _, payload = records.open_dtls(P128, r, records.parse_unified(second, 0, 0))
    assert (seq, payload) == (1, b"x")
