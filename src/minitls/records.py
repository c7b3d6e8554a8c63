"""Record protection: TLS 1.3 records and the DTLS 1.3 unified header.

The DTLS header byte is 001|C|S|L|EE.  AEAD additional data is the full
header with *plaintext* sequence bits; the sequence-number mask (one raw
AES block over the first 16 ciphertext bytes under sn_key) is applied
after sealing and removed before opening, so seal/open are exact
inverses.  Epoch-0 flights use the 13-byte DTLS 1.2-style header since
no keys exist yet.

``TrafficKeys`` holds everything one epoch, direction and peer needs: the
key material the key schedule derives, the write sequence counter, the
replay window every open reads its sequence number from, and the OpenSSL
AEAD object and sequence-number ECB encryptor, built on first use.
"""

from enum import IntEnum
from typing import NamedTuple

from . import crypto
from .crypto import SuiteParams
from .errors import DecodeError, RecordOverflow, ReplayedRecord, SequenceOverflow, UnexpectedMessage
from .messages import TLS_LEGACY_VERSION


class ContentType(IntEnum):
    CHANGE_CIPHER_SPEC = 20
    ALERT = 21
    HANDSHAKE = 22
    APPLICATION_DATA = 23
    ACK = 26


class OutRecord(NamedTuple):
    data: bytes
    name: str
    retransmit: bool = False


TLS_RECORD_HEADER_LEN = 5
DTLS12_RECORD_HEADER_LEN = 13  # type 1 + version 2 + epoch 2 + seq 6 + length 2
DTLS12_WIRE_VERSION = 0xFEFD

MAX_PLAINTEXT = 1 << 14  # content bytes one record carries (RFC 8446 section 5.1)
MAX_CIPHERTEXT = MAX_PLAINTEXT + 256  # the body of a protected record (RFC 8446 section 5.2)
SEQ_LIMIT = 1 << 48


class ReplayWindow:
    """64-entry sliding anti-replay bitmap; only a record that deprotected moves it (RFC 9147 section 4.5.1)."""

    SIZE = 64

    def __init__(self):
        self.max_seq = -1
        self.bits = 0

    @property
    def next_expected(self) -> int:
        return self.max_seq + 1

    def seen(self, seq: int) -> bool:
        if seq > self.max_seq:
            return False
        offset = self.max_seq - seq
        if offset >= self.SIZE:
            return True  # too old to track: treated as replayed
        return bool(self.bits & (1 << offset))

    def add(self, seq: int) -> None:
        if seq > self.max_seq:
            shift = seq - self.max_seq  # a jump of SIZE or more leaves only seq set: never shift that far
            self.bits = ((self.bits << shift) | 1) & ((1 << self.SIZE) - 1) if shift < self.SIZE else 1
            self.max_seq = seq
        else:
            self.bits |= 1 << (self.max_seq - seq)


class TrafficKeys:
    """Per-direction AEAD material and record sequence state for one epoch.

    sn_key exists only for DTLS (sequence-number masking).  ``window`` is the
    one record of the sequence numbers read: a TLS open takes its next expected
    number, a DTLS open reconstructs the full number around it and rejects
    replays.  Counters never decrease; hitting the 2^48 record ceiling is a
    hard error.  The OpenSSL AEAD object and sequence-number encryptor are
    built on first use and live as long as these keys.
    """

    __slots__ = ("key", "iv", "sn_key", "write_seq", "window", "_aead", "_sn_cipher")

    def __init__(self, key: bytes, iv: bytes, sn_key: bytes | None):
        self.key = key
        self.iv = iv
        self.sn_key = sn_key
        self.write_seq = 0
        self.window = ReplayWindow()
        self._aead = None
        self._sn_cipher = None

    def aead(self, params: SuiteParams):
        if self._aead is None:
            self._aead = crypto.aead_cipher(params, self.key)
        return self._aead

    def sn_cipher(self):
        if self._sn_cipher is None:
            self._sn_cipher = crypto.block_cipher(self.sn_key)
        return self._sn_cipher

    def next_write_seq(self) -> int:
        if self.write_seq >= SEQ_LIMIT:
            raise SequenceOverflow("write sequence space exhausted")
        seq = self.write_seq
        self.write_seq += 1
        return seq

    def note_read(self, seq: int) -> None:
        if seq >= SEQ_LIMIT:
            raise SequenceOverflow("read sequence space exhausted")
        self.window.add(seq)


def nonce_for(iv: bytes, seq64: int) -> bytes:
    """Per-record nonce: iv XOR left-zero-padded big-endian sequence."""
    return (int.from_bytes(iv, "big") ^ seq64).to_bytes(12, "big")


def _inner_plaintext(payload: bytes, true_type: int, pad_len: int) -> bytes:
    """TLSInnerPlaintext: content, type and padding, at most 2^14 + 1 bytes (RFC 8446 section 5.4)."""
    if len(payload) + pad_len > MAX_PLAINTEXT:
        raise RecordOverflow(f"{len(payload)} content and {pad_len} padding bytes exceed one record")
    return payload + bytes([true_type]) + bytes(pad_len)


def _strip_inner(plaintext: bytes) -> tuple:
    i = len(plaintext) - 1
    if i > MAX_PLAINTEXT:  # the inner plaintext holds at most 2^14 + 1 bytes (RFC 8446 section 5.4)
        raise RecordOverflow(f"{i + 1}-byte inner plaintext")
    while i >= 0 and plaintext[i] == 0:
        i -= 1
    if i < 0:
        raise UnexpectedMessage("record deprotected to padding only")
    return plaintext[i], plaintext[:i]


# --- TLS 1.3 records -------------------------------------------------------


def seal_tls(params: SuiteParams, keys: TrafficKeys, true_type: int, payload: bytes, pad_len: int = 0) -> bytes:
    inner = _inner_plaintext(payload, true_type, pad_len)
    total = len(inner) + params.tag_len
    header = bytes([ContentType.APPLICATION_DATA]) + TLS_LEGACY_VERSION.to_bytes(2, "big") + total.to_bytes(2, "big")
    seq = keys.next_write_seq()
    ct = crypto.aead_seal(keys.aead(params), nonce_for(keys.iv, seq), header, inner)
    return header + ct


def open_tls(params: SuiteParams, keys: TrafficKeys, record: bytes) -> tuple:
    """``record`` is one whole record, header included, as its header's length frames it."""
    if record[0] != ContentType.APPLICATION_DATA:
        raise DecodeError(f"outer content type {record[0]}")
    header, body = record[:5], record[5:]
    seq = keys.window.next_expected
    inner = crypto.aead_open(keys.aead(params), nonce_for(keys.iv, seq), header, body)
    keys.note_read(seq)
    true_type, payload = _strip_inner(inner)
    return true_type, payload


def tls_record_length(header: bytes) -> int:
    """The length field of ``header``, which holds at least a record header's 5 bytes: at most
    2^14 for a plaintext record and 2^14 + 256 for a protected one (RFC 8446 sections 5.1, 5.2)."""
    length = int.from_bytes(header[3:5], "big")
    if length > (MAX_CIPHERTEXT if header[0] == ContentType.APPLICATION_DATA else MAX_PLAINTEXT):
        raise RecordOverflow(f"{length}-byte record")
    return length


def encode_tls_plaintext(content_type: int, payload: bytes) -> bytes:
    return (
        bytes([content_type])
        + TLS_LEGACY_VERSION.to_bytes(2, "big")
        + len(payload).to_bytes(2, "big")
        + payload
    )


# --- DTLS 1.3 unified header -------------------------------------------------

_FIXED_BITS = 0b001


def unified_header_size(cid_len: int, seq_16bit: bool, length_present: bool) -> int:
    return 1 + cid_len + (2 if seq_16bit else 1) + (2 if length_present else 0)


def is_unified_header(first_byte: int) -> bool:
    return (first_byte >> 5) == _FIXED_BITS


def seal_dtls(
    params: SuiteParams,
    keys: TrafficKeys,
    epoch: int,
    true_type: int,
    payload: bytes,
    *,
    cid: bytes = b"",
    seq_16bit: bool = False,
    length_present: bool = False,
    pad_len: int = 0,
) -> bytes:
    inner = _inner_plaintext(payload, true_type, pad_len)
    ct_len = len(inner) + params.tag_len
    seq = keys.next_write_seq()
    seq_len = 2 if seq_16bit else 1
    aad = _unified_header(epoch, seq, seq_len, cid, length_present, ct_len)
    ct = crypto.aead_seal(keys.aead(params), nonce_for(keys.iv, seq), aad, inner)
    mask = crypto.block_encrypt(keys.sn_cipher(), ct[:16])[:seq_len]
    seq_off = 1 + len(cid)
    wire = bytearray(aad)
    for i in range(seq_len):
        wire[seq_off + i] ^= mask[i]
    return bytes(wire) + ct


def reconstruct_seq(seq_low: int, seq_len: int, expected: int) -> int:
    """Full 64-bit sequence: the non-negative value with the given low bits
    nearest the next expected sequence number, the lower one on a tie."""
    mod = 1 << (8 * seq_len)
    seq = expected + (seq_low - expected + mod // 2) % mod - mod // 2
    return seq if seq >= 0 else seq + mod


class ParsedCiphertext(NamedTuple):
    header: bytes  # wire header bytes (sequence still masked)
    cid: bytes
    epoch_low: int
    seq_len: int
    seq_off: int
    ciphertext: bytes
    consumed: int


def _unified_header(epoch: int, seq: int, seq_len: int, cid: bytes, length_present: bool, ct_len: int) -> bytes:
    """Header bytes with plaintext sequence bits, as AEAD additional data."""
    first_byte = (
        (_FIXED_BITS << 5)
        | ((1 if cid else 0) << 4)
        | ((1 if seq_len == 2 else 0) << 3)
        | ((1 if length_present else 0) << 2)
        | (epoch & 0x3)
    )
    out = bytes([first_byte]) + cid
    out += (seq & ((1 << (8 * seq_len)) - 1)).to_bytes(seq_len, "big")
    if length_present:
        out += ct_len.to_bytes(2, "big")
    return out


def parse_unified(datagram: bytes, offset: int, cid_len: int) -> ParsedCiphertext:
    """The record at ``offset``, which is inside ``datagram``."""
    b0 = datagram[offset]
    if not is_unified_header(b0):
        raise DecodeError("not a DTLS 1.3 ciphertext record")
    cid_present = bool(b0 & 0x10)
    seq_len = 2 if (b0 & 0x08) else 1
    length_present = bool(b0 & 0x04)
    epoch_low = b0 & 0x3
    pos = offset + 1
    cid = b""
    if cid_present:
        cid = bytes(datagram[pos : pos + cid_len])
        if len(cid) != cid_len:
            raise DecodeError("truncated connection id")
        pos += cid_len
    seq_off = pos - offset
    pos += seq_len
    if length_present:
        if pos + 2 > len(datagram):
            raise DecodeError("truncated length field")
        ct_len = int.from_bytes(datagram[pos : pos + 2], "big")
        pos += 2
        ct = datagram[pos : pos + ct_len]
        if len(ct) != ct_len:
            raise DecodeError("record length mismatch")
    else:
        ct = datagram[pos:]  # record extends to end of datagram
    header = datagram[offset:pos]
    pos += len(ct)
    if len(ct) < 16:
        raise DecodeError("short-ciphertext: sequence mask needs 16 bytes")
    if len(ct) > MAX_CIPHERTEXT:
        raise RecordOverflow(f"{len(ct)}-byte ciphertext")
    return ParsedCiphertext(header, cid, epoch_low, seq_len, seq_off, bytes(ct), pos - offset)


def open_dtls(
    params: SuiteParams,
    keys: TrafficKeys,
    parsed: ParsedCiphertext,
) -> tuple:
    """Returns (full_seq, true_type, payload); the replay window of ``keys``
    advances only after the tag verifies."""
    mask = crypto.block_encrypt(keys.sn_cipher(), parsed.ciphertext[:16])[: parsed.seq_len]
    aad = bytearray(parsed.header)
    for i in range(parsed.seq_len):
        aad[parsed.seq_off + i] ^= mask[i]
    seq_low = int.from_bytes(aad[parsed.seq_off : parsed.seq_off + parsed.seq_len], "big")
    full_seq = reconstruct_seq(seq_low, parsed.seq_len, keys.window.next_expected)
    if keys.window.seen(full_seq):
        raise ReplayedRecord(f"sequence {full_seq} already accepted")
    inner = crypto.aead_open(keys.aead(params), nonce_for(keys.iv, full_seq), bytes(aad), parsed.ciphertext)
    keys.note_read(full_seq)
    true_type, payload = _strip_inner(inner)
    return full_seq, true_type, payload


# --- DTLS plaintext (epoch 0) records -----------------------------------------


def encode_dtls_plaintext(content_type: int, seq: int, payload: bytes) -> bytes:
    return (
        bytes([content_type])
        + DTLS12_WIRE_VERSION.to_bytes(2, "big")
        + (0).to_bytes(2, "big")
        + seq.to_bytes(6, "big")
        + len(payload).to_bytes(2, "big")
        + payload
    )


def parse_dtls_plaintext(datagram: bytes, offset: int) -> tuple:
    """Returns (content_type, seq, payload, consumed)."""
    if offset + DTLS12_RECORD_HEADER_LEN > len(datagram):
        raise DecodeError("truncated plaintext record header")
    content_type = datagram[offset]
    version = int.from_bytes(datagram[offset + 1 : offset + 3], "big")
    if version != DTLS12_WIRE_VERSION:
        raise DecodeError("unexpected plaintext record version")
    epoch = int.from_bytes(datagram[offset + 3 : offset + 5], "big")
    if epoch != 0:
        raise DecodeError("plaintext records only exist in epoch 0")
    seq = int.from_bytes(datagram[offset + 5 : offset + 11], "big")
    length = int.from_bytes(datagram[offset + 11 : offset + 13], "big")
    if length > MAX_PLAINTEXT:
        raise RecordOverflow(f"{length}-byte plaintext record")
    start = offset + DTLS12_RECORD_HEADER_LEN
    payload = datagram[start : start + length]
    if len(payload) != length:
        raise DecodeError("record length mismatch")
    return content_type, seq, payload, DTLS12_RECORD_HEADER_LEN + length
