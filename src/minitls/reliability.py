"""DTLS 1.3 handshake reliability (RFC 9147 section 5.8 timers, section 7 ACKs):
message sequence numbers, reassembly, sent-record table, RTO ladder and ACK
scheduling of one DTLS connection.  Each method that sends takes the
connection's ``frame`` callback, (epoch, true_type, payload) -> (record seq,
wire bytes), which protects the record, so no key reaches this class; ACK
senders also take ``write_epoch``, the connection's current write epoch.
``frame`` is not stored, so a connection and its state form no reference cycle."""

from . import messages
from .errors import HandshakeTimeout
from .records import ContentType, OutRecord

RTO_INITIAL_MS = 400
RTO_MAX_RETRIES = 8
ACK_DELAY_MS = 150
# Messages buffered ahead of the next expected one: the longest flight, the server's
# ServerHello .. Finished. Fragments of later messages are dropped (RFC 9147 section 5.2).
RECV_WINDOW_MSGS = 6


class DtlsReliability:
    def __init__(self):
        self.next_send_msg_seq = 0
        self.next_recv_msg_seq = 0
        self.inbound_frags: dict = {}  # message_seq -> FragmentBuffer
        self.recv_flight: set = set()  # record numbers of the inbound flight
        self.stale_records: set = set()  # resent records we had already processed
        self.sent_unacked: dict = {}  # (epoch, rec_seq) -> (msg_seq, name, fragment bytes)
        self.retries = 0  # the timeout doubles with each: RTO_INITIAL_MS << retries
        self.retransmit_at: int | None = None
        self.ack_at: int | None = None

    def send(self, frame, msg_type: int, body: bytes, name: str, epoch: int, budget: int, now: int) -> list:
        """Send one handshake message as fragments of at most ``budget`` bytes."""
        msg_seq = self.next_send_msg_seq
        self.next_send_msg_seq += 1
        return [
            self._send_fragment(frame, frag.encode(), name, epoch, msg_seq, now)
            for frag in messages.fragment(msg_type, msg_seq, body, budget)
        ]

    def _send_fragment(self, frame, frag: bytes, name: str, epoch: int, msg_seq: int, now: int, retransmit=False):
        rec_seq, data = frame(epoch, ContentType.HANDSHAKE, frag)
        self.sent_unacked[(epoch, rec_seq)] = (msg_seq, name, frag)
        if self.retransmit_at is None:
            self.retransmit_at = now + RTO_INITIAL_MS  # a new flight: retries is 0
        return OutRecord(data, name, retransmit=retransmit)

    def _send_ack(self, frame, write_epoch: int, record_numbers: set) -> list:
        if not record_numbers or write_epoch == 0:
            return []  # nothing to ACK, or no record protection yet
        body = messages.build_ack(sorted(record_numbers))
        return [OutRecord(frame(write_epoch, ContentType.ACK, body)[1], "ack")]

    def receive(self, frags, rec_num, now: int, deliver) -> list:
        """Take the parsed fragments of one handshake record; pass each message completed
        in message_seq order to ``deliver(msg, tls_form, now)`` and return its output."""
        out = []
        got_new = False
        for frag in frags:
            if frag.message_seq < self.next_recv_msg_seq:
                self.ack_now(now, rec_num)
                continue
            if frag.message_seq >= self.next_recv_msg_seq + RECV_WINDOW_MSGS:
                continue
            buf = self.inbound_frags.get(frag.message_seq)
            if buf is None:
                buf = messages.FragmentBuffer(frag.msg_type, frag.length, frag.message_seq)
                self.inbound_frags[frag.message_seq] = buf
            buf.add(frag)
            got_new = True
            self.recv_flight.add(rec_num)
        while True:
            buf = self.inbound_frags.get(self.next_recv_msg_seq)
            if buf is None or not buf.complete:
                break
            del self.inbound_frags[self.next_recv_msg_seq]
            self.next_recv_msg_seq += 1
            raw = buf.assemble().to_tls_form()
            out.extend(deliver(messages.decode_handshake(raw), raw, now))
        if got_new and self.inbound_frags and self.ack_at is None:
            self.ack_at = now + ACK_DELAY_MS  # incomplete flight: delayed ACK
        return out

    def after_client_hello(self) -> None:
        """Server: our first flight answers the ClientHello, so none of its records is ACKed."""
        self.end_flight()
        self.ack_at = None

    def ack_now(self, now: int, stale=None) -> None:
        """ACK at ``now``; ``stale`` is a record the peer resent after we processed it."""
        if stale is not None:
            self.stale_records.add(stale)
        self.ack_at = now

    def flush_acks(self, now: int, frame, write_epoch: int) -> list:
        if self.ack_at is None or now < self.ack_at:
            return []
        self.ack_at = None
        acks = self.recv_flight | self.stale_records
        self.stale_records = set()
        return self._send_ack(frame, write_epoch, acks)

    def end_flight(self, frame=None, write_epoch: int = 0) -> list:
        """The peer's flight is complete: forget its records, ACKing them
        first when given ``frame``; otherwise our next flight acknowledges it."""
        out = []
        if frame is not None:
            out = self._send_ack(frame, write_epoch, self.recv_flight)
            self.ack_at = None
        self.recv_flight = set()
        return out

    def implicit_ack(self) -> None:
        """An in-order message of the peer's next flight proves ours arrived whole."""
        self.process_ack(list(self.sent_unacked))

    def process_ack(self, record_numbers) -> None:
        for rn in record_numbers:
            self.sent_unacked.pop(rn, None)  # unknown numbers ignored
        if not self.sent_unacked:
            self.retransmit_at = None
            self.retries = 0

    def next_timeout(self):
        if self.retransmit_at is None or (self.ack_at is not None and self.ack_at < self.retransmit_at):
            return self.ack_at
        return self.retransmit_at

    def retransmit(self, now: int, frame) -> list:
        """When due, resend all unacknowledged fragments in message_seq order and
        double the timeout; HandshakeTimeout after RTO_MAX_RETRIES resends."""
        if self.retransmit_at is None or now < self.retransmit_at:
            return []
        if self.retries >= RTO_MAX_RETRIES:
            raise HandshakeTimeout("retransmission cap reached")
        self.retries += 1
        self.retransmit_at = now + (RTO_INITIAL_MS << self.retries)
        pending = sorted(self.sent_unacked.items(), key=lambda kv: kv[1][0])
        self.sent_unacked.clear()
        return [
            self._send_fragment(frame, frag, name, epoch, msg_seq, now, retransmit=True)
            for (epoch, _), (msg_seq, name, frag) in pending
        ]

    def stop(self) -> None:
        """A dead connection keeps no timers."""
        self.retransmit_at = self.ack_at = None
        self.sent_unacked.clear()
