"""The TLS record layer.

Each record is ``type(1) || length(4) || body``. Before keys are
established, bodies travel in the clear (handshake records); afterwards,
bodies are AEAD-sealed with a nonce derived from the per-direction sequence
number, so replayed, reordered or tampered records fail authentication.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.aead import AEAD, AEADKey, NONCE_LEN
from repro.errors import TLSError, TLSRecordError

RECORD_HANDSHAKE = 22
RECORD_CCS = 20
RECORD_ALERT = 21
RECORD_APPDATA = 23

#: The only record types the state machine accepts; anything else on the
#: wire is rejected in the framing layer (never passed upward).
VALID_RECORD_TYPES = frozenset(
    {RECORD_CCS, RECORD_ALERT, RECORD_HANDSHAKE, RECORD_APPDATA}
)

_HEADER_LEN = 5
MAX_RECORD_BODY = 64 * 1024 * 1024  # generous; we are not wire-compatible

#: Cap on buffered-but-incomplete bytes a peer can park in the reassembly
#: buffer by declaring a large record and trickling its body. Honest
#: senders write whole frames, so a partial record larger than this is
#: adversarial (or a length-field lie) and is rejected, not buffered.
MAX_INCOMPLETE_BACKLOG = 1 * 1024 * 1024


@dataclass(frozen=True)
class Record:
    type: int
    body: bytes


def frame(record_type: int, body: bytes) -> bytes:
    if len(body) > MAX_RECORD_BODY:
        raise TLSError("record body too large")
    return bytes([record_type]) + len(body).to_bytes(4, "big") + body


def parse_records(
    buffer: bytearray, max_incomplete: int = MAX_INCOMPLETE_BACKLOG
) -> list[Record]:
    """Consume complete records from ``buffer`` (partial tail is kept).

    Raises :class:`~repro.errors.TLSRecordError` on unknown record types,
    length fields beyond :data:`MAX_RECORD_BODY`, or an incomplete tail
    exceeding ``max_incomplete`` bytes.
    """
    records: list[Record] = []
    while True:
        if len(buffer) < _HEADER_LEN:
            return records
        record_type = buffer[0]
        if record_type not in VALID_RECORD_TYPES:
            raise TLSRecordError(f"unknown record type {record_type}")
        length = int.from_bytes(buffer[1:5], "big")
        if length > MAX_RECORD_BODY:
            raise TLSRecordError("record length field exceeds maximum")
        if len(buffer) < _HEADER_LEN + length:
            if len(buffer) > max_incomplete:
                raise TLSRecordError(
                    f"incomplete record backlog {len(buffer)} exceeds "
                    f"bound {max_incomplete}"
                )
            return records
        body = bytes(buffer[_HEADER_LEN : _HEADER_LEN + length])
        del buffer[: _HEADER_LEN + length]
        records.append(Record(record_type, body))


class RecordLayer:
    """Seals outgoing and opens incoming records once keys are set."""

    def __init__(self) -> None:
        self._send_aead: AEAD | None = None
        self._recv_aead: AEAD | None = None
        self._send_seq = 0
        self._recv_seq = 0
        self.bytes_protected = 0

    def enable_send(self, key: bytes) -> None:
        """Protect outgoing records from now on (sent after our CCS)."""
        self._send_aead = AEAD(AEADKey.derive(key, label=b"record"))
        self._send_seq = 0

    def enable_recv(self, key: bytes) -> None:
        """Expect incoming records protected from now on (peer sent CCS)."""
        self._recv_aead = AEAD(AEADKey.derive(key, label=b"record"))
        self._recv_seq = 0

    def seal(self, record_type: int, plaintext: bytes) -> bytes:
        """Produce one framed (and, if enabled, encrypted) record."""
        if self._send_aead is None:
            return frame(record_type, plaintext)
        nonce = self._send_seq.to_bytes(NONCE_LEN, "big")
        associated = bytes([record_type]) + nonce
        body = self._send_aead.seal(nonce, plaintext, associated)
        self._send_seq += 1
        self.bytes_protected += len(plaintext)
        return frame(record_type, body)

    def open(self, record: Record) -> bytes:
        """Decrypt one record body (validates sequence implicitly)."""
        if self._recv_aead is None:
            return record.body
        nonce = self._recv_seq.to_bytes(NONCE_LEN, "big")
        associated = bytes([record.type]) + nonce
        try:
            plaintext = self._recv_aead.open(nonce, record.body, associated)
        except Exception as exc:
            raise TLSError(f"record authentication failed: {exc}") from exc
        self._recv_seq += 1
        return plaintext
