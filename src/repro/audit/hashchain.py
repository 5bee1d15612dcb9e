"""Hash chain and epoch signatures over audit-log tuples.

Every logged tuple's payload hash is chained onto the previous head (like
PeerReview's tamper-evident logs, which §5.1 cites); the chain keeps only
its head and length. Each seal anchors the head, with a fresh monotonic
counter value, in a :class:`SignedHead` (integrity and freshness), which
carries an ECDSA signature under the enclave's provisioned key once it is
signed (when, :mod:`repro.audit.log` says).

Nothing stores the hashes: the paper keeps them apart from the tuples so
trimming need not rewrite every row (§5.1), and here a trim recomputes the
chain over the survivors and the image stores tuples only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from repro.audit.wal import (
    TEXT,
    U32,
    U64,
    AuthenticatedIntent,
    authenticated_intent,
    intent_field,
)
from repro.crypto.ecdsa import EcdsaPrivateKey, EcdsaPublicKey, EcdsaSignature
from repro.crypto.hashing import sha256
from repro.errors import IntegrityError

GENESIS = sha256(b"libseal-audit-genesis")


def encode_tuple(table: str, values: Sequence[object]) -> bytes:
    """Canonical byte encoding of one logged tuple (type-tagged).

    ``T`` + table, then per value a tag and body, each ended by a zero
    byte: ``N`` (NULL), ``B0``/``B1``, ``I`` + decimal, ``F`` + ``repr``,
    ``Y`` + 4-byte length + bytes, ``S`` + 4-byte length + UTF-8 of
    ``str(value)`` (text and anything else).
    """
    parts = [b"T", table.encode(), b"\x00"]
    for value in values:
        # Exact str and int are tested first: they are every value the
        # logging wall workloads hash. Subclasses (bool, enums, a str with
        # its own __str__) fall through to the isinstance checks below.
        kind = type(value)
        if kind is str:
            encoded = value.encode()
            parts.append(b"S%b%b\x00" % (len(encoded).to_bytes(4, "big"), encoded))
        elif kind is int:
            parts.append(b"I%d\x00" % value)
        elif value is None:
            parts.append(b"N\x00")
        elif isinstance(value, bool):
            parts.append(b"B1\x00" if value else b"B0\x00")
        elif isinstance(value, int):
            parts.append(b"I" + str(value).encode() + b"\x00")
        elif isinstance(value, float):
            parts.append(b"F" + repr(value).encode() + b"\x00")
        elif isinstance(value, bytes):
            parts.append(b"Y" + len(value).to_bytes(4, "big") + value + b"\x00")
        else:
            encoded = str(value).encode()
            parts.append(b"S" + len(encoded).to_bytes(4, "big") + encoded + b"\x00")
    return b"".join(parts)


def decode_tuple(data: bytes) -> tuple[str, list[object]]:
    """``(table, values)`` back from :func:`encode_tuple`'s bytes; raises
    :class:`IntegrityError` on anything it cannot produce (an unknown tag, a
    non-canonical numeral, a bad length or terminator, invalid UTF-8)."""
    try:
        if data[:1] != b"T":
            raise ValueError("missing table tag")
        pos = data.index(0)
        table = data[1:pos].decode()
        values: list[object] = []
        append = values.append  # the loop runs once per value of a restart
        pos, size = pos + 1, len(data)
        while pos < size:
            tag = data[pos]
            if tag == 0x53 or tag == 0x59:  # S, Y: 4-byte length, body, NUL
                start = pos + 5
                pos = start + int.from_bytes(data[pos + 1 : start], "big")
                if pos >= size or data[pos]:
                    raise ValueError("bad length")
                append(data[start:pos].decode() if tag == 0x53 else data[start:pos])
            else:
                stop = data.index(0, pos)
                body = data[pos + 1 : stop]
                if tag == 0x49:  # I
                    value = int(body)
                    if b"%d" % value != body:  # one canonical numeral per value
                        raise ValueError(f"non-canonical integer {body!r}")
                    append(value)
                elif tag == 0x4E and not body:  # N
                    append(None)
                elif tag == 0x42 and body in (b"0", b"1"):  # B
                    append(body == b"1")
                elif tag == 0x46:  # F
                    value = float(body)
                    if repr(value).encode() != body:
                        raise ValueError(f"non-canonical float {body!r}")
                    append(value)
                else:
                    raise ValueError(f"bad value tag {bytes([tag])!r}")
                pos = stop
            pos += 1
        return table, values
    except (ValueError, UnicodeDecodeError) as exc:
        raise IntegrityError(f"stored tuple malformed: {exc}") from exc


@dataclass(frozen=True)
class SignedHead:
    """A (chain head, counter value, entry count) anchor; ``signature`` is
    None until it is signed (its head record's MAC authenticates it)."""

    head_hash: bytes
    counter_value: int
    entry_count: int
    signature: EcdsaSignature | None = None

    def payload(self) -> bytes:
        return (
            b"LOG-HEAD\x00"
            + self.head_hash
            + self.counter_value.to_bytes(8, "big")
            + self.entry_count.to_bytes(8, "big")
        )

    def signed(self, key: EcdsaPrivateKey) -> "SignedHead":
        """This head with a signature: itself if it has one."""
        if self.signature is not None:
            return self
        return replace(self, signature=key.sign(self.payload()))

    def verify(self, public_key: EcdsaPublicKey) -> None:
        if self.signature is None or not public_key.verify(self.payload(), self.signature):
            raise IntegrityError("audit log head signature invalid")


@authenticated_intent
class RotationIntent(AuthenticatedIntent):
    """A MAC'd write-ahead marker: "a key rotation to ``to_epoch`` is in flight".

    Written to storage *before* the authority rotates, so a crash at any
    step of the rotation (rotate keys → audited log record → re-seal →
    replica announcement → retire) can be replayed to completion instead
    of leaving the deployment split across two epochs.
    """

    TAG = b"ROTATE-INTENT"
    MAGIC = b"ROTATE3"
    SIDECAR = "rotation"
    NOUN = "rotation intent"

    log_id: str = intent_field(TEXT)
    from_epoch: int = intent_field(U32)
    to_epoch: int = intent_field(U32)
    reason: str = intent_field(TEXT)
    tag: bytes


@authenticated_intent
class MembershipIntent(AuthenticatedIntent):
    """A MAC'd write-ahead marker: "a shard membership change is in flight".

    Written to the control log's storage *before* any step of a
    split/merge executes, so a crash at any rebalance checkpoint (audited
    record → provisioning → range transfer → cutover → source retire)
    replays to exactly one owner per log range.
    """

    TAG = b"SHARD-INTENT"
    MAGIC = b"SHARD3"
    SIDECAR = "membership"
    NOUN = "membership intent"

    plane_id: str = intent_field(TEXT)
    change_id: str = intent_field(TEXT)
    #: ``"split"`` (shard added) or ``"merge"`` (shard removed)
    kind: str = intent_field(TEXT)
    shard: str = intent_field(TEXT)
    generation_from: int = intent_field(U64)
    generation_to: int = intent_field(U64)
    epoch: int = intent_field(U32)
    tag: bytes


class HashChain:
    """An append-only hash chain, kept as its head and length: a trim
    rebuilds it over the surviving tuples (§5.1)."""

    def __init__(self) -> None:
        self.head = GENESIS
        self._length = 0

    def __len__(self) -> int:
        return self._length

    def append(self, table: str, values: Sequence[object]) -> None:
        """Chain one tuple."""
        self.append_encoded(encode_tuple(table, values))

    def append_encoded(self, payload: bytes) -> None:
        """Chain one tuple's :func:`encode_tuple` bytes: H(head || H(bytes))."""
        self.head = sha256(self.head + sha256(payload))
        self._length += 1

    def rebuild(self, surviving: Iterable[tuple[str, Sequence[object]]]) -> None:
        """Recompute the chain over the entries surviving a trim (§5.1);
        the caller refreshes the counter/signature anchor."""
        self.head, self._length = GENESIS, 0
        for table, values in surviving:
            self.append(table, values)

    def verify_payloads(
        self, payloads: Iterable[tuple[str, Sequence[object]]]
    ) -> None:
        """Check claimed payload tuples against the chain.

        Raises :class:`IntegrityError` if any tuple was modified, removed,
        reordered or injected: each changes the recomputed head or length.
        """
        replay = HashChain()
        replay.rebuild(payloads)
        if len(replay) != self._length:
            raise IntegrityError(
                f"audit log length mismatch: {len(replay)} payloads "
                f"for {self._length} chained entries"
            )
        if replay.head != self.head:
            raise IntegrityError("audit log payloads do not reproduce the chain head")
