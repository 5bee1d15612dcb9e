"""Hash chain and epoch signatures over audit-log tuples.

Every logged tuple's payload hash is chained onto the previous head (like
PeerReview's tamper-evident logs, which §5.1 cites); the chain keeps only
its head and length. The head is periodically signed with the enclave's
ECDSA key (created at provisioning), together with the current monotonic
counter value, producing a :class:`SignedHead` that anchors both
integrity and freshness.

Nothing stores the hashes: the paper keeps them apart from the tuples so
trimming need not rewrite every row (§5.1), and here a trim recomputes the
chain over the survivors and the image stores tuples only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.audit.wal import (
    DIGEST,
    TEXT,
    TRAILING_TEXT,
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
        # logging wall workloads hash, and a restart encodes each stored
        # tuple twice. Subclasses (bool, enums, a str with its own
        # __str__) fall through to the isinstance checks below.
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


@dataclass(frozen=True)
class ChainEntry:
    """One link, as :meth:`HashChain.append` returns it (not kept):
    ``chain_hash = H(prev_chain_hash || payload_hash)``."""

    entry_id: int
    table: str
    payload_hash: bytes
    chain_hash: bytes


@dataclass(frozen=True)
class SignedHead:
    """A signed (chain head, counter value, entry count) anchor."""

    head_hash: bytes
    counter_value: int
    entry_count: int
    signature: EcdsaSignature

    def payload(self) -> bytes:
        return (
            b"LOG-HEAD\x00"
            + self.head_hash
            + self.counter_value.to_bytes(8, "big")
            + self.entry_count.to_bytes(8, "big")
        )

    @staticmethod
    def sign(
        key: EcdsaPrivateKey, head_hash: bytes, counter_value: int, entry_count: int
    ) -> "SignedHead":
        unsigned = SignedHead(head_hash, counter_value, entry_count, EcdsaSignature(0, 0))
        return SignedHead(
            head_hash, counter_value, entry_count, key.sign(unsigned.payload())
        )

    def verify(self, public_key: EcdsaPublicKey) -> None:
        if not public_key.verify(self.payload(), self.signature):
            raise IntegrityError("audit log head signature invalid")


@authenticated_intent
class SealIntent(AuthenticatedIntent):
    """A MAC'd write-ahead marker: "a seal of this chain state is in flight".

    Appended to the log image, inside an intent record, *before* the ROTE
    increment of each epoch seal. After a crash between the increment and
    the head record, the stored log's counter is one behind the quorum —
    byte-identical to a one-epoch rollback. An intent record after the
    last head, bound to it by the record chain, proves the gap came from
    the enclave's own in-flight seal, letting recovery discard the
    unacknowledged pair instead of (wrongly) flagging a rollback. Without
    it, any counter gap is treated as an attack.
    """

    TAG = b"SEAL-INTENT"
    MAGIC = b"INTENT2"
    NOUN = "seal intent"

    log_id: str = intent_field(TEXT)
    head_hash: bytes = intent_field(DIGEST)
    entry_count: int = intent_field(U64)
    tag: bytes


@authenticated_intent
class RotationIntent(AuthenticatedIntent):
    """A MAC'd write-ahead marker: "a key rotation to ``to_epoch`` is in flight".

    Written to storage *before* the authority rotates, so a crash at any
    step of the rotation (rotate keys → audited log record → re-seal →
    replica announcement → retire) can be replayed to completion instead
    of leaving the deployment split across two epochs.
    """

    TAG = b"ROTATE-INTENT"
    MAGIC = b"ROTATE2"
    SIDECAR = "rotation"
    NOUN = "rotation intent"

    log_id: str = intent_field(TEXT)
    from_epoch: int = intent_field(U32)
    to_epoch: int = intent_field(U32)
    reason: str = intent_field(TRAILING_TEXT)
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
    MAGIC = b"SHARD2"
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

    def append(self, table: str, values: Sequence[object]) -> ChainEntry:
        """Chain one tuple; returns the new link."""
        payload_hash = sha256(encode_tuple(table, values))
        self.head = sha256(self.head + payload_hash)
        self._length += 1
        return ChainEntry(self._length, table, payload_hash, self.head)

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
