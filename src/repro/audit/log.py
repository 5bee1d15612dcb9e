""":class:`AuditLog`: the relational, tamper-evident, rollback-protected log.

Composition (§5.1):

- tuples live in a SealDB database (the in-enclave SQLite stand-in), so
  invariants and trimming are plain SQL;
- every appended tuple extends a hash chain; each epoch seal anchors the
  head to a fresh ROTE counter value in a :class:`SignedHead`;
- the log lands on untrusted storage as one append-only *record image*:
  ``IMAGE_MAGIC``, then framed records ``kind || content || MAC``, each
  MAC an HMAC under :func:`~repro.audit.wal.intent_key` over the previous
  record's MAC (the first's over the log id and schema, which storage
  never holds), the kind and the content. An *intent record* (``I``)
  holds every tuple appended since the last head record as its row id
  and the :func:`encode_tuple` bytes the chain hashed (a later one before
  the same head supersedes it); a *head record* (``H``) the
  :class:`SignedHead` and the watermark state, in fixed-width fields. A
  seal appends one of each; a removal and the key-rotation re-seal
  rewrite the image whole. Loading checks every MAC and hashes the stored
  bytes into the chain against every head, and verifies a signature only
  where the last head stores one.

The record MAC authenticates a head to the enclave; a seal signs it only
when its counter value is a multiple of :data:`SIGN_EVERY`, and a head
that leaves the enclave is signed then, once (:meth:`AuditLog.export_head`;
DESIGN §4c).

The log holds each tuple once: an ordered stream of ``(row_id, table,
row)`` entries whose ``row`` *is* the list the SealDB table stores, so the
rows queries see, the rows the chain covers and the rows a snapshot
carries cannot differ; :meth:`AuditLog.append` encodes it once, for the
chain and the next seal's intent record. Removal — SQL trimming and shard range retirement
alike — deletes rows from the tables and then keeps the stream entries
whose row object is still in a table (identity, never value), rebuilds the
chain over them and seals a fresh epoch (the paper stores hashes
separately so precisely this recomputation is cheap).

The stream also is the *watermark* machinery used by incremental invariant
checking: row ids increase strictly, each table's ``time`` column is
tracked for append-sortedness (and hinted to SealDB's planner), and
:meth:`AuditLog.watermark` captures "everything up to here has been
checked". :meth:`AuditLog.rows_since` replays the appends past a
watermark; a removal bumps ``trim_generation``, which invalidates every
outstanding watermark so the checker conservatively re-scans once.
Watermark bookkeeping survives the image (and therefore sealing epochs
and crash recovery).
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Sequence

from repro.audit.hashchain import HashChain, SignedHead, decode_tuple, encode_tuple
from repro.audit.persistence import LogStorage, frame, split_frames
from repro.audit.rote import RoteCluster
from repro.audit.wal import intent_key
from repro.codec import Reader
from repro.crypto.ecdsa import EcdsaPrivateKey, EcdsaPublicKey, EcdsaSignature
from repro.crypto.hashing import HASH_LEN, constant_time_equal, hmac_sha256
from repro.errors import IntegrityError, RollbackError, StorageError
from repro.faults import hooks as _faults
from repro.obs import hooks as _obs
from repro.sim.costs import LOGGING_SEALDB_INSERT_CYCLES, SEAL_EPOCH_CYCLES
from repro.sealdb import Database
from repro.sealdb.executor import Result
from repro.sealdb.table import SqlValue, Table


#: The first bytes of every stored image: the format and its version.
IMAGE_MAGIC = b"LIBSEAL-LOG/4\n"
#: A seal signs its head when its counter value is a multiple of this: the
#: smallest power of two at which these signatures stay under 5% of the
#: sharded messaging workload's time (DESIGN §4c).
SIGN_EVERY = 16
#: Why an image in another format is refused (the message is stable).
UNSUPPORTED_SNAPSHOT = "unsupported snapshot format"
INTENT_RECORD = b"I"
HEAD_RECORD = b"H"


def record_genesis(key: bytes, log_id: str, schema_sql: str) -> bytes:
    """The MAC the first record of an image chains onto: the log's identity."""
    return hmac_sha256(
        key, b"LOG-RECORDS\x00" + log_id.encode() + b"\x00" + schema_sql.encode()
    )


def seal_record(
    key: bytes, previous: bytes, kind: bytes, content: bytes
) -> tuple[bytes, bytes]:
    """One framed record chained onto the record MAC ``previous``, and its MAC."""
    mac = hmac_sha256(key, previous + kind + content)
    return frame(kind + content + mac), mac


def open_record(key: bytes, previous: bytes, body: bytes) -> tuple[bytes, bytes, bytes]:
    """``(kind, content, mac)`` of one framed record chained onto ``previous``."""
    kind, content, mac = body[:1], body[1:-HASH_LEN], body[-HASH_LEN:]
    if len(body) <= HASH_LEN or not constant_time_equal(
        mac, hmac_sha256(key, previous + kind + content)
    ):
        raise IntegrityError("audit log record MAC invalid")
    return kind, content, mac


#: An intent record's entry header: the row id, the tuple's byte length.
_ENTRY = struct.Struct(">QI")


def stored_entry(row_id: int, encoded: bytes) -> bytes:
    """One tuple as an intent record holds it: row id, then its bytes."""
    return _ENTRY.pack(row_id, len(encoded)) + encoded


def encode_head(head: SignedHead, state: tuple[int, int, int, bool]) -> bytes:
    """A head record's content: the head and the watermark state in
    fixed-width fields, then a "signed" flag, set exactly at a cadence
    counter value, and only then the signature."""
    next_row_id, trim_generation, latest_time, time_monotone = state
    stored = head.counter_value % SIGN_EVERY == 0
    return b"".join((
        head.head_hash,
        *(n.to_bytes(8, "big") for n in (head.counter_value, head.entry_count)),
        *(n.to_bytes(8, "big") for n in (next_row_id, trim_generation)),
        latest_time.to_bytes(8, "big", signed=True),
        bytes([time_monotone, stored]),
        head.signature.encode() if stored else b"",
    ))


def _decode_head(content: bytes) -> tuple[SignedHead, tuple[int, int, int, int]]:
    """A head record's head and watermark state (see :func:`encode_head`)."""
    reader = Reader(content, IntegrityError, "head record")
    fixed, uint = reader.read_fixed, reader.read_uint
    head_hash, counter_value, entry_count = fixed(HASH_LEN), uint(8), uint(8)
    state = (uint(8), uint(8), uint(8, signed=True), uint(1))
    signed = uint(1)
    if signed != (counter_value % SIGN_EVERY == 0):
        raise IntegrityError("head record signed flag disagrees with its counter")
    signature = EcdsaSignature.decode(fixed(64)) if signed else None
    reader.expect_end()
    if state[3] > 1:
        raise IntegrityError("head record time_monotone is not a boolean")
    return SignedHead(head_hash, counter_value, entry_count, signature), state


TIME_COLUMN = "time"

#: Log-internal audit table: lifecycle events (key rotations, enclave
#: upgrades) recorded *in the log itself*, so they ride the same hash
#: chain, counter and signatures as service tuples — an auditor replaying
#: the log sees exactly when keys changed hands and code was upgraded.
EVENTS_TABLE = "libseal_events"
EVENTS_SCHEMA = f"CREATE TABLE {EVENTS_TABLE} (time INTEGER, kind TEXT, detail TEXT)"


@dataclass(frozen=True)
class Watermark:
    """A point in the append stream up to which checking has run.

    ``row_id`` is the id of the last covered append, ``time`` the highest
    logical time seen by then, and ``generation`` the trim generation the
    watermark was taken in — a later trim invalidates it, forcing the
    holder back through the conservative full-scan path.
    """

    row_id: int
    time: int
    generation: int


class AuditLog:
    """The enclave's audit log for one service instance."""

    def __init__(
        self,
        schema_sql: str,
        signing_key: EcdsaPrivateKey,
        rote: RoteCluster,
        log_id: str = "libseal-log",
        storage: LogStorage | None = None,
    ):
        self.db = Database()
        self.schema_sql = schema_sql
        self._signing_key = signing_key
        self.rote = rote
        self.log_id = log_id
        self.storage = storage
        self.chain = HashChain()
        #: The log's tuples, once, in chain order: ``(row_id, table, row)``
        #: where ``row`` is the very list object the SealDB table holds.
        self._stream: list[tuple[int, str, list[SqlValue]]] = []
        #: The last sealed head, signed or not.
        self.signed_head: SignedHead | None = None
        #: ``(head, public key)`` of the last signature verified.
        self._verified: tuple[SignedHead, EcdsaPublicKey] | None = None
        self.appends = 0
        self.epochs_sealed = 0
        # Watermark bookkeeping (incremental checking):
        self.next_row_id = 0
        self.trim_generation = 0
        self.latest_time = 0
        #: False once any append's logical time went backwards; delta
        #: checking then permanently falls back to full re-scans.
        self.time_monotone = True
        self._time_columns: dict[str, int | None] = {}
        # The stored image: the key its record MACs are made under, the
        # MAC of its last record (None while storage holds no image of
        # this log, so the next seal writes it whole), and the last
        # stream entries, appended since the last seal, as stored entries.
        self._record_key = intent_key(signing_key.d)
        self._tail: bytes | None = None
        self._unsealed: list[bytes] = []
        #: True when the next seal must rewrite the image whole (a removal
        #: rebuilt the chain; a key rotation re-seals every stored byte).
        self.rewrite_pending = False
        self._install_schema()

    def _install_schema(self) -> None:
        """Create the service's relations and the events table, locate each
        table's ``time`` column and hint it append-sorted to the SealDB
        planner (the audit log only appends in time order)."""
        if self.schema_sql.strip():
            self.db.executescript(self.schema_sql)
        if EVENTS_TABLE not in {name.lower() for name in self.db.table_names()}:
            self.db.executescript(EVENTS_SCHEMA)
        for table in self._tables():
            names = [column.name.lower() for column in table.columns]
            index = names.index(TIME_COLUMN) if TIME_COLUMN in names else None
            self._time_columns[table.name.lower()] = index
            if index is not None:
                table.mark_sorted(index)

    def _tables(self) -> list[Table]:
        return [self.db.lookup_table(name) for name in self.db.table_names()]

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def append(self, table: str, values: Sequence[SqlValue]) -> None:
        """Append one tuple: table insert + hash-chain extension.

        The chain (and everything downstream of it) covers the row as the
        table stores it — affinity-coerced, the representation queries see.
        """
        row_id = self.next_row_id
        row = self._enter(table, values, row_id)
        self.next_row_id += 1
        encoded = encode_tuple(table, row)
        self.chain.append_encoded(encoded)
        self._unsealed.append(stored_entry(row_id, encoded))
        self.appends += 1
        if _obs.ON:
            _obs.active().metrics.counter(
                "audit_appends_total",
                "Tuples appended to the audit log",
                table=table.lower(),
            ).inc()
            _obs.add_cycles(LOGGING_SEALDB_INSERT_CYCLES)

    def _enter(
        self, table: str, values: Sequence[SqlValue], row_id: int
    ) -> list[SqlValue]:
        """The one way a log tuple enters SealDB, for appends and loads
        alike: :meth:`Table.insert_row` (affinity coercion, PRIMARY KEY,
        index and sorted-hint upkeep), then the stream entry and the clock.
        Returns the stored row; chaining it is the caller's."""
        row = self.db.lookup_table(table).insert_row(values)
        self._stream.append((row_id, table, row))
        time_col = self._time_columns.get(table.lower())
        if time_col is not None:
            stored = row[time_col]
            if isinstance(stored, int) and not isinstance(stored, bool):
                if stored < self.latest_time:
                    self.time_monotone = False
                else:
                    self.latest_time = stored
            else:
                self.time_monotone = False
        return row

    def append_event(self, kind: str, detail: str, time: int | None = None) -> None:
        """Append an audited lifecycle event (rotation, upgrade) to the log.

        The event is an ordinary chained tuple: tampering with it breaks
        the hash chain, and the next epoch seal anchors it under the
        quorum counter like any service pair.
        """
        if time is None:
            time = self.latest_time
        self.append(EVENTS_TABLE, (time, kind, detail))

    def has_event(self, kind: str, detail: str) -> bool:
        """Whether an identical lifecycle event was already recorded.

        Used by the rotation coordinator's WAL replay to keep the
        audited-record step idempotent across crash/resume cycles.
        """
        return bool(
            self.query(
                f"SELECT 1 FROM {EVENTS_TABLE} WHERE kind = ? AND detail = ?",
                (kind, detail),
            ).rows
        )

    # ------------------------------------------------------------------
    # Watermarks (incremental checking)
    # ------------------------------------------------------------------

    def watermark(self) -> Watermark:
        """Capture the current append-stream position."""
        return Watermark(self.next_row_id - 1, self.latest_time, self.trim_generation)

    def _since(
        self, watermark: Watermark
    ) -> list[tuple[int, str, list[SqlValue]]] | None:
        """Stream entries appended after ``watermark``; None when it is
        from an older trim generation (what it refers to may be gone)."""
        if watermark.generation != self.trim_generation:
            return None
        start = bisect_right(self._stream, watermark.row_id, key=itemgetter(0))
        return self._stream[start:]

    def rows_since(
        self, table: str, watermark: Watermark
    ) -> list[tuple[int, tuple[SqlValue, ...]]] | None:
        """``(row_id, values)`` appended to ``table`` after ``watermark``.

        Returns None for a stale watermark: the caller must fall back to
        a full scan and take a fresh watermark.
        """
        entries = self._since(watermark)
        if entries is None:
            return None
        lowered = table.lower()
        return [
            (row_id, tuple(row))
            for row_id, name, row in entries
            if name.lower() == lowered
        ]

    def min_time_since(self, watermark: Watermark) -> int | None:
        """Smallest logical time among appends after ``watermark`` (any
        table), or None when nothing was appended / times are unusable.
        Lets the checker verify no late tuple slid at-or-under its
        watermark time before trusting a delta evaluation."""
        minimum: int | None = None
        for _, name, row in self._since(watermark) or ():
            time_col = self._time_columns.get(name.lower())
            if time_col is None:
                continue
            value = row[time_col]
            if not isinstance(value, int) or isinstance(value, bool):
                return None
            if minimum is None or value < minimum:
                minimum = value
        return minimum

    def seal_epoch(self) -> SignedHead:
        """Anchor the chain head to a fresh counter; flush if configured.

        Called after each request/response pair in the paper's synchronous
        configuration (LibSEAL-disk), or at coarser intervals.

        Crash-tolerant protocol order:

        1. durably append an intent record (the bytes the chain hashed for
           the tuples since the last seal), which the record chain binds to
           the head it follows — write-ahead, so a crash after step 2 is
           distinguishable from a rollback at recovery;
        2. increment the ROTE counter (retries/backoff inside);
        3. make the head of the fresh counter value, signed only when that
           value is a multiple of :data:`SIGN_EVERY`;
        4. durably append the head record (head, watermark state).

        With :attr:`rewrite_pending` set, the intent record carries no
        tuples and step 4 atomically replaces the image with the whole
        log; a log storage holds no image of yet skips step 1.

        A failure in step 2 (``QuorumUnavailableError``) or 1/4
        (``StorageError``) leaves the in-memory log intact; the caller may
        retry the seal later — the next successful seal covers every
        appended tuple.
        """
        events = _faults.check("audit.seal")

        def crash_at(kind: str) -> None:
            for event in events:
                if event.kind == kind:
                    raise _faults.active().crash(event)

        with _obs.span("audit.seal", cycles=SEAL_EPOCH_CYCLES):
            crash_at("crash_before_intent")
            storage = self.storage
            appending = storage is not None and self._tail is not None
            if appending:
                pending = () if self.rewrite_pending else self._unsealed
                self._append_record(INTENT_RECORD, b"".join(pending))
            crash_at("crash_after_intent")
            counter_value = self.rote.increment(self.log_id)
            crash_at("crash_after_increment")
            head = SignedHead(self.chain.head, counter_value, len(self.chain))
            cadence = counter_value % SIGN_EVERY == 0
            self.signed_head = head.signed(self._signing_key) if cadence else head
            self.epochs_sealed += 1
            if storage is not None:
                if appending and not self.rewrite_pending:
                    self._append_record(HEAD_RECORD, self._head_content(), seals=True)
                else:
                    image = self.serialize()
                    try:
                        storage.save(image)
                    except StorageError:
                        self._tail = None  # what storage holds now is unknown
                        raise
                    self._tail = image[-HASH_LEN:]
                    self.rewrite_pending = False
            self._unsealed = []
            if storage is not None:
                crash_at("crash_after_save")
            if _obs.ON:
                _obs.active().metrics.counter(
                    "audit_seals_total", "Epoch seals completed"
                ).inc()
            return self.signed_head

    def _append_record(self, kind: bytes, content: bytes, seals: bool = False) -> None:
        record, mac = seal_record(self._record_key, self._tail, kind, content)
        self.storage.append(record, seals)
        self._tail = mac

    def _head_content(self) -> bytes:
        return encode_head(
            self.signed_head,
            (self.next_row_id, self.trim_generation, self.latest_time, self.time_monotone),
        )

    # ------------------------------------------------------------------
    # Reading / checking
    # ------------------------------------------------------------------

    def query(self, sql: str, params: tuple[SqlValue, ...] = ()) -> Result:
        """Run an invariant query (SELECT) against the log."""
        return self.db.execute(sql, params)

    def row_count(self, table: str) -> int:
        return self.db.row_count(table)

    def size_bytes(self) -> int:
        """Approximate log size for the §6.5 accounting."""
        return self.db.approximate_size_bytes()

    # ------------------------------------------------------------------
    # Trimming (§5.1)
    # ------------------------------------------------------------------

    def trim(self, trimming_queries: Sequence[str]) -> int:
        """Run trimming queries, rebuild the chain, seal a fresh epoch.

        Returns the number of tuples removed. Seals (and invalidates
        watermarks) even when the queries deleted nothing.
        """
        for sql in trimming_queries:
            self.db.execute(sql)
        removed = self._retain()
        if _obs.ON:
            metrics = _obs.active().metrics
            metrics.counter("audit_trims_total", "Trim passes completed").inc()
            metrics.counter(
                "audit_trimmed_rows_total", "Tuples removed by trimming"
            ).inc(removed)
        return removed

    def remove_where(self, predicate) -> int:
        """Remove every tuple matched by ``predicate(table, values)``.

        The shard-rebalance primitive: after an ownership cutover the old
        owner retires the migrated range (predicate- rather than
        SQL-driven, because range membership is a hash of the routing key
        the relational layer cannot express). Idempotent: a replayed call
        matches nothing and seals nothing. Returns the tuples removed.
        """
        doomed = {
            id(row) for _, table, row in self._stream if predicate(table, tuple(row))
        }
        if not doomed:
            return 0
        for table in self._tables():
            table.delete_rows([id(row) not in doomed for row in table.rows])
        return self._retain()

    def _retain(self) -> int:
        """The one removal primitive: drop the stream entries whose row has
        left its table, rebuild the chain over the rest, seal a fresh epoch
        that rewrites the stored image (the one compaction point).

        Survival is decided by row *identity*: ``Table.delete_rows`` keeps
        the surviving list objects and ``update_row`` writes into them, so
        a duplicate, a coerced value or a row a trimming ``UPDATE`` rewrote
        can never be mismatched. Row ids keep their (strictly increasing)
        values so outstanding deltas cannot alias, and the generation bump
        sends every watermark holder through one full scan. Returns the
        number of entries dropped.
        """
        alive = {id(row) for table in self._tables() for row in table.rows}
        kept = [entry for entry in self._stream if id(entry[2]) in alive]
        if len(kept) != len(alive):
            raise IntegrityError("tables hold rows the hash chain never covered")
        removed = len(self._stream) - len(kept)
        self._stream = kept
        # Each survivor is encoded once: for the rebuilt chain and, as the
        # pending entries, for the image the re-seal rewrites.
        self.chain, self._unsealed = HashChain(), []
        for row_id, table, row in kept:
            encoded = encode_tuple(table, row)
            self.chain.append_encoded(encoded)
            self._unsealed.append(stored_entry(row_id, encoded))
        self.trim_generation += 1
        self.rewrite_pending = True
        self.seal_epoch()
        return removed

    # ------------------------------------------------------------------
    # Serialization and verification
    # ------------------------------------------------------------------

    def tuples(self) -> Iterator[tuple[str, tuple[SqlValue, ...]]]:
        """Every logged ``(table, values)`` in chain order, as copies —
        the read API for everything outside this module."""
        for _, table, row in self._stream:
            yield table, tuple(row)

    def serialize(self) -> bytes:
        """The whole log as a fresh record image: one intent record holding
        every tuple, then (once sealed) the head record."""
        key = self._record_key
        sealed = self._stream[: len(self._stream) - len(self._unsealed)]
        content = b"".join(
            [stored_entry(row_id, encode_tuple(table, row)) for row_id, table, row in sealed]
            + self._unsealed
        )
        intent, mac = seal_record(
            key, record_genesis(key, self.log_id, self.schema_sql), INTENT_RECORD, content
        )
        if self.signed_head is None:
            return IMAGE_MAGIC + intent
        head, _ = seal_record(key, mac, HEAD_RECORD, self._head_content())
        return IMAGE_MAGIC + intent + head

    @classmethod
    def load(
        cls,
        blob: bytes,
        schema_sql: str,
        signing_key: EcdsaPrivateKey,
        public_key: EcdsaPublicKey,
        rote: RoteCluster,
        log_id: str,
        storage: LogStorage | None = None,
    ) -> "AuditLog":
        """Load and fully verify a stored image (see :meth:`restore`).

        ``blob`` need not be what ``storage`` holds, so the log's first
        seal writes its image whole.

        Raises :class:`IntegrityError` on tampering and
        :class:`RollbackError` if the log is stale w.r.t. the ROTE quorum.
        """
        log = cls.restore(
            blob, schema_sql, signing_key, public_key, rote, log_id, storage
        )[0]
        log._tail = None
        log.verify_freshness()
        return log

    @classmethod
    def restore(
        cls,
        blob: bytes,
        schema_sql: str,
        signing_key: EcdsaPrivateKey,
        public_key: EcdsaPublicKey,
        rote: RoteCluster,
        log_id: str,
        storage: LogStorage | None = None,
    ) -> tuple["AuditLog", bool, int]:
        """Verify the image ``storage`` holds and rebuild the log its last
        head seals; the log's next seal appends to that image.

        One pass: every record MAC is checked; at each head record, its
        intent record's stored tuple bytes extend the chain, which must
        reproduce that head, and decode (:func:`decode_tuple`) into their
        tables (:meth:`_enter`); a signature is verified only where the
        last head stores one (a cadence seal's). ``schema_sql`` and
        ``log_id`` are the service's and key the first MAC. Freshness is
        the caller's.

        Returns the log, whether an intent record follows the last head (a
        seal in flight: its chained MAC is the proof), and where the
        complete records end (a torn tail follows). Raises
        :class:`IntegrityError` on any tampering.
        """
        if not blob.startswith(IMAGE_MAGIC):
            if blob[:1] == b"{":
                raise IntegrityError(f"{UNSUPPORTED_SNAPSHOT}: a JSON snapshot")
            if blob.startswith(IMAGE_MAGIC[:-2]):  # another version
                raise IntegrityError(f"{UNSUPPORTED_SNAPSHOT}: {blob[:13]!r}")
            raise IntegrityError("not an audit log image")
        log = cls(schema_sql, signing_key, rote, log_id=log_id, storage=storage)
        key = log._record_key
        mac = record_genesis(key, log_id, schema_sql)
        try:
            bodies, end = split_frames(blob, len(IMAGE_MAGIC))
            pending: bytes | None = None
            state = None
            last_id = -1
            for body in bodies:
                kind, content, mac = open_record(key, mac, body)
                if kind == INTENT_RECORD:
                    pending = content
                elif kind == HEAD_RECORD and pending is not None:
                    last_id = log._enter_stored(pending, last_id)
                    pending = None
                    log.signed_head, state = _decode_head(content)
                    log._check_head()
                else:
                    raise IntegrityError(f"unexpected record kind {kind!r}")
            if state is None:
                raise IntegrityError("audit log image lacks a signed head")
            next_row_id, trim_generation, latest_time, time_monotone = state
            if next_row_id <= last_id:
                raise IntegrityError("watermark next_row_id behind stored row ids")
            log.next_row_id = next_row_id
            log.trim_generation = trim_generation
            # The stored clock is outside the signature: it may only raise
            # the one recomputed from the chained tuples (a trim can have
            # removed the latest rows), never rewind it.
            log.latest_time = max(log.latest_time, latest_time)
            log.time_monotone = bool(time_monotone) and log.time_monotone
            if log.signed_head.signature is not None:
                log._verify_signature(public_key)
        except IntegrityError:
            raise
        except Exception as exc:  # malformed fields, bad rows, wrong shapes
            raise IntegrityError(f"audit log snapshot malformed: {exc}") from exc
        log._tail = mac
        return log, pending is not None, end

    def _enter_stored(self, content: bytes, last_id: int) -> int:
        """Chain an intent record's stored tuple bytes and enter the tuples
        they decode to, exactly as stored and with row ids strictly
        increasing; returns the last row id. (A restart's hottest loop.)"""
        pos, size = 0, len(content)
        while pos < size:
            if pos + _ENTRY.size > size:
                raise IntegrityError("truncated intent record (missing entry header)")
            row_id, length = _ENTRY.unpack_from(content, pos)
            if row_id <= last_id:
                raise IntegrityError("stored row ids not strictly increasing")
            pos += _ENTRY.size + length
            if pos > size:
                raise IntegrityError("truncated intent record (missing tuple)")
            encoded = content[pos - length : pos]
            table, values = decode_tuple(encoded)
            if self._enter(table, values, row_id) != values:
                raise IntegrityError("stored tuple is not the row its table holds")
            self.chain.append_encoded(encoded)
            last_id = row_id
        return last_id

    def verify_structure(self, public_key: EcdsaPublicKey) -> None:
        """Verify chain and head signature (no quorum interaction)."""
        self.chain.verify_payloads((table, row) for _, table, row in self._stream)
        self.export_head()
        self._verify_signature(public_key)
        self._check_head()

    def export_head(self) -> SignedHead:
        """The last sealed head, signed, as it leaves the enclave: signed
        here once if its seal did not, with no increment and no write."""
        head = self.signed_head
        if head is None:
            raise IntegrityError("audit log has no signed head")
        if head.signature is None:
            head = self.signed_head = head.signed(self._signing_key)
        return head

    def _verify_signature(self, public_key: EcdsaPublicKey) -> None:
        """Verify the head's signature, unless already under this key."""
        checked = (self.signed_head, public_key)
        if self._verified != checked:
            self.signed_head.verify(public_key)
            self._verified = checked

    def _check_head(self) -> None:
        head = self.signed_head
        if head.head_hash != self.chain.head:
            raise IntegrityError("signed head does not match the hash chain")
        if head.entry_count != len(self.chain):
            raise IntegrityError("signed entry count does not match the log")

    def verify_freshness(self) -> int:
        """Cross-check the signed counter against the live ROTE quorum.

        Returns the live quorum counter value. Raises
        :class:`RollbackError` when the signed head is provably behind it,
        :class:`~repro.errors.QuorumUnavailableError` when no quorum
        answers (an availability fault, not evidence of rollback).
        """
        head = self.signed_head
        if head is None:
            raise IntegrityError("audit log has no signed head")
        live_counter = self.rote.retrieve(self.log_id)
        if head.counter_value < live_counter:
            raise RollbackError(
                f"stale audit log: counter {head.counter_value} < quorum "
                f"value {live_counter}"
            )
        return live_counter

    def verify(self, public_key: EcdsaPublicKey) -> None:
        """Full verification: chain, signature, freshness (§5.1)."""
        self.verify_structure(public_key)
        self.verify_freshness()
