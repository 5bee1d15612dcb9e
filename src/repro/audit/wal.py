"""Authenticated write-ahead intents: one codec, one validator, one step runner.

Three protocols in this repo change durable state in more than one step
over *untrusted* storage: the epoch seal (:meth:`AuditLog.seal_epoch`),
key rotation (:mod:`repro.audit.rotation`) and shard membership change
(:mod:`repro.shard.rebalance`). Each persists an authenticated intent
*before* the first step, so a crash at any later point is
distinguishable from an attack and can be replayed to completion. The
seal's is an intent record of the log image (:mod:`repro.audit.log`),
MAC'd under :func:`intent_key`; the other two live in sidecar files, and
this module is the single implementation of what they share:

- :class:`AuthenticatedIntent` — the codec. A concrete intent is a
  frozen dataclass that declares a payload tag, a wire magic, its
  sidecar kind and an ordered list of typed :mod:`repro.codec` fields;
  ``payload``/``seal``/``verify``/``encode``/``decode`` are derived
  from that declaration.
- :func:`valid_intent` — the validator: decode, HMAC tag, owner id, and
  *currency* (an intent the protocol has already moved past is a replay
  by the storage provider, not a crash to resume);
  :func:`load_valid_intent` applies it to a sidecar.
- :class:`CheckpointedWal` — the coordinator base: write-ahead save,
  ``pending()``, validate-or-discard, the fault site between steps, and
  an ordered step table run with a checkpoint after every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Any, Callable, ClassVar

from repro.codec import Reader, encode_bytes
from repro.crypto.hashing import HASH_LEN, constant_time_equal, hkdf, hmac_sha256
from repro.errors import IntegrityError
from repro.faults import hooks as _faults

#: Why a blob in an older wire format is refused (the message is stable).
UNSUPPORTED_VERSION = "unsupported intent version"


@lru_cache(maxsize=16)
def intent_key(d: int) -> bytes:
    """The intent MAC key of the enclave whose signing scalar is ``d``:
    only the enclave that wrote an intent reads it back, and only it
    holds ``d`` (an epoch's group key is shared by every enclave).
    Memoised: every seal MACs under it."""
    return hkdf(d.to_bytes(32, "big"), salt=b"LibSEAL intent MAC", info=b"v2")


# ----------------------------------------------------------------------
# Field codecs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FieldCodec:
    """How one intent field is written, and read back strictly: the same
    bytes in the authenticated payload and on the wire."""

    encode: Callable[[Any], bytes]
    read: Callable[[Reader], Any]


#: Length-prefixed UTF-8, at most 4 KiB (identifiers, free text with NULs).
TEXT = FieldCodec(
    lambda s: encode_bytes(s.encode()), lambda r: r.read_bytes(4096).decode()
)
#: Big-endian fixed width.
U32 = FieldCodec(lambda value: value.to_bytes(4, "big"), lambda r: r.read_uint(4))
U64 = FieldCodec(lambda value: value.to_bytes(8, "big"), lambda r: r.read_uint(8))


def intent_field(codec: FieldCodec):
    """Declare one authenticated field of an :class:`AuthenticatedIntent` subclass."""
    return field(metadata={"codec": codec})


def authenticated_intent(cls):
    """Class decorator for a concrete intent: freeze it as a dataclass
    and record its authenticated-field table once, in declaration order."""
    cls = dataclass(frozen=True)(cls)
    cls.FIELDS = tuple(
        (f.name, f.metadata["codec"]) for f in fields(cls) if "codec" in f.metadata
    )
    return cls


# ----------------------------------------------------------------------
# The codec
# ----------------------------------------------------------------------


class AuthenticatedIntent:
    """Base of every MAC'd write-ahead intent.

    A concrete intent is decorated with :func:`authenticated_intent` and
    declares its fields with :func:`intent_field`, in payload/wire
    order, followed by a ``tag: bytes`` field (HMAC-SHA256 of the
    payload under :func:`intent_key`). The first field scopes the intent
    to its owner (a log id, a plane id).

    The payload is ``TAG NUL fields``, the wire (an on-disk format a
    crashed deployment resumes from) ``MAGIC NUL fields tag``: the same
    field bytes. ``MAGIC``'s last byte is the format version: a blob of the
    same format at another version is refused as :data:`UNSUPPORTED_VERSION`.
    """

    TAG: ClassVar[bytes]  #: domain-separation prefix of the payload
    MAGIC: ClassVar[bytes]  #: first wire element (format + version)
    SIDECAR: ClassVar[str]  #: the storage sidecar a coordinator keeps it in
    NOUN: ClassVar[str]  #: how error messages name it
    FIELDS: ClassVar[tuple[tuple[str, FieldCodec], ...]]

    @property
    def owner_id(self) -> str:
        return getattr(self, self.FIELDS[0][0])

    def _fields(self) -> bytes:
        return b"".join(codec.encode(getattr(self, n)) for n, codec in self.FIELDS)

    def payload(self) -> bytes:
        return self.TAG + b"\x00" + self._fields()

    @classmethod
    def seal(cls, signing_key, *args, **kwargs):
        untagged = cls(*args, **kwargs, tag=b"")
        tag = hmac_sha256(intent_key(signing_key.d), untagged.payload())
        return cls(*args, **kwargs, tag=tag)

    def verify(self, signing_key) -> None:
        expected = hmac_sha256(intent_key(signing_key.d), self.payload())
        if not constant_time_equal(self.tag, expected):
            raise IntegrityError(f"{self.NOUN} tag invalid")

    def encode(self) -> bytes:
        return self.MAGIC + b"\x00" + self._fields() + self.tag

    @classmethod
    def decode(cls, blob: bytes):
        magic = blob.split(b"\x00", 1)[0]
        if magic != cls.MAGIC and magic[:-1] == cls.MAGIC[:-1]:
            raise IntegrityError(f"{cls.NOUN}: {UNSUPPORTED_VERSION} {magic!r}")
        try:
            if magic != cls.MAGIC:
                raise IntegrityError("bad magic")
            reader = Reader(blob[len(magic) + 1 :], IntegrityError, cls.NOUN)
            values = [codec.read(reader) for _, codec in cls.FIELDS]
            tag = reader.read_fixed(HASH_LEN)
            reader.expect_end()
        except (IntegrityError, UnicodeDecodeError) as exc:
            raise IntegrityError(f"{cls.NOUN} unparsable: {exc}") from exc
        return cls(*values, tag)


# ----------------------------------------------------------------------
# The validator
# ----------------------------------------------------------------------


def valid_intent(
    blob: bytes,
    intent_type: type[AuthenticatedIntent],
    signing_key,
    owner_id: str,
    still_current: Callable[[Any], bool] = lambda intent: True,
):
    """``blob`` as an intent, or None if it is not to be acted on.

    Storage is adversarial, so an intent counts only if it parses (in
    the current wire version), carries a tag minted under this enclave's
    ``signing_key``, names this owner, and is still *current*: the
    provider can write back an old, validly tagged intent the protocol
    has long completed, and replaying that would redo a finished change
    against today's state. A rejected intent buys the adversary nothing
    — the worst outcome is that the operator re-issues a genuine
    in-flight change.
    """
    try:
        intent = intent_type.decode(blob)
        intent.verify(signing_key)
    except IntegrityError:
        return None
    if intent.owner_id != owner_id or not still_current(intent):
        return None
    return intent


def load_valid_intent(
    storage,
    intent_type: type[AuthenticatedIntent],
    signing_key,
    owner_id: str,
    still_current: Callable[[Any], bool] = lambda intent: True,
):
    """The intent in ``intent_type``'s sidecar, or None if absent or not
    to be acted on (:func:`valid_intent`). This function never clears
    the sidecar; the caller decides."""
    blob = storage.load_intent(intent_type.SIDECAR)
    if blob is None:
        return None
    return valid_intent(blob, intent_type, signing_key, owner_id, still_current)


# ----------------------------------------------------------------------
# The checkpointed coordinator
# ----------------------------------------------------------------------


class CheckpointedWal:
    """A multi-step state change made crash-safe by an authenticated WAL entry.

    A protocol subclasses this and supplies only its content:

    - ``INTENT`` — its :class:`AuthenticatedIntent` type;
    - ``FAULT_SITE`` — the fault-plane site checked between steps;
    - ``STEPS`` — the ordered table of step functions, each called as
      ``step(self, intent, report)``, each *guarded and idempotent* so a
      replay from the top converges wherever the first attempt stopped;
    - ``storage`` / ``signing_key`` / ``owner_id`` — where the sidecar
      lives, whose key the tag must be minted under, and whose intents
      are ours;
    - :meth:`_still_current` — False once the protocol has moved past
      the intent (see :func:`load_valid_intent`);
    - :meth:`_run` — builds its report, calls :meth:`_run_steps`, and
      calls :meth:`_clear` once its own convergence condition holds.

    One change visits ``len(STEPS) + 1`` checkpoints: one after the
    write-ahead save, one after every step.
    """

    INTENT: ClassVar[type[AuthenticatedIntent]]
    FAULT_SITE: ClassVar[str]
    STEPS: ClassVar[tuple[Callable, ...]]

    @classmethod
    def checkpoints(cls) -> int:
        return len(cls.STEPS) + 1

    def __init__(self) -> None:
        self.started = 0
        self.resumed = 0

    def _still_current(self, intent) -> bool:
        raise NotImplementedError

    def _run(self, intent, resumed: bool):
        """Build the report and drive :meth:`_run_steps`; returns the report."""
        raise NotImplementedError

    def pending(self) -> bool:
        """Whether a WAL entry is outstanding."""
        return self.storage.load_intent(self.INTENT.SIDECAR) is not None

    def _begin(self, intent: AuthenticatedIntent):
        """Make the intent durable before anything changes, then run it."""
        self.storage.save_intent(intent.encode(), self.INTENT.SIDECAR)
        self.started += 1
        self._checkpoint()
        return self._run(intent, resumed=False)

    def resume(self):
        """Replay a change whose WAL entry survived a crash.

        Returns None when no valid, current change was in flight; a
        forged, corrupt, foreign, stale or old-version intent is
        discarded and its sidecar cleared (see :func:`load_valid_intent`
        for why).
        """
        intent = load_valid_intent(
            self.storage,
            self.INTENT,
            self.signing_key,
            self.owner_id,
            self._still_current,
        )
        if intent is None:
            self._clear()
            return None
        self.resumed += 1
        return self._run(intent, resumed=True)

    def _checkpoint(self) -> None:
        """Fault site between steps (chaos injects crashes here)."""
        for event in _faults.check(self.FAULT_SITE):
            if event.kind in ("crash", "abort"):
                raise _faults.active().crash(event)

    def _run_steps(self, intent: AuthenticatedIntent, report) -> None:
        for step in self.STEPS:
            step(self, intent, report)
            self._checkpoint()

    def _clear(self) -> None:
        self.storage.clear_intent(self.INTENT.SIDECAR)
