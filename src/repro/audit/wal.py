"""Signed write-ahead intents: one codec, one validator, one step runner.

Three protocols in this repo change durable state in more than one step
over *untrusted* storage: the epoch seal (:meth:`AuditLog.seal_epoch`),
key rotation (:mod:`repro.audit.rotation`) and shard membership change
(:mod:`repro.shard.rebalance`). Each persists a signed intent in a
sidecar file *before* the first step, so a crash at any later point is
distinguishable from an attack and can be replayed to completion.

This module is the single implementation of what they share:

- :class:`SignedIntent` — the codec. A concrete intent is a frozen
  dataclass that declares a payload tag, a wire magic, its sidecar kind
  and an ordered list of typed fields; ``payload``/``sign``/``verify``/
  ``encode``/``decode`` are derived from that declaration.
- :func:`load_valid_intent` — the validator: decode, signature, owner
  id, and *currency* (an intent the protocol has already moved past is a
  replay by the storage provider, not a crash to resume).
- :class:`CheckpointedWal` — the coordinator base: write-ahead save,
  ``pending()``, validate-or-discard, the fault site between steps, and
  an ordered step table run with a checkpoint after every step.

The seal path shares the codec, the sidecar and the validator only; its
named ``audit.seal`` crash points and the recovery classification stay
in :mod:`repro.audit.log` and :mod:`repro.audit.recovery`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, ClassVar

from repro.crypto.ecdsa import EcdsaPrivateKey, EcdsaPublicKey, EcdsaSignature
from repro.errors import IntegrityError
from repro.faults import hooks as _faults


# ----------------------------------------------------------------------
# Field codecs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FieldCodec:
    """How one intent field enters the signed payload and the wire form."""

    to_payload: Callable[[Any], bytes]
    to_wire: Callable[[Any], bytes]
    from_wire: Callable[[bytes], Any]


def _hex(data: bytes) -> bytes:
    return data.hex().encode()


def _unhex(wire: bytes) -> bytes:
    return bytes.fromhex(wire.decode())


def _uint(width: int) -> FieldCodec:
    def from_wire(wire: bytes) -> int:
        value = int(wire)
        if not 0 <= value < 1 << (8 * width):
            raise ValueError(f"integer {value} out of range")
        return value

    return FieldCodec(
        lambda value: value.to_bytes(width, "big"),
        lambda value: str(value).encode(),
        from_wire,
    )


#: NUL-terminated text in the payload, raw text on the wire (identifiers).
TEXT = FieldCodec(lambda s: s.encode() + b"\x00", str.encode, bytes.decode)
#: Free text closing the payload unterminated; hex on the wire (may hold NULs).
TRAILING_TEXT = FieldCodec(
    str.encode, lambda s: _hex(s.encode()), lambda w: _unhex(w).decode()
)
#: Fixed-length raw bytes in the payload, hex on the wire (hashes).
DIGEST = FieldCodec(bytes, _hex, _unhex)
#: Big-endian fixed-width in the payload, decimal on the wire.
U32 = _uint(4)
U64 = _uint(8)


def intent_field(codec: FieldCodec):
    """Declare one signed field of a :class:`SignedIntent` subclass."""
    return field(metadata={"codec": codec})


def signed_intent(cls):
    """Class decorator for a concrete intent: freeze it as a dataclass
    and record its signed-field table once, in declaration order."""
    cls = dataclass(frozen=True)(cls)
    cls.SIGNED_FIELDS = tuple(
        (f.name, f.metadata["codec"]) for f in fields(cls) if "codec" in f.metadata
    )
    return cls


# ----------------------------------------------------------------------
# The codec
# ----------------------------------------------------------------------


class SignedIntent:
    """Base of every signed write-ahead intent.

    A concrete intent is decorated with :func:`signed_intent` and
    declares its signed fields with :func:`intent_field`, in payload/wire
    order, followed by a ``signature: EcdsaSignature`` field. The first
    signed field scopes the intent to its owner (a log id, a plane id).

    The signed payload is ``TAG NUL field...``; the wire form is
    ``MAGIC``, each field and the hex signature joined by NULs. Both are
    on-disk formats a crashed deployment resumes from.
    """

    TAG: ClassVar[bytes]  #: domain-separation prefix of the signed payload
    MAGIC: ClassVar[bytes]  #: first wire element (format + version)
    SIDECAR: ClassVar[str]  #: the storage sidecar this intent is kept in
    NOUN: ClassVar[str]  #: how error messages name it
    SIGNED_FIELDS: ClassVar[tuple[tuple[str, FieldCodec], ...]]

    @property
    def owner_id(self) -> str:
        return getattr(self, self.SIGNED_FIELDS[0][0])

    def payload(self) -> bytes:
        return self.TAG + b"\x00" + b"".join(
            codec.to_payload(getattr(self, name))
            for name, codec in self.SIGNED_FIELDS
        )

    @classmethod
    def sign(cls, key: EcdsaPrivateKey, *args, **kwargs):
        unsigned = cls(*args, **kwargs, signature=EcdsaSignature(0, 0))
        return cls(*args, **kwargs, signature=key.sign(unsigned.payload()))

    def verify(self, public_key: EcdsaPublicKey) -> None:
        if not public_key.verify(self.payload(), self.signature):
            raise IntegrityError(f"{self.NOUN} signature invalid")

    def encode(self) -> bytes:
        return b"\x00".join(
            [self.MAGIC]
            + [
                codec.to_wire(getattr(self, name))
                for name, codec in self.SIGNED_FIELDS
            ]
            + [_hex(self.signature.encode())]
        )

    @classmethod
    def decode(cls, blob: bytes):
        signed = cls.SIGNED_FIELDS
        try:
            magic, *wire, sig_hex = blob.split(b"\x00")
            if magic != cls.MAGIC:
                raise ValueError("bad magic")
            if len(wire) != len(signed):
                raise ValueError(f"expected {len(signed)} fields, got {len(wire)}")
            values = [codec.from_wire(part) for (_, codec), part in zip(signed, wire)]
            return cls(*values, EcdsaSignature.decode(_unhex(sig_hex)))
        except (ValueError, UnicodeDecodeError) as exc:
            raise IntegrityError(f"{cls.NOUN} unparsable: {exc}") from exc


# ----------------------------------------------------------------------
# The validator
# ----------------------------------------------------------------------


def load_valid_intent(
    storage,
    intent_type: type[SignedIntent],
    public_key: EcdsaPublicKey,
    owner_id: str,
    still_current: Callable[[Any], bool] = lambda intent: True,
):
    """The stored intent, or None if absent or not to be acted on.

    Storage is adversarial, so an intent counts only if it parses, is
    signed by this enclave's key, names this owner, and is still
    *current*: the provider can write back an old, validly signed intent
    the protocol has long completed, and replaying that would redo a
    finished change against today's state. A rejected intent buys the
    adversary nothing — the worst outcome is that the operator re-issues
    a genuine in-flight change. This function never clears the sidecar;
    the caller decides.
    """
    blob = storage.load_intent(intent_type.SIDECAR)
    if blob is None:
        return None
    try:
        intent = intent_type.decode(blob)
        intent.verify(public_key)
    except IntegrityError:
        return None
    if intent.owner_id != owner_id or not still_current(intent):
        return None
    return intent


# ----------------------------------------------------------------------
# The checkpointed coordinator
# ----------------------------------------------------------------------


class CheckpointedWal:
    """A multi-step state change made crash-safe by a signed WAL entry.

    A protocol subclasses this and supplies only its content:

    - ``INTENT`` — its :class:`SignedIntent` type;
    - ``FAULT_SITE`` — the fault-plane site checked between steps;
    - ``STEPS`` — the ordered table of step functions, each called as
      ``step(self, intent, report)``, each *guarded and idempotent* so a
      replay from the top converges wherever the first attempt stopped;
    - ``storage`` / ``public_key`` / ``owner_id`` — where the sidecar
      lives, whose signature counts, and whose intents are ours;
    - :meth:`_still_current` — False once the protocol has moved past
      the intent (see :func:`load_valid_intent`);
    - :meth:`_run` — builds its report, calls :meth:`_run_steps`, and
      calls :meth:`_clear` once its own convergence condition holds.

    One change visits ``len(STEPS) + 1`` checkpoints: one after the
    write-ahead save, one after every step.
    """

    INTENT: ClassVar[type[SignedIntent]]
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

    def _begin(self, intent: SignedIntent):
        """Make the intent durable before anything changes, then run it."""
        self.storage.save_intent(intent.encode(), self.INTENT.SIDECAR)
        self.started += 1
        self._checkpoint()
        return self._run(intent, resumed=False)

    def resume(self):
        """Replay a change whose WAL entry survived a crash.

        Returns None when no valid, current change was in flight; a
        forged, corrupt, foreign or stale intent is discarded and its
        sidecar cleared (see :func:`load_valid_intent` for why).
        """
        intent = load_valid_intent(
            self.storage,
            self.INTENT,
            self.public_key,
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

    def _run_steps(self, intent: SignedIntent, report) -> None:
        for step in self.STEPS:
            step(self, intent, report)
            self._checkpoint()

    def _clear(self) -> None:
        self.storage.clear_intent(self.INTENT.SIDECAR)
