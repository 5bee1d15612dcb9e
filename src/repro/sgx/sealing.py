"""SGX sealing: persisting enclave secrets to untrusted storage.

Sealing encrypts data under a key derived inside the CPU from the enclave's
identity (§2.5). Two key policies exist:

- ``MRENCLAVE``: only the *exact same* enclave can unseal;
- ``MRSIGNER``: any enclave signed by the same authority can unseal — the
  policy LibSEAL uses so a sealed audit log can move across machines and
  enclave versions (§6.3).

The simulation derives sealing keys from a per-authority root secret (the
stand-in for the fused CPU key) plus the relevant measurement, then seals
with the AEAD. Tampering with a sealed blob or unsealing with the wrong
identity raises :class:`~repro.errors.SealingError`.

**Key epochs.** Key material is not eternal: the authority maintains a
registry of :class:`KeyEpoch`\\ s and every derived key (sealing, group,
nonce stream) is scoped to one. Rotation creates a new ACTIVE epoch and
moves the previous one into a bounded GRACE window during which its blobs
still unseal and verify (so a replica that missed the rotation is
never stranded); once RETIRED, material under that epoch is rejected
fail-closed with :class:`~repro.errors.RetiredEpochError` — not proof of
tampering, but a lineage the rotation deliberately invalidated. Sealed
envelopes carry their epoch next to the key_id, following the AEGIS-style
key_id-tagged rotation scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.crypto.aead import AEAD, AEADKey, NONCE_LEN
from repro.crypto.drbg import HmacDrbg
from repro.crypto.ecdsa import EcdsaPrivateKey
from repro.crypto.hashing import hkdf, sha256
from repro.errors import IntegrityError, RetiredEpochError, SealingError
from repro.obs import hooks as _obs
from repro.sgx.enclave import Enclave


class KeyPolicy(Enum):
    MRENCLAVE = "mrenclave"
    MRSIGNER = "mrsigner"


class EpochState(Enum):
    """Lifecycle of one key epoch: active → grace → retired."""

    ACTIVE = "active"  # the one epoch new material is sealed under
    GRACE = "grace"  # unseal/verify still allowed; sealing allowed for
    # material already bound to it (e.g. an un-upgraded replica)
    RETIRED = "retired"  # all material rejected fail-closed


@dataclass
class KeyEpoch:
    """One entry of the authority's epoch registry."""

    epoch: int
    state: EpochState
    reason: str = ""


#: Wire width of the epoch tag inside a sealed envelope.
EPOCH_TAG_LEN = 4


@dataclass(frozen=True)
class SealedBlob:
    """A sealed payload as stored on untrusted media.

    The envelope is self-describing: policy byte, key epoch, key_id
    (the measurement the sealing key was derived from) and nonce travel
    with the ciphertext so any enclave of the authority can locate the
    right key — or refuse, fail-closed, when the epoch is retired.
    """

    policy: KeyPolicy
    key_id: bytes  # measurement the sealing key was derived from
    nonce: bytes
    ciphertext: bytes  # AEAD ciphertext || tag
    epoch: int = 1

    def encode(self) -> bytes:
        policy_byte = b"\x01" if self.policy is KeyPolicy.MRENCLAVE else b"\x02"
        return (
            policy_byte
            + self.epoch.to_bytes(EPOCH_TAG_LEN, "big")
            + self.key_id
            + self.nonce
            + self.ciphertext
        )

    @classmethod
    def decode(cls, data: bytes) -> "SealedBlob":
        if len(data) < 1 + EPOCH_TAG_LEN + 32 + NONCE_LEN:
            raise SealingError("sealed blob too short")
        if data[0] == 1:
            policy = KeyPolicy.MRENCLAVE
        elif data[0] == 2:
            policy = KeyPolicy.MRSIGNER
        else:
            # Any other byte is corruption or a forgery — fail closed
            # rather than guessing a policy and trying the wrong key.
            raise SealingError(f"sealed blob policy byte invalid: {data[0]:#04x}")
        epoch = int.from_bytes(data[1 : 1 + EPOCH_TAG_LEN], "big")
        offset = 1 + EPOCH_TAG_LEN
        key_id = data[offset : offset + 32]
        nonce = data[offset + 32 : offset + 32 + NONCE_LEN]
        return cls(policy, key_id, nonce, data[offset + 32 + NONCE_LEN :], epoch)


class SigningAuthority:
    """The enclave signing authority — the trust anchor for MRSIGNER sealing.

    Holds (a) the authority's code-signing ECDSA key and (b) the root
    secret standing in for the CPU's fused sealing key. One authority
    instance is shared by all enclaves it "signed".

    It also owns the **key-epoch registry**: every sealing key, group key
    and nonce stream is derived for a specific epoch, :meth:`rotate`
    opens a new one, and :meth:`retire` (or the bounded ``grace_window``)
    closes old ones for good.

    Sealing and group keys are derived once per epoch: the first HKDF
    (and, for a sealing key, the ``AEADKey.derive`` after it) of a usable
    epoch is kept in a memo keyed by epoch, and an epoch's entries are
    dropped the moment :meth:`rotate` or :meth:`retire` retires it. The
    memo therefore holds at most ``grace_window + 1`` epochs of keys, and
    never a retired one; a key asked for under a retired or unknown epoch
    is derived afresh and not kept. Callers still check the epoch's state
    themselves. Nonce streams are not part of the memo: a stream dropped
    and re-seeded would replay its nonces.
    """

    def __init__(self, name: str, seed: bytes | None = None, grace_window: int = 1):
        self.name = name
        drbg = HmacDrbg(seed=seed if seed is not None else sha256(name.encode()))
        self.signing_key = EcdsaPrivateKey.generate(drbg)
        self._root_secret = drbg.generate(32)
        self.grace_window = grace_window
        self.current_epoch = 1
        self._epochs: dict[int, KeyEpoch] = {
            1: KeyEpoch(1, EpochState.ACTIVE, "genesis")
        }
        #: One independent DRBG nonce stream per (epoch, key_id): a
        #: rotation that re-derives a key can never replay a nonce that
        #: the same key already consumed, because the stream is seeded
        #: from the same scope as the key itself.
        self._nonce_streams: dict[tuple[int, bytes], HmacDrbg] = {}
        #: The key memo: epoch -> {(domain, key_id or label): key}.
        self._epoch_keys: dict[int, dict[tuple[bytes, bytes], object]] = {}
        self.rotations = 0
        self.retired_rejections = 0

    # ------------------------------------------------------------------
    # Epoch registry
    # ------------------------------------------------------------------

    @property
    def epochs(self) -> dict[int, KeyEpoch]:
        """Read-only view of the registry (epoch → entry)."""
        return dict(self._epochs)

    def epoch_state(self, epoch: int) -> EpochState | None:
        """State of ``epoch``, or None for an epoch never opened."""
        entry = self._epochs.get(epoch)
        return entry.state if entry is not None else None

    def rotate(self, reason: str = "") -> int:
        """Open a new ACTIVE epoch; the previous one enters GRACE.

        Epochs older than the bounded grace window are retired in the
        same step, so the set of acceptable key lineages never grows
        without bound. Returns the new epoch number.
        """
        previous = self.current_epoch
        new = previous + 1
        self._epochs[previous].state = EpochState.GRACE
        self._epochs[new] = KeyEpoch(new, EpochState.ACTIVE, reason)
        self.current_epoch = new
        for entry in self._epochs.values():
            if entry.epoch < new - self.grace_window:
                entry.state = EpochState.RETIRED
                self._epoch_keys.pop(entry.epoch, None)
        self.rotations += 1
        if _obs.ON:
            metrics = _obs.active().metrics
            metrics.counter(
                "key_rotations_total", "Key-epoch rotations performed"
            ).inc()
            metrics.gauge(
                "key_epoch_current", "The authority's current ACTIVE key epoch"
            ).set(new)
        return new

    def retire(self, epoch: int) -> None:
        """Close ``epoch`` for good (idempotent; the ACTIVE epoch never)."""
        entry = self._epochs.get(epoch)
        if entry is None:
            return
        if epoch == self.current_epoch:
            raise SealingError("cannot retire the active key epoch")
        entry.state = EpochState.RETIRED
        self._epoch_keys.pop(epoch, None)

    def _require_usable_epoch(self, epoch: int, action: str) -> None:
        state = self.epoch_state(epoch)
        if state is None or state is EpochState.RETIRED:
            self.retired_rejections += 1
            if _obs.ON:
                _obs.active().metrics.counter(
                    "retired_epoch_rejections_total",
                    "Material rejected for carrying a retired/unknown epoch",
                    where="sealing",
                ).inc()
            raise RetiredEpochError(
                f"cannot {action}: key epoch {epoch} is "
                + ("unknown" if state is None else "retired")
            )

    # ------------------------------------------------------------------
    # Key derivation (all epoch-scoped)
    # ------------------------------------------------------------------

    def _sealing_key(self, key_id: bytes, epoch: int) -> AEADKey:
        return self._epoch_key(b"sgx-seal", epoch, key_id, AEADKey.derive)

    def _epoch_key(self, domain: bytes, epoch: int, scope: bytes, finish=None):
        """HKDF of the root secret for ``domain``/``epoch``/``scope`` (then
        ``finish``), memoised while ``epoch`` is ACTIVE or GRACE."""
        keys = self._epoch_keys.get(epoch)
        key = keys.get((domain, scope)) if keys else None
        if key is not None:
            return key
        key = hkdf(
            self._root_secret,
            info=domain + epoch.to_bytes(EPOCH_TAG_LEN, "big") + scope,
            length=32,
        )
        if finish is not None:
            key = finish(key)
        if self.epoch_state(epoch) in (EpochState.ACTIVE, EpochState.GRACE):
            self._epoch_keys.setdefault(epoch, {})[domain, scope] = key
        return key

    def _next_nonce(self, epoch: int, key_id: bytes) -> bytes:
        stream = self._nonce_streams.get((epoch, key_id))
        if stream is None:
            stream = HmacDrbg(
                seed=hkdf(
                    self._root_secret,
                    info=b"sgx-seal-nonce"
                    + epoch.to_bytes(EPOCH_TAG_LEN, "big")
                    + key_id,
                    length=32,
                )
            )
            self._nonce_streams[(epoch, key_id)] = stream
        return stream.generate(NONCE_LEN)

    def derive_group_key(self, label: bytes, epoch: int | None = None) -> bytes:
        """Symmetric key shared by every enclave this authority signed.

        Stands in for the group key ROTE replicas provision through
        remote attestation: any enclave in the attested group can derive
        it, no one outside can, so an HMAC under it proves a counter
        value originated inside *some* group member. Distinct labels
        give independent keys, and distinct epochs independent lineages
        — an HMAC under a retired epoch's key proves nothing anymore.
        """
        scope = epoch if epoch is not None else self.current_epoch
        return self._epoch_key(b"sgx-group-key", scope, label)

    # ------------------------------------------------------------------
    # Seal / unseal (must run inside the enclave)
    # ------------------------------------------------------------------

    def seal(
        self,
        enclave: Enclave,
        plaintext: bytes,
        policy: KeyPolicy = KeyPolicy.MRSIGNER,
        associated_data: bytes = b"",
        epoch: int | None = None,
    ) -> SealedBlob:
        """Seal ``plaintext`` for ``enclave`` under ``policy``.

        New material is sealed under the current epoch; an explicit
        ``epoch`` is allowed only while that epoch is still usable
        (ACTIVE or GRACE) — the escape hatch an un-upgraded enclave
        needs to persist during the grace window, never afterwards.
        """
        enclave.require_inside("seal data")
        self._check_authority(enclave)
        scope = epoch if epoch is not None else self.current_epoch
        self._require_usable_epoch(scope, "seal data")
        key_id = (
            enclave.measurement()
            if policy is KeyPolicy.MRENCLAVE
            else enclave.signer_measurement()
        )
        nonce = self._next_nonce(scope, key_id)
        aead = AEAD(self._sealing_key(key_id, scope))
        return SealedBlob(
            policy, key_id, nonce, aead.seal(nonce, plaintext, associated_data), scope
        )

    def unseal(
        self, enclave: Enclave, blob: SealedBlob, associated_data: bytes = b""
    ) -> bytes:
        """Unseal ``blob``; fails for foreign enclaves, retired epochs or
        tampered data."""
        enclave.require_inside("unseal data")
        self._check_authority(enclave)
        self._require_usable_epoch(blob.epoch, "unseal data")
        expected_id = (
            enclave.measurement()
            if blob.policy is KeyPolicy.MRENCLAVE
            else enclave.signer_measurement()
        )
        if blob.key_id != expected_id:
            raise SealingError(
                "sealed blob was created for a different enclave identity"
            )
        aead = AEAD(self._sealing_key(blob.key_id, blob.epoch))
        try:
            return aead.open(blob.nonce, blob.ciphertext, associated_data)
        except IntegrityError as exc:
            raise SealingError(f"sealed blob failed authentication: {exc}") from exc

    def reseal(
        self,
        enclave: Enclave,
        blob: SealedBlob,
        associated_data: bytes = b"",
        policy: KeyPolicy | None = None,
    ) -> SealedBlob:
        """Migrate a sealed blob to the current epoch (and optionally a
        new policy — the MRENCLAVE→MRSIGNER upgrade path).

        The source blob must still be unsealable (its epoch ACTIVE or in
        grace); the result is always sealed under the current epoch.
        """
        plaintext = self.unseal(enclave, blob, associated_data)
        target_policy = policy if policy is not None else blob.policy
        if _obs.ON:
            _obs.active().metrics.counter(
                "seal_migrations_total",
                "Sealed blobs migrated to a newer epoch/policy",
            ).inc()
        return self.seal(enclave, plaintext, target_policy, associated_data)

    def _check_authority(self, enclave: Enclave) -> None:
        if enclave.config.signer_name != self.name:
            raise SealingError(
                f"enclave signed by {enclave.config.signer_name!r}, "
                f"not by this authority ({self.name!r})"
            )
