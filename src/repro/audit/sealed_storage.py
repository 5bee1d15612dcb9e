"""Encrypted log persistence (§6.3, "log privacy").

The audit log may contain sensitive data (for ownCloud, the entire
document history). LibSEAL can encrypt the log when written to persistent
storage using the SGX sealing facility; because sealing is bound to the
*signing authority* (MRSIGNER policy) rather than one CPU, the sealed log
remains readable by any LibSEAL enclave of the same authority — e.g.
after migration to another machine (§2.5, §6.3).

:func:`make_log_enclave` builds the small enclave whose only job is
sealing/unsealing log records; :class:`SealedLogStorage` is a drop-in
:class:`~repro.audit.persistence.LogStorage` that routes every write
through it. Each append is sealed on its own and a replace seals the whole
image, each as one frame (:func:`~repro.audit.persistence.frame`) of the
inner file; loading unseals every frame and concatenates the plaintexts.
A strict prefix of a final frame (a torn append) is passed through as it
is: its header claims more than follows, so the log reads it as a torn
tail too. The provider (holding the storage file) sees only ciphertext.
"""

from __future__ import annotations

from repro.audit.persistence import LogStorage, frame, split_frames
from repro.errors import SealingError
from repro.faults import hooks as _faults
from repro.sgx.enclave import Enclave, EnclaveConfig
from repro.sgx.sealing import KeyPolicy, SealedBlob, SigningAuthority


def make_log_enclave(
    authority: SigningAuthority, code_version: str = "libseal-log-1.0"
) -> Enclave:
    """Build an enclave exposing ``seal_log``/``unseal_log`` ecalls."""
    enclave = Enclave(
        EnclaveConfig(code_identity=code_version, signer_name=authority.name)
    )

    def ecall_seal_log(plaintext: bytes) -> bytes:
        blob = authority.seal(
            enclave, plaintext, policy=KeyPolicy.MRSIGNER,
            associated_data=b"libseal-audit-log",
        )
        return blob.encode()

    def ecall_unseal_log(encoded: bytes) -> bytes:
        blob = SealedBlob.decode(encoded)
        return authority.unseal(
            enclave, blob, associated_data=b"libseal-audit-log"
        )

    enclave.interface.register_ecall("seal_log", ecall_seal_log)
    enclave.interface.register_ecall("unseal_log", ecall_unseal_log)
    enclave.interface.seal_interface()
    return enclave


class SealedLogStorage(LogStorage):
    """Wraps any :class:`LogStorage`, sealing every blob at rest."""

    def __init__(self, inner: LogStorage, enclave: Enclave):
        self.inner = inner
        self.enclave = enclave
        # Mirror the inner storage's accounting surface.
        self.path = inner.path

    # -- LogStorage interface -------------------------------------------

    def save(self, blob: bytes) -> None:
        self.inner.save(frame(self.enclave.interface.ecall("seal_log", blob)))

    def append(self, record: bytes, seals: bool = False) -> None:
        sealed = self.enclave.interface.ecall("seal_log", record)
        self.inner.append(frame(sealed), seals)

    def load(self) -> bytes:
        sealed = self.inner.load()
        for event in _faults.check("sealed.load"):
            if event.kind == "seal_corrupt":
                injector = _faults.active()
                injector.note_effect(event, "corrupted")
                sealed = injector.corrupt(sealed)
        try:
            frames, end = split_frames(sealed)
            plain = [self.enclave.interface.ecall("unseal_log", f) for f in frames]
        except SealingError:
            raise
        except Exception as exc:  # malformed frames, ciphertext and the like
            raise SealingError(f"sealed log unreadable: {exc}") from exc
        return b"".join(plain) + sealed[end:]

    def exists(self) -> bool:
        return self.inner.exists()

    def size_bytes(self) -> int:
        return self.inner.size_bytes()

    # Intent sidecars pass through unencrypted: each is an authenticated
    # public artifact (epoch numbers, shard names), nothing confidential.
    def save_intent(self, blob: bytes, kind: str) -> None:
        self.inner.save_intent(blob, kind)

    def load_intent(self, kind: str) -> bytes | None:
        return self.inner.load_intent(kind)

    def clear_intent(self, kind: str) -> None:
        self.inner.clear_intent(kind)

    # The inner storage's evidence and accounting, read through.
    orphans_cleaned = property(lambda self: self.inner.orphans_cleaned)
    flush_count = property(lambda self: self.inner.flush_count)
    bytes_written = property(lambda self: self.inner.bytes_written)
