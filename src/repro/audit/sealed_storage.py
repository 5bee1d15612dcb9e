"""Encrypted log persistence (§6.3, "log privacy").

The audit log may contain sensitive data (for ownCloud, the entire
document history). LibSEAL can encrypt the log when written to persistent
storage using the SGX sealing facility; because sealing is bound to the
*signing authority* (MRSIGNER policy) rather than one CPU, the sealed log
remains readable by any LibSEAL enclave of the same authority — e.g.
after migration to another machine (§2.5, §6.3).

:func:`make_log_enclave` builds the small enclave whose only job is
sealing/unsealing log snapshots; :class:`SealedLogStorage` is a drop-in
:class:`~repro.audit.persistence.LogStorage` that routes every blob
through it. The provider (holding the storage file) sees only ciphertext.
"""

from __future__ import annotations

from repro.audit.persistence import LogStorage
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
        sealed = self.enclave.interface.ecall("seal_log", blob)
        self.inner.save(sealed)

    def load(self) -> bytes:
        sealed = self.inner.load()
        for event in _faults.check("sealed.load"):
            if event.kind == "seal_corrupt":
                injector = _faults.active()
                injector.note_effect(event, "corrupted")
                sealed = injector.corrupt(sealed)
        try:
            return self.enclave.interface.ecall("unseal_log", sealed)
        except SealingError:
            raise
        except Exception as exc:  # malformed ciphertext and the like
            raise SealingError(f"sealed log unreadable: {exc}") from exc

    def exists(self) -> bool:
        return self.inner.exists()

    def size_bytes(self) -> int:
        return self.inner.size_bytes()

    # Intent sidecars pass through unencrypted: each is an authenticated
    # public artifact (chain head + count, epoch numbers, shard names),
    # nothing confidential.
    def save_intent(self, blob: bytes, kind: str) -> None:
        self.inner.save_intent(blob, kind)

    def load_intent(self, kind: str) -> bytes | None:
        return self.inner.load_intent(kind)

    def clear_intent(self, kind: str) -> None:
        self.inner.clear_intent(kind)

    @property
    def orphans_cleaned(self) -> list:
        return self.inner.orphans_cleaned

    # Accounting passthroughs.
    @property
    def flush_count(self) -> int:  # type: ignore[override]
        return self.inner.flush_count

    @flush_count.setter
    def flush_count(self, value: int) -> None:
        self.inner.flush_count = value

    @property
    def bytes_written(self) -> int:  # type: ignore[override]
        return self.inner.bytes_written

    @bytes_written.setter
    def bytes_written(self, value: int) -> None:
        self.inner.bytes_written = value

    @property
    def total_latency_ms(self) -> float:  # type: ignore[override]
        return self.inner.total_latency_ms

    @total_latency_ms.setter
    def total_latency_ms(self, value: float) -> None:
        self.inner.total_latency_ms = value
