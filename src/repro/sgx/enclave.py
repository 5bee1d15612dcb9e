"""Enclave lifecycle, measurement and protected memory.

The simulated enclave gives the rest of the reproduction the three SGX
properties LibSEAL depends on:

1. **Isolation** — data placed in the enclave (:class:`EnclaveObject`) can
   only be dereferenced while executing inside (an ecall or an ocall's
   enclosing ecall). Outside code holding a reference gets an
   :class:`~repro.errors.EnclaveError` on access, which is what makes the
   shadow-structure mechanism of §4.1 necessary and testable.
2. **Measurement** — an MRENCLAVE-style hash over the enclave's code
   identity and interface, the basis for attestation.
3. **EPC accounting** — enclave memory beyond the EPC limit (~93 MiB
   usable of 128 MiB on SGX v1) pays a steep paging penalty (§2.5), which
   the performance model charges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashing import sha256
from repro.errors import EnclaveError
from repro.obs import hooks as _obs
from repro.sgx.interface import EnclaveInterface

EPC_USABLE_BYTES_DEFAULT = 93 * 1024 * 1024
EPC_PAGE_BYTES = 4096
EPC_PAGING_CYCLES_PER_PAGE = 40_000  # order-of-magnitude EPC swap cost


@dataclass(frozen=True)
class EnclaveConfig:
    """Build-time enclave parameters."""

    code_identity: str  # stands in for the measured code pages
    signer_name: str = "libseal-authority"
    epc_limit_bytes: int = EPC_USABLE_BYTES_DEFAULT


class EnclaveObject:
    """A handle to data living in protected enclave memory.

    The payload is only reachable through :meth:`get`/:meth:`set`, which
    verify that the calling thread is currently executing enclave code.
    """

    __slots__ = ("_enclave", "_value", "_size")

    def __init__(self, enclave: "Enclave", value: Any, size_bytes: int):
        self._enclave = enclave
        self._value = value
        self._size = size_bytes

    def get(self) -> Any:
        self._enclave.require_inside("read enclave memory")
        return self._value

    def set(self, value: Any) -> None:
        self._enclave.require_inside("write enclave memory")
        self._value = value

    @property
    def size_bytes(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return f"<EnclaveObject {self._size}B in {self._enclave.config.code_identity}>"


@dataclass
class EpcStats:
    allocated_bytes: int = 0
    peak_bytes: int = 0
    paging_events: int = 0
    paging_cycles: int = 0


class Enclave:
    """A simulated SGX enclave instance."""

    def __init__(self, config: EnclaveConfig, interface: EnclaveInterface | None = None):
        self.config = config
        self.interface = interface if interface is not None else EnclaveInterface()
        self.epc = EpcStats()
        self._destroyed = False
        self._drbg = HmacDrbg(seed=sha256(config.code_identity.encode()))
        self._objects: list[EnclaveObject] = []

    # ------------------------------------------------------------------
    # Lifecycle and identity
    # ------------------------------------------------------------------

    def measurement(self) -> bytes:
        """MRENCLAVE: a hash over the code identity and the interface."""
        interface_id = ",".join(
            self.interface.ecall_names + ["|"] + self.interface.ocall_names
        )
        return sha256(
            b"MRENCLAVE\x00"
            + self.config.code_identity.encode()
            + b"\x00"
            + interface_id.encode()
        )

    def signer_measurement(self) -> bytes:
        """MRSIGNER: a hash of the signing authority's identity."""
        return sha256(b"MRSIGNER\x00" + self.config.signer_name.encode())

    def destroy(self) -> None:
        """Tear down the enclave; all protected objects become unreachable."""
        self._destroyed = True
        for obj in self._objects:
            obj._value = None
        self._objects.clear()

    def abort(self) -> None:
        """Simulate an asynchronous enclave loss (power event, EPC purge).

        Identical to :meth:`destroy` from the outside — every protected
        object is gone and all further entries fail — but named separately
        so crash-recovery tests document that the enclave did *not* exit
        cleanly: any state not already sealed to storage is lost.
        """
        self.destroy()

    @property
    def destroyed(self) -> bool:
        return self._destroyed

    # ------------------------------------------------------------------
    # Protected memory
    # ------------------------------------------------------------------

    def require_inside(self, action: str) -> None:
        if self._destroyed:
            raise EnclaveError(f"cannot {action}: enclave destroyed")
        if not self.interface.inside_enclave:
            raise EnclaveError(f"cannot {action}: not executing inside the enclave")

    def protect(self, value: Any, size_bytes: int) -> EnclaveObject:
        """Place ``value`` in enclave memory; returns the opaque handle.

        Callable from inside only (enclave code allocates its own memory).
        Charges EPC paging cost if the allocation exceeds the EPC limit.
        """
        self.require_inside("allocate enclave memory")
        self.epc.allocated_bytes += size_bytes
        self.epc.peak_bytes = max(self.epc.peak_bytes, self.epc.allocated_bytes)
        overflow = self.epc.allocated_bytes - self.config.epc_limit_bytes
        if overflow > 0:
            pages = min(size_bytes, overflow + EPC_PAGE_BYTES - 1) // EPC_PAGE_BYTES + 1
            self.epc.paging_events += pages
            self.epc.paging_cycles += pages * EPC_PAGING_CYCLES_PER_PAGE
            if _obs.ON:
                metrics = _obs.active().metrics
                metrics.counter(
                    "sgx_epc_paging_events_total",
                    "EPC pages swapped past the usable limit",
                ).inc(pages)
                metrics.counter(
                    "sgx_epc_paging_cycles_total",
                    "Modelled cycles spent on EPC paging",
                ).inc(pages * EPC_PAGING_CYCLES_PER_PAGE)
                _obs.add_cycles(pages * EPC_PAGING_CYCLES_PER_PAGE)
        if _obs.ON:
            _obs.active().metrics.gauge(
                "sgx_epc_allocated_bytes", "Bytes currently allocated in the EPC"
            ).set(self.epc.allocated_bytes)
        obj = EnclaveObject(self, value, size_bytes)
        self._objects.append(obj)
        return obj

    def release(self, obj: EnclaveObject) -> None:
        """Free a protected object (inside only)."""
        self.require_inside("free enclave memory")
        if obj in self._objects:
            self._objects.remove(obj)
            self.epc.allocated_bytes -= obj.size_bytes
            obj._value = None

    # ------------------------------------------------------------------
    # In-enclave services (SDK equivalents)
    # ------------------------------------------------------------------

    def read_rand(self, num_bytes: int) -> bytes:
        """``sgx_read_rand``: in-enclave randomness, no ocall needed (§4.2)."""
        self.require_inside("read enclave randomness")
        return self._drbg.generate(num_bytes)

    @property
    def report_data(self) -> dict[str, Any]:
        """Diagnostic snapshot used by tests and the inventory benchmark."""
        return {
            "measurement": self.measurement().hex(),
            "signer": self.signer_measurement().hex(),
            "ecalls": len(self.interface.ecall_names),
            "ocalls": len(self.interface.ocall_names),
            "epc_allocated": self.epc.allocated_bytes,
            "epc_peak": self.epc.peak_bytes,
        }
