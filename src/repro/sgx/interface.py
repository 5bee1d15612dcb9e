"""The ecall/ocall enclave boundary.

SGX enclaves expose a fixed interface: *ecalls* enter the enclave, *ocalls*
let enclave code invoke untrusted functions outside (§2.5). The SDK
generates marshalling stubs from an EDL file; here, :class:`EnclaveInterface`
is that registry. It enforces the direction rules (outside code may only
issue ecalls; ocalls may only be issued from inside) and meters every
transition, because transitions are the dominant SGX cost LibSEAL engineers
around (§4.2-§4.3).

Cost model (paper measurements):

- one transition costs ~8,400 cycles with a single enclave thread (§4.2);
- the cost grows roughly linearly with concurrently executing enclave
  threads, reaching ~170,000 cycles at 48 threads — a 20x increase (§6.8).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import EnclaveError
from repro.faults import hooks as _faults
from repro.obs import hooks as _obs

TRANSITION_BASE_CYCLES = 8_400
TRANSITION_CYCLES_AT_48_THREADS = 170_000
SYSCALL_CYCLES = 1_400  # paper: a transition is ~6x a typical system call


def transition_cost_cycles(active_threads: int) -> int:
    """Cycles for one enclave transition given concurrent enclave threads.

    Linear interpolation through the paper's two calibration points:
    8,400 cycles at 1 thread and 170,000 cycles at 48 threads (§6.8).
    """
    if active_threads < 1:
        active_threads = 1
    slope = (TRANSITION_CYCLES_AT_48_THREADS - TRANSITION_BASE_CYCLES) / (48 - 1)
    return int(TRANSITION_BASE_CYCLES + slope * (active_threads - 1))


@dataclass
class TransitionStats:
    """Counters for boundary crossings and their modelled cycle cost."""

    ecalls: int = 0
    ocalls: int = 0
    ecall_cycles: int = 0
    ocall_cycles: int = 0
    per_ecall: dict[str, int] = field(default_factory=dict)
    per_ocall: dict[str, int] = field(default_factory=dict)

    @property
    def total_cycles(self) -> int:
        return self.ecall_cycles + self.ocall_cycles

    def reset(self) -> None:
        self.ecalls = 0
        self.ocalls = 0
        self.ecall_cycles = 0
        self.ocall_cycles = 0
        self.per_ecall.clear()
        self.per_ocall.clear()


class _ExecutionContext(threading.local):
    """Per-thread flag: are we currently executing inside the enclave?"""

    def __init__(self) -> None:
        self.inside = False
        self.depth = 0


class EnclaveInterface:
    """Registry and gatekeeper for the enclave's ecalls and ocalls.

    Functions are registered once (enclave build time); afterwards the
    interface is immutable, mirroring the fixed EDL-defined boundary.
    """

    def __init__(self) -> None:
        self._ecalls: dict[str, Callable[..., Any]] = {}
        self._ocalls: dict[str, Callable[..., Any]] = {}
        self._sealed = False
        self._context = _ExecutionContext()
        self._active_inside = 0
        self._active_lock = threading.Lock()
        self.stats = TransitionStats()

    # ------------------------------------------------------------------
    # Registration (build time)
    # ------------------------------------------------------------------

    def register_ecall(self, name: str, func: Callable[..., Any]) -> None:
        self._require_unsealed()
        if name in self._ecalls:
            raise EnclaveError(f"duplicate ecall {name!r}")
        self._ecalls[name] = func

    def register_ocall(self, name: str, func: Callable[..., Any]) -> None:
        self._require_unsealed()
        if name in self._ocalls:
            raise EnclaveError(f"duplicate ocall {name!r}")
        self._ocalls[name] = func

    def seal_interface(self) -> None:
        """Freeze the interface; no further registration is possible."""
        self._sealed = True

    def _require_unsealed(self) -> None:
        if self._sealed:
            raise EnclaveError("enclave interface is sealed; cannot register")

    @property
    def ecall_names(self) -> list[str]:
        return sorted(self._ecalls)

    @property
    def ocall_names(self) -> list[str]:
        return sorted(self._ocalls)

    # ------------------------------------------------------------------
    # Runtime
    # ------------------------------------------------------------------

    @property
    def inside_enclave(self) -> bool:
        return self._context.inside

    def ecall(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Enter the enclave and run ecall ``name``.

        Re-entrant ecalls (issuing an ecall while already inside) are
        rejected, as real SGX forbids nested enclave entry on one thread.
        """
        func = self._ecalls.get(name)
        if func is None:
            raise EnclaveError(f"no such ecall: {name}")
        if self._context.inside:
            raise EnclaveError(f"nested ecall {name!r} from inside the enclave")
        with self._active_lock:
            self._active_inside += 1
            active = self._active_inside
        cost = transition_cost_cycles(active)
        self.stats.ecalls += 1
        self.stats.ecall_cycles += cost
        self.stats.per_ecall[name] = self.stats.per_ecall.get(name, 0) + 1
        tracer_span = None
        if _obs.ON:
            plane = _obs.active()
            plane.metrics.counter(
                "sgx_ecalls_total", "Enclave entries by ecall name", call=name
            ).inc()
            plane.metrics.counter(
                "sgx_transition_cycles_total",
                "Modelled cycles spent crossing the enclave boundary",
                direction="ecall",
            ).inc(cost)
            if plane.config.trace_spans:
                tracer_span = plane.tracer.begin(
                    f"sgx.ecall.{name}", cycles=float(cost), threads=active
                )
        self._context.inside = True
        try:
            # Fault hook: an enclave abort (AEX with lost EPC, e.g. power
            # event) kills the call after entry — state inside is gone.
            for event in _faults.check("enclave.ecall"):
                if event.kind == "abort":
                    raise _faults.active().crash(event)
            return func(*args, **kwargs)
        finally:
            if tracer_span is not None:
                _obs.active().tracer.end(tracer_span)
            self._context.inside = False
            with self._active_lock:
                self._active_inside -= 1

    def ocall(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Leave the enclave to run untrusted function ``name``."""
        func = self._ocalls.get(name)
        if func is None:
            raise EnclaveError(f"no such ocall: {name}")
        if not self._context.inside:
            raise EnclaveError(f"ocall {name!r} issued from outside the enclave")
        with self._active_lock:
            active = max(1, self._active_inside)
        cost = transition_cost_cycles(active)
        self.stats.ocalls += 1
        self.stats.ocall_cycles += cost
        self.stats.per_ocall[name] = self.stats.per_ocall.get(name, 0) + 1
        tracer_span = None
        if _obs.ON:
            plane = _obs.active()
            plane.metrics.counter(
                "sgx_ocalls_total", "Enclave exits by ocall name", call=name
            ).inc()
            plane.metrics.counter(
                "sgx_transition_cycles_total",
                "Modelled cycles spent crossing the enclave boundary",
                direction="ocall",
            ).inc(cost)
            if plane.config.trace_spans:
                tracer_span = plane.tracer.begin(
                    f"sgx.ocall.{name}", cycles=float(cost), threads=active
                )
        self._context.inside = False
        try:
            return func(*args, **kwargs)
        finally:
            if tracer_span is not None:
                _obs.active().tracer.end(tracer_span)
            self._context.inside = True
