"""The LibSEAL enclave TLS runtime: LibreSSL-in-SGX, reproduced.

:class:`EnclaveTlsRuntime` builds the enclave image: every TLS operation is
an ecall, network I/O leaves through ``bio_read``/``bio_write`` ocalls, and
the §4.2 optimisations are independent toggles so the ablation benchmark
can measure each one:

1. **memory pool** — per-connection scratch comes from a preallocated
   outside pool instead of ``malloc``/``free`` ocalls;
2. **SDK locks/randomness** — in-enclave spinlocks and ``sgx_read_rand``
   instead of ``pthread``/``random`` ocalls;
3. **ex_data outside** — application context lives in the outside shadow,
   so storing/reading it needs no ecall.

The exposed :attr:`api` namespace is call-compatible with
:mod:`repro.tls.api`: services link against either without source changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable

from repro.crypto.drbg import HmacDrbg
from repro.crypto.ecdsa import EcdsaPrivateKey
from repro.enclave_tls.callbacks import CallbackRegistry, TrampolineTable
from repro.enclave_tls.mempool import MemoryPool
from repro.enclave_tls.shadow import ShadowSSL, sanitised_view
from repro.errors import TLSError
from repro.obs import hooks as _obs
from repro.sgx.enclave import Enclave, EnclaveConfig
from repro.sim.costs import (
    ENCLAVE_HANDSHAKE_FACTOR,
    RATLS_VERIFY_CYCLES,
    TLS_HANDSHAKE_CYCLES,
    TLS_PER_BYTE_CYCLES,
)
from repro.tls.bio import BIO
from repro.tls.cert import Certificate, CertificateAuthority
from repro.tls.connection import (
    ALERT_CLOSE_NOTIFY,
    ALERT_INTERNAL_ERROR,
    TLSConfig,
    TLSConnection,
)

SSL_VERIFY_NONE = 0
SSL_VERIFY_PEER = 1

_SERVER_METHOD = "TLS_server_method"
_CLIENT_METHOD = "TLS_client_method"

# Estimated in-enclave footprint of one TLS session (keys, transcript,
# buffers) for EPC accounting.
SSL_STRUCT_BYTES = 16 * 1024

#: Scratch buffers every new connection takes (from the pool, or from the
#: host by ocall when the mempool optimisation is off).
SCRATCH_BUFFERS_PER_CONNECTION = 4


@dataclass(frozen=True)
class LibSealTlsOptions:
    """Toggles for the §4.2 transition-reduction optimisations."""

    use_mempool: bool = True
    use_sdk_locks_rand: bool = True
    ex_data_outside: bool = True


class _OcallBio:
    """In-enclave proxy for an outside BIO: every access is an ocall."""

    def __init__(self, runtime: "EnclaveTlsRuntime", bio_id: int):
        self._runtime = runtime
        self._bio_id = bio_id

    def read(self, max_bytes: int | None = None) -> bytes:
        return self._runtime.enclave.interface.ocall("bio_read", self._bio_id, max_bytes)

    def write(self, data: bytes) -> int:
        return self._runtime.enclave.interface.ocall("bio_write", self._bio_id, data)


class _OcallDrbg(HmacDrbg):
    """DRBG that fetches entropy via a ``random`` ocall per draw.

    Models the unoptimised configuration in which the enclave asks the host
    for randomness instead of using ``sgx_read_rand`` (§4.2, optimisation 2).
    """

    def __init__(self, runtime: "EnclaveTlsRuntime", seed: bytes):
        super().__init__(seed=seed)
        self._runtime = runtime

    def generate(self, num_bytes: int) -> bytes:
        entropy = self._runtime.enclave.interface.ocall("sys_random", num_bytes)
        self.reseed(entropy)
        return super().generate(num_bytes)


class LibSealSSLCtx:
    """Outside handle for an enclave-resident SSL context."""

    def __init__(self, handle: int, method: str):
        self.handle = handle
        self.method = method


class LibSealSSL:
    """Outside handle for an enclave-resident SSL connection.

    Holds the sanitised shadow structure, the outside BIOs and the
    application's ``ex_data`` — everything the application may touch
    without entering the enclave.
    """

    def __init__(self, handle: int, ctx: LibSealSSLCtx):
        self.handle = handle
        self.ctx = ctx
        self.shadow = ShadowSSL(handle=handle)
        self.rbio: BIO | None = None
        self.wbio: BIO | None = None


class EnclaveTlsRuntime:
    """One LibSEAL enclave instance terminating TLS for a service."""

    def __init__(
        self,
        options: LibSealTlsOptions | None = None,
        signer_name: str = "libseal-authority",
        drbg_seed: bytes = b"libseal-tls",
        code_version: str = "libseal-tls-1.0",
    ):
        self.options = options or LibSealTlsOptions()
        self.enclave = Enclave(
            EnclaveConfig(code_identity=code_version, signer_name=signer_name)
        )
        self.callbacks = CallbackRegistry()  # outside
        self.pool = MemoryPool()  # outside memory, inside bookkeeping
        self._outside_bios: dict[int, BIO] = {}
        self._next_bio_id = 1
        self._drbg_seed = drbg_seed
        self._host_drbg = HmacDrbg(seed=drbg_seed + b"-host")  # untrusted entropy

        # Enclave-resident state. Created outside at build time (the
        # loader writes the initial enclave image), then only touched from
        # inside via ecalls.
        self._inside = {
            "contexts": {},  # handle -> dict(config fields)
            "connections": {},  # handle -> dict(conn, scratch, ctx_handle)
            "trampolines": TrampolineTable(),
            "next_handle": 1,
            "audit_on_read": None,
            "audit_on_write": None,
            "drbg_counter": 0,
        }
        self._register_interface()
        self.enclave.interface.seal_interface()
        self.api = self._build_api()

    # ------------------------------------------------------------------
    # Audit hooks (installed by the LibSEAL core library; run inside)
    # ------------------------------------------------------------------

    def set_audit_hooks(
        self,
        on_read: Callable[[int, bytes], None] | None,
        on_write: Callable[[int, bytes], None] | None,
    ) -> None:
        """Install the logger's read/write taps (enclave code, §5.1)."""
        self._inside["audit_on_read"] = on_read
        self._inside["audit_on_write"] = on_write

    # ------------------------------------------------------------------
    # Interface registration
    # ------------------------------------------------------------------

    def _register_interface(self) -> None:
        interface = self.enclave.interface
        state = self._inside

        # ---- ocalls: untrusted services the enclave relies on ----------
        def ocall_bio_read(bio_id: int, max_bytes: int | None) -> bytes:
            return self._outside_bios[bio_id].read(max_bytes)

        def ocall_bio_write(bio_id: int, data: bytes) -> int:
            return self._outside_bios[bio_id].write(data)

        def ocall_malloc(size: int) -> int:
            return -1  # host pointer stand-in

        def ocall_free(pointer: int) -> None:
            return None

        def ocall_sys_random(num_bytes: int) -> bytes:
            return self._host_drbg.generate(num_bytes)

        def ocall_pthread_lock() -> None:
            return None

        def ocall_pthread_unlock() -> None:
            return None

        def ocall_invoke_callback(cb_id: int, *args: Any) -> Any:
            return self.callbacks.invoke(cb_id, *args)

        interface.register_ocall("bio_read", ocall_bio_read)
        interface.register_ocall("bio_write", ocall_bio_write)
        interface.register_ocall("malloc", ocall_malloc)
        interface.register_ocall("free", ocall_free)
        interface.register_ocall("sys_random", ocall_sys_random)
        interface.register_ocall("pthread_lock", ocall_pthread_lock)
        interface.register_ocall("pthread_unlock", ocall_pthread_unlock)
        interface.register_ocall("invoke_callback", ocall_invoke_callback)

        # ---- helpers shared by ecall bodies -----------------------------
        def next_handle() -> int:
            handle = state["next_handle"]
            state["next_handle"] += 1
            return handle

        def lock_unlock() -> None:
            if not self.options.use_sdk_locks_rand:
                interface.ocall("pthread_lock")
                interface.ocall("pthread_unlock")

        def make_drbg() -> HmacDrbg:
            state["drbg_counter"] += 1
            seed = self._drbg_seed + state["drbg_counter"].to_bytes(4, "big")
            if self.options.use_sdk_locks_rand:
                return HmacDrbg(seed=seed)
            return _OcallDrbg(self, seed)

        def connection_of(handle: int) -> TLSConnection:
            entry = state["connections"].get(handle)
            if entry is None:
                raise TLSError(f"unknown SSL handle {handle}")
            return entry["conn"]

        # ---- ecalls: context management ---------------------------------
        def ecall_ctx_new(method: str) -> int:
            handle = next_handle()
            state["contexts"][handle] = {
                "method": method,
                "certificate": None,
                "private_key": None,
                "ca": None,
                "verify_mode": SSL_VERIFY_NONE,
                "attestation_verifier": None,
            }
            return handle

        def ecall_ctx_use_certificate(handle: int, cert_encoded: bytes) -> int:
            state["contexts"][handle]["certificate"] = Certificate.decode(cert_encoded)
            return 1

        def ecall_ctx_use_private_key(handle: int, key: EcdsaPrivateKey) -> int:
            # Key material enters once during provisioning and never
            # leaves: it is stored in enclave memory.
            protected = self.enclave.protect(key, size_bytes=64)
            state["contexts"][handle]["private_key"] = protected
            return 1

        def ecall_ctx_load_verify(handle: int, ca: CertificateAuthority) -> int:
            state["contexts"][handle]["ca"] = ca
            return 1

        def ecall_ctx_set_verify(handle: int, mode: int) -> None:
            state["contexts"][handle]["verify_mode"] = mode

        def ecall_ctx_set_info_callback(handle: int, cb_id: int) -> None:
            state["trampolines"].install(handle, "info", cb_id)

        def ecall_ctx_set_attestation(handle: int, verifier: Any | None) -> None:
            # RA-TLS: the verifier runs inside the enclave during the
            # handshake; its policy (expected measurements, freshness)
            # is enclave state untrusted code cannot edit afterwards.
            state["contexts"][handle]["attestation_verifier"] = verifier

        # ---- ecalls: connection lifecycle -------------------------------
        def ecall_ssl_new(ctx_handle: int, rbio_id: int, wbio_id: int) -> int:
            handle = next_handle()
            scratch = []
            for _ in range(SCRATCH_BUFFERS_PER_CONNECTION):
                if self.options.use_mempool:
                    scratch.append(("pool", self.pool.alloc()))
                else:
                    scratch.append(("host", interface.ocall("malloc", 4096)))
            state["connections"][handle] = {
                "conn": None,
                "ctx_handle": ctx_handle,
                "rbio_id": rbio_id,
                "wbio_id": wbio_id,
                "scratch": scratch,
                "ex_data": {},
                "protected": self.enclave.protect(None, SSL_STRUCT_BYTES),
            }
            return handle

        def materialise(handle: int, is_server: bool) -> TLSConnection:
            entry = state["connections"][handle]
            if entry["conn"] is not None:
                return entry["conn"]
            ctx = state["contexts"][entry["ctx_handle"]]
            private_key = ctx["private_key"]
            config = TLSConfig(
                certificate=ctx["certificate"],
                private_key=private_key.get() if private_key is not None else None,
                ca=ctx["ca"],
                require_client_cert=bool(ctx["verify_mode"] & SSL_VERIFY_PEER)
                and is_server,
                drbg=make_drbg(),
                attestation_verifier=ctx["attestation_verifier"],
            )
            conn = TLSConnection(
                config,
                is_server,
                rbio=_OcallBio(self, entry["rbio_id"]),
                wbio=_OcallBio(self, entry["wbio_id"]),
            )
            cb_id = state["trampolines"].lookup(entry["ctx_handle"], "info")
            if cb_id is not None:
                conn.info_callback = (
                    lambda _conn, event, value: interface.ocall(
                        "invoke_callback", cb_id, handle, event, value
                    )
                )
            entry["conn"] = conn
            entry["protected"].set(conn)
            return conn

        def ecall_ssl_accept(handle: int):
            lock_unlock()
            with _obs.span("tls.handshake", role="server") as obs_span:
                conn = materialise(handle, is_server=True)
                already = conn.established
                done = conn.do_handshake()
                if done and not already and _obs.ON:
                    cost = TLS_HANDSHAKE_CYCLES * ENCLAVE_HANDSHAKE_FACTOR
                    if conn.config.attestation_verifier is not None:
                        # RA-TLS adds one in-handshake evidence
                        # verification (quote signature + policy).
                        cost += RATLS_VERIFY_CYCLES
                    if obs_span is not None:
                        obs_span.add_cycles(cost)
                    _obs.active().metrics.counter(
                        "tls_handshakes_total",
                        "Completed in-enclave TLS handshakes",
                    ).inc()
            return (1 if done else 0), sanitised_view(conn)

        def ecall_ssl_connect(handle: int):
            lock_unlock()
            conn = materialise(handle, is_server=False)
            done = conn.do_handshake()
            return (1 if done else 0), sanitised_view(conn)

        def ecall_ssl_read(handle: int, max_bytes: int | None):
            lock_unlock()
            conn = connection_of(handle)
            with _obs.span("tls.record.read") as obs_span:
                data = conn.read(max_bytes)
                if data and _obs.ON:
                    if obs_span is not None:
                        obs_span.add_cycles(len(data) * TLS_PER_BYTE_CYCLES)
                        obs_span.set_attr("bytes", len(data))
                    _obs.active().metrics.counter(
                        "tls_record_bytes_total",
                        "Plaintext bytes through the enclave record layer",
                        dir="read",
                    ).inc(len(data))
                hook = state["audit_on_read"]
                if hook is not None and data:
                    hook(handle, data)
            return data, sanitised_view(conn)

        def ecall_ssl_write(handle: int, data: bytes):
            lock_unlock()
            conn = connection_of(handle)
            with _obs.span("tls.record.write") as obs_span:
                hook = state["audit_on_write"]
                if hook is not None and data:
                    # The logger may rewrite the response in-enclave, e.g. to
                    # inject the Libseal-Check-Result header (§5.2).
                    replacement = hook(handle, data)
                    if replacement is not None:
                        data = replacement
                written = conn.write(data)
                if data and _obs.ON:
                    if obs_span is not None:
                        obs_span.add_cycles(len(data) * TLS_PER_BYTE_CYCLES)
                        obs_span.set_attr("bytes", len(data))
                    _obs.active().metrics.counter(
                        "tls_record_bytes_total",
                        "Plaintext bytes through the enclave record layer",
                        dir="write",
                    ).inc(len(data))
            return written, sanitised_view(conn)

        def ecall_ssl_pending(handle: int) -> int:
            return connection_of(handle).pending()

        def ecall_ssl_get_peer_certificate(handle: int) -> bytes | None:
            cert = connection_of(handle).peer_certificate
            return cert.encode() if cert is not None else None

        def ecall_ssl_get_peer_attested_identity(handle: int):
            return connection_of(handle).peer_attested_identity

        def ecall_ssl_set_ex_data(handle: int, index: int, value: Any) -> None:
            state["connections"][handle]["ex_data"][index] = value

        def ecall_ssl_get_ex_data(handle: int, index: int) -> Any:
            return state["connections"][handle]["ex_data"].get(index)

        def ecall_ssl_send_alert(handle: int, description: int) -> None:
            entry = state["connections"].get(handle)
            conn = entry["conn"] if entry is not None else None
            if conn is not None:
                conn.send_alert(description)

        def ecall_ssl_shutdown(handle: int) -> int:
            entry = state["connections"].get(handle)
            conn = entry["conn"] if entry is not None else None
            if conn is not None:
                conn.send_alert(ALERT_CLOSE_NOTIFY, fatal=False)
            return 1

        def ecall_ssl_free(handle: int) -> None:
            entry = state["connections"].pop(handle, None)
            if entry is None:
                return
            for kind, token in entry["scratch"]:
                if kind == "pool":
                    self.pool.free(token)
                else:
                    interface.ocall("free", token)
            self.enclave.release(entry["protected"])
            state["trampolines"].remove_handle(handle)

        interface.register_ecall("ctx_new", ecall_ctx_new)
        interface.register_ecall("ctx_use_certificate", ecall_ctx_use_certificate)
        interface.register_ecall("ctx_use_private_key", ecall_ctx_use_private_key)
        interface.register_ecall("ctx_load_verify", ecall_ctx_load_verify)
        interface.register_ecall("ctx_set_verify", ecall_ctx_set_verify)
        interface.register_ecall("ctx_set_info_callback", ecall_ctx_set_info_callback)
        interface.register_ecall("ctx_set_attestation", ecall_ctx_set_attestation)
        interface.register_ecall("ssl_new", ecall_ssl_new)
        interface.register_ecall("ssl_accept", ecall_ssl_accept)
        interface.register_ecall("ssl_connect", ecall_ssl_connect)
        interface.register_ecall("ssl_read", ecall_ssl_read)
        interface.register_ecall("ssl_write", ecall_ssl_write)
        interface.register_ecall("ssl_pending", ecall_ssl_pending)
        interface.register_ecall(
            "ssl_get_peer_certificate", ecall_ssl_get_peer_certificate
        )
        interface.register_ecall(
            "ssl_get_peer_attested_identity", ecall_ssl_get_peer_attested_identity
        )
        interface.register_ecall("ssl_set_ex_data", ecall_ssl_set_ex_data)
        interface.register_ecall("ssl_get_ex_data", ecall_ssl_get_ex_data)
        interface.register_ecall("ssl_send_alert", ecall_ssl_send_alert)
        interface.register_ecall("ssl_shutdown", ecall_ssl_shutdown)
        interface.register_ecall("ssl_free", ecall_ssl_free)

    # ------------------------------------------------------------------
    # Outside BIO registry
    # ------------------------------------------------------------------

    def _register_bio(self, bio: BIO) -> int:
        bio_id = self._next_bio_id
        self._next_bio_id += 1
        self._outside_bios[bio_id] = bio
        return bio_id

    # ------------------------------------------------------------------
    # The drop-in OpenSSL-style API (outside wrappers)
    # ------------------------------------------------------------------

    def _build_api(self) -> SimpleNamespace:
        runtime = self
        interface = self.enclave.interface

        def SSL_CTX_new(method: str) -> LibSealSSLCtx:
            if method not in (_SERVER_METHOD, _CLIENT_METHOD):
                raise TLSError(f"unknown TLS method {method!r}")
            return LibSealSSLCtx(interface.ecall("ctx_new", method), method)

        def SSL_CTX_use_certificate(ctx: LibSealSSLCtx, cert: Certificate) -> int:
            return interface.ecall("ctx_use_certificate", ctx.handle, cert.encode())

        def SSL_CTX_use_PrivateKey(ctx: LibSealSSLCtx, key: EcdsaPrivateKey) -> int:
            return interface.ecall("ctx_use_private_key", ctx.handle, key)

        def SSL_CTX_load_verify_locations(
            ctx: LibSealSSLCtx, ca: CertificateAuthority
        ) -> int:
            return interface.ecall("ctx_load_verify", ctx.handle, ca)

        def SSL_CTX_set_verify(ctx: LibSealSSLCtx, mode: int) -> None:
            interface.ecall("ctx_set_verify", ctx.handle, mode)

        def SSL_CTX_set_info_callback(ctx: LibSealSSLCtx, callback) -> None:
            cb_id = runtime.callbacks.register(callback)
            interface.ecall("ctx_set_info_callback", ctx.handle, cb_id)

        def SSL_CTX_set_attestation_verifier(ctx: LibSealSSLCtx, verifier) -> None:
            interface.ecall("ctx_set_attestation", ctx.handle, verifier)

        def SSL_get_peer_attested_identity(ssl: LibSealSSL):
            return interface.ecall(
                "ssl_get_peer_attested_identity", _checked_handle(ssl)
            )

        def SSL_new(ctx: LibSealSSLCtx) -> LibSealSSL:
            # BIOs are attached later; allocate the handle lazily at
            # SSL_set_bio when the BIO ids exist.
            ssl = LibSealSSL(handle=-1, ctx=ctx)
            return ssl

        def SSL_set_bio(ssl: LibSealSSL, rbio: BIO, wbio: BIO) -> None:
            ssl.rbio, ssl.wbio = rbio, wbio
            rbio_id = runtime._register_bio(rbio)
            wbio_id = runtime._register_bio(wbio)
            ssl.handle = interface.ecall("ssl_new", ssl.ctx.handle, rbio_id, wbio_id)
            ssl.shadow.handle = ssl.handle

        def _checked_handle(ssl: LibSealSSL) -> int:
            if ssl.handle < 0:
                raise TLSError("SSL object has no BIOs; call SSL_set_bio first")
            return ssl.handle

        def SSL_accept(ssl: LibSealSSL) -> int:
            result, fields = interface.ecall("ssl_accept", _checked_handle(ssl))
            ssl.shadow.apply_sanitised(fields)
            return result

        def SSL_connect(ssl: LibSealSSL) -> int:
            result, fields = interface.ecall("ssl_connect", _checked_handle(ssl))
            ssl.shadow.apply_sanitised(fields)
            return result

        def SSL_read(ssl: LibSealSSL, max_bytes: int | None = None) -> bytes:
            data, fields = interface.ecall("ssl_read", _checked_handle(ssl), max_bytes)
            ssl.shadow.apply_sanitised(fields)
            return data

        def SSL_write(ssl: LibSealSSL, data: bytes) -> int:
            written, fields = interface.ecall("ssl_write", _checked_handle(ssl), data)
            ssl.shadow.apply_sanitised(fields)
            return written

        def SSL_pending(ssl: LibSealSSL) -> int:
            # Served from the shadow: no enclave transition required.
            return ssl.shadow.pending_bytes

        def SSL_is_init_finished(ssl: LibSealSSL) -> bool:
            return ssl.shadow.established

        def SSL_get_peer_certificate(ssl: LibSealSSL) -> Certificate | None:
            encoded = interface.ecall(
                "ssl_get_peer_certificate", _checked_handle(ssl)
            )
            return Certificate.decode(encoded) if encoded is not None else None

        def SSL_get_rbio(ssl: LibSealSSL) -> BIO | None:
            return ssl.rbio

        def SSL_get_wbio(ssl: LibSealSSL) -> BIO | None:
            return ssl.wbio

        def SSL_set_ex_data(ssl: LibSealSSL, index: int, value: Any) -> None:
            if runtime.options.ex_data_outside:
                ssl.shadow.ex_data[index] = value
            else:
                interface.ecall("ssl_set_ex_data", _checked_handle(ssl), index, value)

        def SSL_get_ex_data(ssl: LibSealSSL, index: int) -> Any:
            if runtime.options.ex_data_outside:
                return ssl.shadow.ex_data.get(index)
            return interface.ecall("ssl_get_ex_data", _checked_handle(ssl), index)

        def SSL_send_alert(
            ssl: LibSealSSL, description: int = ALERT_INTERNAL_ERROR
        ) -> None:
            if ssl.handle >= 0:
                interface.ecall("ssl_send_alert", ssl.handle, description)

        def SSL_shutdown(ssl: LibSealSSL) -> int:
            if ssl.handle >= 0:
                return interface.ecall("ssl_shutdown", ssl.handle)
            return 1

        def SSL_free(ssl: LibSealSSL) -> None:
            if ssl.handle >= 0:
                interface.ecall("ssl_free", ssl.handle)
            ssl.rbio = None
            ssl.wbio = None
            ssl.shadow.ex_data.clear()

        def SSL_do_handshake(ssl: LibSealSSL) -> int:
            if ssl.shadow.is_server:
                return SSL_accept(ssl)
            return SSL_connect(ssl)

        return SimpleNamespace(
            TLS_server_method=lambda: _SERVER_METHOD,
            TLS_client_method=lambda: _CLIENT_METHOD,
            SSL_VERIFY_NONE=SSL_VERIFY_NONE,
            SSL_VERIFY_PEER=SSL_VERIFY_PEER,
            SSL_CTX_new=SSL_CTX_new,
            SSL_CTX_use_certificate=SSL_CTX_use_certificate,
            SSL_CTX_use_PrivateKey=SSL_CTX_use_PrivateKey,
            SSL_CTX_load_verify_locations=SSL_CTX_load_verify_locations,
            SSL_CTX_set_verify=SSL_CTX_set_verify,
            SSL_CTX_set_info_callback=SSL_CTX_set_info_callback,
            SSL_CTX_set_attestation_verifier=SSL_CTX_set_attestation_verifier,
            SSL_get_peer_attested_identity=SSL_get_peer_attested_identity,
            SSL_new=SSL_new,
            SSL_set_bio=SSL_set_bio,
            SSL_accept=SSL_accept,
            SSL_connect=SSL_connect,
            SSL_do_handshake=SSL_do_handshake,
            SSL_is_init_finished=SSL_is_init_finished,
            SSL_read=SSL_read,
            SSL_write=SSL_write,
            SSL_pending=SSL_pending,
            SSL_get_peer_certificate=SSL_get_peer_certificate,
            SSL_get_rbio=SSL_get_rbio,
            SSL_get_wbio=SSL_get_wbio,
            SSL_set_ex_data=SSL_set_ex_data,
            SSL_get_ex_data=SSL_get_ex_data,
            SSL_send_alert=SSL_send_alert,
            SSL_shutdown=SSL_shutdown,
            SSL_free=SSL_free,
        )
