"""Drive a real workload through the full pipeline for ``repro obs``.

The workload generators (:mod:`repro.workloads`) interact with LibSEAL
only through ``log_pair``. :func:`run_workload` stands in for it and
serves every pair through the production front end: a
:class:`~repro.servers.LoopClient` sends the request, the
:class:`~repro.servers.EventLoop` decrypts it in the enclave (read tap),
parses it and answers with the generator's own response (write tap →
SSM → audit append → seal → periodic check). A trace of the run covers
every layer a served request crosses.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

from repro.core import LibSeal, LibSealConfig
from repro.enclave_tls import EnclaveTlsRuntime
from repro.http import HttpRequest, HttpResponse
from repro.servers import EventLoop, LoopClient
from repro.ssm import DropboxSSM, GitSSM, MessagingSSM, OwnCloudSSM
from repro.tls.cert import CertificateAuthority, make_server_identity
from repro.workloads import (
    DropboxOpsWorkload,
    GitReplayWorkload,
    MessagingWorkload,
    OwnCloudEditWorkload,
)

#: name -> (service SSM, workload generator)
_WORKLOADS = {
    "git": (GitSSM, GitReplayWorkload),
    "owncloud": (OwnCloudSSM, OwnCloudEditWorkload),
    "dropbox": (DropboxSSM, DropboxOpsWorkload),
    "messaging": (MessagingSSM, MessagingWorkload),
}
WORKLOADS = tuple(_WORKLOADS)


@dataclass
class WorkloadReport:
    """What one ``repro obs`` run did (counts only; the plane holds the
    trace and metrics)."""

    workload: str
    requests: int
    pairs_pumped: int
    handshakes: int
    pairs_logged: int
    checks_run: int
    epochs_sealed: int
    audit_rows: int


def run_workload(
    name: str,
    requests: int = 200,
    check_interval: int | None = 50,
    reconnect_every: int = 20,
    seed: int = 7,
) -> WorkloadReport:
    """Run ``requests`` operations of workload ``name`` through the full
    TLS + audit pipeline. Install an observability plane around this call
    to capture the trace."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    if reconnect_every < 1:
        raise ValueError("reconnect_every must be >= 1")
    ssm_class, workload_class = _WORKLOADS[name]
    libseal = LibSeal(
        ssm_class(), config=LibSealConfig(check_interval=check_interval)
    )
    runtime = EnclaveTlsRuntime()
    libseal.attach(runtime)
    api = runtime.api
    ca = CertificateAuthority("obs-root", seed=b"obs-ca")
    key, cert = make_server_identity(ca, "obs.example", seed=b"obs-id")
    ctx = api.SSL_CTX_new(api.TLS_server_method())
    api.SSL_CTX_use_certificate(ctx, cert)
    api.SSL_CTX_use_PrivateKey(ctx, key)
    # The generator's back end has already answered each request; the
    # loop's handler serves that answer.
    answers: list[HttpResponse] = []
    loop = EventLoop(
        lambda request: answers.pop(), api=api, ssl_ctx=ctx,
        on_close=libseal.logger.close_connection,
    )
    client: LoopClient | None = None

    def log_pair(request: HttpRequest, response: HttpResponse) -> None:
        nonlocal client
        # Persistent connections: handshakes show in the trace at a
        # realistic rate without one full ECDHE handshake per request.
        if loop.stats.requests_served % reconnect_every == 0:
            if client is not None:
                loop.close(client.conn_id)
            label = b"obs-client" + loop.stats.opened.to_bytes(4, "big")
            client = LoopClient(loop, ca, seed=label)
            client.handshake()
            if not client.established:
                raise RuntimeError("obs workload handshake did not complete")
        answers.append(response)
        result, _ = client.exchange(request.encode())
        if result.served != 1:
            raise RuntimeError(f"obs request not served: {result.violation!r}")

    try:
        workload_class(SimpleNamespace(log_pair=log_pair), seed=seed).run(
            requests
        )
    finally:
        if client is not None:
            loop.close(client.conn_id)
    audit_rows = sum(
        libseal.audit_log.row_count(table)
        for table in libseal.audit_log.db.table_names()
    )
    return WorkloadReport(
        workload=name,
        requests=requests,
        pairs_pumped=loop.stats.requests_served,
        handshakes=loop.stats.opened,
        pairs_logged=libseal.pairs_logged,
        checks_run=libseal.checker.stats.checks_run,
        epochs_sealed=libseal.audit_log.epochs_sealed,
        audit_rows=audit_rows,
    )
