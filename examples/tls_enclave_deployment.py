#!/usr/bin/env python3
"""Full deployment: attested enclave, TLS termination, in-band checks.

The complete Fig 1 + §6.3 story:

1. the provider builds the LibSEAL TLS enclave;
2. the provisioning authority *attests* it before releasing the service's
   TLS certificate and private key (a rogue build gets nothing);
3. a stock TLS client connects; every request/response is audited inside
   the enclave;
4. the client requests an invariant check with the ``Libseal-Check``
   header and reads the verdict from the ``Libseal-Check-Result``
   response header — no out-of-band channel needed.

Run:  python examples/tls_enclave_deployment.py
"""

from repro.core import LibSeal, provision_tls_identity
from repro.enclave_tls import EnclaveTlsRuntime
from repro.errors import AttestationError
from repro.http import (
    LIBSEAL_CHECK_HEADER,
    LIBSEAL_RESULT_HEADER,
    HttpRequest,
    parse_response,
)
from repro.servers import EventLoop, LoopClient
from repro.services.git import GitHttpService, GitServer
from repro.services.git.repo import RefUpdate
from repro.services.git.smart_http import encode_push
from repro.sgx import AttestationService, QuotingEnclave
from repro.ssm import GitSSM
from repro.tls.cert import CertificateAuthority, make_server_identity


def main() -> None:
    # --- Platform and PKI setup -----------------------------------------
    quoting_enclave = QuotingEnclave(platform_seed=b"prod-host-17")
    attestation = AttestationService()
    attestation.register_platform(quoting_enclave)
    ca = CertificateAuthority("WebTrust-Root")
    server_key, server_cert = make_server_identity(ca, "git.example.com")

    # --- 1+2: build and attest the enclave; provision the identity ------
    runtime = EnclaveTlsRuntime(code_version="libseal-tls-1.0")
    ctx = runtime.api.SSL_CTX_new(runtime.api.TLS_server_method())
    provision_tls_identity(
        runtime, ctx, server_cert, server_key,
        quoting_enclave, attestation,
        expected_measurement=runtime.enclave.measurement(),
    )
    print("enclave attested; TLS identity provisioned into the enclave")

    rogue = EnclaveTlsRuntime(code_version="no-audit-build-6.66")
    try:
        provision_tls_identity(
            rogue, rogue.api.SSL_CTX_new(rogue.api.TLS_server_method()),
            server_cert, server_key, quoting_enclave, attestation,
            expected_measurement=runtime.enclave.measurement(),
        )
    except AttestationError as exc:
        print(f"rogue build refused the key: {exc}")

    # --- 3: wire LibSEAL's logger into the enclave's TLS taps -----------
    libseal = LibSeal(GitSSM())
    libseal.attach(runtime)
    git = GitHttpService(GitServer())
    repo = git.server.create_repository("project.git")

    # The production front end: every connection is an lthread task on
    # the event loop, and closing one releases its audit pairing state.
    loop = EventLoop(git.handle, api=runtime.api, ssl_ctx=ctx,
                     on_close=libseal.logger.close_connection)

    def roundtrip(request: HttpRequest):
        # A stock TLS client: one connection, one request.
        client = LoopClient(loop, ca)
        client.handshake()
        _, received = client.exchange(request.encode())  # audited in-enclave
        loop.close(client.conn_id)
        return parse_response(received)

    # Developer pushes two commits over TLS.
    for i in range(2):
        old = repo.refs.get("master")
        commit = repo.objects.create_commit(old, f"c{i}", "dev", {"f": bytes([i])})
        roundtrip(HttpRequest(
            "POST", "/project.git/git-receive-pack",
            body=encode_push([RefUpdate("master", old, commit.commit_id)]),
        ))
    print("pushed 2 commits through the enclave-terminated TLS endpoint")

    # --- 4: provider misbehaves; the client asks for a check in-band ----
    repo.attack_rollback("master")
    request = HttpRequest("GET", "/project.git/info/refs?service=git-upload-pack")
    request.headers.set(LIBSEAL_CHECK_HEADER, "1")
    response = roundtrip(request)
    verdict = response.headers.get(LIBSEAL_RESULT_HEADER)
    print(f"client's {LIBSEAL_RESULT_HEADER} header: {verdict}")
    assert verdict is not None and verdict.startswith("VIOLATIONS")

    stats = runtime.enclave.interface.stats
    print(f"enclave interface activity: {stats.ecalls} ecalls, "
          f"{stats.ocalls} ocalls across the session")


if __name__ == "__main__":
    main()
