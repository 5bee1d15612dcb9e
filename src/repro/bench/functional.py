"""Real-code experiments: Fig 6, §6.5 log sizes, detection, Table 1, §4.2.

Unlike :mod:`repro.bench.perf`, nothing here is simulated: invariants run
on SealDB over logs produced by real service traffic, timings come from
``time.perf_counter``, and transition counts come from actual enclave
runtime instrumentation.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.core import LibSeal, LibSealConfig
from repro.enclave_tls import EnclaveTlsRuntime, LibSealTlsOptions
from repro.sgx.interface import transition_cost_cycles
from repro.ssm import DropboxSSM, GitSSM, OwnCloudSSM
from repro.workloads import (
    DropboxOpsWorkload,
    GitReplayWorkload,
    MessagingWorkload,
    OwnCloudEditWorkload,
)

WORKLOAD_FACTORIES = {
    "git": lambda libseal, seed=7: GitReplayWorkload(libseal, seed=seed),
    "owncloud": lambda libseal, seed=11: OwnCloudEditWorkload(libseal, seed=seed),
    "dropbox": lambda libseal, seed=13: DropboxOpsWorkload(libseal, seed=seed),
}

# Fig-6 variants: scaled so one benchmark run finishes in seconds. The
# shapes (fixed cost vs. superlinear query growth) are what matters.
FIG6_WORKLOADS = {
    "git": lambda libseal: GitReplayWorkload(
        libseal, repos=2, branches_per_repo=5, fetch_ratio=0.6
    ),
    "owncloud": lambda libseal: OwnCloudEditWorkload(
        libseal, documents=1, members=2
    ),
    "dropbox": lambda libseal: DropboxOpsWorkload(
        libseal, accounts=1, list_every=10, delete_ratio=0.1, max_live_files=8
    ),
}
SSM_FACTORIES = {"git": GitSSM, "owncloud": OwnCloudSSM, "dropbox": DropboxSSM}
FIG6_PAPER_OPTIMUM = {"git": 25, "owncloud": 75, "dropbox": 100}


def _fresh_stack(service: str):
    libseal = LibSeal(
        SSM_FACTORIES[service](), config=LibSealConfig(flush_each_pair=False)
    )
    workload = WORKLOAD_FACTORIES[service](libseal)
    return libseal, workload


# ---------------------------------------------------------------------------
# Fig 6: normalised invariant checking + trimming time vs interval
# ---------------------------------------------------------------------------


def fig6_checking_trimming(
    service: str,
    intervals=(25, 50, 75, 100, 150, 200, 300),
    rounds: int = 3,
) -> list[dict]:
    """For each interval: run the workload, then time check+trim (real).

    Returns per-interval mean absolute and normalised (per-request) times,
    averaged over ``rounds`` check/trim cycles on a continuously growing
    (and trimmed) log — exactly the §6.5 methodology.

    Besides the wall-clock timings each row carries the deterministic
    cost-model view of the same passes: mean rows scanned per check and
    the §6.8 modelled cycles, absolute and normalised per request. The
    curve *shape* (fixed cost amortising against superlinear query
    growth) lives in those — so shape assertions can run on them without
    inheriting wall-clock noise from a loaded CI host.
    """
    from repro.sim.costs import checking_cycles

    rows = []
    for interval in intervals:
        libseal = LibSeal(
            SSM_FACTORIES[service](), config=LibSealConfig(flush_each_pair=False)
        )
        workload = FIG6_WORKLOADS[service](libseal)
        invariants = len(SSM_FACTORIES[service]().invariants)
        total = 0.0
        rows_scanned = 0
        rows_vectorized = 0
        for _ in range(rounds):
            workload.run(interval)
            started = time.perf_counter()
            outcome = libseal.check_invariants()
            libseal.trim()
            total += time.perf_counter() - started
            rows_scanned += outcome.rows_scanned
            rows_vectorized += outcome.rows_vectorized
        mean_s = total / rounds
        mean_rows = rows_scanned / rounds
        mean_vectorized = rows_vectorized / rounds
        mean_cycles = checking_cycles(mean_rows, invariants, mean_vectorized)
        rows.append(
            {
                "interval": interval,
                "check_trim_ms": mean_s * 1e3,
                "normalised_us_per_request": mean_s / interval * 1e6,
                "rows_scanned": mean_rows,
                "rows_vectorized": mean_vectorized,
                "check_cycles": mean_cycles,
                "normalised_cycles_per_request": mean_cycles / interval,
            }
        )
    return rows


def fig6_optimum(rows: list[dict]) -> int:
    return min(rows, key=lambda r: r["normalised_us_per_request"])["interval"]


def fig6_cycles_optimum(rows: list[dict]) -> int:
    """The optimum interval under the deterministic cycle model."""
    return min(rows, key=lambda r: r["normalised_cycles_per_request"])["interval"]


def fig6_incremental_curves(
    service: str = "git",
    checkpoints=(250, 500, 1000, 2000, 3000),
    interval: int = 25,
    workload_factory=None,
) -> list[dict]:
    """Incremental vs full invariant checking as the log grows.

    One LibSeal instance (incremental checker, delta evaluation warm via
    a check every ``interval`` pairs) and one reference full-scan checker
    share the same audit log. At each checkpoint both run on the
    identical log; the curves report per-pass wall time, rows scanned
    (total and per invariant) and the §6.8 modelled cycle cost. The two
    checkers must agree exactly — any divergence is a bug, so this
    doubles as an equivalence check under real service traffic.
    """
    from repro.core.checker import InvariantChecker
    from repro.sim.costs import checking_cycles

    libseal = LibSeal(
        SSM_FACTORIES[service](), config=LibSealConfig(flush_each_pair=False)
    )
    factory = workload_factory or FIG6_WORKLOADS[service]
    workload = factory(libseal)
    full_checker = InvariantChecker(SSM_FACTORIES[service](), libseal.audit_log)
    invariants = len(SSM_FACTORIES[service]().invariants)
    rows: list[dict] = []
    pairs = 0
    for target in checkpoints:
        while pairs < target:
            workload.run(interval)
            pairs += interval
            outcome = libseal.check_invariants()
        reference = full_checker.run_checks(force_full=True)
        if outcome.violations != reference.violations:
            raise AssertionError(
                f"incremental/full divergence at {pairs} pairs: "
                f"{outcome.violations} != {reference.violations}"
            )
        log_rows = sum(
            libseal.audit_log.row_count(t)
            for t in libseal.audit_log.db.table_names()
        )
        rows.append(
            {
                "pairs": pairs,
                "log_rows": log_rows,
                "incremental_ms": outcome.elapsed_seconds * 1e3,
                "full_ms": reference.elapsed_seconds * 1e3,
                "incremental_rows_scanned": outcome.rows_scanned,
                "full_rows_scanned": reference.rows_scanned,
                "incremental_rows_vectorized": outcome.rows_vectorized,
                "full_rows_vectorized": reference.rows_vectorized,
                "incremental_cycles": checking_cycles(
                    outcome.rows_scanned, invariants, outcome.rows_vectorized
                ),
                "full_cycles": checking_cycles(
                    reference.rows_scanned, invariants, reference.rows_vectorized
                ),
                # The same passes priced as if every row ran the scalar
                # inner loop: the vectorization win is the ratio.
                "incremental_cycles_scalar": checking_cycles(
                    outcome.rows_scanned, invariants
                ),
                "full_cycles_scalar": checking_cycles(
                    reference.rows_scanned, invariants
                ),
                "per_invariant": {
                    s.name: {
                        "mode": s.mode,
                        "decomposable": s.decomposable,
                        "incremental_rows": s.rows_scanned,
                        "full_rows": next(
                            f.rows_scanned
                            for f in reference.invariant_stats
                            if f.name == s.name
                        ),
                    }
                    for s in outcome.invariant_stats
                },
            }
        )
    return rows


# ---------------------------------------------------------------------------
# §6.5: log size proportionality
# ---------------------------------------------------------------------------


def logsize_git(pointer_counts=(5, 10, 15)) -> list[dict]:
    """Log bytes per branch/tag pointer after trimming (paper: 530 B)."""
    rows = []
    for pointers in pointer_counts:
        libseal = LibSeal(GitSSM(), config=LibSealConfig(flush_each_pair=False))
        workload = GitReplayWorkload(
            libseal, repos=1, branches_per_repo=min(pointers, 5)
        )
        # Ensure the requested number of pointers exists across repos.
        workload.branches = [f"branch-{i}" for i in range(pointers)]
        workload.run(pointers * 8)
        libseal.trim()
        size = libseal.log_size_bytes
        rows.append(
            {
                "pointers": libseal.audit_log.row_count("updates"),
                "log_bytes": size,
                "bytes_per_pointer": size / max(1, libseal.audit_log.row_count("updates")),
            }
        )
    return rows


def logsize_owncloud(update_counts=(40, 80, 160)) -> list[dict]:
    """Log bytes per single-character update (paper: 131 B incl. 7 payload)."""
    rows = []
    for updates in update_counts:
        libseal = LibSeal(OwnCloudSSM(), config=LibSealConfig(flush_each_pair=False))
        workload = OwnCloudEditWorkload(
            libseal, documents=1, members=2, paragraph_ratio=0.0
        )
        workload.run(updates, snapshot_every=10**9)  # one session
        ops = libseal.audit_log.query(
            "SELECT COUNT(*) FROM docupdates WHERE kind = 'op' AND direction = 'c2s'"
        ).scalar()
        size = libseal.log_size_bytes
        rows.append(
            {
                "updates": ops,
                "log_bytes": size,
                "bytes_per_update": size / max(1, ops),
            }
        )
    return rows


def logsize_dropbox(file_counts=(20, 40, 80)) -> list[dict]:
    """Log bytes per live file after trimming (paper: 64 B, the digest)."""
    rows = []
    for files in file_counts:
        libseal = LibSeal(DropboxSSM(), config=LibSealConfig(flush_each_pair=False))
        workload = DropboxOpsWorkload(libseal, accounts=1, delete_ratio=0.0)
        workload.run(files + files // 4)
        libseal.trim()
        live = libseal.audit_log.row_count("commit_batch")
        size = libseal.log_size_bytes
        rows.append(
            {
                "files": live,
                "log_bytes": size,
                "bytes_per_file": size / max(1, live),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Detection matrix (§6.1/§6.2): every attack, end-to-end
# ---------------------------------------------------------------------------


def detection_matrix() -> list[dict]:
    """Run every §6.1 attack through the full stack; report detection."""
    rows = []

    # --- Git attacks ------------------------------------------------------
    for attack in ("rollback", "teleport", "reference_deletion"):
        libseal, workload = _fresh_stack("git")
        workload.run(30)
        repo = workload.service.server.repository(workload.repo_names[0])
        if attack == "rollback":
            branch = next(b for b, c in repo.advertise_refs())
            tip = repo.refs[branch]
            if repo.objects.get_commit(tip).parent_id is None:
                workload.push_once()
            # Find a branch with history to roll back.
            branch = next(
                b for b, c in repo.advertise_refs()
                if repo.objects.get_commit(c).parent_id is not None
            )
            repo.attack_rollback(branch)
        elif attack == "teleport":
            refs = repo.advertise_refs()
            (branch_a, cid_a), (branch_b, cid_b) = refs[0], refs[-1]
            repo.attack_teleport(branch_a, cid_b)
        else:
            branch = repo.advertise_refs()[0][0]
            repo.attack_delete_reference(branch)
        workload.fetch_once()
        outcome = libseal.check_invariants()
        rows.append(_detection_row("git", attack, outcome))

    # --- ownCloud attacks ---------------------------------------------------
    for attack in ("lost_update", "corrupted_update", "stale_snapshot"):
        libseal, workload = _fresh_stack("owncloud")
        workload.run(30, snapshot_every=10**9)
        server = workload.service.server
        doc = workload.documents[0]
        head = server.document(doc).head_seq
        if attack == "lost_update":
            server.attack_drop_update(doc, head)
            workload.run(6, snapshot_every=10**9)
        elif attack == "corrupted_update":
            server.attack_corrupt_update(doc, head)
            workload.run(6, snapshot_every=10**9)
        else:
            workload.snapshot_once(doc)
            server.attack_stale_snapshot(doc)
            for _ in range(5):
                workload.edit_once(doc)  # advance the document
            # The next leave posts a fresh snapshot; the joining member
            # is served the stale one captured by the attack.
            workload.snapshot_once(doc)
        outcome = libseal.check_invariants()
        rows.append(_detection_row("owncloud", attack, outcome))

    # --- Dropbox attacks ------------------------------------------------------
    for attack in ("corrupt_blocklist", "omit_file", "resurrect_file"):
        libseal, workload = _fresh_stack("dropbox")
        workload.run(30)
        server = workload.service.server
        account = workload.accounts[0]
        live = workload._live_files[account]
        if attack == "corrupt_blocklist":
            server.attack_corrupt_blocklist(account, live[0])
        elif attack == "omit_file":
            server.attack_omit_file(account, live[0])
        else:
            import json

            from repro.http import HttpRequest

            path = live.pop()
            body = json.dumps(
                {"account": account, "host": "bench-host",
                 "commits": [{"file": path, "blocklist": [], "size": -1}]}
            ).encode()
            workload._drive(HttpRequest("POST", "/commit_batch", body=body))
            server.attack_resurrect_file(account, path)
        workload.list_once()
        outcome = libseal.check_invariants()
        rows.append(_detection_row("dropbox", attack, outcome))

    # --- Messaging attacks (the §2.2 extension SSM) -----------------------
    from repro.core import LibSeal as _LibSeal
    from repro.ssm import MessagingSSM

    for attack in ("drop_message", "rewrite_message", "leak_channel"):
        libseal = _LibSeal(
            MessagingSSM(), config=LibSealConfig(flush_each_pair=False)
        )
        workload = MessagingWorkload(libseal)
        workload.run(30)
        channel = workload.channels[0]
        seq = workload.post_once(channel)
        server = workload.service.server
        if attack == "drop_message":
            server.attack_drop_message(channel, seq)
            workload.fetch_once(channel, workload.members[1])
        elif attack == "rewrite_message":
            server.attack_rewrite_message(channel, seq, "FORGED")
            workload.fetch_once(channel, workload.members[1])
        else:
            server.attack_leak_channel(channel, "outsider")
            workload._last_seen[(channel, "outsider")] = 0
            workload.fetch_once(channel, "outsider")
        outcome = libseal.check_invariants()
        rows.append(_detection_row("messaging", attack, outcome))

    # --- Honest baselines: no false positives ---------------------------------
    for service in ("git", "owncloud", "dropbox"):
        libseal, workload = _fresh_stack(service)
        workload.run(40)
        outcome = libseal.check_invariants()
        rows.append(
            {
                "service": service,
                "attack": "(honest run)",
                "detected": not outcome.ok,
                "violated_invariants": "-",
                "expected_detected": False,
            }
        )
    return rows


def _detection_row(service: str, attack: str, outcome) -> dict:
    violated = sorted(name for name, rows in outcome.violations.items() if rows)
    return {
        "service": service,
        "attack": attack,
        "detected": not outcome.ok,
        "violated_invariants": ",".join(violated) or "-",
        "expected_detected": True,
    }


# ---------------------------------------------------------------------------
# Table 1: code inventory and enclave interface
# ---------------------------------------------------------------------------

PAPER_TABLE1 = {
    "LibreSSL": (269_400, 206, 23),
    "Enclave shim layer": (9_400, 0, 19),
    "Async. transitions": (3_400, 1, 1),
    "SQLite": (61_000, 0, 12),
    "Audit logging": (1_700, 2, 0),
    "Total": (344_900, 209, 55),
}

INVENTORY_MAP = {
    "TLS library (repro.tls + repro.crypto)": ("tls", "crypto"),
    "Enclave shim layer (repro.enclave_tls + repro.sgx)": ("enclave_tls", "sgx"),
    "Async. transitions (repro.asynccalls + repro.lthreads)": (
        "asynccalls",
        "lthreads",
    ),
    "SQL engine (repro.sealdb)": ("sealdb",),
    "Audit logging (repro.audit + repro.core + repro.ssm)": (
        "audit",
        "core",
        "ssm",
    ),
}


def table1_inventory() -> list[dict]:
    """This repo's module sizes + the *actual* enclave interface counts."""
    package_root = Path(__file__).resolve().parent.parent
    rows = []
    total_loc = 0
    for label, packages in INVENTORY_MAP.items():
        loc = 0
        for package in packages:
            for path in (package_root / package).rglob("*.py"):
                loc += sum(
                    1 for line in path.read_text().splitlines() if line.strip()
                )
        total_loc += loc
        rows.append({"module": label, "loc": loc})
    runtime = EnclaveTlsRuntime()
    ecalls = len(runtime.enclave.interface.ecall_names)
    ocalls = len(runtime.enclave.interface.ocall_names)
    rows.append({"module": "Total", "loc": total_loc})
    rows.append({"module": "enclave interface", "loc": f"{ecalls} ecalls / {ocalls} ocalls"})
    return rows


# ---------------------------------------------------------------------------
# §4.2 ablation: transition-reduction optimisations, measured for real
# ---------------------------------------------------------------------------


def ablation_transition_optimisations(connections: int = 6) -> dict:
    """Drive real TLS connections through two enclave builds and count.

    Paper (§4.2): the memory pool, SDK locks/randomness and outside
    ex_data together cut ecalls by up to 31% and ocalls by up to 49%,
    improving throughput by up to 70%.
    """
    from repro.tls import api as native_api
    from repro.tls.bio import bio_pair
    from repro.tls.cert import CertificateAuthority, make_server_identity

    def run_build(options: LibSealTlsOptions) -> tuple[int, int]:
        ca = CertificateAuthority("ablation-root", seed=b"ablation-ca")
        key, cert = make_server_identity(ca, "svc", seed=b"ablation-id")
        runtime = EnclaveTlsRuntime(options=options)
        ctx = runtime.api.SSL_CTX_new(runtime.api.TLS_server_method())
        runtime.api.SSL_CTX_use_certificate(ctx, cert)
        runtime.api.SSL_CTX_use_PrivateKey(ctx, key)
        for i in range(connections):
            c2s, s_from_c = bio_pair()
            s2c, c_from_s = bio_pair()
            server_ssl = runtime.api.SSL_new(ctx)
            runtime.api.SSL_set_bio(server_ssl, s_from_c, s2c)
            client_ctx = native_api.SSL_CTX_new(native_api.TLS_client_method())
            native_api.SSL_CTX_load_verify_locations(client_ctx, ca)
            client_ctx.drbg_seed = bytes([i])
            client_ssl = native_api.SSL_new(client_ctx)
            native_api.SSL_set_bio(client_ssl, c_from_s, c2s)
            for _ in range(10):
                # Drive both endpoints every round (no short-circuit: the
                # server must process the ClientHello even while the
                # client still reports "in progress").
                client_done = native_api.SSL_connect(client_ssl)
                server_done = runtime.api.SSL_accept(server_ssl)
                if client_done and server_done:
                    break
            native_api.SSL_write(client_ssl, b"GET / HTTP/1.1\r\n\r\n")
            runtime.api.SSL_read(server_ssl)
            runtime.api.SSL_set_ex_data(server_ssl, 0, {"req": i})
            runtime.api.SSL_get_ex_data(server_ssl, 0)
            runtime.api.SSL_write(server_ssl, b"HTTP/1.1 200 OK\r\n\r\nok")
            native_api.SSL_read(client_ssl)
            runtime.api.SSL_free(server_ssl)
        stats = runtime.enclave.interface.stats
        return stats.ecalls, stats.ocalls

    unopt_ecalls, unopt_ocalls = run_build(
        LibSealTlsOptions(
            use_mempool=False, use_sdk_locks_rand=False, ex_data_outside=False
        )
    )
    opt_ecalls, opt_ocalls = run_build(LibSealTlsOptions())

    # Throughput impact via the §6.8 cost model at Apache's thread count.
    per_transition = transition_cost_cycles(48)
    base_request_cycles = 6.5e6
    unopt_cycles = (
        base_request_cycles
        + (unopt_ecalls + unopt_ocalls) / connections * per_transition
    )
    opt_cycles = (
        base_request_cycles
        + (opt_ecalls + opt_ocalls) / connections * per_transition
    )
    return {
        "unopt_ecalls_per_conn": unopt_ecalls / connections,
        "opt_ecalls_per_conn": opt_ecalls / connections,
        "ecall_reduction_pct": (1 - opt_ecalls / unopt_ecalls) * 100,
        "unopt_ocalls_per_conn": unopt_ocalls / connections,
        "opt_ocalls_per_conn": opt_ocalls / connections,
        "ocall_reduction_pct": (1 - opt_ocalls / unopt_ocalls) * 100,
        "modelled_throughput_gain_pct": (unopt_cycles / opt_cycles - 1) * 100,
        "paper_ecall_reduction_pct": 31.0,
        "paper_ocall_reduction_pct": 49.0,
        "paper_throughput_gain_pct": 70.0,
    }
