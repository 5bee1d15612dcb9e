"""The six wall-clock workloads.

Each workload turns ``--seed`` into a fixed *op script* (the requests a
client sends and the responses the service back end gives), builds a
fresh LibSEAL stack per repetition and replays the script through it.
The back end (``GitHttpService.handle`` and friends) runs while the
script is generated, standing where the load generator would: the
program under test only ever receives the generated requests and the
pre-computed responses.

Every op checks its own output; :meth:`Workload.finish` checks the audit
state a repetition leaves behind, and :meth:`Workload.negative_control`
injects one violation the final check must detect, so that the checks
are not vacuous.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.audit.persistence import InMemoryStorage, LogStorage
from repro.audit.recovery import RecoveryOutcome
from repro.core import LibSeal, LibSealConfig
from repro.crypto.drbg import HmacDrbg
from repro.crypto.ecdsa import EcdsaPrivateKey
from repro.enclave_tls import EnclaveTlsRuntime
from repro.http import HttpRequest, HttpResponse
from repro.servers import EventLoop
from repro.shard import ShardPlane
from repro.ssm import DropboxSSM, GitSSM, MessagingSSM
from repro.tls import api as native_api
from repro.tls.bio import BIO
from repro.tls.cert import CertificateAuthority, make_server_identity
from repro.workloads import (
    DropboxOpsWorkload,
    GitReplayWorkload,
    MessagingWorkload,
)


class PairRecorder:
    """Stands where a workload generator expects a ``LibSeal`` and keeps
    each request/response pair the back end produced."""

    def __init__(self) -> None:
        self.pairs: list[tuple[HttpRequest, HttpResponse]] = []

    def log_pair(
        self, request: HttpRequest, response: HttpResponse, handle: int = 0
    ) -> None:
        self.pairs.append((request, response))


@dataclass
class Op:
    """One scripted operation: what the client sends, what it must read."""

    request: HttpRequest
    response: HttpResponse
    request_bytes: bytes
    response_bytes: bytes


def _ops(pairs: list[tuple[HttpRequest, HttpResponse]]) -> list[Op]:
    return [Op(q, r, q.encode(), r.encode()) for q, r in pairs]


def _generate(generator_cls: type, total: int, seed: int, **kwargs: Any):
    """Run a ``repro.workloads`` generator against a recorder until it has
    produced ``total`` pairs (its constructor's set-up pairs included)."""
    recorder = PairRecorder()
    generator = generator_cls(recorder, seed=seed, **kwargs)
    generator.run(total - len(recorder.pairs))
    return generator, recorder


def _counts(pairs: int, libseals: list[LibSeal]) -> dict[str, int]:
    stats = [libseal.checker.stats for libseal in libseals]
    return {
        "pairs": pairs,
        "stored_bytes": sum(
            libseal.storage.bytes_written for libseal in libseals
        ),
        "checks_run": sum(s.checks_run for s in stats),
        "invariant_evaluations": sum(
            s.full_evaluations + s.delta_evaluations for s in stats
        ),
        "rows_scanned": sum(s.rows_scanned for s in stats),
        "rows_vectorized": sum(s.rows_vectorized for s in stats),
    }


class Workload:
    """Base class; see the module docstring for the life cycle."""

    name = ""
    why = ""
    #: Ops in one repetition's script; sized so that a repetition takes
    #: under a second and ``--seconds`` holds about twenty of them.
    ops = 0
    #: Script length under ``--quick`` (self-tests).
    quick_ops = 40

    def __init__(self, seed: int, storage_root: Path, quick: bool = False):
        self.seed = seed
        self.storage_root = storage_root
        if quick:
            self.ops = self.quick_ops
        self.script: list[Op] = []

    # -- set-up ----------------------------------------------------------

    def generate(self) -> None:
        """Build ``self.script`` from the seed (runs the service back end)."""
        raise NotImplementedError

    def build(self) -> Any:
        """A fresh stack for one repetition."""
        raise NotImplementedError

    # -- measured --------------------------------------------------------

    def run_op(self, stack: Any, index: int, op: Op) -> bool:
        """Run one op; True when its output is correct."""
        raise NotImplementedError

    # -- checks ----------------------------------------------------------

    def finish(self, stack: Any, ops_run: int) -> list[str]:
        """Cheap accounting after every repetition (empty = ok)."""
        raise NotImplementedError

    def audit(self, stack: Any) -> list[str]:
        """Full verification of the last repetition's audit state: chain,
        signed head, freshness and every invariant over the whole log.
        Raises on a broken log; returns violations found (empty = ok)."""
        raise NotImplementedError

    def negative_control(self, stack: Any) -> bool:
        """Inject one violation; True when the final check detected it."""
        raise NotImplementedError

    def counts(self, stack: Any) -> dict[str, int]:
        """Exact counts a repetition left: ``pairs``, ``stored_bytes`` and
        the checker's row counters."""
        raise NotImplementedError

    def teardown(self, stack: Any) -> None:
        """Release what ``build`` opened."""

    def describe(self) -> dict:
        return {}

    def _seed_bytes(self, label: str) -> bytes:
        return f"wall-{self.name}-{label}-{self.seed}".encode()

    def _tempdir(self) -> Path:
        self.storage_root.mkdir(parents=True, exist_ok=True)
        return Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.storage_root))


# ---------------------------------------------------------------------------
# TLS workloads: client TLS -> event loop -> enclave TLS -> HTTP -> audit
# ---------------------------------------------------------------------------


class TlsClient:
    """A native-TLS client attached to one event-loop connection."""

    def __init__(self, stack: "TlsStack", label: bytes):
        ctx = native_api.SSL_CTX_new(native_api.TLS_client_method())
        native_api.SSL_CTX_load_verify_locations(ctx, stack.ca)
        ctx.drbg_seed = label
        self.ssl = native_api.SSL_new(ctx)
        self.rbio, self.wbio = BIO("wall-c-r"), BIO("wall-c-w")
        native_api.SSL_set_bio(self.ssl, self.rbio, self.wbio)
        self.loop = stack.loop
        self.conn_id = stack.loop.open()

    def handshake(self) -> bool:
        for _ in range(10):
            native_api.SSL_connect(self.ssl)
            flight = self.wbio.read()
            if flight:
                result = self.loop.feed(self.conn_id, flight)
                if result.aborted:
                    return False
                self.rbio.write(result.output)
            if native_api.SSL_is_init_finished(self.ssl):
                return True
        return False

    def exchange(self, stack: "TlsStack", op: Op) -> bool:
        """Client write -> server -> client read of the full response."""
        stack.current = op
        native_api.SSL_write(self.ssl, op.request_bytes)
        result = self.loop.feed(self.conn_id, self.wbio.read())
        self.rbio.write(result.output)
        received = native_api.SSL_read(self.ssl)
        return (
            result.served == 1
            and not result.aborted
            and received == op.response_bytes
        )


class TlsStack:
    """One LibSEAL deployment: audit library + TLS enclave + event loop."""

    def __init__(
        self,
        workload: "TlsWorkload",
        ssm: Any,
        config: LibSealConfig,
        storage: LogStorage,
        tempdir: Path | None,
    ):
        self.tempdir = tempdir
        self.storage = storage
        signing_key = EcdsaPrivateKey.generate(
            HmacDrbg(seed=workload._seed_bytes("signing"))
        )
        self.libseal = LibSeal(
            ssm, config=config, signing_key=signing_key, storage=storage
        )
        self.runtime = EnclaveTlsRuntime(drbg_seed=workload._seed_bytes("enclave"))
        self.libseal.attach(self.runtime)
        api = self.runtime.api
        self.ca = CertificateAuthority("wall-root", seed=workload._seed_bytes("ca"))
        key, cert = make_server_identity(
            self.ca, "wall.example", seed=workload._seed_bytes("identity")
        )
        ctx = api.SSL_CTX_new(api.TLS_server_method())
        api.SSL_CTX_use_certificate(ctx, cert)
        api.SSL_CTX_use_PrivateKey(ctx, key)
        self.current: Op | None = None
        self.loop = EventLoop(
            self._respond,
            api=api,
            ssl_ctx=ctx,
            on_close=self.libseal.logger.close_connection,
        )
        self.clients: list[TlsClient] = []
        self.connections_opened = 0

    def _respond(self, request: HttpRequest) -> HttpResponse:
        # The back end already ran in the load generator; hand its answer
        # to the front end so only LibSEAL's own work is measured.
        return self.current.response

    def connect(self, workload: "TlsWorkload") -> TlsClient | None:
        label = workload._seed_bytes(f"client{self.connections_opened}")
        self.connections_opened += 1
        client = TlsClient(self, label)
        return client if client.handshake() else None


class TlsWorkload(Workload):
    """Shared machinery of the four workloads that run real TLS."""

    #: Connections opened during set-up and used round-robin; 0 opens a
    #: new connection (full handshake) for every op.
    connections = 8
    on_disk = False

    def ssm(self) -> Any:
        raise NotImplementedError

    def config(self) -> LibSealConfig:
        raise NotImplementedError

    def build(self) -> TlsStack:
        tempdir = self._tempdir() if self.on_disk else None
        storage = (
            LogStorage(tempdir / "audit.log") if self.on_disk else InMemoryStorage()
        )
        stack = TlsStack(self, self.ssm(), self.config(), storage, tempdir)
        for _ in range(self.connections):
            client = stack.connect(self)
            if client is None:
                raise RuntimeError(f"{self.name}: set-up handshake failed")
            stack.clients.append(client)
        return stack

    def run_op(self, stack: TlsStack, index: int, op: Op) -> bool:
        if self.connections:
            return stack.clients[index % self.connections].exchange(stack, op)
        client = stack.connect(self)
        if client is None:
            return False
        ok = client.exchange(stack, op)
        stack.loop.close(client.conn_id)
        return ok

    def finish(self, stack: TlsStack, ops_run: int) -> list[str]:
        problems = []
        libseal = stack.libseal
        if not libseal.flush_pending():
            problems.append("final seal failed")
        if libseal.pairs_logged != ops_run:
            problems.append(f"{libseal.pairs_logged} pairs logged, {ops_run} ops")
        if libseal.logger.unparsable_messages or libseal.logger.poisoned_connections:
            problems.append("audit tap dropped traffic")
        if libseal.checker.stats.violation_history:
            problems.append(
                f"violations on honest traffic: "
                f"{sorted(set(libseal.checker.stats.violation_history))}"
            )
        return problems

    def audit(self, stack: TlsStack) -> list[str]:
        libseal = stack.libseal
        if libseal.audit_log.signed_head is not None:
            libseal.verify_log()
        outcome = libseal.check_invariants(force_full=True)
        return [] if outcome.ok else [f"final check: {outcome.header_value()}"]

    def counts(self, stack: TlsStack) -> dict[str, int]:
        return _counts(stack.libseal.pairs_logged, [stack.libseal])

    def teardown(self, stack: TlsStack) -> None:
        for client in stack.clients:
            stack.loop.close(client.conn_id)
        if stack.tempdir is not None:
            shutil.rmtree(stack.tempdir, ignore_errors=True)

    def _control_pair(self, stack: TlsStack, request: HttpRequest,
                      response: HttpResponse) -> bool:
        op = Op(request, response, request.encode(), response.encode())
        client = stack.clients[0] if stack.clients else stack.connect(self)
        return client is not None and client.exchange(stack, op)

    def describe(self) -> dict:
        config = self.config()
        return {
            "connections": self.connections or "one per op",
            "storage": "LogStorage (write+fsync+rename+fsync-dir)"
            if self.on_disk else "InMemoryStorage",
            "group_seal_pairs": config.group_seal_pairs,
            "check_interval": config.check_interval,
            "trim_interval": config.trim_interval,
        }


class GitDisk(TlsWorkload):
    name = "git_disk"
    why = ("paper's LibSEAL-disk mode (Fig 5a): per-pair ECDSA seal, ROTE round "
           "and snapshot save to disk dominate; checker and TLS record are small")
    ops = 100
    on_disk = True

    def ssm(self) -> GitSSM:
        return GitSSM()

    def config(self) -> LibSealConfig:
        # Check + trim every 25 pairs is the optimum the paper's Fig 6 finds.
        return LibSealConfig(check_interval=25, trim_interval=25)

    def generate(self) -> None:
        self.generator, recorder = _generate(GitReplayWorkload, self.ops, self.seed)
        self.script = _ops(recorder.pairs)

    def negative_control(self, stack: TlsStack) -> bool:
        return _git_rollback_detected(self, self.generator, stack)


def _git_rollback_detected(workload: TlsWorkload, generator: GitReplayWorkload,
                           stack: TlsStack) -> bool:
    """Roll a branch back behind LibSEAL's back, fetch it, check."""
    service = generator.service
    for repo_name in generator.repo_names:
        repo = service.server.repository(repo_name)
        for branch, cid in repo.advertise_refs():
            if repo.objects.get_commit(cid).parent_id is None:
                continue
            repo.attack_rollback(branch)
            request = HttpRequest(
                "GET", f"/{repo_name}/info/refs?service=git-upload-pack"
            )
            if not workload._control_pair(stack, request, service.handle(request)):
                return False
            return not stack.libseal.check_invariants(force_full=True).ok
    return False


class DropboxMem(TlsWorkload):
    name = "dropbox_mem"
    why = ("seal amortised 32x and list responses emit many rows, so the sealdb "
           "executor, checker and SSM parsing dominate (Fig 5c/6); seal is small")
    ops = 400
    #: Live files per account are capped so that list size, hence the work
    #: per op, is nearly the same for every seed (uncapped, the rows logged
    #: differ by 13-19% between seeds; capped at 20, by 3-5%).
    max_live_files = 20

    def ssm(self) -> DropboxSSM:
        return DropboxSSM()

    def config(self) -> LibSealConfig:
        return LibSealConfig(
            group_seal_pairs=32, check_interval=100, trim_interval=100
        )

    def generate(self) -> None:
        self.generator, recorder = _generate(
            DropboxOpsWorkload, self.ops, self.seed,
            max_live_files=self.max_live_files,
        )
        self.script = _ops(recorder.pairs)

    def negative_control(self, stack: TlsStack) -> bool:
        generator = self.generator
        account = next(a for a in generator.accounts if generator._live_files[a])
        generator.service.server.attack_omit_file(
            account, generator._live_files[account][0]
        )
        request = HttpRequest("GET", "/list")
        request.headers.set("X-Account", account)
        request.headers.set("X-Host", "bench-host")
        response = generator.service.handle(request)
        if not self._control_pair(stack, request, response):
            return False
        return not stack.libseal.check_invariants(force_full=True).ok


def _dropped_message_pairs(generator: MessagingWorkload):
    """Post, silently drop the message server-side, fetch as a member."""
    recorder: PairRecorder = generator.libseal
    start = len(recorder.pairs)
    channel = generator.channels[0]
    seq = generator.post_once(channel)
    generator.service.server.attack_drop_message(channel, seq)
    generator.fetch_once(channel, generator.members[1])
    return recorder.pairs[start:]


class HandshakeChurn(TlsWorkload):
    name = "handshake_churn"
    why = ("a new TLS connection per request: P-256 ECDHE/ECDSA and the handshake "
           "state machine dominate; audit and sealdb are small")
    ops = 40
    quick_ops = 20
    connections = 0

    def ssm(self) -> MessagingSSM:
        return MessagingSSM()

    def config(self) -> LibSealConfig:
        return LibSealConfig(group_seal_pairs=32)

    def generate(self) -> None:
        self.generator, recorder = _generate(MessagingWorkload, self.ops, self.seed)
        self.script = _ops(recorder.pairs)

    def negative_control(self, stack: TlsStack) -> bool:
        for request, response in _dropped_message_pairs(self.generator):
            if not self._control_pair(stack, request, response):
                return False
        return not stack.libseal.check_invariants(force_full=True).ok


class Bulk64k(TlsWorkload):
    name = "bulk_64k"
    why = ("64 KiB responses over one connection and no audit rows (Fig 7a analogue): "
           "AEAD, TLS record, enclave shim copies and HTTP framing only; the bypass "
           "workload for every audit-side change")
    ops = 40
    quick_ops = 12
    connections = 1
    body_bytes = 64 * 1024

    def ssm(self) -> GitSSM:
        return GitSSM()

    def config(self) -> LibSealConfig:
        return LibSealConfig()

    def generate(self) -> None:
        rng = random.Random(self.seed)
        pairs = []
        for _ in range(self.ops):
            request = HttpRequest(
                "POST", "/repo0.git/git-upload-pack", body=rng.randbytes(64)
            )
            response = HttpResponse(200, body=rng.randbytes(self.body_bytes))
            response.headers.set(
                "Content-Type", "application/x-git-upload-pack-result"
            )
            pairs.append((request, response))
        self.script = _ops(pairs)

    def finish(self, stack: TlsStack, ops_run: int) -> list[str]:
        problems = super().finish(stack, ops_run)
        if stack.libseal.audit_log.appends:
            problems.append("bulk traffic emitted audit rows")
        return problems

    def negative_control(self, stack: TlsStack) -> bool:
        # No audit rows here, so the control targets the transport check:
        # one flipped ciphertext bit must abort the connection.
        client = stack.clients[0]
        native_api.SSL_write(client.ssl, self.script[0].request_bytes)
        wire = bytearray(client.wbio.read())
        wire[-1] ^= 0x01
        return stack.loop.feed(client.conn_id, bytes(wire)).aborted


# ---------------------------------------------------------------------------
# restart_2k: the read side of the audit layer
# ---------------------------------------------------------------------------


@dataclass
class RestartStack:
    tempdir: Path
    storage: LogStorage
    libseal: LibSeal
    config: LibSealConfig
    stale_snapshot: bytes
    entries: int
    last: LibSeal | None = None


class Restart2k(Workload):
    name = "restart_2k"
    why = ("recover + verify a 1000-pair git log from disk: snapshot decode, chain "
           "re-hash, signature + ROTE retrieve, sealdb reload; a seal-path change "
           "that makes restart dearer shows here")
    ops = 10
    quick_ops = 4
    log_pairs = 1000
    quick_log_pairs = 100

    def __init__(self, seed: int, storage_root: Path, quick: bool = False):
        super().__init__(seed, storage_root, quick)
        if quick:
            self.log_pairs = self.quick_log_pairs

    def generate(self) -> None:
        _, recorder = _generate(GitReplayWorkload, self.log_pairs, self.seed)
        self.log_script = recorder.pairs
        # The ops carry no request: each one is a restart.
        self.script = [None] * self.ops

    def build(self) -> RestartStack:
        tempdir = self._tempdir()
        storage = LogStorage(tempdir / "audit.log")
        config = LibSealConfig(group_seal_pairs=32)
        libseal = LibSeal(
            GitSSM(),
            config=config,
            signing_key=EcdsaPrivateKey.generate(
                HmacDrbg(seed=self._seed_bytes("signing"))
            ),
            storage=storage,
        )
        stale = b""
        for index, (request, response) in enumerate(self.log_script):
            libseal.log_pair(request, response)
            if index == len(self.log_script) // 2:
                libseal.flush_pending()
                stale = storage.load()
        if not libseal.flush_pending():
            raise RuntimeError("restart_2k: set-up seal failed")
        return RestartStack(
            tempdir, storage, libseal, config, stale, len(libseal.audit_log.chain)
        )

    def _recover(self, stack: RestartStack):
        return LibSeal.recover(
            GitSSM(),
            stack.storage,
            config=stack.config,
            signing_key=stack.libseal.signing_key,
            rote=stack.libseal.rote,
        )

    def run_op(self, stack: RestartStack, index: int, op: None) -> bool:
        recovered, report = self._recover(stack)
        if recovered is None or report.outcome is not RecoveryOutcome.CLEAN_RESUME:
            return False
        recovered.verify_log()
        stack.last = recovered
        return report.entries == stack.entries

    def finish(self, stack: RestartStack, ops_run: int) -> list[str]:
        problems = []
        if stack.libseal.pairs_logged != self.log_pairs:
            problems.append("set-up log is short")
        if stack.last is None:
            return problems + ["no restart completed"]
        if stack.last.audit_log.chain.head != stack.libseal.audit_log.chain.head:
            problems.append("recovered chain head differs from the one sealed")
        return problems

    def audit(self, stack: RestartStack) -> list[str]:
        # Every op already ran verify_log(); what is left is the invariants
        # over the recovered rows (seconds on a 1000-pair git log).
        outcome = stack.last.check_invariants(force_full=True)
        return [] if outcome.ok else [f"recovered log: {outcome.header_value()}"]

    def negative_control(self, stack: RestartStack) -> bool:
        # The storage provider serves an older (validly signed) snapshot.
        stack.storage.path.write_bytes(stack.stale_snapshot)
        recovered, report = self._recover(stack)
        return recovered is None and report.outcome is RecoveryOutcome.ROLLBACK_DETECTED

    def counts(self, stack: RestartStack) -> dict[str, int]:
        return _counts(stack.libseal.pairs_logged, [stack.libseal])

    def teardown(self, stack: RestartStack) -> None:
        shutil.rmtree(stack.tempdir, ignore_errors=True)

    def describe(self) -> dict:
        return {
            "log_pairs": self.log_pairs,
            "storage": "LogStorage (write+fsync+rename+fsync-dir)",
            "group_seal_pairs": 32,
        }


# ---------------------------------------------------------------------------
# messaging_shard4: the sharded audit plane, no TLS
# ---------------------------------------------------------------------------


class MessagingShard4(Workload):
    name = "messaging_shard4"
    why = ("the only traffic through shard/ (router, instance, scatter/gather check) "
           "and sim.network; per-pair seal on every shard, no TLS")
    ops = 150
    quick_ops = 120
    shards = ("shard-0", "shard-1", "shard-2", "shard-3")
    channels = 24
    members = 2
    check_every = 50

    def generate(self) -> None:
        self.generator, recorder = _generate(
            MessagingWorkload, self.ops, self.seed,
            channels=self.channels, members=self.members,
        )
        self.script = _ops(recorder.pairs)

    def build(self) -> ShardPlane:
        plane = ShardPlane(shards=self.shards, seed=self.seed)
        idle = set(self.shards) - {
            plane.router.owner(channel) for channel in self.generator.channels
        }
        if idle:
            # verify_all() raises on a shard that never sealed a head.
            raise RuntimeError(f"{self.name}: no channel routes to {sorted(idle)}")
        return plane

    def run_op(self, plane: ShardPlane, index: int, op: Op) -> bool:
        plane.log_pair(op.request, op.response)
        if (index + 1) % self.check_every == 0:
            return plane.check_invariants().ok
        return True

    def finish(self, plane: ShardPlane, ops_run: int) -> list[str]:
        problems = []
        if plane.pairs_routed != ops_run:
            problems.append(f"{plane.pairs_routed} pairs routed, {ops_run} ops")
        return problems

    def audit(self, plane: ShardPlane) -> list[str]:
        plane.verify_all()
        problems = plane.pair_accounting()
        outcome = plane.check_invariants(force_full=True)
        if not outcome.ok:
            problems.append(
                f"final check: {outcome.outcome.header_value()} "
                f"unchecked={outcome.unchecked}"
            )
        return problems

    def negative_control(self, plane: ShardPlane) -> bool:
        for request, response in _dropped_message_pairs(self.generator):
            plane.log_pair(request, response)
        return plane.check_invariants(force_full=True).total_violations > 0

    def counts(self, plane: ShardPlane) -> dict[str, int]:
        return _counts(
            plane.pairs_routed, [i.libseal for i in plane.instances.values()]
        )

    def describe(self) -> dict:
        return {
            "shards": len(self.shards),
            "channels": self.channels,
            "check_every": self.check_every,
            "storage": "InMemoryStorage per shard",
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (GitDisk, DropboxMem, HandshakeChurn, Bulk64k, Restart2k,
                MessagingShard4)
}
