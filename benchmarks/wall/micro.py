"""Isolated per-layer timings (``--micro``): min of 7 runs, with MAD.

Each entry times one layer's public function on a small fixed input,
outside any pipeline. They locate a cost; they claim nothing about
requests per second (one request in flight means a layer's saving is at
most its self-time share of the op, which the traced pass reports).

``micro.ref_loop_ms`` is a fixed pure-Python big-integer and dict loop.
It normalises nothing: it is printed before and after a workload so
that machine drift between two runs is visible next to their numbers.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

from repro.audit.hashchain import HashChain
from repro.audit.log import AuditLog
from repro.audit.persistence import InMemoryStorage
from repro.audit.rote import RoteCluster
from repro.crypto.aead import AEAD, AEADKey
from repro.crypto.drbg import HmacDrbg
from repro.crypto.ec import CURVE_P256
from repro.crypto.ecdsa import EcdsaPrivateKey
from repro.http import HttpRequest, HttpResponse, parse_request
from repro.http.parser import extract_message
from repro.lthreads import LThreadScheduler
from repro.sealdb import Database
from repro.sgx.enclave import Enclave, EnclaveConfig
from repro.sgx.ratls import BINDING_ROTE_JOIN, AttestationPlane, make_node_enclave
from repro.sgx.sealing import SigningAuthority
from repro.shard import ShardPlane
from repro.shard.router import ShardRouter
from repro.ssm import GitSSM
from repro.ssm.git import GIT_SCHEMA
from repro.tls.bio import bio_pair
from repro.tls.cert import CertificateAuthority, make_server_identity
from repro.tls.connection import TLSConfig, TLSConnection, pump_handshake
from repro.workloads import MessagingWorkload

RUNS = 7


def best_of(func: Callable[[], float], runs: int = RUNS) -> tuple[float, float]:
    """``(min, MAD)`` of ``runs`` samples of ``func``'s own measurement."""
    samples = [func() for _ in range(runs)]
    median = statistics.median(samples)
    mad = statistics.median(abs(s - median) for s in samples)
    return min(samples), mad


def timed(func: Callable[[], object], loops: int) -> Callable[[], float]:
    """A sampler: seconds per call of ``func`` averaged over ``loops``."""
    def sample() -> float:
        started = time.perf_counter()
        for _ in range(loops):
            func()
        return (time.perf_counter() - started) / loops
    return sample


def ref_loop_ms() -> float:
    """The fixed reference loop, best of three, in milliseconds."""
    def loop() -> float:
        started = time.perf_counter()
        table: dict[int, int] = {}
        value = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
        modulus = 2**255 - 19
        for i in range(20_000):
            value = value * value % modulus
            table[i & 1023] = value ^ table.get((i * 7) & 1023, 0)
        return (time.perf_counter() - started) * 1e3
    return min(loop() for _ in range(3))


# ---------------------------------------------------------------------------
# One sampler per layer
# ---------------------------------------------------------------------------


def _crypto(scale: int) -> dict:
    key = EcdsaPrivateKey.generate(HmacDrbg(seed=b"wall-micro-key"))
    public = key.public_key()
    generator = CURVE_P256.generator
    scalar = int.from_bytes(HmacDrbg(seed=b"wall-micro-k").generate(32), "big")
    message = b"wall-micro-message" * 4
    signature = key.sign(message)
    aead = AEAD(AEADKey.derive(b"wall-micro-aead"))
    nonce = bytes(12)
    plaintext = HmacDrbg(seed=b"wall-micro-pt").generate(16 * 1024)
    sealed = aead.seal(nonce, plaintext)
    kb = len(plaintext) / 1024
    return {
        "micro.crypto.ec.mul_us": (timed(lambda: generator * scalar, scale), 1e6),
        "micro.crypto.ecdsa.sign_us": (timed(lambda: key.sign(message), scale), 1e6),
        "micro.crypto.ecdsa.verify_us": (
            timed(lambda: public.verify(message, signature), scale), 1e6),
        "micro.crypto.aead.seal_us_per_kb": (
            timed(lambda: aead.seal(nonce, plaintext), 1), 1e6 / kb),
        "micro.crypto.aead.open_us_per_kb": (
            timed(lambda: aead.open(nonce, sealed), 1), 1e6 / kb),
    }


def _tls(scale: int) -> dict:
    ca = CertificateAuthority("wall-micro-root", seed=b"wall-micro-ca")
    key, cert = make_server_identity(ca, "micro.example", seed=b"wall-micro-id")
    counter = [0]

    def handshake() -> None:
        counter[0] += 1
        tag = counter[0].to_bytes(4, "big")
        c2s, s_from_c = bio_pair("c2s")
        s2c, c_from_s = bio_pair("s2c")
        server = TLSConnection(
            TLSConfig(certificate=cert, private_key=key, ca=ca,
                      drbg=HmacDrbg(seed=b"wall-micro-s" + tag)),
            is_server=True, rbio=s_from_c, wbio=s2c,
        )
        client = TLSConnection(
            TLSConfig(ca=ca, drbg=HmacDrbg(seed=b"wall-micro-c" + tag)),
            is_server=False, rbio=c_from_s, wbio=c2s,
        )
        pump_handshake(client, server)

    return {"micro.tls.handshake_ms": (timed(handshake, 1), 1e3)}


def _sgx(scale: int) -> dict:
    enclave = Enclave(EnclaveConfig(code_identity="wall-micro", signer_name="wall"))
    enclave.interface.register_ecall("nop", lambda: None)
    enclave.interface.seal_interface()
    ecall = enclave.interface.ecall

    authority = SigningAuthority("wall-micro-authority")
    plane = AttestationPlane(authority)
    node = make_node_enclave("wall-micro-node-1.0", authority.name)
    payload = b"wall-micro-node"
    evidence = plane.evidence_for("node", node, BINDING_ROTE_JOIN, payload).encode()
    counter = [0]

    def appraise() -> None:
        counter[0] += 1  # a fresh verifier has a cold cache
        plane.verifier(f"wall-micro-{counter[0]}").verify_evidence(
            evidence, BINDING_ROTE_JOIN, payload
        )

    return {
        "micro.sgx.ecall_us": (timed(lambda: ecall("nop"), 200 * scale), 1e6),
        "micro.sgx.ratls.appraise_us": (timed(appraise, 1), 1e6),
    }


def _http_ssm(scale: int) -> dict:
    request = HttpRequest(
        "GET", "/repo0.git/info/refs?service=git-upload-pack"
    )
    request.headers.set("X-Account", "account-0")
    wire = request.encode()
    response = HttpResponse(200, body=b"".join(
        b"%040x %s\n" % (i, name)
        for i, name in enumerate((b"master", b"develop", b"feature/a"))
    ))
    ssm = GitSSM()

    def parse() -> None:
        parse_request(extract_message(bytearray(wire)))

    def log() -> None:
        ssm.log(request, response, lambda table, values: None, 1)

    return {
        "micro.http.parse_us": (timed(parse, 200 * scale), 1e6),
        "micro.ssm.git.log_us": (timed(log, 200 * scale), 1e6),
    }


def _sealdb(scale: int) -> dict:
    rows = 400 * scale

    def filled() -> Database:
        db = Database()
        db.executescript(
            "CREATE TABLE a(time INTEGER, k TEXT, v INTEGER);"
            "CREATE TABLE b(k TEXT, w INTEGER);"
        )
        for i in range(rows):
            db.execute("INSERT INTO a VALUES (?, ?, ?)", (i, f"k{i}", i * 7919 % rows))
            db.execute("INSERT INTO b VALUES (?, ?)", (f"k{i}", i))
        return db

    def insert() -> float:
        started = time.perf_counter()
        filled()
        return (time.perf_counter() - started) / (2 * rows)

    db = filled()
    db.execute("SELECT v FROM a WHERE k = ?", ("k1",))  # builds the index

    def probe() -> None:
        db.execute("SELECT v FROM a WHERE k = ?", ("k17",))

    def scan() -> None:
        db.execute("SELECT COUNT(*) FROM a WHERE v != ?", (-1,))

    def join() -> None:
        db.execute("SELECT COUNT(*) FROM a JOIN b ON a.k = b.k")

    return {
        "micro.sealdb.insert_us_per_row": (insert, 1e6),
        "micro.sealdb.index_probe_us": (timed(probe, 100 * scale), 1e6),
        "micro.sealdb.scan_us_per_row": (timed(scan, 1), 1e6 / rows),
        "micro.sealdb.hash_join_us_per_row": (timed(join, 1), 1e6 / rows),
    }


def _audit(scale: int) -> dict:
    chain = HashChain()
    values = [1, "repo0.git", "master", "0" * 40, "update"]
    rote = RoteCluster()
    log = AuditLog(
        GIT_SCHEMA,
        EcdsaPrivateKey.generate(HmacDrbg(seed=b"wall-micro-log")),
        rote,
        storage=InMemoryStorage(),
    )
    for i in range(100):
        log.append("updates", (i, "repo0.git", "master", "%040x" % i, "update"))
    counter = RoteCluster()
    return {
        "micro.audit.hashchain.append_us": (
            timed(lambda: chain.append("updates", values), 200 * scale), 1e6),
        "micro.audit.seal_epoch_us": (timed(log.seal_epoch, 1), 1e6),
        "micro.audit.serialize_us_per_row": (timed(log.serialize, scale), 1e6 / 100),
        "micro.audit.rote.increment_us": (
            timed(lambda: counter.increment("wall-micro"), scale), 1e6),
    }


def _parked():
    while True:
        yield "park"


def _lthreads(scale: int) -> dict:
    tasks = 100_000 if scale > 1 else 5_000
    scheduler = LThreadScheduler(num_tasks=tasks, num_workers=3)
    for _ in range(tasks):
        scheduler.assign(_parked())
    scheduler.run_until_blocked()  # every task now parked (WAITING)
    runner = scheduler.tasks[tasks // 2]

    def step() -> None:
        scheduler.resume(runner, None)
        scheduler.step()

    return {"micro.lthreads.step_us_at_100k": (timed(step, 500 * scale), 1e6)}


def _shard(scale: int) -> dict:
    router = ShardRouter("wall-micro")
    router.bootstrap([f"shard-{i}" for i in range(4)])
    keys = [f"chan-{i}" for i in range(64)]
    position = [0]

    def lookup() -> None:
        position[0] = (position[0] + 1) % len(keys)
        router.owner(keys[position[0]])

    def rebalance() -> float:
        plane = ShardPlane(shards=("shard-0", "shard-1"), seed=7)
        MessagingWorkload(plane, channels=8, seed=7).run(8 * scale)
        started = time.perf_counter()
        report = plane.rebalancer.split("shard-2")
        elapsed = time.perf_counter() - started
        moved = sum(tuples for _, _, tuples in report.transfers)
        return elapsed / max(moved, 1)

    return {
        "micro.shard.router.lookup_us": (timed(lookup, 500 * scale), 1e6),
        # One plane per sample is set-up heavy: three samples, not seven.
        "micro.shard.rebalance_us_per_tuple": (rebalance, 1e6, 3),
    }


GROUPS = (_crypto, _tls, _sgx, _http_ssm, _sealdb, _audit, _lthreads, _shard)

#: A metric's unit, from the last word of its name.
UNITS = {
    "us": "us", "ms": "ms", "kb": "us/KB", "row": "us/row",
    "tuple": "us/tuple", "100k": "us",
}


def run(quick: bool = False) -> dict[str, tuple[float, str, float]]:
    """Every micro metric as ``{name: (min, unit, MAD)}``."""
    scale = 1 if quick else 5
    metrics: dict[str, tuple[float, str, float]] = {}
    for group in GROUPS:
        for name, (sampler, factor, *runs) in group(scale).items():
            best, mad = best_of(sampler, runs[0] if runs else (3 if quick else RUNS))
            unit = UNITS[name.rsplit("_", 1)[1]]
            metrics[name] = (best * factor, unit, mad * factor)
    metrics["micro.ref_loop_ms"] = (ref_loop_ms(), "ms", 0.0)
    return metrics


def print_table(metrics: dict[str, tuple[float, str, float]]) -> None:
    print(f"== micro (min of {RUNS}, MAD)")
    for name, (value, unit, mad) in metrics.items():
        print(f"  {name:42s} {value:14.4f} {unit:9s} mad {mad:.4f}")
