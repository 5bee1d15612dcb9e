"""Crash states of the audit log's storage, under a weak disk model.

:class:`FsRecorder` stands in for :mod:`os` at the storage seam
(``repro.audit.persistence.fs``): it performs every call and records it
by file name. :func:`record_run` drives a seeded LibSeal run through it —
appends, per-pair and windowed seals, a trim compaction, a key-rotation
re-seal, membership sidecar saves and clears, and enough seals to pass a
cadence counter value (``SIGN_EVERY``), so both unsigned head records and
one that stores a signature are written — and records every ROTE
increment and every acknowledged seal among the file operations.

:class:`DiskModel` replays the operations and says what a disk may hold
after power loss at any point:

- a write not yet fsynced may be dropped, torn (a prefix of it lands) or
  reordered with other unsynced writes (each lands or not on its own;
  what is skipped reads as zeros if a later write extends the file);
- a rename is atomic;
- a directory entry (a create, a rename, an unlink) is durable only after
  its directory is fsynced; until then each may or may not have landed.

:func:`check_states` materialises each distinct state in a scratch
directory and runs :func:`recover_log` against a fresh ROTE group holding
the counter value of that moment (so no client cache survives), and
returns the states that break the contract: an exception, an outcome
outside the outcome space, a detection on a benign crash, or a recovered
log older than the last seal the enclave acknowledged.
"""

from __future__ import annotations

import itertools
import os
import random
from contextlib import contextmanager
from pathlib import Path

from repro.audit import AuditLog, RoteCluster, persistence
from repro.audit.persistence import LogStorage
from repro.audit.recovery import RECOVERED_OUTCOMES, RecoveryOutcome, recover_log
from repro.audit.rotation import KeyRotationCoordinator
from repro.core import LibSeal, LibSealConfig
from repro.crypto.drbg import HmacDrbg
from repro.crypto.ecdsa import EcdsaPrivateKey
from repro.http import HttpRequest, HttpResponse
from repro.ssm.base import ServiceSpecificModule

KEY = EcdsaPrivateKey.generate(HmacDrbg(seed=b"crash-states"))
LOG = "log.bin"


class TickSSM(ServiceSpecificModule):
    name = "ticks"
    schema_sql = "CREATE TABLE ticks(time INTEGER, path TEXT)"
    invariants = {}
    trimming_queries = ["DELETE FROM ticks WHERE time % 3 = 0"]

    def log(self, request, response, emit, time):
        emit("ticks", (time, request.path))


class FsRecorder:
    """Performs each storage call with :mod:`os` and records it by name."""

    def __init__(self, drop_dir_fsync_after: int | None = None) -> None:
        self.ops: list[tuple] = []
        self._names: dict[int, str | None] = {}  # fd -> file name (None: a dir)
        #: Set around a head-record append in the negative control: its
        #: fsync is skipped (and not recorded).
        self._head_write = False
        #: The negative control for directory entries: the directory fsync
        #: after this replace of the image (1: its first write) is skipped.
        self._drop_dir_after = drop_dir_fsync_after
        self._image_replaces = 0
        self._drop_dir = False

    def open(self, path, flags, mode=0o777):
        is_dir = os.path.isdir(path)
        existed = os.path.exists(path)
        fd = os.open(path, flags, mode)
        name = None if is_dir else Path(path).name
        self._names[fd] = name
        if name is not None:
            if flags & os.O_CREAT and not existed:
                self.ops.append(("create", name))
            if flags & os.O_TRUNC:
                self.ops.append(("truncate", name, 0))
        return fd

    def write(self, fd, data):
        offset = os.lseek(fd, 0, os.SEEK_CUR)
        written = os.write(fd, data)
        self.ops.append(("write", self._names[fd], offset, bytes(data[:written])))
        return written

    def fsync(self, fd):
        name = self._names[fd]
        if name is not None and self._head_write:
            self._head_write = False
            return  # the negative control: this fsync never happens
        if name is None and self._drop_dir:
            self._drop_dir = False
            return  # the directory negative control: the rename stays volatile
        os.fsync(fd)
        self.ops.append(("fsync-dir",) if name is None else ("fsync", name))

    def close(self, fd):
        self._names.pop(fd, None)
        os.close(fd)

    def lseek(self, fd, pos, how):
        return os.lseek(fd, pos, how)

    def ftruncate(self, fd, length):
        os.ftruncate(fd, length)
        self.ops.append(("truncate", self._names[fd], length))

    def truncate(self, path, length):
        os.truncate(path, length)
        self.ops.append(("truncate", Path(path).name, length))

    def replace(self, src, dst):
        os.replace(src, dst)
        self.ops.append(("replace", Path(src).name, Path(dst).name))
        if Path(dst).name == LOG:
            self._image_replaces += 1
            self._drop_dir = self._image_replaces == self._drop_dir_after

    def unlink(self, path):
        os.unlink(path)
        self.ops.append(("unlink", Path(path).name))

    def note(self, *event) -> None:
        self.ops.append(event)


@contextmanager
def recording(recorder: FsRecorder):
    saved = persistence.fs
    persistence.fs = recorder
    try:
        yield recorder
    finally:
        persistence.fs = saved


#: The negative controls :func:`record_run` can plant: a durability bug
#: the enumeration must catch.
NEGATIVE = {
    "head": "the fsync of every head record is dropped",
    "dir-first": "the directory fsync after the image's first write is dropped",
    "dir-compaction": "the directory fsync after the trim compaction's rename is dropped",
}


def record_run(root: Path, seed: int = 7, negative: str | None = None) -> list[tuple]:
    """The recorded operations of one seeded run (see the module docstring),
    with the ``negative`` control of :data:`NEGATIVE` planted, if any.
    The image is replaced first by the first seal, then by the trim."""
    drop_after = {"dir-first": 1, "dir-compaction": 2}.get(negative)
    recorder = FsRecorder(drop_after)
    rng = random.Random(seed)
    with recording(recorder):
        storage = LogStorage(root / LOG)
        libseal = LibSeal(
            TickSSM(),
            config=LibSealConfig(group_seal_pairs=3),
            signing_key=KEY,
            storage=storage,
        )
        log = libseal.audit_log
        real_increment = libseal.rote.increment
        real_seal = AuditLog.seal_epoch
        real_append = LogStorage.append

        def increment(log_id):
            value = real_increment(log_id)
            recorder.note("increment", value)
            return value

        def seal_epoch():
            head = real_seal(libseal.audit_log)
            recorder.note("ack", head.counter_value)
            return head

        def append(record, seals=False):
            recorder._head_write = negative == "head" and seals
            return real_append(storage, record, seals)

        libseal.rote.increment = increment
        log.seal_epoch = seal_epoch
        storage.append = append

        def pairs(count):
            for _ in range(count):
                path = f"/t/{rng.randrange(1000)}"
                libseal.log_pair(HttpRequest("GET", path), HttpResponse(200))

        pairs(7)  # two full windows, one open
        libseal.flush_pending()  # a window closed early
        libseal.trim()  # a compaction: intent appended, image replaced
        pairs(3)
        KeyRotationCoordinator(libseal).rotate("crash-state run")
        pairs(30)  # ten windows: past a cadence value, a signed head record
        storage.save_intent(b"membership-intent", "membership")
        pairs(2)
        storage.clear_intent("membership")
        libseal.flush_pending()
    return recorder.ops


class DiskModel:
    """Replays recorded operations; yields what a crash may leave behind."""

    def __init__(self) -> None:
        self.contents: list[bytearray] = []  # durable content per inode
        self.pending: list[list[tuple]] = []  # unsynced content ops per inode
        self.names: dict[str, int] = {}  # the running view
        self.durable_names: dict[str, int] = {}
        self.pending_dir: list[tuple] = []
        self.counter = 0
        self.acked = 0

    def apply(self, op: tuple) -> None:
        kind = op[0]
        if kind == "create":
            self.contents.append(bytearray())
            self.pending.append([])
            self.names[op[1]] = len(self.contents) - 1
            self.pending_dir.append(("link", op[1], self.names[op[1]]))
        elif kind in ("write", "truncate"):
            self.pending[self.names[op[1]]].append(op)
        elif kind == "fsync":
            inode = self.names[op[1]]
            self.contents[inode] = self._content(inode, self.pending[inode])
            self.pending[inode] = []
        elif kind == "fsync-dir":
            self.durable_names = dict(self.names)
            self.pending_dir = []
        elif kind == "replace":
            inode = self.names.pop(op[1])
            self.names[op[2]] = inode
            self.pending_dir.append(("replace", op[1], op[2], inode))
        elif kind == "unlink":
            self.names.pop(op[1])
            self.pending_dir.append(("unlink", op[1]))
        elif kind == "increment":
            self.counter = op[1]
        elif kind == "ack":
            self.acked = op[1]

    def _content(self, inode: int, ops) -> bytearray:
        data = bytearray(self.contents[inode])
        for op in ops:
            if op[0] == "truncate":
                del data[op[2] :]
            else:
                _, _, offset, chunk = op
                if len(data) < offset:
                    data.extend(bytes(offset - len(data)))
                data[offset : offset + len(chunk)] = chunk
        return data

    def settled(self, name: str) -> bytes | None:
        """``name``'s content if nothing about it can still be lost."""
        inode = self.names.get(name)
        if inode is None or self.durable_names.get(name) != inode or self.pending[inode]:
            return None
        return bytes(self.contents[inode])

    def states(self, full: bool = False):
        """Every ``{name: content}`` the disk may hold if power fails now."""
        for applied in itertools.product((False, True), repeat=len(self.pending_dir)):
            names = dict(self.durable_names)
            for on, dir_op in zip(applied, self.pending_dir):
                if not on:
                    continue
                if dir_op[0] == "link":
                    names[dir_op[1]] = dir_op[2]
                elif dir_op[0] == "replace":
                    names.pop(dir_op[1], None)
                    names[dir_op[2]] = dir_op[3]
                else:
                    names.pop(dir_op[1], None)
            inodes = sorted(set(names.values()))
            choices = [self._variants(inode, full) for inode in inodes]
            for picked in itertools.product(*choices):
                content = dict(zip(inodes, picked))
                yield {name: content[inode] for name, inode in names.items()}

    def _variants(self, inode: int, full: bool) -> list[bytes]:
        """Each way the unsynced operations on ``inode`` may have landed."""
        options = []
        for op in self.pending[inode]:
            if op[0] == "truncate":
                options.append([None, op])
                continue
            _, name, offset, chunk = op
            cuts = {len(chunk) // 2}
            if full:
                cuts |= {1, 8, len(chunk) - 1} | set(range(0, len(chunk), 64))
            torn = [("write", name, offset, chunk[:cut]) for cut in sorted(cuts) if 0 < cut < len(chunk)]
            options.append([None, op, *torn])
        variants = []
        for picked in itertools.product(*options):
            data = bytes(self._content(inode, [op for op in picked if op is not None]))
            if data not in variants:
                variants.append(data)
        return variants


def crash_states(ops: list[tuple], full: bool = False):
    """``(files, counter, acked)`` for every distinct crash state of the run."""
    model = DiskModel()
    seen = set()
    for op in [None, *ops]:
        if op is not None:
            model.apply(op)
        for files in model.states(full):
            key = (tuple(sorted(files.items())), model.counter, model.acked)
            if key not in seen:
                seen.add(key)
                yield files, model.counter, model.acked


def check_states(ops: list[tuple], scratch: Path, full: bool = False):
    """``(checked, violations)``: the states checked and those that break
    the contract, each as ``(files, counter, acked, why)``."""
    checked = 0
    violations = []
    for files, counter, acked in crash_states(ops, full):
        checked += 1
        directory = scratch / f"state-{checked}"
        directory.mkdir()
        for name, content in files.items():
            (directory / name).write_bytes(content)
        rote = RoteCluster(f=1)
        for _ in range(counter):
            rote.increment("libseal-log")
        why = None
        try:
            report = recover_log(
                LogStorage(directory / LOG),
                TickSSM.schema_sql,
                KEY,
                KEY.public_key(),
                rote,
            )
        except Exception as exc:  # the contract: never raises
            why = f"raised {exc!r}"
        else:
            if not isinstance(report.outcome, RecoveryOutcome):
                why = f"outcome {report.outcome!r} outside the outcome space"
            elif report.outcome not in RECOVERED_OUTCOMES:
                why = f"benign crash classified {report.describe()}"
            else:
                found = (
                    report.live_counter - 1
                    if report.outcome is RecoveryOutcome.IN_FLIGHT_DISCARDED
                    else report.counter or 0
                )
                if found < acked:
                    why = f"acknowledged seal {acked} lost: {report.describe()}"
        if why is not None:
            violations.append((files, counter, acked, why))
    return checked, violations
