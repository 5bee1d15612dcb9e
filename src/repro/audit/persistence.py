"""Untrusted persistent storage for the audit log.

The storage layer is deliberately dumb — a file of bytes with atomic
replace — because in the threat model it is *adversarial*: the provider can
rewrite it at will. All integrity and freshness guarantees come from the
hash chain, the head signature and the ROTE counter, never from storage.

Durability is nevertheless engineered carefully, because the crash-recovery
protocol (:mod:`repro.audit.recovery`) leans on the **atomic-replace
invariant**: after any crash, the main file holds exactly one previously
sealed snapshot — never a torn mixture. That requires fsyncing the tmp
file *and* the parent directory (a rename is not durable until the
directory entry is), and cleaning up orphaned ``.tmp`` files left by
crashes mid-write.

Alongside the snapshot, storage keeps small *write-ahead intent* sidecar
files, one per kind (:data:`SIDECAR_KINDS`, see :mod:`repro.audit.wal`):
the authenticated seal intent written ahead of each ROTE increment, which
recovery uses to tell a benign crash mid-seal from a rollback attack, and
the rotation and membership intents their coordinators replay after a
crash. A sidecar's new directory entry is fsynced once, on its first
save; afterwards the file is overwritten in place, and clearing
truncates it to zero bytes (absent) without an fsync — a lost truncate
leaves an older intent the next save overwrites before its increment.

Disk latency is metered (synchronous flush per request/response pair is
the LibSEAL-disk configuration of Fig. 5). All failures surface as typed
:class:`~repro.errors.StorageError`\\ s; fault injection hooks
(``storage.save`` / ``storage.load``) let the chaos suite inject torn
writes, stale reads and corruption deterministically.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.errors import StorageError
from repro.faults import hooks as _faults

DISK_FLUSH_LATENCY_MS = 0.25  # fsync on a datacenter SSD

#: The write-ahead intent sidecars, by the file suffix each is kept under:
#: the seal intent, the key-rotation intent, the shard-membership intent.
SIDECAR_KINDS = ("intent", "rotation", "membership")


def _checked_kind(kind: str) -> str:
    if kind not in SIDECAR_KINDS:
        raise ValueError(f"unknown sidecar kind {kind!r}")
    return kind


def _fsync_directory(path: Path) -> None:
    """Flush a directory entry so a completed rename survives power loss."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds; nothing more we can do
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class LogStorage:
    """File-backed blob store with atomic replace and flush accounting."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.flush_count = 0
        self.bytes_written = 0
        self.total_latency_ms = 0.0
        #: Sidecar kinds whose directory entry this instance has fsynced.
        self._durable_sidecars: set[str] = set()
        #: Orphaned ``.tmp`` files removed at start-up: evidence of a
        #: crash mid-write, consumed by the recovery protocol.
        self.orphans_cleaned: list[Path] = self._cleanup_orphans()

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    @property
    def _tmp_path(self) -> Path:
        return self.path.with_suffix(self.path.suffix + ".tmp")

    def _sidecar_path(self, kind: str) -> Path:
        return self.path.with_suffix(f"{self.path.suffix}.{_checked_kind(kind)}")

    def _cleanup_orphans(self) -> list[Path]:
        """Remove ``.tmp`` leftovers from crashed writes (torn tails)."""
        orphans: list[Path] = []
        tmp = self._tmp_path
        if tmp.exists():
            orphans.append(tmp)
            try:
                tmp.unlink()
            except OSError:
                pass
        return orphans

    # ------------------------------------------------------------------
    # Snapshot blob
    # ------------------------------------------------------------------

    def save(self, blob: bytes) -> None:
        """Atomically replace the stored blob (write + fsync + rename + fsync)."""
        events = _faults.check("storage.save")
        injector = _faults.active()
        crash = None
        for event in events:
            if event.kind == "corrupt_then_crash":
                blob = injector.corrupt(blob)
                crash = event
            elif event.kind == "torn_write":
                torn = injector.truncate(blob)
                try:
                    self._tmp_path.write_bytes(torn)
                except OSError:
                    pass
                raise injector.crash(event)
            elif event.kind == "io_error":
                injector.note_effect(event, "io_error")
                raise StorageError(f"injected I/O error writing {self.path}")

        tmp_path = self._tmp_path
        try:
            with open(tmp_path, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            for event in events:
                if event.kind == "crash_before_replace":
                    raise injector.crash(event)
            os.replace(tmp_path, self.path)
            # The rename itself is not durable until the directory entry
            # is flushed; without this a crash can resurrect the old file.
            _fsync_directory(self.path.parent)
        except OSError as exc:
            try:
                tmp_path.unlink(missing_ok=True)
            except OSError:
                pass
            raise StorageError(f"cannot write {self.path}: {exc}") from exc
        self.flush_count += 1
        self.bytes_written += len(blob)
        self.total_latency_ms += DISK_FLUSH_LATENCY_MS
        _faults.record_save(str(self.path), blob)
        for event in events:
            if event.kind == "crash_after_replace":
                raise injector.crash(event)
        if crash is not None:
            raise injector.crash(crash)

    def load(self) -> bytes:
        try:
            blob = self.path.read_bytes()
        except FileNotFoundError as exc:
            raise StorageError(f"no snapshot at {self.path}") from exc
        except OSError as exc:
            raise StorageError(f"cannot read {self.path}: {exc}") from exc
        return self._apply_load_faults(blob)

    def _apply_load_faults(self, blob: bytes) -> bytes:
        for event in _faults.check("storage.load"):
            injector = _faults.active()
            if event.kind == "stale_read":
                stale = injector.stale_blob(
                    str(self.path), int(event.params.get("back", 1))
                )
                if stale is None:
                    injector.note_effect(event, "noop")
                else:
                    injector.note_effect(event, "stale")
                    blob = stale
            elif event.kind == "corrupt_read":
                injector.note_effect(event, "corrupted")
                blob = injector.corrupt(blob)
            elif event.kind == "io_error":
                injector.note_effect(event, "io_error")
                raise StorageError(f"injected I/O error reading {self.path}")
        return blob

    def exists(self) -> bool:
        return self.path.exists()

    def size_bytes(self) -> int:
        return self.path.stat().st_size if self.exists() else 0

    # ------------------------------------------------------------------
    # Write-ahead intent sidecars (one small file per kind)
    # ------------------------------------------------------------------

    def save_intent(self, blob: bytes, kind: str) -> None:
        """Durably record an intent (small, overwritten in place)."""
        path = self._sidecar_path(kind)
        try:
            with open(path, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            if kind not in self._durable_sidecars:
                _fsync_directory(path.parent)
                self._durable_sidecars.add(kind)
        except OSError as exc:
            raise StorageError(f"cannot write {kind} sidecar {path}: {exc}") from exc

    def load_intent(self, kind: str) -> bytes | None:
        path = self._sidecar_path(kind)
        try:
            return path.read_bytes() or None
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise StorageError(f"cannot read {kind} sidecar {path}: {exc}") from exc

    def clear_intent(self, kind: str) -> None:
        try:
            os.truncate(self._sidecar_path(kind), 0)
        except OSError:
            pass


class InMemoryStorage(LogStorage):
    """The LibSEAL-mem configuration: no disk, but same interface."""

    def __init__(self) -> None:
        self.path = Path("<memory>")
        self.flush_count = 0
        self.bytes_written = 0
        self.total_latency_ms = 0.0
        self.orphans_cleaned: list[Path] = []
        self._blob: bytes | None = None
        self._sidecars: dict[str, bytes] = {}

    def save(self, blob: bytes) -> None:
        self._blob = blob
        self.flush_count += 1
        self.bytes_written += len(blob)
        _faults.record_save(str(self.path), blob)

    def load(self) -> bytes:
        if self._blob is None:
            raise StorageError("no in-memory snapshot saved")
        return self._apply_load_faults(self._blob)

    def exists(self) -> bool:
        return self._blob is not None

    def size_bytes(self) -> int:
        return len(self._blob) if self._blob is not None else 0

    def save_intent(self, blob: bytes, kind: str) -> None:
        self._sidecars[_checked_kind(kind)] = blob

    def load_intent(self, kind: str) -> bytes | None:
        return self._sidecars.get(_checked_kind(kind))

    def clear_intent(self, kind: str) -> None:
        self._sidecars.pop(_checked_kind(kind), None)
