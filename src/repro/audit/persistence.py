"""Untrusted persistent storage for the audit log.

Storage is deliberately dumb — a file that grows by appends and is
occasionally replaced whole — because in the threat model it is
*adversarial*. Integrity and freshness come from the record MACs, the
hash chain, the head signature and the ROTE counter, never from storage.

Durability is engineered for the **append invariant** recovery
(:mod:`repro.audit.recovery`) leans on: after any crash the file holds
complete records some seal made durable, then at most a strict prefix of
one more (a *torn tail*, which recovery cuts off).
:meth:`LogStorage.append` writes a record at the end and fsyncs it (a
failed append is truncated back); :meth:`LogStorage.save` replaces the
image (write a ``.tmp``, fsync, rename, fsync the directory — a rename is
not durable until its entry is), and start-up removes an orphaned
``.tmp``. :func:`frame` puts an 8-byte header (length and complement)
before each record, so a reader tells a torn tail from damage. Every
write goes through :data:`fs`, the one seam the crash-state tests bind a
recorder to.

Small *write-ahead intent* sidecars, one per kind (:data:`SIDECAR_KINDS`,
see :mod:`repro.audit.wal`), hold the rotation and membership intents. A
sidecar's directory entry is fsynced on its first save; later saves
overwrite it in place, and clearing truncates it to zero bytes (absent)
without an fsync — a lost truncate leaves an older intent the validator
discards as no longer current.

Failures surface as typed :class:`~repro.errors.StorageError`\\ s; the
``storage.save`` (a replace or a seal's closing append) and
``storage.load`` hooks inject torn writes, stale reads and corruption.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

from repro.errors import IntegrityError, StorageError
from repro.faults import hooks as _faults

#: The write-ahead intent sidecars, by the file suffix each is kept under:
#: the key-rotation intent, the shard-membership intent.
SIDECAR_KINDS = ("rotation", "membership")

#: The file-system calls storage writes through. Production binds :mod:`os`.
fs = os

_HEADER = struct.Struct(">II")
_MASK = 0xFFFFFFFF


def frame(body: bytes) -> bytes:
    """``body`` behind its header: its length and the length's complement."""
    return _HEADER.pack(len(body), len(body) ^ _MASK) + body


def split_frames(image: bytes, offset: int = 0) -> tuple[list[bytes], int]:
    """The complete frames of ``image`` from ``offset``, and where they end.

    Whatever follows that end is a strict prefix of one more frame — a
    torn tail. A header whose two words disagree is damage, not a tear:
    :class:`IntegrityError`.
    """
    bodies = []
    size = len(image)
    while offset + _HEADER.size <= size:
        length, check = _HEADER.unpack_from(image, offset)
        if length ^ check != _MASK:
            raise IntegrityError(f"record header at byte {offset} is corrupt")
        end = offset + _HEADER.size + length
        if end > size:
            break
        bodies.append(image[offset + _HEADER.size : end])
        offset = end
    return bodies, offset


def _checked_kind(kind: str) -> str:
    if kind not in SIDECAR_KINDS:
        raise ValueError(f"unknown sidecar kind {kind!r}")
    return kind


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[fs.write(fd, view) :]


def _fsync_directory(path: Path) -> None:
    """Flush a directory entry so a completed rename survives power loss."""
    try:
        fd = fs.open(path, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds; nothing more we can do
    try:
        fs.fsync(fd)
    finally:
        fs.close(fd)


class LogStorage:
    """File-backed record image: durable appends, atomic replace, accounting."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.flush_count = 0
        self.bytes_written = 0
        #: Sidecar kinds whose directory entry this instance has fsynced.
        self._durable_sidecars: set[str] = set()
        #: Orphaned ``.tmp`` files removed at start-up: evidence of a
        #: crash mid-replace, consumed by the recovery protocol.
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
        """Remove ``.tmp`` leftovers from crashed replaces."""
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
    # The image
    # ------------------------------------------------------------------

    def _save_faults(self, data: bytes):
        """The ``storage.save`` faults due now: ``data`` as written
        (corrupted or torn), the crash due before its durable point and
        the one due after it."""
        before = after = None
        for event in _faults.check("storage.save"):
            injector = _faults.active()
            if event.kind == "io_error":
                injector.note_effect(event, "io_error")
                raise StorageError(f"injected I/O error writing {self.path}")
            if event.kind == "corrupt_then_crash":
                data, after = injector.corrupt(data), event
            elif event.kind == "torn_write":
                data, before = injector.truncate(data), event
            elif event.kind == "crash_before_replace":
                before = event
            elif event.kind == "crash_after_replace":
                after = event
        return data, before, after

    def _flushed(self) -> None:
        """Count a durable seal-closing write; remember the image for
        stale-read faults."""
        self.flush_count += 1
        if _faults.active() is not None:
            _faults.record_save(str(self.path), self.path.read_bytes())

    def save(self, blob: bytes) -> None:
        """Atomically replace the whole image (write + fsync + rename + fsync)."""
        blob, before, after = self._save_faults(blob)
        tmp_path = self._tmp_path
        try:
            fd = fs.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            try:
                _write_all(fd, blob)
                fs.fsync(fd)
            finally:
                fs.close(fd)
            if before is not None:
                raise _faults.active().crash(before)
            fs.replace(tmp_path, self.path)
            _fsync_directory(self.path.parent)
        except OSError as exc:
            try:
                fs.unlink(tmp_path)
            except OSError:
                pass
            raise StorageError(f"cannot write {self.path}: {exc}") from exc
        self.bytes_written += len(blob)
        self._flushed()
        if after is not None:
            raise _faults.active().crash(after)

    def append(self, record: bytes, seals: bool = False) -> None:
        """Durably append ``record`` to the image (write + fsync).

        ``seals`` marks a seal's closing append (the head record): like
        :meth:`save` it is the ``storage.save`` fault site, a flush and a
        snapshot stale reads can serve. The file is opened afresh, so an
        image rewritten behind this handle's back is extended where it
        now ends.
        """
        before = after = None
        if seals:
            record, before, after = self._save_faults(record)
        try:
            fd = fs.open(self.path, os.O_WRONLY | os.O_APPEND)
        except OSError as exc:
            raise StorageError(f"cannot append to {self.path}: {exc}") from exc
        try:
            end = fs.lseek(fd, 0, os.SEEK_END)
            try:
                _write_all(fd, record)
                if before is not None:
                    raise _faults.active().crash(before)
                fs.fsync(fd)
            except OSError as exc:
                try:
                    fs.ftruncate(fd, end)
                except OSError:
                    pass
                raise StorageError(f"cannot append to {self.path}: {exc}") from exc
        finally:
            fs.close(fd)
        self.bytes_written += len(record)
        if seals:
            self._flushed()
        if after is not None:
            raise _faults.active().crash(after)

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
            fd = fs.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            try:
                _write_all(fd, blob)
                fs.fsync(fd)
            finally:
                fs.close(fd)
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
            fs.truncate(self._sidecar_path(kind), 0)
        except OSError:
            pass


class InMemoryStorage(LogStorage):
    """The LibSEAL-mem configuration: no disk, but same interface."""

    def __init__(self) -> None:
        self.path = Path("<memory>")
        self.flush_count = 0
        self.bytes_written = 0
        self.orphans_cleaned: list[Path] = []
        self._image: bytearray | None = None
        self._sidecars: dict[str, bytes] = {}

    def save(self, blob: bytes) -> None:
        self._image = bytearray(blob)
        self.flush_count += 1
        self.bytes_written += len(blob)
        _faults.record_save(str(self.path), blob)

    def append(self, record: bytes, seals: bool = False) -> None:
        if self._image is None:
            raise StorageError("no in-memory image to append to")
        self._image += record
        self.bytes_written += len(record)
        if seals:
            self.flush_count += 1
            if _faults.active() is not None:
                _faults.record_save(str(self.path), bytes(self._image))

    def load(self) -> bytes:
        if self._image is None:
            raise StorageError("no in-memory snapshot saved")
        return self._apply_load_faults(bytes(self._image))

    def exists(self) -> bool:
        return self._image is not None

    def size_bytes(self) -> int:
        return len(self._image) if self._image is not None else 0

    def save_intent(self, blob: bytes, kind: str) -> None:
        self._sidecars[_checked_kind(kind)] = blob

    def load_intent(self, kind: str) -> bytes | None:
        return self._sidecars.get(_checked_kind(kind))

    def clear_intent(self, kind: str) -> None:
        self._sidecars.pop(_checked_kind(kind), None)
