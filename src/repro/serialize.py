"""Crash-consistent ``.npz`` serialization core for checkpoints and artifacts.

Both :mod:`repro.train.checkpoint` (training resume bundles) and
:mod:`repro.serve.artifact` (frozen inference bundles) store NumPy weight
arrays plus JSON side-channel payloads in a single ``.npz`` file.  This
module owns the pieces they share — JSON-in-array encoding, format
versioning, defensive loading, and **durable writes** — so the serving
stack can read and write bundles with zero training imports.

Durability contract (the PR 10 tentpole):

* :func:`atomic_savez` never exposes a torn file: the bundle is rendered
  to bytes in memory, written to a same-directory temp file, fsynced,
  moved over the target with ``os.replace`` (atomic on POSIX), and the
  directory is fsynced so the rename itself survives a power cut.  A
  crash (``kill -9``, ENOSPC, power loss) at *any* point leaves either
  the complete old file or the complete new file — never a mixture.
* Every bundle written by :func:`atomic_savez` embeds a **sha256 digest
  of its logical content** (key, dtype, shape, raw bytes of every
  entry).  :func:`read_verified` recomputes and checks it: a truncated,
  bit-flipped, or otherwise damaged bundle raises a typed
  :class:`~repro.errors.IntegrityError` — never a bare
  ``zipfile.BadZipFile`` or silent garbage.
* ``make_backup=True`` hardlink-rotates the last good file to
  ``<name>.bak`` before the rename; :func:`read_with_backup` falls back
  to it when the primary fails verification, so the worst outcome of
  any crash is "one save lost", never "all checkpoints lost".

Every filesystem touch goes through a pluggable :class:`IOProvider`
(:func:`io_scope`), which is what lets :mod:`repro.faultfs` inject torn
writes, ENOSPC, EIO, dropped fsyncs, and crash-before/after-rename
deterministically and prove the contract above under every schedule.

Format versioning: every bundle written today carries an integer format
version under a reserved key.  Loaders accept any version up to their
``supported`` ceiling — older readers meeting a newer file fail with a
clear :class:`~repro.errors.ConfigError` instead of silently
misinterpreting keys.  Files from before versioning existed (no version
key) load as version 0; files from before digests existed load
unverified unless the caller passes ``require_digest=True``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import shutil
import zipfile
import zlib
from typing import Any, Iterator, Mapping, Protocol

import numpy as np
import numpy.typing as npt

from repro.errors import ConfigError, IntegrityError

__all__ = [
    "DIGEST_ALGORITHM",
    "INTEGRITY_KEY",
    "IOProvider",
    "RealIO",
    "atomic_savez",
    "atomic_write_bytes",
    "atomic_write_text",
    "backup_path",
    "check_format_version",
    "content_digest",
    "current_io",
    "decode_json",
    "encode_json",
    "integrity_entry",
    "io_scope",
    "read_format_version",
    "read_verified",
    "read_with_backup",
    "resolve_npz_path",
    "saved_npz_path",
]

#: Reserved payload key holding the JSON integrity header.
INTEGRITY_KEY = "__integrity__"
#: The only digest algorithm written (and accepted) today.
DIGEST_ALGORITHM = "sha256"


class _ArchiveLike(Protocol):
    """The slice of ``np.lib.npyio.NpzFile`` the version reader needs."""

    def __contains__(self, key: object) -> bool: ...

    def __getitem__(self, key: str) -> Any: ...


# ----------------------------------------------------------------------
# JSON-in-array encoding
# ----------------------------------------------------------------------
def encode_json(payload: dict[str, Any]) -> npt.NDArray[np.uint8]:
    """Encode a JSON-serializable dict as a ``uint8`` array for ``np.savez``."""
    return np.frombuffer(json.dumps(payload).encode("utf-8"), dtype=np.uint8)


def decode_json(array: npt.ArrayLike, what: str = "payload") -> dict[str, Any]:
    """Invert :func:`encode_json`; corrupt bytes raise :class:`ConfigError`."""
    try:
        decoded = json.loads(np.asarray(array, dtype=np.uint8).tobytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"corrupt {what}: not valid JSON ({exc})") from None
    if not isinstance(decoded, dict):
        raise ConfigError(f"corrupt {what}: expected a JSON object, got {type(decoded).__name__}")
    return decoded


# ----------------------------------------------------------------------
# Format versioning
# ----------------------------------------------------------------------
def read_format_version(archive: _ArchiveLike, key: str) -> int:
    """The bundle's format version; 0 when the key predates versioning."""
    if key not in archive:
        return 0
    try:
        return int(np.asarray(archive[key]).reshape(()))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"corrupt format-version entry {key!r}: {exc}") from None


def check_format_version(version: int, supported: int, what: str) -> int:
    """Reject bundles newer than this reader understands."""
    if version > supported:
        raise ConfigError(
            f"{what} uses format version {version}, but this build only "
            f"understands versions <= {supported}; upgrade the library to load it"
        )
    return version


# ----------------------------------------------------------------------
# Path conventions
# ----------------------------------------------------------------------
def resolve_npz_path(path: str | pathlib.Path) -> pathlib.Path:
    """``path`` or ``path + '.npz'`` — whichever exists (NumPy appends it)."""
    path = pathlib.Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    return path


def saved_npz_path(path: str | pathlib.Path) -> pathlib.Path:
    """The file ``np.savez(path, ...)`` actually writes (``.npz`` appended)."""
    path = pathlib.Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    return path


def backup_path(path: str | pathlib.Path) -> pathlib.Path:
    """Where the last-good rotation of ``path`` lives (``<name>.bak``)."""
    resolved = pathlib.Path(path)
    return resolved.with_name(resolved.name + ".bak")


# ----------------------------------------------------------------------
# Pluggable filesystem provider (the fault-injection seam)
# ----------------------------------------------------------------------
class IOProvider(Protocol):
    """The filesystem surface durable writes are built on.

    :class:`RealIO` is the production implementation;
    ``repro.faultfs.FaultFS`` wraps it with seeded fault injection.
    Every method may raise ``OSError`` — and, under fault injection, the
    uncatchable ``repro.faultfs.SimulatedCrash``.
    """

    def read_bytes(self, path: pathlib.Path) -> bytes: ...

    def write_bytes(self, path: pathlib.Path, data: bytes) -> None: ...

    def fsync_file(self, path: pathlib.Path) -> None: ...

    def snapshot(self, src: pathlib.Path, dst: pathlib.Path) -> None: ...

    def replace(self, src: pathlib.Path, dst: pathlib.Path) -> None: ...

    def fsync_dir(self, path: pathlib.Path) -> None: ...


class RealIO:
    """Straight-to-OS implementation of :class:`IOProvider`."""

    def read_bytes(self, path: pathlib.Path) -> bytes:
        return path.read_bytes()  # repro: allow[durable-io] - the one real read

    def write_bytes(self, path: pathlib.Path, data: bytes) -> None:
        with open(path, "wb") as handle:  # repro: allow[durable-io] - the one real write
            handle.write(data)

    def fsync_file(self, path: pathlib.Path) -> None:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def snapshot(self, src: pathlib.Path, dst: pathlib.Path) -> None:
        """Rotate ``src`` to ``dst`` without ever making ``src`` unavailable.

        A hardlink shares the inode, so the rotation is metadata-only and
        the current file stays in place throughout; filesystems without
        hardlinks fall back to a copy of the (already durable) bytes.
        """
        tmp = dst.with_name(dst.name + f".{os.getpid()}.tmp")
        try:
            os.link(src, tmp)
        except OSError:
            shutil.copy2(src, tmp)
            self.fsync_file(tmp)
        os.replace(tmp, dst)

    def replace(self, src: pathlib.Path, dst: pathlib.Path) -> None:
        os.replace(src, dst)

    def fsync_dir(self, path: pathlib.Path) -> None:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


#: Active-provider stack; ``io_scope`` pushes, production code sees the
#: top.  Installed per-process (the fault-injection scope wraps whole
#: save/load call trees, never individual threads).
_IO_STACK: list[IOProvider] = [RealIO()]


def current_io() -> IOProvider:
    """The provider all durable writes and verified reads go through."""
    return _IO_STACK[-1]


@contextlib.contextmanager
def io_scope(provider: IOProvider) -> Iterator[IOProvider]:
    """Route serialization filesystem ops through ``provider`` for a block."""
    _IO_STACK.append(provider)
    try:
        yield provider
    finally:
        _IO_STACK.pop()


# ----------------------------------------------------------------------
# Content digests
# ----------------------------------------------------------------------
def content_digest(payload: Mapping[str, npt.ArrayLike]) -> str:
    """sha256 over the logical content of a bundle payload.

    Hashes every entry's key, dtype, shape, and raw bytes in sorted key
    order — independent of zip compression, member ordering, or archive
    timestamps, so the digest survives any faithful re-encoding of the
    same arrays.  :data:`INTEGRITY_KEY` itself is excluded (it holds the
    digest).
    """
    digest = hashlib.sha256()
    for key in sorted(payload):
        if key == INTEGRITY_KEY:
            continue
        array = np.asarray(payload[key])
        digest.update(key.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(array.dtype.str.encode("ascii"))
        digest.update(b"\x00")
        digest.update(repr(array.shape).encode("ascii"))
        digest.update(b"\x00")
        digest.update(np.ascontiguousarray(array).tobytes())
        digest.update(b"\x00")
    return digest.hexdigest()


def integrity_entry(payload: Mapping[str, npt.ArrayLike]) -> npt.NDArray[np.uint8]:
    """The encoded :data:`INTEGRITY_KEY` entry for ``payload``.

    Exposed so test fixtures that rewrite bundles (dropping or replacing
    entries) can restamp a valid digest and keep exercising the
    *semantic* failure modes behind the integrity gate.
    """
    return encode_json(
        {"algorithm": DIGEST_ALGORITHM, "digest": content_digest(payload)}
    )


# ----------------------------------------------------------------------
# Durable writes
# ----------------------------------------------------------------------
def _atomic_publish(target: pathlib.Path, data: bytes, *, make_backup: bool) -> None:
    """Write ``data`` to ``target`` with the full crash-consistency dance."""
    provider = current_io()
    tmp = target.with_name(target.name + f".{os.getpid()}.tmp")
    try:
        provider.write_bytes(tmp, data)
        provider.fsync_file(tmp)
        if make_backup and target.exists():
            provider.snapshot(target, backup_path(target))
        provider.replace(tmp, target)
        provider.fsync_dir(target.parent)
    except OSError:
        # Failed saves (ENOSPC, EIO) must not leave temp litter; the
        # target itself was never touched, so the old file stands.
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise


def atomic_write_bytes(
    path: str | pathlib.Path, data: bytes, *, make_backup: bool = False
) -> pathlib.Path:
    """Crash-consistently replace ``path`` with ``data``; returns the path.

    Readers never observe a torn file: they see the complete old content
    or the complete new content.  ``make_backup=True`` rotates the
    previous content to ``<name>.bak`` first.
    """
    target = pathlib.Path(path)
    _atomic_publish(target, data, make_backup=make_backup)
    return target


def atomic_write_text(
    path: str | pathlib.Path, text: str, *, make_backup: bool = False
) -> pathlib.Path:
    """:func:`atomic_write_bytes` for UTF-8 text artifacts."""
    return atomic_write_bytes(path, text.encode("utf-8"), make_backup=make_backup)


def atomic_savez(
    path: str | pathlib.Path,
    payload: Mapping[str, npt.ArrayLike],
    *,
    make_backup: bool = False,
) -> pathlib.Path:
    """Durably write ``payload`` as a digest-stamped ``.npz`` bundle.

    Returns the path actually written (``.npz`` appended when missing).
    The bundle carries :data:`INTEGRITY_KEY` (sha256 of the content) and
    is published via temp-file + fsync + ``os.replace`` + directory
    fsync — a crash at any point leaves the previous file intact, and a
    file damaged after the fact fails :func:`read_verified`.
    """
    if INTEGRITY_KEY in payload:
        raise ConfigError(
            f"payload key {INTEGRITY_KEY!r} is reserved for the integrity digest"
        )
    target = saved_npz_path(path)
    full: dict[str, npt.ArrayLike] = dict(payload)
    full[INTEGRITY_KEY] = integrity_entry(payload)
    buffer = io.BytesIO()
    np.savez(buffer, **full)  # repro: allow[durable-io] - in-memory render, published atomically below
    _atomic_publish(target, buffer.getvalue(), make_backup=make_backup)
    return target


# ----------------------------------------------------------------------
# Verified reads
# ----------------------------------------------------------------------
def _read_all_entries(
    archive: np.lib.npyio.NpzFile, path: pathlib.Path, what: str
) -> dict[str, npt.NDArray[Any]]:
    """Eagerly decompress every entry; damage raises :class:`IntegrityError`.

    ``np.load`` is lazy — a truncated member surfaces only when the
    entry is read, as ``BadZipFile`` / ``zlib.error`` / ``ValueError``.
    Reading everything up front turns "corrupt somewhere" into one typed
    error at load time instead of an untyped crash mid-training.
    """
    payload: dict[str, npt.NDArray[Any]] = {}
    for key in archive.files:
        try:
            payload[key] = archive[key]
        except (ValueError, OSError, EOFError, KeyError, zipfile.BadZipFile, zlib.error) as exc:
            raise IntegrityError(
                f"{what} {path} is corrupt: entry {key!r} cannot be read "
                f"({type(exc).__name__}: {exc})"
            ) from None
    return payload


def _verify_payload(
    payload: dict[str, npt.NDArray[Any]],
    path: pathlib.Path,
    what: str,
    *,
    require_digest: bool,
) -> dict[str, npt.NDArray[Any]]:
    """Check (and strip) the integrity entry; mismatch is typed."""
    if INTEGRITY_KEY not in payload:
        if require_digest:
            raise IntegrityError(
                f"{what} {path} carries no integrity digest; it was not "
                f"written by atomic_savez and cannot be verified"
            )
        return payload
    entry = payload.pop(INTEGRITY_KEY)
    try:
        header = decode_json(entry, f"{what} integrity header")
    except ConfigError as exc:
        raise IntegrityError(f"{what} {path} is corrupt: {exc}") from None
    algorithm = header.get("algorithm")
    if algorithm != DIGEST_ALGORITHM:
        raise IntegrityError(
            f"{what} {path} uses unsupported digest algorithm {algorithm!r}; "
            f"this build verifies {DIGEST_ALGORITHM!r} only"
        )
    expected = header.get("digest")
    actual = content_digest(payload)
    if actual != expected:
        raise IntegrityError(
            f"{what} {path} failed its integrity check: content digest "
            f"{actual} does not match the recorded {expected!r}; the file "
            f"was truncated or corrupted after writing"
        )
    return payload


def read_verified(
    path: str | pathlib.Path,
    what: str = "bundle",
    *,
    require_digest: bool = False,
) -> dict[str, npt.NDArray[Any]]:
    """Load a bundle eagerly and verify its content digest.

    Returns the payload with :data:`INTEGRITY_KEY` stripped.  Missing
    files raise :class:`ConfigError`; unreadable, truncated, or
    digest-mismatched files raise :class:`IntegrityError`.  Bundles from
    before digests existed load unverified unless ``require_digest``.
    """
    resolved = resolve_npz_path(path)
    if not resolved.exists():
        raise ConfigError(f"{what} not found: {resolved}")
    try:
        data = current_io().read_bytes(resolved)
    except OSError as exc:
        raise IntegrityError(f"could not read {what} {resolved}: {exc}") from None
    try:
        archive = np.load(io.BytesIO(data))
    except (ValueError, OSError, EOFError, zipfile.BadZipFile) as exc:
        raise IntegrityError(f"could not read {what} {resolved}: {exc}") from None
    if not isinstance(archive, np.lib.npyio.NpzFile):
        # np.load returns a bare array for .npy bytes — not a bundle.
        raise ConfigError(f"{what} {resolved} is not an .npz bundle")
    with archive:
        payload = _read_all_entries(archive, resolved, what)
    return _verify_payload(payload, resolved, what, require_digest=require_digest)


def read_with_backup(
    path: str | pathlib.Path,
    what: str = "bundle",
    *,
    require_digest: bool = False,
) -> tuple[dict[str, npt.NDArray[Any]], bool]:
    """:func:`read_verified`, falling back to the ``.bak`` rotation.

    Returns ``(payload, used_backup)``.  The backup is consulted only
    when the primary is missing or fails verification, and must itself
    verify — two corrupt copies still raise :class:`IntegrityError`
    (the primary's error, with the backup failure noted).
    """
    resolved = resolve_npz_path(path)
    bak = backup_path(saved_npz_path(resolved))
    if not resolved.exists():
        if bak.exists():
            return read_verified(bak, f"{what} backup", require_digest=require_digest), True
        raise ConfigError(f"{what} not found: {resolved}")
    try:
        return read_verified(resolved, what, require_digest=require_digest), False
    except IntegrityError as primary_error:
        if not bak.exists():
            raise
        try:
            payload = read_verified(bak, f"{what} backup", require_digest=require_digest)
        except (IntegrityError, ConfigError) as backup_error:
            raise IntegrityError(
                f"{primary_error} (backup {bak} also unusable: {backup_error})"
            ) from None
        return payload, True
