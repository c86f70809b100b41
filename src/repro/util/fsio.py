"""Durable filesystem primitives for the crash-safe stores.

The profile store and the campaign manifest both follow the same
protocol: write the payload to a tmp sibling, fsync it, ``os.replace``
it over the target, then fsync the containing directory so the rename
itself survives a power cut. These helpers keep that protocol in one
place; fsync failures on filesystems that do not support it (some CI
overlays) are tolerated — atomicity still holds, only durability
degrades.

Tmp siblings are named ``<target>.<pid>.<n>.tmp`` — unique per writer
process and per write — so two processes durably writing the same
target (the reference-checksum sidecar's read-merge-write, concurrent
campaigns racing a stale lock) can never clobber each other's
in-flight tmp; the losing ``os.replace`` is simply overwritten by the
winner's, which is the documented last-wins semantics. Orphaned tmps
(a crash between tmp write and replace) are swept by ``fsck``.

Append-only logs (the campaign manifest's journal) use the second
primitive here, :func:`append_durable_bytes`: cut a torn tail, write
the record at the log's known good end, fsync. A crash mid-append
leaves at most a partial last record, which the log's reader drops.

Every step of the protocol is also a registered chaos crash point
(:mod:`repro.chaos.points`): ``fsio.before-tmp-write``,
``fsio.after-tmp-fsync`` (torn-write capable), ``fsio.before-replace``,
``fsio.after-replace``, ``fsio.before-dir-fsync``, and for appends
``fsio.mid-append`` (torn-write capable). The hooks are no-ops unless a
chaos schedule is armed.
"""

from __future__ import annotations

import itertools
import os
from pathlib import Path

from repro.chaos.points import crash_point

_tmp_counter = itertools.count()

#: glob matching this module's tmp siblings (fsck's orphan sweep)
TMP_GLOB = "*.tmp"


def tmp_sibling(target: str | Path) -> Path:
    """A collision-free tmp path next to ``target`` (pid + counter)."""
    out = Path(target)
    return out.with_name(f"{out.name}.{os.getpid()}.{next(_tmp_counter)}.tmp")


def fsync_dir(path: str | Path) -> None:
    """fsync a directory so a completed rename inside it is durable."""
    crash_point("fsio.before-dir-fsync", path=path)
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir fsync
        pass
    finally:
        os.close(fd)


def durable_replace(tmp: str | Path, target: str | Path) -> None:
    """``os.replace`` + directory fsync (the tmp must already be synced)."""
    crash_point("fsio.before-replace", path=target, torn_file=tmp)
    os.replace(tmp, target)
    crash_point("fsio.after-replace", path=target)
    fsync_dir(Path(target).parent)


def write_durable_text(target: str | Path, text: str) -> Path:
    """Crash-safe whole-file write: tmp sibling + fsync + atomic replace."""
    return write_durable_bytes(target, text.encode("utf-8"))


def write_durable_bytes(target: str | Path, data: bytes) -> Path:
    """:func:`write_durable_text` for binary payloads (the ingest cache)."""
    out = Path(target)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = tmp_sibling(out)
    crash_point("fsio.before-tmp-write", path=out)
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        try:
            os.fsync(handle.fileno())
        except OSError:  # pragma: no cover - fs without fsync
            pass
    crash_point("fsio.after-tmp-fsync", path=out, torn_file=tmp)
    durable_replace(tmp, out)
    return out


def append_durable_bytes(target: str | Path, data: bytes, offset: int) -> int:
    """Durably append ``data`` to an append-only log at ``offset``.

    ``offset`` is the end of the log's last intact record, as its reader
    found it: whatever lies past it (a torn record a crash left) is cut
    before the write, so records never interleave with garbage. The
    file is created when absent, with a directory fsync so the new name
    survives a power cut. Returns the new end offset.
    """
    out = Path(target)
    fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o644)
    try:
        os.ftruncate(fd, offset)
        view, at = memoryview(data), offset
        while view:
            written = os.pwrite(fd, view, at)
            view, at = view[written:], at + written
        crash_point("fsio.mid-append", path=out, torn_file=out, torn_base=offset)
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - fs without fsync
            pass
    finally:
        os.close(fd)
    if offset == 0:
        fsync_dir(out.parent)
    return offset + len(data)
