"""Campaign checkpointing: the manifest that makes sweeps resumable.

A campaign writing ``.cali`` files also maintains
``campaign_manifest.json`` next to them, recording the status of every
(machine, variant, tuning, trial) cell as it completes. A crashed or
degraded campaign re-invoked with ``--resume`` skips the cells the
manifest marks ``ok`` and re-runs only failed or missing ones.

The ledger lives in two files:

* ``campaign_manifest.json.journal`` — append-only, one CRC-framed
  record per line (``<crc32 as 8 hex> <compact JSON>\n``). Each
  completed cell costs one fsynced append of its own entry
  (:meth:`CampaignManifest.checkpoint`), so a crash can lose at most
  the in-flight cell and a campaign writes O(cells) ledger bytes, not
  O(cells²). Each writing session's first record carries the
  campaign fingerprint.
* ``campaign_manifest.json`` — the compacted ledger, in the same
  format it always had. :meth:`CampaignManifest.save` writes it
  crash-safely (tmp sibling + fsync + ``os.replace`` + directory
  fsync) and then drops the journal; campaigns compact when they
  finish or drain.

Reading replays the journal over the JSON (last record per cell wins)
with the torn-tail rule calipack archives use: the first record that is
incomplete or fails its CRC ends the replay, and the next append cuts it
off. Every reader of the ledger goes through
:meth:`CampaignManifest.read` (or :meth:`~CampaignManifest.load_or_create`),
so a journal-only ledger left by a crash reads the same as a compacted
one, and a legacy journal-less manifest still loads.

Concurrent campaigns must not interleave writes to one ledger, so the
output directory carries an advisory :class:`CampaignLock`: a lockfile
holding a PID lease. A second campaign against a locked directory fails
loudly with :class:`~repro.suite.errors.CampaignLockedError`; a lease
whose holder PID is dead is taken over automatically (crashed campaigns
do not wedge the directory).
"""

from __future__ import annotations

import json
import os
import re
import socket
import time
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.chaos.points import crash_point
from repro.suite.errors import CampaignLockedError
from repro.util.fsio import append_durable_bytes, fsync_dir, write_durable_text

MANIFEST_NAME = "campaign_manifest.json"
MANIFEST_VERSION = 1
LOCK_NAME = "campaign_manifest.lock"
JOURNAL_SUFFIX = ".journal"

_FRAME_RE = re.compile(rb"([0-9a-f]{8}) ")


def journal_path(manifest_path: str | Path) -> Path:
    """The append-only journal beside a manifest JSON path."""
    path = Path(manifest_path)
    return path.with_name(path.name + JOURNAL_SUFFIX)


def _frame(record: dict[str, Any]) -> bytes:
    payload = json.dumps(record, separators=(",", ":"), sort_keys=True).encode(
        "utf-8"
    )
    return b"%08x %s\n" % (zlib.crc32(payload) & 0xFFFFFFFF, payload)


def read_journal(path: str | Path) -> tuple[list[dict[str, Any]], int]:
    """A journal's intact records in append order, and the offset just
    past the last of them.

    Torn-tail rule: the replay ends at the first record that lacks its
    newline, its CRC frame, or a matching CRC over a JSON object;
    nothing after it is trusted. A missing journal is empty.
    """
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        return [], 0
    records: list[dict[str, Any]] = []
    pos = 0
    while True:
        end = raw.find(b"\n", pos)
        if end < 0:
            break
        frame = _FRAME_RE.match(raw, pos, end)
        if frame is None:
            break
        payload = raw[frame.end() : end]
        if zlib.crc32(payload) & 0xFFFFFFFF != int(frame.group(1), 16):
            break
        try:
            record = json.loads(payload)
        except ValueError:
            break
        if not isinstance(record, dict):
            break
        records.append(record)
        pos = end + 1
    return records, pos


def _pid_alive(pid: Any) -> bool:
    """Whether ``pid`` names a live process we could signal."""
    if not isinstance(pid, int) or pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, owned by someone else
        return True
    except OSError:  # pragma: no cover - exotic platforms
        return False
    return True


@dataclass
class CampaignLock:
    """Advisory PID-lease lock on a campaign output directory.

    ``acquire`` creates ``campaign_manifest.lock`` exclusively; if it
    already exists and its holder PID is alive, acquisition raises
    :class:`CampaignLockedError` with a diagnostic. A stale lease (dead
    holder, or a leak from this very process) is taken over in place.
    The lock is advisory: it guards cooperating campaign runners, not
    arbitrary writers.
    """

    path: Path
    acquired: bool = False

    @classmethod
    def acquire(cls, output_dir: str | Path) -> "CampaignLock":
        return cls.acquire_path(Path(output_dir) / LOCK_NAME)

    @classmethod
    def acquire_path(cls, path: str | Path) -> "CampaignLock":
        """Acquire an arbitrary PID-lease lock file (same protocol).

        The campaign service's per-job lease tokens are ordinary
        instances of this lock living under ``jobs/`` instead of inside
        a campaign directory; the O_EXCL claim and the exclusive
        stale-lease takeover work identically.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lease = json.dumps(
            {
                "pid": os.getpid(),
                "host": socket.gethostname(),
                "acquired_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            },
            indent=1,
        )
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            holder: dict[str, Any] = {}
            try:
                holder = json.loads(path.read_text())
            except (OSError, ValueError):
                pass  # unreadable lease: treat as stale
            holder_pid = holder.get("pid")
            if _pid_alive(holder_pid) and holder_pid != os.getpid():
                raise CampaignLockedError(
                    str(path), holder_pid, holder.get("acquired_at")
                ) from None
            # Stale lease: the holder is gone (or is us). Two contenders
            # can reach this branch for the same expired lease, so the
            # takeover itself must be exclusive: claim a takeover token
            # with O_EXCL first. Exactly one contender wins; the loser
            # fails with the same clean CampaignLockedError a live lease
            # produces. A token orphaned by a crash mid-takeover is
            # cleared once its claimant is dead, so it cannot wedge the
            # directory.
            token = path.with_name(path.name + ".takeover")
            try:
                tfd = os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                claimant: Any = None
                try:
                    claimant = json.loads(token.read_text()).get("pid")
                except (OSError, ValueError):
                    pass
                if not _pid_alive(claimant):
                    token.unlink(missing_ok=True)
                raise CampaignLockedError(
                    str(path), claimant, holder.get("acquired_at")
                ) from None
            try:
                os.write(tfd, json.dumps({"pid": os.getpid()}).encode())
            finally:
                os.close(tfd)
            try:
                write_durable_text(path, lease)
            finally:
                token.unlink(missing_ok=True)
            return cls(path=path, acquired=True)
        try:
            os.write(fd, lease.encode())
        finally:
            os.close(fd)
        return cls(path=path, acquired=True)

    def release(self) -> None:
        if not self.acquired:
            return
        self.acquired = False
        try:
            self.path.unlink()
        except FileNotFoundError:  # pragma: no cover - external cleanup
            pass

    def __enter__(self) -> "CampaignLock":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


@dataclass
class CampaignManifest:
    """Completed-cell ledger for one campaign output directory."""

    path: Path
    fingerprint: dict[str, Any] = field(default_factory=dict)
    #: cell key -> {"status": "ok"|"failed", "file": str|None,
    #:              "failed_kernels": [...]}
    cells: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: cells changed since the last checkpoint/save, in change order
    _dirty: dict[str, None] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: end of the journal's last intact record (0: no journal yet)
    _journal_end: int = field(default=0, repr=False, compare=False)
    #: whether this session's journal records began with the fingerprint
    _fingerprint_journaled: bool = field(
        default=False, repr=False, compare=False
    )

    # -------------------------------------------------------------- load
    @classmethod
    def read(cls, path: str | Path) -> "CampaignManifest | None":
        """The ledger at manifest path ``path``: the compacted JSON with
        the journal replayed over it, under its recorded fingerprint.

        Returns None when neither file exists. An unreadable JSON raises
        (:class:`OSError` / :class:`ValueError`); a damaged journal tail
        never does — the replay stops before it. Side-effect free.
        """
        path = Path(path)
        records, journal_end = read_journal(journal_path(path))
        fingerprint: dict[str, Any] = {}
        cells: dict[str, dict[str, Any]] = {}
        try:
            text = path.read_text()
        except FileNotFoundError:
            if not journal_path(path).exists():
                return None
        else:
            payload = json.loads(text)
            if not isinstance(payload, dict):
                raise ValueError(f"{path}: manifest is not a JSON object")
            fingerprint = payload.get("fingerprint", {})
            cells = payload.get("cells", {})
            if not isinstance(fingerprint, dict) or not isinstance(cells, dict):
                raise ValueError(f"{path}: malformed manifest")
        for record in records:
            if "fingerprint" in record:
                fingerprint = dict(record["fingerprint"])
            elif "cell" in record:
                cells[str(record["cell"])] = dict(record.get("entry", {}))
        return cls(
            path=path,
            fingerprint=fingerprint,
            cells=cells,
            _journal_end=journal_end,
        )

    @classmethod
    def load_or_create(
        cls, output_dir: str | Path, fingerprint: dict[str, Any] | None
    ) -> "CampaignManifest":
        """Load the directory's manifest, or start an empty one.

        An unreadable manifest JSON is backed up as
        ``campaign_manifest.json.bak`` before the journal alone (if any)
        takes its place — forensic state is preserved, never silently
        destroyed. A fingerprint mismatch (the resumed campaign was
        configured differently) warns rather than fails: resuming with,
        say, more trials legitimately extends an existing manifest.
        ``fingerprint=None`` adopts the recorded one (audits such as
        fsck, which change no configuration).
        """
        path = Path(output_dir) / MANIFEST_NAME
        try:
            loaded = cls.read(path)
        except (OSError, ValueError) as exc:
            backup = path.with_suffix(path.suffix + ".bak")
            try:
                os.replace(path, backup)
                saved = f"; corrupt file backed up as {backup.name}"
            except OSError:
                saved = "; backup failed, corrupt file left in place"
            warnings.warn(
                f"unreadable campaign manifest {path} ({exc}); "
                f"starting fresh{saved}",
                stacklevel=2,
            )
            try:
                loaded = cls.read(path)
            except (OSError, ValueError):
                loaded = None
        if loaded is None:
            loaded = cls(path=path)
        recorded = loaded.fingerprint
        if fingerprint is None:
            return loaded
        if recorded and recorded != fingerprint:
            changed = sorted(
                k
                for k in set(recorded) | set(fingerprint)
                if recorded.get(k) != fingerprint.get(k)
            )
            warnings.warn(
                f"campaign manifest {path} was recorded with a different "
                f"configuration (changed: {changed}); resuming anyway",
                stacklevel=2,
            )
        loaded.fingerprint = dict(fingerprint)
        return loaded

    # ------------------------------------------------------------ queries
    def is_complete(self, key: str) -> bool:
        """Whether ``--resume`` may skip this cell."""
        return self.cells.get(key, {}).get("status") == "ok"

    def record(
        self,
        key: str,
        status: str,
        file: str | None = None,
        failed_kernels: list[str] | None = None,
        elapsed_s: float | None = None,
    ) -> None:
        entry = {
            "status": status,
            "file": file,
            "failed_kernels": list(failed_kernels or []),
        }
        if elapsed_s is not None:
            # Measured wall time feeds the scheduler's cost model on a
            # later run (``--cost-from``); absent for model-only cells.
            entry["elapsed_s"] = elapsed_s
        self.cells[key] = entry
        self._dirty[key] = None

    def mark_for_rerun(self, key: str, reason: str) -> None:
        """Demote a cell so ``--resume`` re-runs it (fsck healing)."""
        entry = self.cells.setdefault(
            key, {"status": "failed", "file": None, "failed_kernels": []}
        )
        entry["status"] = "failed"
        entry["rerun_reason"] = reason
        self._dirty[key] = None

    def set_file(self, key: str, file: str | None) -> None:
        """Point a recorded cell at its profile's new location."""
        self.cells[key]["file"] = file
        self._dirty[key] = None

    # -------------------------------------------------------------- save
    def checkpoint(self) -> None:
        """Make every change since the last checkpoint durable.

        One fsynced journal append holding just the changed cells (and,
        first in a session, the fingerprint): O(1) per completed cell.
        """
        crash_point("manifest.pre-save", path=self.path)
        self._append_dirty()

    def _append_dirty(self) -> None:
        if not self._dirty:
            return
        records: list[dict[str, Any]] = []
        if not self._fingerprint_journaled:
            records.append({"fingerprint": self.fingerprint})
        records += [{"cell": key, "entry": self.cells[key]} for key in self._dirty]
        self._journal_end = append_durable_bytes(
            journal_path(self.path),
            b"".join(_frame(record) for record in records),
            self._journal_end,
        )
        self._fingerprint_journaled = True
        self._dirty.clear()

    def save(self) -> Path:
        """Compact: persist the whole ledger as the manifest JSON, crash-
        safely (fsynced tmp + ``os.replace`` + dir fsync), then drop the
        journal.

        A crash between the two leaves the new JSON plus a journal whose
        replay changes nothing: changed cells are journaled before the
        JSON is written, so every journal record matches the JSON.
        """
        crash_point("manifest.pre-save", path=self.path)
        if self._journal_end:
            self._append_dirty()
        payload = {
            "format": "rajaperf-campaign-manifest",
            "version": MANIFEST_VERSION,
            "fingerprint": self.fingerprint,
            "cells": self.cells,
        }
        write_durable_text(
            self.path, json.dumps(payload, indent=1, sort_keys=True)
        )
        crash_point("manifest.post-compact", path=self.path)
        try:
            journal_path(self.path).unlink()
        except FileNotFoundError:
            pass
        else:
            fsync_dir(self.path.parent)
        self._journal_end = 0
        self._fingerprint_journaled = False
        self._dirty.clear()
        return self.path
