"""The campaign service daemon: HTTP front, scheduler loop, graceful drain.

One process, two loops plus two background rails. A
:class:`ThreadingHTTPServer` answers the JSON API on its own threads
(reads are safe concurrently: records are immutable-on-disk between
durable replaces, and analyze reads go through the ingest cache); the
scheduler runs on the main thread and stays the single writer of job
records. The scheduler loop is event-driven: it sleeps until a job
runner exits (process sentinels), a submit or cancel lands (the API
writes a byte to the daemon's self-pipe), a timed deadline comes due,
or ``tick_interval`` passes — the ceiling that still picks up records
other processes write into the root. Before its first claim the daemon
imports the job runner's whole module set
(:func:`~repro.service.scheduler.preload_job_runtime`), so every forked
runner starts warm. ``SIGTERM``/``SIGINT`` trigger the graceful path: stop
claiming, drain every running job back to QUEUED-with-resume, release
leases, stop the HTTP server, exit 0. A ``SIGKILL`` instead is exactly
the chaos I6 scenario — the next start's ``recover()`` converges every
job with no lost or duplicated work.

The rails (both optional):

* **retention** — a :class:`~repro.service.retention.RetentionPolicy`
  runs as periodic GC passes on the scheduler thread (so GC shares the
  single-writer discipline), at ``retention_interval`` cadence —
  immediately when the soft disk watermark trips;
* **scrubbing** — a :class:`~repro.suite.scrub.Scrubber` daemon thread
  continuously re-verifies CRC seals (records, tombstones, archives,
  ingest caches) at ``scrub_interval`` cadence, quarantining damage
  through the fsck machinery.

Routes::

    GET  /healthz                     liveness + queue summary + disk state
    POST /api/jobs                    submit {spec, tenant?, job_id?}
    GET  /api/jobs[?tenant=&state=]   list
    GET  /api/jobs/<id>               status
    POST /api/jobs/<id>/cancel        request cancellation
    GET  /api/jobs/<id>/result[?metric=]  analyze payload (degraded, never 500)
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any
from urllib.parse import parse_qs, urlparse

from repro.service.admission import AdmissionPolicy
from repro.service.api import ServiceAPI
from repro.service.jobstore import JobStore
from repro.service.retention import RetentionPolicy, gc
from repro.service.scheduler import (
    JobScheduler,
    SchedulerConfig,
    preload_job_runtime,
)
from repro.util.diskstat import STATE_OK


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP shim over :class:`ServiceAPI` (set as ``server.api``)."""

    server_version = "rajaperf-service/1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # the daemon narrates; per-request noise helps nobody

    def _respond(self, status: int, payload: dict[str, Any]) -> None:
        body = json.dumps(payload, indent=1).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _api(self) -> ServiceAPI:
        return self.server.api  # type: ignore[attr-defined]

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        query = {k: v[0] for k, v in parse_qs(url.query).items()}
        parts = [p for p in url.path.split("/") if p]
        if url.path == "/healthz":
            daemon = self.server.daemon  # type: ignore[attr-defined]
            self._respond(200, daemon.health())
        elif parts[:2] == ["api", "jobs"] and len(parts) == 2:
            self._respond(*self._api().list_jobs(
                tenant=query.get("tenant"), state=query.get("state")
            ))
        elif parts[:2] == ["api", "jobs"] and len(parts) == 3:
            self._respond(*self._api().status(parts[2]))
        elif (
            parts[:2] == ["api", "jobs"]
            and len(parts) == 4
            and parts[3] == "result"
        ):
            self._respond(*self._api().result(
                parts[2], metric=query.get("metric", "Avg time/rank")
            ))
        else:
            self._respond(404, {"error": f"no route {url.path}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b"{}"
        try:
            body = json.loads(raw.decode("utf-8")) if raw.strip() else {}
        except ValueError:
            self._respond(400, {"error": "request body is not JSON"})
            return
        if parts[:2] == ["api", "jobs"] and len(parts) == 2:
            spec = body.get("spec")
            if not isinstance(spec, dict):
                self._respond(400, {"error": "body must carry a 'spec' object"})
                return
            self._respond(*self._api().submit(
                spec,
                tenant=str(body.get("tenant") or "default"),
                job_id=body.get("job_id"),
            ))
        elif (
            parts[:2] == ["api", "jobs"]
            and len(parts) == 4
            and parts[3] == "cancel"
        ):
            self._respond(*self._api().cancel(parts[2]))
        else:
            self._respond(404, {"error": f"no route {url.path}"})


class ServiceDaemon:
    """The long-running service process over one root directory."""

    def __init__(
        self,
        root: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        policy: AdmissionPolicy | None = None,
        scheduler_config: SchedulerConfig | None = None,
        tick_interval: float = 0.05,
        retention: RetentionPolicy | None = None,
        retention_interval: float = 60.0,
        scrub_interval: float | None = None,
    ) -> None:
        self.store = JobStore(root)
        self.store.ensure_layout()
        self.policy = policy or AdmissionPolicy()
        # Self-pipe: any thread (HTTP handlers, signal handlers) wakes
        # the scheduler loop by writing one byte to it.
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        # Reentrant: a signal handler may wake on the main thread.
        self._wake_lock = threading.RLock()
        self.api = ServiceAPI(self.store, self.policy, notify=self.wake)
        self.scheduler = JobScheduler(self.store, scheduler_config)
        self.tick_interval = tick_interval
        self.retention = retention
        self.retention_interval = retention_interval
        self._next_gc = 0.0  # first pass runs GC (finishes interrupted work)
        self.gc_passes = 0
        self.scrubber = None
        if scrub_interval is not None:
            from repro.suite.scrub import Scrubber

            self.scrubber = Scrubber(root, scrub_interval)
        self._stop = threading.Event()
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.api = self.api  # type: ignore[attr-defined]
        self.httpd.daemon = self  # type: ignore[attr-defined]
        self.httpd.daemon_threads = True

    @property
    def address(self) -> tuple[str, int]:
        return self.httpd.server_address[0], self.httpd.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def health(self) -> dict[str, Any]:
        jobs = self.store.list_jobs()
        by_state: dict[str, int] = {}
        for record in jobs:
            by_state[record.state] = by_state.get(record.state, 0) + 1
        payload = {
            "ok": True,
            "url": self.url,
            "jobs": len(jobs),
            "by_state": by_state,
            "draining": self._stop.is_set(),
        }
        if self.policy.watermarks.enabled:
            payload["disk"] = self.policy.watermarks.describe(self.store.root)
            payload["claims_paused"] = self.scheduler.claims_paused()
        if self.retention is not None:
            payload["gc_passes"] = self.gc_passes
        if self.scrubber is not None:
            payload["scrub_passes"] = self.scrubber.passes
        return payload

    def request_stop(self, *_sig: object) -> None:
        self._stop.set()
        self.wake()

    def wake(self) -> None:
        """Make the scheduler loop run a pass now (thread-safe)."""
        with self._wake_lock:
            if self._wake_w < 0:
                return  # closed: the loop is gone
            try:
                os.write(self._wake_w, b"\0")
            except BlockingIOError:
                pass  # pipe full: a wake-up is already pending

    def _drain_wakeups(self) -> None:
        try:
            while os.read(self._wake_r, 4096):
                pass
        except BlockingIOError:
            pass

    def _wait_timeout(self) -> float:
        """The liveness ceiling, shortened to the next GC when one is due."""
        timeout = self.tick_interval
        if self.retention is not None and self.retention.enabled:
            timeout = min(timeout, self._next_gc - time.monotonic())
        return max(0.0, timeout)

    # ------------------------------------------------------------ retention
    def _maybe_gc(self) -> None:
        """Run a GC pass when due — immediately under disk pressure.

        GC runs on the scheduler thread between passes so the record
        store keeps exactly one writer; a pass on a small store is
        milliseconds, and a large reclamation is work the service
        *needs* stalled claims for anyway.
        """
        if self.retention is None or not self.retention.enabled:
            return
        now = time.monotonic()
        pressured = (
            self.policy.watermarks.enabled
            and self.policy.watermarks.state(self.store.root) != STATE_OK
        )
        if now < self._next_gc and not pressured:
            return
        self._next_gc = now + self.retention_interval
        gc(self.store, self.retention)
        self.gc_passes += 1

    # ----------------------------------------------------------------- run
    def serve_forever(self, install_signals: bool = True) -> None:
        """Recover, then run passes until stopped; drain on the way out."""
        if install_signals:
            signal.signal(signal.SIGTERM, self.request_stop)
            signal.signal(signal.SIGINT, self.request_stop)
        http_thread = threading.Thread(
            target=self.httpd.serve_forever,
            name="service-http",
            daemon=True,
        )
        http_thread.start()
        if self.scrubber is not None:
            self.scrubber.start()
        try:
            preload_job_runtime()
            self.scheduler.recover()
            while not self._stop.is_set():
                self.scheduler.tick()
                self._maybe_gc()
                self.scheduler.wait(self._wait_timeout(), (self._wake_r,))
                self._drain_wakeups()
        finally:
            if self.scrubber is not None:
                self.scrubber.stop()
            self.scheduler.drain()
            self.httpd.shutdown()
            self.httpd.server_close()
            http_thread.join(5.0)
            self._close_pipe()

    def _close_pipe(self) -> None:
        with self._wake_lock:
            fds = (self._wake_r, self._wake_w)
            self._wake_r = self._wake_w = -1
        for fd in fds:
            if fd >= 0:
                os.close(fd)

    def close(self) -> None:
        """Release sockets without the serve loop (tests, failed starts)."""
        if self.scrubber is not None:
            self.scrubber.stop(timeout=0.1)
        self.httpd.server_close()
        self._close_pipe()
