"""The durable campaign job service: store, scheduler, admission, API.

A submitted job must survive anything short of losing the disk: records
are CRC-sealed and rewritten durably, ownership is a lease any
successor can take over exactly once, cancellation is a marker file so
the scheduler stays the single record writer, and a drained or crashed
daemon resumes every job where its campaign manifest left it. The
service's analyze result is byte-identical to a direct CLI analyze of
the same campaign — the payload shape has a single source.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro.chaos import invariants
from repro.chaos.points import REGISTERED_POINTS
from repro.service import admission
from repro.service.admission import AdmissionDecision, AdmissionPolicy
from repro.service.api import ServiceAPI, analysis_payload
from repro.service.daemon import ServiceDaemon
from repro.service.jobstore import (
    RACY_WINDOW_NS,
    STATE_CANCELLED,
    STATE_ORPHANED,
    STATE_QUEUED,
    STATE_RUNNING,
    STATE_SUBMITTED,
    STATE_SUCCEEDED,
    TERMINAL_STATES,
    TRANSITIONS,
    JobError,
    JobRecord,
    JobStore,
    params_from_spec,
    parse_record_text,
    seal_record,
    validate_job_id,
)
from repro.service.scheduler import JobScheduler, SchedulerConfig
from repro.suite.errors import CampaignLockedError
from repro.suite.executor import SuiteExecutor
from repro.suite.fsck import fsck_directory

_CTX = multiprocessing.get_context("fork")


def _spec(**overrides) -> dict:
    spec = dict(
        problem_size=1024,
        reps=1,
        machines=["SPR-DDR"],
        variants=["Base_Seq", "RAJA_Seq"],
        kernels=["Basic_DAXPY", "Stream_TRIAD"],
        trials=2,
        execute=False,
        pack=False,
        workers=1,
        heartbeat_timeout=10.0,
        retry_base_delay=0.0,
        retry_max_delay=0.0,
        retry_jitter=0.0,
    )
    spec.update(overrides)
    return spec


def _dead_pid() -> int:
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    return pid


def _store(tmp_path) -> JobStore:
    store = JobStore(tmp_path)
    store.ensure_layout()
    return store


# ------------------------------------------------------------- the record
def test_record_seal_roundtrip():
    record = JobRecord(
        job_id="j1", tenant="t", spec=_spec(), state=STATE_QUEUED,
        seq=3, attempts=1, resume=True, reason="why",
        progress={"ok": 2, "failed": 0, "total": 4},
    )
    back = parse_record_text(seal_record(record))
    assert back == record


def test_tampered_record_fails_its_seal():
    text = seal_record(JobRecord(job_id="j1", tenant="t", spec=_spec()))
    torn = text[: len(text) // 2]
    with pytest.raises(JobError, match="does not parse"):
        parse_record_text(torn)
    flipped = text.replace('"attempts": 0', '"attempts": 7')
    with pytest.raises(JobError, match="seal mismatch"):
        parse_record_text(flipped)
    with pytest.raises(JobError, match="not a job record"):
        parse_record_text('{"format": "something-else"}')


def test_state_machine_rejects_illegal_edges():
    record = JobRecord(job_id="j1", tenant="t", spec={})
    with pytest.raises(JobError, match="illegal job transition"):
        record.transition(STATE_RUNNING)  # SUBMITTED cannot skip QUEUED
    record.transition(STATE_QUEUED)
    record.transition(STATE_RUNNING)
    record.transition(STATE_SUCCEEDED)
    with pytest.raises(JobError, match="illegal job transition"):
        record.transition(STATE_QUEUED)  # terminal states never move
    with pytest.raises(JobError, match="unknown job state"):
        record.transition("EXPLODED")
    # Every terminal state really is terminal in the edge table.
    for state in ("SUCCEEDED", "FAILED", "CANCELLED", "ORPHANED"):
        assert TRANSITIONS[state] == frozenset()


def test_job_id_validation():
    assert validate_job_id("job-000001") == "job-000001"
    for bad in ("", "a/b", ".hidden", "x" * 129, "sp ace"):
        with pytest.raises(JobError, match="invalid job id"):
            validate_job_id(bad)


def test_spec_validation_rejects_unknown_keys_and_bad_values():
    with pytest.raises(JobError, match="unknown job spec key"):
        params_from_spec(_spec(not_a_knob=1), "/tmp/x")
    with pytest.raises(JobError, match="invalid job spec"):
        params_from_spec(_spec(trials=0), "/tmp/x")
    # shards force pack=True: the merge tree needs archives.
    params = params_from_spec(_spec(shards=2, workers=2), "/tmp/x")
    assert params.pack is True


# -------------------------------------------------------------- the store
def test_submit_lands_a_durable_queued_record(tmp_path):
    store = _store(tmp_path)
    record = store.submit(_spec(), tenant="alice")
    assert record.state == STATE_QUEUED
    assert record.job_id == "job-000001"
    on_disk = parse_record_text(store.record_path(record.job_id).read_text())
    assert on_disk == record
    # A second anonymous submit gets the next sequence number.
    assert store.submit(_spec()).job_id == "job-000002"


def test_submit_is_idempotent_on_caller_job_id(tmp_path):
    store = _store(tmp_path)
    first = store.submit(_spec(), job_id="nightly")
    again = store.submit(_spec(), job_id="nightly")
    assert again == first
    assert store.list_ids() == ["nightly"]


def test_damaged_record_is_backed_up_not_trusted(tmp_path):
    store = _store(tmp_path)
    record = store.submit(_spec())
    path = store.record_path(record.job_id)
    path.write_text(path.read_text()[:40])  # torn rewrite
    with pytest.warns(UserWarning, match="damaged job record"):
        assert store.load(record.job_id) is None
    assert path.with_suffix(".json.bak").exists()
    assert not path.exists()


def _hammer_list_jobs(root: str, stop, loads) -> None:
    store = JobStore(root)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        while not stop.is_set():
            store.list_jobs()
            loads.value += 1


def test_record_creation_is_atomic_under_concurrent_listing(tmp_path):
    # A reader listing the store must never see a record half-born: an
    # empty file it would call damaged and move to .bak just as the
    # QUEUED save lands, losing the job.
    store = _store(tmp_path)
    stop, loads = _CTX.Event(), _CTX.Value("i", 0)
    reader = _CTX.Process(
        target=_hammer_list_jobs, args=(str(tmp_path), stop, loads)
    )
    reader.start()
    try:
        ids = [f"race-{n:04d}" for n in range(320)]
        for job_id in ids:
            store.submit(_spec(), job_id=job_id)
    finally:
        stop.set()
        reader.join(30.0)
    assert not reader.is_alive()
    assert loads.value > 0
    assert sorted(store.jobs_dir.glob("*.bak")) == []
    assert sorted(store.jobs_dir.glob("*.tmp")) == []
    jobs = store.list_jobs()
    assert [r.job_id for r in jobs] == ids
    assert {r.state for r in jobs} == {STATE_QUEUED}


def test_fsck_sweeps_creation_tmps_of_dead_writers(tmp_path):
    store = _store(tmp_path)
    live = store.submit(_spec(), job_id="live")
    sealed = seal_record(live)
    dead = store.jobs_dir / f"lost.json.{_dead_pid()}.0.tmp"
    dead.write_text(sealed)
    ours = store.jobs_dir / f"busy.json.{os.getpid()}.0.tmp"
    ours.write_text(sealed)  # a live writer's in-flight tmp
    report = fsck_directory(tmp_path)
    assert dead in report.removed_tmp and not dead.exists()
    assert ours.exists()
    assert store.list_ids() == ["live"]


def test_record_cache_never_hides_damage(tmp_path, monkeypatch):
    from repro.service import jobstore

    store = _store(tmp_path)
    store.submit(_spec(), job_id="cached")
    time.sleep(RACY_WINDOW_NS / 1e9 + 0.02)  # old enough to be cached
    first = store.load("cached")
    parses = []
    real_parse = jobstore.parse_record_text
    monkeypatch.setattr(
        jobstore,
        "parse_record_text",
        lambda text: parses.append(1) or real_parse(text),
    )
    # Callers own their copies: mutating one changes no later load.
    first.spec["kernels"].append("Bogus_KERNEL")
    first.progress["ok"] = 99
    first.state = STATE_CANCELLED
    again = store.load("cached")
    assert parses == []  # served from the cache
    assert again.state == STATE_QUEUED
    assert again.spec == _spec() and again.progress == {}
    again.spec["kernels"].clear()
    assert store.load("cached").spec == _spec()
    # Flip one byte of the payload in place, keeping the size.
    path = store.record_path("cached")
    raw = path.read_bytes()
    offset = raw.index(b'"default"') + 1
    with open(path, "r+b") as handle:
        handle.seek(offset)
        handle.write(bytes([raw[offset] ^ 0x01]))
    assert path.stat().st_size == len(raw)
    with pytest.warns(UserWarning, match="damaged job record"):
        assert store.load("cached") is None
    assert parses == [1]  # the changed file was re-verified
    assert path.with_suffix(".json.bak").exists()
    assert not path.exists()
    assert store.load("cached") is None


def test_job_lease_is_exclusive_with_takeover(tmp_path):
    store = _store(tmp_path)
    record = store.submit(_spec())
    # A *live* foreign holder is exclusive; a dead one is taken over.
    peer = _CTX.Process(target=time.sleep, args=(60,))
    peer.start()
    try:
        store.lease_path(record.job_id).write_text(
            json.dumps({"pid": peer.pid, "time": time.time()})
        )
        assert store.lease_holder_alive(record.job_id)
        with pytest.raises(CampaignLockedError):
            store.claim(record.job_id)
    finally:
        peer.terminate()
        peer.join()
    lease = store.claim(record.job_id)  # holder died: exclusive takeover
    assert json.loads(
        store.lease_path(record.job_id).read_text()
    )["pid"] == os.getpid()
    lease.release()
    assert not store.lease_path(record.job_id).exists()


def test_cancel_is_a_marker_not_a_record_write(tmp_path):
    store = _store(tmp_path)
    record = store.submit(_spec())
    before = store.record_path(record.job_id).read_bytes()
    store.request_cancel(record.job_id)
    assert store.cancel_requested(record.job_id)
    # Only the scheduler transitions records; the request changed nothing.
    assert store.record_path(record.job_id).read_bytes() == before
    with pytest.raises(JobError, match="unknown job"):
        store.request_cancel("nope")


# --------------------------------------------------------------- admission
def test_admission_bounds_queue_depth_and_tenants(tmp_path):
    store = _store(tmp_path)
    open_policy = AdmissionPolicy(
        max_queue_depth=None, max_queued_per_tenant=None, max_tenant_bytes=None
    )
    assert admission.evaluate(store, "a", open_policy).admitted

    store.submit(_spec(), tenant="a")
    store.submit(_spec(), tenant="b")
    full = admission.evaluate(store, "a", AdmissionPolicy(max_queue_depth=2))
    assert full.rejected and "queue full: 2 active" in full.reason

    fair = admission.evaluate(
        store, "a", AdmissionPolicy(max_queued_per_tenant=1)
    )
    assert fair.rejected and "tenant 'a' has 1 active" in fair.reason
    assert admission.evaluate(
        store, "c", AdmissionPolicy(max_queued_per_tenant=1)
    ).admitted


def test_admission_counts_terminal_jobs_against_disk_quota(tmp_path):
    store = _store(tmp_path)
    record = store.submit(_spec(), tenant="a")
    record.transition(STATE_RUNNING) or record.transition  # QUEUED->RUNNING
    record.transition(STATE_SUCCEEDED)
    store.save(record)
    campaign = store.campaign_dir(record.job_id)
    campaign.mkdir(parents=True)
    (campaign / "big.cali").write_bytes(b"x" * 4096)
    assert admission.tenant_disk_usage(store, "a") >= 4096
    quota = admission.evaluate(
        store, "a", AdmissionPolicy(max_tenant_bytes=1024)
    )
    assert quota.rejected and "byte(s) of campaign output" in quota.reason
    # Another tenant's quota is untouched by tenant a's hoard.
    assert admission.evaluate(
        store, "b", AdmissionPolicy(max_tenant_bytes=1024)
    ).admitted
    assert AdmissionDecision(admitted=True).rejected is False


# -------------------------------------------------------------- scheduler
def test_scheduler_runs_a_job_to_succeeded(tmp_path):
    store = _store(tmp_path)
    record = store.submit(_spec(), job_id="end2end")
    scheduler = JobScheduler(store, SchedulerConfig(progress_interval=0.0))
    assert scheduler.run_until_idle(timeout=120.0)
    final = store.load("end2end")
    assert final.state == STATE_SUCCEEDED
    assert final.attempts == 1
    assert final.progress == {"ok": 4, "failed": 0, "total": 4}
    assert not store.lease_holder_alive("end2end")
    # The campaign is an ordinary, analyzable campaign directory.
    expected = {
        c.key
        for c in SuiteExecutor(
            params_from_spec(record.spec, store.campaign_dir("end2end"))
        ).build_cells()
    }
    assert invariants.check_full_cell_set(
        expected, store.campaign_dir("end2end")
    ) == []
    assert invariants.check_job_service(tmp_path, {"end2end": expected}) == []


def test_scheduler_cancels_queued_job_on_tick(tmp_path):
    store = _store(tmp_path)
    record = store.submit(_spec())
    store.request_cancel(record.job_id)
    scheduler = JobScheduler(store)
    scheduler.tick()
    final = store.load(record.job_id)
    assert final.state == STATE_CANCELLED
    assert not store.cancel_requested(record.job_id)  # marker consumed
    assert not (
        store.campaigns_dir / record.job_id
    ).exists()  # cancelled before any work


def test_recover_promotes_submitted_strays(tmp_path):
    store = _store(tmp_path)
    record = store._create("stray", _spec(), "t")  # crash before first save
    assert record.state == STATE_SUBMITTED
    JobScheduler(store).recover()
    assert store.load("stray").state == STATE_QUEUED


def test_recover_takes_over_dead_running_lease_and_requeues(tmp_path):
    store = _store(tmp_path)
    record = store.submit(_spec(), job_id="crashed")
    record.transition(STATE_RUNNING)
    record.attempts = 1
    store.save(record)
    store.lease_path("crashed").write_text(
        json.dumps({"pid": _dead_pid(), "time": time.time()})
    )
    touched = JobScheduler(store).recover()
    assert touched == ["crashed"]
    healed = store.load("crashed")
    assert healed.state == STATE_QUEUED
    assert healed.resume is True
    assert "scheduler died" in healed.reason
    assert not store.lease_path("crashed").exists()


def test_recover_leaves_live_peers_jobs_alone(tmp_path):
    store = _store(tmp_path)
    record = store.submit(_spec(), job_id="peer-owned")
    record.transition(STATE_RUNNING)
    store.save(record)
    store.lease_path("peer-owned").write_text(
        json.dumps({"pid": os.getpid(), "time": time.time()})
    )
    assert JobScheduler(store).recover() == []
    assert store.load("peer-owned").state == STATE_RUNNING


def test_heal_parks_job_as_orphaned_after_attempt_budget(tmp_path):
    store = _store(tmp_path)
    record = store.submit(_spec(), job_id="doomed")
    record.transition(STATE_RUNNING)
    record.attempts = 3
    store.save(record)
    store.lease_path("doomed").write_text(
        json.dumps({"pid": _dead_pid(), "time": time.time()})
    )
    JobScheduler(store, SchedulerConfig(max_job_attempts=3)).recover()
    final = store.load("doomed")
    assert final.state == STATE_ORPHANED
    assert "attempt budget (3) exhausted" in final.reason


def test_drain_requeues_running_jobs_uncharged_with_resume(tmp_path):
    store = _store(tmp_path)
    record = store.submit(_spec(), job_id="draining")
    record.attempts = 1
    record.transition(STATE_RUNNING)
    store.save(record)
    scheduler = JobScheduler(store)
    lease = store.claim("draining")
    child = _CTX.Process(target=time.sleep, args=(60,))
    child.start()
    scheduler._children["draining"] = child
    scheduler._leases["draining"] = lease
    drained = scheduler.drain()
    assert drained == ["draining"]
    assert not child.is_alive()
    final = store.load("draining")
    assert final.state == STATE_QUEUED
    assert final.resume is True
    assert final.attempts == 0  # the drain is not the job's fault
    assert final.reason == "daemon drained"
    assert not store.lease_path("draining").exists()
    # Draining schedulers stop claiming: the requeued job stays queued.
    scheduler.tick()
    assert store.load("draining").state == STATE_QUEUED


# ---------------------------------------------------------------- the API
def test_api_submit_status_reject_and_errors(tmp_path):
    store = _store(tmp_path)
    api = ServiceAPI(store, AdmissionPolicy(max_queue_depth=1))
    status, body = api.submit({"trials": 0})
    assert status == 400 and "invalid job spec" in body["error"]
    status, body = api.submit(_spec(), tenant="a", job_id="one")
    assert status == 200 and body["job"]["state"] == STATE_QUEUED
    status, body = api.submit(_spec(), tenant="b")
    assert status == 429 and body["rejected"] and "queue full" in body["reason"]
    assert api.status("one")[0] == 200
    assert api.status("nope")[0] == 404
    assert api.cancel("nope")[0] == 404
    status, body = api.list_jobs(state=STATE_QUEUED)
    assert status == 200 and [j["job_id"] for j in body["jobs"]] == ["one"]


def test_api_result_handshake_and_degraded_empty_campaign(tmp_path):
    store = _store(tmp_path)
    api = ServiceAPI(store)
    assert api.result("nope")[0] == 404
    record = store.submit(_spec(), job_id="empty")
    status, body = api.result("empty")
    assert status == 409 and "not terminal" in body["error"]
    record.transition(STATE_RUNNING)
    record.transition(STATE_SUCCEEDED)
    store.save(record)
    status, body = api.result("empty")  # no campaign dir at all
    assert status == 200
    assert body["result"]["degraded"] is True
    assert body["result"]["matrix"] == []
    assert body["result"]["load_errors"]["count"] == 1


def test_service_result_is_byte_equal_to_cli_analyze(tmp_path):
    """The tentpole contract: one payload shape, one source of truth."""
    store = _store(tmp_path)
    store.submit(_spec(), job_id="golden")
    assert JobScheduler(store).run_until_idle(timeout=120.0)
    status, body = ServiceAPI(store).result("golden")
    assert status == 200 and body["result"]["degraded"] is False

    from repro.thicket import Thicket

    campaign = store.campaign_dir("golden")
    thicket = Thicket.from_caliperreader(
        sorted(str(p) for p in campaign.glob("*.cali"))
    )
    direct = analysis_payload(thicket, "Avg time/rank")
    assert json.dumps(body["result"], indent=1) == json.dumps(direct, indent=1)
    assert direct["matrix"] and direct["regions"]


# ---------------------------------------------------------------- daemon
def test_daemon_serves_http_and_drains_on_stop(tmp_path):
    import threading

    from repro.service.api import http_json

    daemon = ServiceDaemon(tmp_path, port=0)
    thread = threading.Thread(
        target=daemon.serve_forever, kwargs={"install_signals": False}
    )
    thread.start()
    try:
        status, health = http_json(f"{daemon.url}/healthz")
        assert status == 200 and health["ok"] is True
        status, body = http_json(
            f"{daemon.url}/api/jobs",
            {"spec": _spec(), "job_id": "via-http", "tenant": "t"},
        )
        assert status == 200 and body["job"]["job_id"] == "via-http"
        # Idempotent resubmission over HTTP returns the same record.
        status, again = http_json(
            f"{daemon.url}/api/jobs", {"spec": _spec(), "job_id": "via-http"}
        )
        assert status == 200 and again["job"]["job_id"] == "via-http"
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            status, body = http_json(f"{daemon.url}/api/jobs/via-http")
            if body["job"]["state"] in ("SUCCEEDED", "FAILED", "ORPHANED"):
                break
            time.sleep(0.1)
        assert body["job"]["state"] == STATE_SUCCEEDED
        status, result = http_json(f"{daemon.url}/api/jobs/via-http/result")
        assert status == 200 and result["result"]["degraded"] is False
        assert http_json(f"{daemon.url}/api/nowhere")[0] == 404
    finally:
        daemon.request_stop()
        thread.join(30.0)
    assert not thread.is_alive()


def _start_daemon(daemon: ServiceDaemon) -> threading.Thread:
    thread = threading.Thread(
        target=daemon.serve_forever, kwargs={"install_signals": False}
    )
    thread.start()
    return thread


def _await_state(store: JobStore, job_id: str, states, timeout: float):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = store.load(job_id)
        if record is not None and record.state in states:
            return record
        time.sleep(0.01)
    return store.load(job_id)


def test_daemon_wakes_on_submit_and_runner_exit_not_on_its_tick(tmp_path):
    # With a 30 s ceiling, only the self-pipe (submit) and the runner's
    # process sentinel (exit) can move a job along within seconds.
    daemon = ServiceDaemon(tmp_path, port=0, tick_interval=30.0)
    thread = _start_daemon(daemon)
    try:
        for job_id in ("first", "second"):  # the second finds the loop idle
            start = time.monotonic()
            assert daemon.api.submit(_spec(), job_id=job_id)[0] == 200
            final = _await_state(daemon.store, job_id, TERMINAL_STATES, 5.0)
            assert final.state == STATE_SUCCEEDED
            assert time.monotonic() - start < 5.0
    finally:
        daemon.request_stop()
        thread.join(30.0)
    assert not thread.is_alive()


def test_daemon_cancels_a_running_job_without_waiting_for_its_tick(tmp_path):
    daemon = ServiceDaemon(tmp_path, port=0, tick_interval=30.0)
    thread = _start_daemon(daemon)
    try:
        # Every kernel x 200 trials: a job that runs for many seconds.
        spec = _spec(kernels=[], trials=200)
        assert daemon.api.submit(spec, job_id="long")[0] == 200
        running = _await_state(daemon.store, "long", (STATE_RUNNING,), 5.0)
        assert running.state == STATE_RUNNING
        start = time.monotonic()
        assert daemon.api.cancel("long")[0] == 200
        final = _await_state(daemon.store, "long", TERMINAL_STATES, 5.0)
        assert final.state == STATE_CANCELLED
        assert time.monotonic() - start < 5.0
        assert not daemon.store.cancel_requested("long")
    finally:
        daemon.request_stop()
        thread.join(30.0)
    assert not thread.is_alive()


_FORK_PROBE = r"""
import json, os, sys

import repro.service.daemon  # what `serve` holds before its first claim
from repro.service.jobstore import params_from_spec
from repro.service.scheduler import preload_job_runtime


def repro_modules_a_job_adds(campaign_dir):
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # a job runner: the same imports and run as _job_main
        os.close(read)
        before = set(sys.modules)
        from repro.suite.executor import SuiteExecutor

        SuiteExecutor(params_from_spec(spec, campaign_dir)).run(
            write_files=True
        )
        added = sorted(
            m for m in set(sys.modules) - before if m.split(".")[0] == "repro"
        )
        with os.fdopen(write, "w") as handle:
            json.dump(added, handle)
        os._exit(0)
    os.close(write)
    with os.fdopen(read) as handle:
        added = json.load(handle)
    os.waitpid(pid, 0)
    return added


spec, root = json.loads(sys.argv[1]), sys.argv[2]
cold = repro_modules_a_job_adds(os.path.join(root, "cold"))
preload_job_runtime()
warm = repro_modules_a_job_adds(os.path.join(root, "warm"))
print(json.dumps({"cold": cold, "warm": warm}))
"""


def test_preloaded_daemon_forks_warm_job_runners(tmp_path):
    import repro

    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _FORK_PROBE, json.dumps(_spec(pack=True)),
         str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    added = json.loads(out.stdout.strip().splitlines()[-1])
    # Without the preload a job imports the kernel registry itself ...
    assert any(m.startswith("repro.kernels.") for m in added["cold"])
    # ... after it, the forked runner imports no repro module at all.
    assert added["warm"] == []


# ------------------------------------------------------------ fsck audit
def test_fsck_audits_the_job_store(tmp_path):
    store = _store(tmp_path)
    good = store.submit(_spec(), job_id="good")
    good.transition(STATE_RUNNING)
    good.transition(STATE_SUCCEEDED)
    store.save(good)
    store.cancel_path("good").touch()  # orphaned marker on a terminal job

    bad = store.submit(_spec(), job_id="torn")
    path = store.record_path("torn")
    path.write_text(path.read_text()[:33])

    dead = _dead_pid()
    store.lease_path("good").write_text(
        json.dumps({"pid": dead, "time": time.time()})
    )
    (store.jobs_dir / "good.lease.takeover").write_text(
        json.dumps({"pid": dead})
    )
    ghost = store.campaigns_dir / "no-record-here"
    ghost.mkdir()

    report = fsck_directory(tmp_path, quarantine=True)
    notes = "\n".join(report.notes)
    assert "damaged job record torn.json backed up" in notes
    assert (store.jobs_dir / "torn.json.bak").exists()
    assert "stale lease-takeover token" in notes
    assert "lease holder pid" in notes and "dead" in notes
    assert not store.lease_path("good").exists()
    assert "cancel marker for terminal job good removed" in notes
    assert not store.cancel_path("good").exists()
    assert "campaign directory no-record-here has no job record" in notes
    del bad


def test_fsck_without_quarantine_only_reports(tmp_path):
    store = _store(tmp_path)
    store.submit(_spec(), job_id="torn")
    path = store.record_path("torn")
    path.write_text("{ not a record")
    report = fsck_directory(tmp_path, quarantine=False)
    assert any("damaged job record torn.json" in n for n in report.notes)
    assert path.exists()  # report-only mode touches nothing
    assert not (store.jobs_dir / "torn.json.bak").exists()


# ------------------------------------------------------------- invariants
def test_check_job_records_parse_catches_torn_records(tmp_path):
    store = _store(tmp_path)
    store.submit(_spec(), job_id="fine")
    assert invariants.check_job_records_parse(tmp_path) == []
    store.record_path("fine").write_text("{ torn")
    violations = invariants.check_job_records_parse(tmp_path)
    assert violations and "fine.json unreadable" in violations[0]


def test_check_job_service_flags_every_divergence(tmp_path):
    store = _store(tmp_path)
    record = store.submit(_spec(), job_id="sad")
    record.transition(STATE_CANCELLED)
    store.save(record)
    (store.campaigns_dir / "mystery").mkdir()
    store.lease_path("sad").write_text(
        json.dumps({"pid": os.getpid(), "time": time.time()})
    )
    violations = invariants.check_job_service(
        tmp_path, {"sad": {"k"}, "lost": {"k"}}
    )
    text = "\n".join(violations)
    assert "job sad is CANCELLED" in text
    assert "job lost lost: no readable record" in text
    assert "campaign directory mystery has no job record" in text
    assert "terminal job sad still holds a live scheduler lease" in text


def test_service_chaos_points_are_registered():
    for name in (
        "service.pre-job-save",
        "service.post-claim",
        "service.mid-drain",
    ):
        spec = REGISTERED_POINTS[name]
        assert spec.phase == "service"
        assert spec.modes == ("service",)

    from repro.chaos.runner import MODES

    assert "service" in MODES
