"""``service-jobs``: the campaign job service under a closed-loop client.

``rajaperf-sim serve`` runs as a child process with ``--max-parallel``
set to ``nproc``. One client thread per tenant (two tenants) loops:
submit a small packed model-only job drawn from a seeded spec pool that
repeats specs, poll its status every ``POLL_S`` seconds until it is
terminal, fetch its result, then a status, a tenant listing and the
result of one of the tenant's older jobs. Every result must equal
``analysis_payload`` of a direct compose of the same spec, run in this
process during set-up.

The service keeps the newest ``RETAIN_JOBS`` terminal jobs, so the job
store, which every listing and every scheduler tick scans, holds the
same number of records however fast the run goes.
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.parse import quote

from common import SRC, OpResult, nproc, phase_done
from repro.service.api import http_json

METRIC = "Avg time/rank"
# The job mix below is chosen, not taken from measured service traffic;
# ``layers.json`` gives the reason for each choice under ``service-jobs``.
POLL_S = 0.02  # client status-poll cadence, seconds
TENANTS = ("tenant-a", "tenant-b")
RETAIN_JOBS = 32  # --retention-keep: terminal jobs the service keeps
POOL_SPECS = 6  # distinct specs; each client draws from them with repeats
HISTORY = 4  # the "older job" is one of the tenant's last HISTORY jobs
JOB_TIMEOUT_S = 60.0  # a job not terminal by then counts as failed
HTTP_TIMEOUT_S = 60.0
_KERNELS = (
    "Basic_DAXPY", "Basic_MULADDSUB", "Stream_TRIAD", "Stream_ADD",
    "Stream_COPY", "Lcals_HYDRO_1D", "Polybench_JACOBI_1D", "Apps_VOL3D",
)
_MACHINE_VARIANTS = {
    "SPR-DDR": ("Base_Seq", "RAJA_Seq"),
    "SPR-HBM": ("Base_OpenMP", "RAJA_OpenMP"),
    "P9-V100": ("Base_CUDA", "RAJA_CUDA"),
    "EPYC-MI250X": ("Base_HIP", "RAJA_HIP"),
}
_TERMINAL = ("SUCCEEDED", "FAILED", "CANCELLED", "ORPHANED")


class ServiceJobs:
    """Two-tenant closed loop against a ``serve`` child process."""

    unit = "jobs"

    def __init__(self, seed: int, smoke: bool, workdir: Path, tracer,
                 traced_run: bool) -> None:
        self.rng = random.Random(seed)
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.tracer = tracer
        self.proc: subprocess.Popen | None = None
        self.url = ""
        self.seq = 0
        self.history: dict[str, list[tuple[str, int]]] = {t: [] for t in TENANTS}
        self.stats = {"submits": 0, "rejected": 0, "polls": 0, "jobs": 0}
        self.job_wait: list[float] = []
        self._lock = threading.Lock()

    def describe(self) -> dict:
        return {"tenants": len(TENANTS), "poll_s": POLL_S,
                "max_parallel": nproc(), "retention_keep": RETAIN_JOBS,
                "spec_pool": POOL_SPECS}

    # ----------------------------------------------------------- endpoints
    # The traced run wraps each of these in spans (``layers.json``).
    def _submit(self, spec, tenant, job_id):
        return http_json(f"{self.url}/api/jobs",
                         {"spec": spec, "tenant": tenant, "job_id": job_id},
                         timeout=HTTP_TIMEOUT_S)

    def _status(self, job_id):
        return http_json(f"{self.url}/api/jobs/{job_id}", timeout=HTTP_TIMEOUT_S)

    def _list(self, tenant):
        return http_json(f"{self.url}/api/jobs?tenant={tenant}",
                         timeout=HTTP_TIMEOUT_S)

    def _result(self, job_id):
        return http_json(
            f"{self.url}/api/jobs/{job_id}/result?metric={quote(METRIC)}",
            timeout=HTTP_TIMEOUT_S)

    # -------------------------------------------------------------- set-up
    def _spec(self, rng: random.Random) -> dict:
        machine = rng.choice(sorted(_MACHINE_VARIANTS))
        kernels = _KERNELS[:2] if self.smoke else sorted(rng.sample(_KERNELS, 4))
        return {
            "problem_size": rng.choice(("1M", "4M", "16M")),
            "machines": [machine],
            "variants": list(_MACHINE_VARIANTS[machine]),
            "kernels": kernels,
            "gpu_block_sizes": [256],
            "trials": 2,
            "pack": True,
        }

    def _direct_payload(self, spec: dict, out: Path) -> dict:
        from repro.service.api import analysis_payload, campaign_sources
        from repro.service.jobstore import params_from_spec
        from repro.suite.executor import SuiteExecutor
        from repro.thicket import Thicket

        SuiteExecutor(params_from_spec(spec, out)).run(write_files=True)
        thicket = Thicket.from_caliperreader(campaign_sources(out))
        # The same JSON round trip the service's response goes through.
        return json.loads(json.dumps(analysis_payload(thicket, METRIC)))

    def setup(self) -> None:
        self.close()
        self.seq += 1
        root = self.workdir / f"setup-{self.seq}"
        self.pool = [self._spec(self.rng) for _ in range(POOL_SPECS)]
        self.answers = [
            self._direct_payload(spec, root / "direct" / f"spec-{i}")
            for i, spec in enumerate(self.pool)
        ]
        self._start(root / "service")
        self.tenant_rngs = {
            t: random.Random(f"{self.seed}/{t}/{self.seq}") for t in TENANTS}
        self.history = {t: [] for t in TENANTS}
        res = OpResult()
        for tenant in TENANTS:  # warm-up: one job per tenant
            self._job(tenant, res)
        if res.failed:
            raise RuntimeError("warm-up job failed: " + "; ".join(res.problems[:3]))

    def _start(self, root: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        cmd = [
            sys.executable, "-c",
            "import sys; from repro.cli.main import main; sys.exit(main(sys.argv[1:]))",
            "serve", str(root), "--port", "0",
            "--max-parallel", str(nproc()),
            "--retention-keep", str(RETAIN_JOBS),
            "--retention-interval", "0.5",
        ]
        self.proc = subprocess.Popen(
            cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        line = self.proc.stdout.readline()
        if " at http://" not in line:
            self.close()
            raise RuntimeError(f"service did not start: {line!r}")
        self.url = line.rsplit(" at ", 1)[1].strip()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                if http_json(f"{self.url}/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.05)
        raise RuntimeError("service never became healthy")

    def close(self) -> None:
        """Drain and stop the service child, and wait until it has ended."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    # ---------------------------------------------------------- the loop
    def _job(self, tenant: str, res: OpResult) -> None:
        """One closed-loop iteration; appends one latency sample."""
        self.tracer.begin_op()
        rng = self.tenant_rngs[tenant]
        index = rng.randrange(len(self.pool))
        with self._lock:
            self.seq += 1
            job_id = f"{tenant}-{self.seq:06d}"
        start = time.perf_counter()
        code, body = self._submit(self.pool[index], tenant, job_id)
        if self.tracer.enabled:
            with self._lock:
                self.stats["submits"] += 1
                self.stats["rejected"] += code == 429
        if code != 200:
            res.check(False, f"submit {job_id}: HTTP {code} {body}")
            return
        polls, state = 0, body["job"]["state"]
        while state not in _TERMINAL and time.perf_counter() - start < JOB_TIMEOUT_S:
            time.sleep(POLL_S)
            code, body = self._status(job_id)
            polls += 1
            state = body.get("job", {}).get("state") if code == 200 else None
        wait = time.perf_counter() - start
        ok = state == "SUCCEEDED"
        code, body = self._result(job_id)
        ok = ok and code == 200 and body.get("result") == self.answers[index]
        code, _ = self._status(job_id)
        ok = ok and code == 200
        code, body = self._list(tenant)
        ok = ok and code == 200 and any(
            j["job_id"] == job_id for j in body.get("jobs", []))
        older = self.history[tenant]
        if older:
            old_id, old_index = rng.choice(older)
            code, body = self._result(old_id)
            ok = ok and code == 200 and body.get("result") == self.answers[old_index]
        res.latencies.append(time.perf_counter() - start)
        older.append((job_id, index))
        del older[:-HISTORY]
        if self.tracer.enabled:
            with self._lock:
                self.stats["polls"] += polls
                self.stats["jobs"] += 1
                self.job_wait.append(wait)
        if res.check(ok, f"job {job_id}: state={state}, result differs "
                     "from the direct compose"):
            res.units += 1

    def run_loop(self, seconds: float, p90: bool) -> OpResult:
        """Both tenants loop until ``seconds`` pass and, with ``p90``, the
        jobs support a 90th percentile; each finishes its job."""
        start = time.perf_counter()
        results = {t: OpResult() for t in TENANTS}
        errors: list[BaseException] = []

        def done() -> bool:
            samples = sum(len(r.latencies) for r in results.values())
            return phase_done(time.perf_counter() - start, seconds, samples, p90)

        def client(tenant: str) -> None:
            try:
                while not done():
                    self._job(tenant, results[tenant])
            except BaseException as exc:  # surfaced by the caller
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(t,)) for t in TENANTS]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        total = OpResult()
        for res in results.values():
            total.merge(res)
        return total

    # ------------------------------------------------------------- layers
    def layer_metrics(self, tracer, ops: int, units: int) -> dict:
        def p50_ms(name: str) -> float:
            durations = [e - s for _, n, s, e, _ in tracer.spans if n == name]
            return statistics.median(durations) * 1e3 if durations else 0.0

        jobs, submits = self.stats["jobs"], self.stats["submits"]
        return {
            "service.submit_ms": p50_ms("service.submit"),
            "service.status_ms": p50_ms("service.status"),
            "service.list_ms": p50_ms("service.list"),
            "service.result_ms": p50_ms("service.result"),
            "service.job_wait_ms": (
                statistics.median(self.job_wait) * 1e3 if self.job_wait else 0.0),
            "service.polls_per_job": self.stats["polls"] / jobs if jobs else 0.0,
            "service.rejected_ratio": (
                self.stats["rejected"] / submits if submits else 0.0),
        }
