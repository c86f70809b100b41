"""Campaign workloads: ``execute-sweep`` and ``model-sweep``.

Both drive ``SuiteExecutor`` the way ``rajaperf-sim run --pack`` does:
one fresh executor per operation, writing a packed campaign into a new
directory.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

from common import OpResult, nproc

#: CPU machines an executed sweep may draw; execution cost is the same
#: on either (the host runs the kernels), only the modelled numbers differ
_CPU_MACHINES = ("SPR-DDR", "SPR-HBM")
_SMOKE_KERNELS = ("Basic_DAXPY", "Stream_TRIAD", "Lcals_HYDRO_1D")


class ExecuteSweep:
    """All 76 kernels executed: Base_Seq/RAJA_Seq on one CPU machine and
    RAJA_CUDA (block 256) on the V100 machine, two trials.

    The unit is a kernel record whose ``checksum_ok`` is true; latency is
    each record's executed set-up time plus run time as the profile
    records them. Every operation starts from an empty kernel-state pool,
    as each CLI run and service job runner does, so pool certification
    and the Base_Seq reference checksums are inside the timed operation.
    """

    unit = "records"

    def __init__(self, seed: int, smoke: bool, workdir: Path, tracer,
                 traced_run: bool) -> None:
        self.cpu = random.Random(seed).choice(_CPU_MACHINES)
        self.tracer = tracer
        self.size = "2K" if smoke else "20K"
        self.kernels = _SMOKE_KERNELS if smoke else ()
        self.workdir = workdir
        self.seq = 0
        self.pool = {"hits": 0, "misses": 0, "fallbacks": 0}

    def describe(self) -> dict:
        return {"cpu_machine": self.cpu, "problem_size": self.size,
                "trials": 2, "workers": 1}

    def _params(self, out: Path):
        from repro.suite.run_params import RunParams

        return RunParams(
            problem_size=self.size,
            variants=("Base_Seq", "RAJA_Seq", "RAJA_CUDA"),
            machines=(self.cpu, "P9-V100"),
            kernels=self.kernels,
            gpu_block_sizes=(256,),
            execute=True,
            trials=2,
            pack=True,
            output_dir=str(out),
            workers=1,
        )

    def setup(self) -> None:
        self.op()

    def op(self) -> OpResult:
        from repro.caliper import calipack
        from repro.suite.executor import SuiteExecutor

        self.seq += 1
        out = self.workdir / f"campaign-{self.seq}"
        executor = SuiteExecutor(self._params(out))
        result = executor.run(write_files=True)
        res = OpResult()
        for record in result.report.records:
            if res.check(
                record.status == "ok" and record.checksum_ok is True,
                f"{record.kernel}/{record.variant}/trial{record.trial}: "
                f"status={record.status} checksum_ok={record.checksum_ok}",
            ):
                res.units += 1
        for profile in result.profiles:
            for node in profile.walk():
                wall = node.metrics.get("wall time (executed)")
                if wall is not None:
                    res.latencies.append(
                        node.metrics.get("setup time (executed)", 0.0) + wall
                    )
        entries = calipack.load_entries(out / calipack.ARCHIVE_NAME)
        res.check(len(entries) == len(result.profiles),
                  f"archive holds {len(entries)} of {len(result.profiles)} profiles")
        if self.tracer.enabled:
            for key, value in executor.state_pool.stats().items():
                if key in self.pool:
                    self.pool[key] += value
        return res

    def layer_metrics(self, tracer, ops: int, records: int) -> dict:
        run_s, runs, _ = tracer.layer("kernels.run")
        hits, misses = self.pool["hits"], self.pool["misses"]
        return {
            "kernels.runs_per_record": runs / records,
            "kernels.computed_gb_per_s": (
                tracer.counts["kernels.bytes"] / run_s / 1e9 if run_s else 0.0),
            "kernels.gflop_per_s": (
                tracer.counts["kernels.flops"] / run_s / 1e9 if run_s else 0.0),
            "state_pool.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        }


#: every variant of the suite; the executor keeps the ones each machine runs
_VARIANTS = (
    "Base_Seq", "RAJA_Seq", "Base_OpenMP", "RAJA_OpenMP", "Base_OMPTarget",
    "RAJA_OMPTarget", "Base_CUDA", "RAJA_CUDA", "Base_HIP", "RAJA_HIP",
    "Base_SYCL", "RAJA_SYCL", "Kokkos_Lambda",
)
_MACHINES = ("SPR-DDR", "SPR-HBM", "P9-V100", "EPYC-MI250X")
_BLOCKS = (128, 256, 512, 1024)
_SIZES = ("8M", "16M", "32M", "64M")


class ModelSweep:
    """A model-only packed campaign: 13 variants x 4 machines x 4 GPU
    block sizes x 2 trials, 116 cells of every kernel.

    The supervisor runs it with ``nproc`` workers and default scheduling;
    each archive must be byte-identical to a single-process reference
    built during set-up. The unit is a kernel record; latency is per
    cell, the manifest's ``elapsed_s``. A traced run's operations use one
    worker, because spans recorded in forked workers never reach this
    process; its ``supervisor.*`` metrics come from the untraced set-up
    campaigns, which use ``nproc`` workers.
    """

    unit = "records"

    def __init__(self, seed: int, smoke: bool, workdir: Path, tracer,
                 traced_run: bool) -> None:
        self.size = random.Random(seed).choice(_SIZES)
        self.kernels = _SMOKE_KERNELS if smoke else ()
        self.workdir = workdir
        # Both halves of a traced run use one worker, so the tracing
        # overhead compares like with like.
        self.workers = 1 if traced_run else nproc()
        self.seq = 0
        self.reference = b""
        self.reference_profiles = 0
        #: (wall, sum of cell elapsed_s, workers, cells, cells not ok)
        self.supervised: list[tuple[float, float, int, int, int]] = []

    def describe(self) -> dict:
        return {"problem_size": self.size, "trials": 2,
                "workers": self.workers, "setup_workers": nproc()}

    def _params(self, out: Path, workers: int):
        from repro.suite.run_params import RunParams

        return RunParams(
            problem_size=self.size,
            variants=_VARIANTS,
            machines=_MACHINES,
            kernels=self.kernels,
            gpu_block_sizes=_BLOCKS,
            trials=2,
            pack=True,
            output_dir=str(out),
            workers=workers,
        )

    def _campaign(self, workers: int):
        from repro.suite.executor import SuiteExecutor

        self.seq += 1
        out = self.workdir / f"campaign-{self.seq}"
        start = time.perf_counter()
        result = SuiteExecutor(self._params(out, workers)).run(write_files=True)
        return out, result, time.perf_counter() - start

    def setup(self) -> None:
        from repro.caliper.calipack import ARCHIVE_NAME

        out, result, _ = self._campaign(workers=1)
        self.reference = (out / ARCHIVE_NAME).read_bytes()
        self.reference_profiles = len(result.profiles)
        # Workers forked by the next campaign would inherit the profiles
        # and count them in their resident memory.
        del result
        res = self._checked(workers=nproc())
        if res.failed:
            raise RuntimeError("warm-up campaign failed: "
                               + "; ".join(res.problems[:3]))

    def op(self) -> OpResult:
        return self._checked(self.workers)

    def _checked(self, workers: int) -> OpResult:
        from repro.caliper.calipack import ARCHIVE_NAME

        out, result, wall = self._campaign(workers)
        res = OpResult()
        identical = (out / ARCHIVE_NAME).read_bytes() == self.reference
        with open(out / "campaign_manifest.json", encoding="utf-8") as handle:
            cells = json.load(handle)["cells"]
        elapsed, not_ok = 0.0, 0
        for key, cell in sorted(cells.items()):
            not_ok += cell.get("status") != "ok"
            if res.check(identical and cell.get("status") == "ok",
                         f"cell {key}: status={cell.get('status')} "
                         f"archive_identical={identical}"):
                res.latencies.append(cell["elapsed_s"])
                elapsed += cell["elapsed_s"]
        res.check(len(cells) == len(result.profiles),
                  f"manifest holds {len(cells)} of {len(result.profiles)} cells")
        if identical:
            res.units = sum(1 for r in result.report.records if r.status == "ok")
        if workers > 1:
            self.supervised.append((wall, elapsed, workers, len(cells), not_ok))
        return res

    def layer_metrics(self, tracer, ops: int, records: int) -> dict:
        # Campaigns of the set-up phase: untraced and supervised.
        busy = [e / (w * wall) for wall, e, w, _, _ in self.supervised]
        overhead = [wall - e / w for wall, e, w, _, _ in self.supervised]
        return {
            "supervisor.calls_per_op": (
                sum(s[3] for s in self.supervised) / len(self.supervised)),
            "supervisor.failed_calls": sum(s[4] for s in self.supervised),
            "supervisor.busy_ratio": sum(busy) / len(busy),
            "supervisor.overhead_s": sum(overhead) / len(overhead),
            "calipack.bytes_per_profile": (
                len(self.reference) / self.reference_profiles),
        }
