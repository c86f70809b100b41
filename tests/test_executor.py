"""The suite executor: profiles, metadata, counters, compatibility."""

import numpy as np
import pytest

from repro.machines.registry import EPYC_MI250X, P9_V100, SPR_DDR
from repro.suite import Group, RunParams, SuiteExecutor
from repro.suite.executor import _variant_compatible
from repro.suite.variants import get_variant


@pytest.fixture(scope="module")
def stream_run():
    params = RunParams(
        problem_size="32M",
        variants=("RAJA_Seq", "RAJA_CUDA", "RAJA_HIP"),
        groups=(Group.STREAM,),
    )
    return SuiteExecutor(params).run()


class TestCompatibility:
    def test_cpu_machines_run_seq_and_openmp(self):
        assert _variant_compatible(get_variant("RAJA_Seq"), SPR_DDR)
        assert _variant_compatible(get_variant("Base_OpenMP"), SPR_DDR)
        assert not _variant_compatible(get_variant("RAJA_CUDA"), SPR_DDR)

    def test_cuda_only_on_nvidia(self):
        assert _variant_compatible(get_variant("RAJA_CUDA"), P9_V100)
        assert not _variant_compatible(get_variant("RAJA_CUDA"), EPYC_MI250X)

    def test_hip_only_on_amd(self):
        assert _variant_compatible(get_variant("RAJA_HIP"), EPYC_MI250X)
        assert not _variant_compatible(get_variant("RAJA_HIP"), P9_V100)

    def test_sycl_runs_on_both_gpus(self):
        assert _variant_compatible(get_variant("RAJA_SYCL"), P9_V100)
        assert _variant_compatible(get_variant("RAJA_SYCL"), EPYC_MI250X)


class TestRun:
    def test_one_profile_per_compatible_combo(self, stream_run):
        # RAJA_Seq on 2 CPUs + RAJA_CUDA on V100 + RAJA_HIP on MI250X.
        assert len(stream_run.profiles) == 4

    def test_profile_globals_carry_metadata(self, stream_run):
        for profile in stream_run.profiles:
            for key in ("variant", "machine", "problem_size", "mpi_ranks", "tuning"):
                assert key in profile.globals

    def test_region_tree_structure(self, stream_run):
        profile = stream_run.profiles[0]
        names = profile.region_names()
        assert names[0] == "RAJAPerf"
        assert "Stream" in names and "Stream_TRIAD" in names

    def test_cpu_profiles_carry_topdown_counters(self, stream_run):
        cpu = next(p for p in stream_run.profiles if p.globals["machine"] == "SPR-DDR")
        node = cpu.find(("RAJAPerf", "Stream", "Stream_TRIAD"))
        assert "perf::slots" in node.metrics
        assert "perf::topdown-be-bound:memory" in node.metrics

    def test_gpu_profiles_carry_ncu_counters(self, stream_run):
        gpu = next(p for p in stream_run.profiles if p.globals["machine"] == "P9-V100")
        node = gpu.find(("RAJAPerf", "Stream", "Stream_TRIAD"))
        assert "sm__sass_thread_inst_executed.sum" in node.metrics
        assert "time (gpu)" in node.metrics

    def test_analytic_metrics_attached(self, stream_run):
        node = stream_run.profiles[0].find(("RAJAPerf", "Stream", "Stream_TRIAD"))
        assert node.metrics["bytes_read"] == pytest.approx(16.0)
        assert node.metrics["flops_per_byte"] == pytest.approx(2.0 / 24.0)

    def test_gpu_tunings_produce_one_profile_each(self):
        params = RunParams(
            variants=("RAJA_CUDA",),
            machines=("P9-V100",),
            kernels=("Stream_TRIAD",),
            gpu_block_sizes=(128, 256, 512),
        )
        result = SuiteExecutor(params).run()
        tunings = sorted(p.globals["tuning"] for p in result.profiles)
        assert tunings == ["block_128", "block_256", "block_512"]

    def test_execute_mode_records_wall_time_and_checksum(self):
        params = RunParams(
            variants=("RAJA_Seq",),
            machines=("SPR-DDR",),
            kernels=("Basic_DAXPY",),
            execute=True,
            execution_size_cap=5_000,
        )
        result = SuiteExecutor(params).run()
        node = result.profiles[0].find(("RAJAPerf", "Basic", "Basic_DAXPY"))
        assert node.metrics["wall time (executed)"] > 0
        assert "checksum" in node.metrics

    def test_write_files(self, tmp_path):
        params = RunParams(
            variants=("RAJA_Seq",),
            machines=("SPR-DDR",),
            kernels=("Stream_TRIAD",),
            output_dir=str(tmp_path),
        )
        result = SuiteExecutor(params).run(write_files=True)
        assert len(result.cali_paths) == 1
        assert result.cali_paths[0].exists()

    def test_paper_configuration_is_table3(self):
        params = RunParams(kernels=("Stream_TRIAD",))
        result = SuiteExecutor(params).run_paper_configuration()
        combos = {(p.globals["machine"], p.globals["variant"]) for p in result.profiles}
        assert combos == {
            ("SPR-DDR", "RAJA_Seq"),
            ("SPR-HBM", "RAJA_Seq"),
            ("P9-V100", "RAJA_CUDA"),
            ("EPYC-MI250X", "RAJA_HIP"),
        }

    def test_reps_scale_recorded_time(self):
        base = RunParams(variants=("RAJA_Seq",), machines=("SPR-DDR",),
                         kernels=("Stream_TRIAD",), reps=1)
        many = RunParams(variants=("RAJA_Seq",), machines=("SPR-DDR",),
                         kernels=("Stream_TRIAD",), reps=10)
        t1 = (
            SuiteExecutor(base).run().profiles[0]
            .find(("RAJAPerf", "Stream", "Stream_TRIAD")).metrics["Avg time/rank"]
        )
        t10 = (
            SuiteExecutor(many).run().profiles[0]
            .find(("RAJAPerf", "Stream", "Stream_TRIAD")).metrics["Avg time/rank"]
        )
        assert t10 == pytest.approx(10 * t1, rel=1e-9)


class TestModelMemo:
    """Model quantities are pure in their keys: one executor computes
    each once, however many records share it."""

    def test_model_work_and_prediction_computed_once(self, monkeypatch):
        from collections import Counter

        from repro.suite.kernel_base import KernelBase

        calls: Counter = Counter()

        def counting(name, key_fn):
            original = getattr(KernelBase, name)

            def wrapper(self, *args, **kwargs):
                calls[(name,) + key_fn(self, *args, **kwargs)] += 1
                return original(self, *args, **kwargs)

            monkeypatch.setattr(KernelBase, name, wrapper)

        counting("work_profile", lambda k, reps=1: (type(k), k.problem_size,
                                                    reps))
        counting("effective_traits",
                 lambda k, *a, **kw: (type(k), k.problem_size))
        counting("predict", lambda k, machine, variant=None, block_size=None,
                 **kw: (type(k), machine.shorthand, variant.name, block_size))
        params = RunParams(
            problem_size="1M",
            machines=("SPR-DDR", "SPR-HBM", "P9-V100"),
            variants=("Base_Seq", "RAJA_Seq", "RAJA_CUDA"),
            kernels=("Basic_DAXPY", "Stream_TRIAD"),
            gpu_block_sizes=(128, 256),
            trials=3,
            reps=5,
        )
        result = SuiteExecutor(params).run()
        # 2 kernels x (2 CPU machines x 2 seq variants + 2 GPU blocks) x 3
        assert len(result.report.records) == 2 * (2 * 2 + 2) * 3
        assert calls and set(calls.values()) == {1}
        # per class: reps=5 for the profile, one repetition to predict
        assert sum(1 for k in calls if k[0] == "work_profile") == 2 * 2
        assert sum(1 for k in calls if k[0] == "predict") == 2 * (2 * 2 + 2)

    def test_memoised_profiles_match_a_fresh_kernel(self):
        from repro.perfmodel.noise import noisy_time
        from repro.suite.registry import get_kernel_class

        params = RunParams(
            problem_size="1M", machines=("P9-V100",),
            variants=("RAJA_CUDA",), kernels=("Stream_TRIAD",),
            gpu_block_sizes=(128,), trials=2, reps=3,
        )
        result = SuiteExecutor(params).run()
        kernel = get_kernel_class("Stream_TRIAD")(problem_size="1M")
        for trial, profile in enumerate(result.profiles):
            node = next(n for n in profile.walk() if n.name == "Stream_TRIAD")
            expected = noisy_time(
                kernel.predict(P9_V100, get_variant("RAJA_CUDA"),
                               block_size=128).total_seconds * 3,
                "Stream_TRIAD", "P9-V100", trial, params.noise_sigma,
            )
            assert node.metrics["Avg time/rank"] == expected
            assert node.metrics["iterations"] == (
                kernel.work_profile(reps=3).iterations
            )
