"""Tiny-size self-test of the benchmark: every workload, untraced and traced.

    python3 -m pytest repobench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "repobench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_smoke(workload: str, trace: str) -> None:
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert any(line.startswith("environment: ") for line in lines)
    assert any(line.startswith("error_rate") for line in lines)
    if trace == "0":
        wanted = {m["name"] for m in SPEC["end_to_end"]}
        # Tiny runs may hold too few samples to support a 90th percentile.
        assert wanted - {"latency_p90_ms"} <= set(result["metrics"]) <= wanted
    else:
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float) and metric["unit"]


def test_benchmark_json_matches_layer_catalog() -> None:
    """BENCHMARK.json lists each metric layers.json documents, plus calls
    and failed calls of every traced layer and of the supervisor."""
    counted = [f"{layer}.{kind}" for layer in [*run.traced_layers(), "supervisor"]
               for kind in ("calls_per_op", "failed_calls")]
    documented = [m["name"] for m in run.LAYERS["per_layer"]]
    assert sorted(m["name"] for m in SPEC["per_layer"]) == sorted(documented + counted)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(run.LAYERS["workloads"]) == set(run.WORKLOADS)
    for entry in run.LAYERS["per_layer"]:
        assert not entry["moves"] or entry["moves"][0] in run.WORKLOADS


def test_refuses_to_run_without_program_sources() -> None:
    bare = ROOT / ".bench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "repobench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("--workload", "model-sweep", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
