#!/usr/bin/env python3
"""Repository benchmark: run one workload and print its metrics.

    python3 repobench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see ``layers.json`` for why each exists and the layers it
loads): ``execute-sweep``, ``model-sweep``, ``eda-queries`` and
``service-jobs``. Inputs are generated from ``--seed``.

With ``--trace 0`` the run prints the end-to-end metrics: ``setup_s``
(imports + the median of ``SETUP_REPEATS`` set-ups, each of which builds
the inputs and runs one warm-up operation), ``throughput_per_s``
(verified units / wall time of the whole timed phase),
``latency_p50_ms``/``latency_p90_ms`` with their sample count,
``peak_rss_mb`` (this process plus its largest child) and
``error_rate``. With ``--trace 1`` the timed phase runs in four slices,
untraced, traced, traced, untraced, and the run prints the per-layer
metrics measured from spans recorded around the program's public
functions (``layers.json`` lists them under ``spans``), plus the tracing
overhead. The last line of output is one JSON object. The exit status
is 1 when any output was wrong (a wrong warm-up answer stops the run
before it prints a result) and 2 when the arguments are invalid or the
program sources are missing. On every way out, the run stops each
process it started (supervisor workers, the service child, the
multiprocessing resource tracker, and any orphan they leave) and waits
until it has ended.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from common import OpResult  # noqa: E402

WORKLOADS = ("execute-sweep", "model-sweep", "eda-queries", "service-jobs")
LAYERS = json.loads((common.BENCH_DIR / "layers.json").read_text())
#: every per-layer metric with its unit, as ``BENCHMARK.json`` lists them
PER_LAYER = json.loads((common.ROOT / "BENCHMARK.json").read_text())["per_layer"]


def traced_layers() -> list[str]:
    """Layers with spans: each reports ``<layer>.calls_per_op`` and
    ``<layer>.failed_calls``, as the supervisor does from its manifest."""
    return list(dict.fromkeys(span.split(".")[0] for span in LAYERS["spans"]))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-test only")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def import_program() -> None:
    """Import every layer the benchmark loads (timed as part of set-up)."""
    if not (common.SRC / "repro" / "__init__.py").is_file():
        common.fail(f"program sources not found under {common.SRC}")
    sys.path.insert(0, str(common.SRC))
    import repro.analysis  # noqa: F401
    import repro.caliper.calipack  # noqa: F401
    import repro.dataframe  # noqa: F401
    import repro.service.api  # noqa: F401
    import repro.suite.executor  # noqa: F401
    import repro.suite.supervisor  # noqa: F401
    import repro.thicket  # noqa: F401


def install_tracing(tracer) -> None:
    """Wrap the functions ``layers.json`` lists under ``spans`` in spans."""

    def kernel_work(tr, args, kwargs, result):
        kernel = args[0]
        tr.counts["kernels.bytes"] += kernel.bytes_read() + kernel.bytes_written()
        tr.counts["kernels.flops"] += kernel.flops()

    def units(tr, args, kwargs, result):
        tr.counts["ingest.units"] += len(args[0])

    def hits(counter):
        def on_call(tr, args, kwargs, result):
            tr.counts[counter] += result is not None
        return on_call

    def refused(name):
        """An HTTP call answered with a non-2xx status failed."""
        def on_call(tr, args, kwargs, result):
            tr.failed[name] += result[0] >= 300
        return on_call

    hooks = {
        "kernels.run": kernel_work,
        "ingest.compose_units": units,
        "ingest_cache.load": hits("ingest_cache.hits"),
        "ingest_cache.find_prefix": hits("ingest_cache.prefix_hits"),
    }
    for name, targets in LAYERS["spans"].items():
        on_call = refused(name) if name.startswith("service.") else hooks.get(name)
        for target in targets:
            tracer.patch(target, name, on_call)


def make_workload(name: str, *args):
    """The workload ``name``, built with ``(seed, smoke, workdir, tracer,
    traced_run)``."""
    if name == "execute-sweep":
        from sweeps import ExecuteSweep
        return ExecuteSweep(*args)
    if name == "model-sweep":
        from sweeps import ModelSweep
        return ModelSweep(*args)
    if name == "eda-queries":
        from eda import EdaQueries
        return EdaQueries(*args)
    from service import ServiceJobs
    return ServiceJobs(*args)


class Phase:
    """Timed operations: totals over every operation and their wall time."""

    def __init__(self) -> None:
        self.result = OpResult()
        self.ops = 0
        self.wall = 0.0

    @property
    def per_op(self) -> float:
        return self.wall / self.ops


def timed_phase(workload, tracer, seconds: float, phase: Phase, traced: bool,
                p90: bool) -> None:
    """Run operations back to back, adding them to ``phase``, until
    ``seconds`` pass (at least one operation) and, with ``p90``, the
    latency sample supports a 90th percentile; end where the workload's
    operation mix is complete."""
    tracer.enabled = traced
    start = time.perf_counter()
    if hasattr(workload, "run_loop"):
        res = workload.run_loop(seconds, p90)
        phase.result.merge(res)
        phase.ops += max(1, len(res.latencies))
    else:
        at_boundary = getattr(workload, "at_boundary", lambda: True)
        samples = 0
        while True:
            tracer.begin_op()
            res = workload.op()
            phase.result.merge(res)
            phase.ops += 1
            samples += len(res.latencies)
            if at_boundary() and common.phase_done(
                    time.perf_counter() - start, seconds, samples, p90):
                break
    phase.wall += time.perf_counter() - start
    tracer.enabled = False


def traced_phases(workload, tracer, seconds: float) -> tuple[Phase, Phase]:
    """Untraced and traced operations in four slices of ``seconds / 4``,
    ordered untraced, traced, traced, untraced, so drift of the host
    within the run weighs on both alike. The functions are wrapped only
    while a traced slice runs."""
    untraced, traced = Phase(), Phase()
    for on in (False, True, True, False):
        if on:
            install_tracing(tracer)
        try:
            timed_phase(workload, tracer, seconds / 4, traced if on else untraced,
                        on, p90=False)
        finally:
            tracer.unpatch()
    return untraced, traced


def end_to_end(phase: Phase, setup_s: float, unit: str) -> tuple[dict, list[str]]:
    res = phase.result
    lat_ms = [x * 1e3 for x in res.latencies]
    metrics = {"setup_s": {"value": setup_s, "unit": "s"},
               "throughput_per_s": {"value": res.units / phase.wall, "unit": "1/s"}}
    lines = []
    if lat_ms:
        metrics["latency_p50_ms"] = {"value": common.percentile(lat_ms, 50),
                                     "unit": "ms"}
        if common.p90_supported(len(lat_ms)):
            metrics["latency_p90_ms"] = {"value": common.percentile(lat_ms, 90),
                                         "unit": "ms"}
        else:
            lines.append(f"latency_p90_ms: not reported, {len(lat_ms)} samples "
                         "leave fewer than ten beyond it")
    own_mb, child_mb = common.peak_rss_parts_mb()
    metrics["peak_rss_mb"] = {"value": own_mb + child_mb, "unit": "MiB"}
    lines.append(f"peak RSS: this process {own_mb:.1f} MiB, largest child "
                 f"{child_mb:.1f} MiB")
    lines.append(f"latency samples: {len(lat_ms)}; verified {unit}: {res.units}; "
                 f"timed wall: {phase.wall:.3f} s over {phase.ops} operation(s)")
    return metrics, lines


def layer_metrics(workload, tracer, untraced: Phase, traced: Phase) -> dict:
    ops = traced.ops
    values = {}
    for span in LAYERS["spans"]:  # self time per operation
        values[f"{span}_s"] = tracer.layer(span)[0] / ops
    cells = tracer.calls.get("executor.run_cell", 0)
    writes = tracer.outermost_calls("fsio.durable_write")
    values["fsio.durable_writes_per_cell"] = writes / cells if cells else 0.0
    for layer in traced_layers():
        spans = [s for s in LAYERS["spans"] if s.split(".")[0] == layer]
        _, calls, failed = tracer.layer(*spans)
        values[f"{layer}.calls_per_op"] = calls / ops
        values[f"{layer}.failed_calls"] = failed
    values["trace.overhead_frac"] = (
        (traced.per_op - untraced.per_op) / untraced.per_op)
    values.update(workload.layer_metrics(tracer, ops, traced.result.units))
    return {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    common.pin_thread_pools()
    import_program()
    import_s = time.perf_counter() - _STARTED

    from tracing import Tracer

    tracer = Tracer()
    workdir = common.fresh_dir(
        common.WORK_DIR / f"{args.workload}-{os.getpid()}")
    workload = make_workload(args.workload, args.seed, args.smoke, workdir,
                             tracer, bool(args.trace))
    try:
        setups = []
        for _ in range(common.SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setups)
        if args.trace:
            untraced, phase = traced_phases(workload, tracer, args.seconds)
        else:
            phase = Phase()
            timed_phase(workload, tracer, args.seconds, phase, False, p90=True)
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
        tracer.unpatch()
        shutil.rmtree(workdir, ignore_errors=True)

    env = common.environment(args.seed, bool(args.trace), args.workload)
    env["inputs"] = workload.describe()
    common.note("environment: " + json.dumps(env, sort_keys=True))
    common.note(f"set-up: imports {import_s:.3f} s, set-ups "
                + ", ".join(f"{s:.3f}" for s in setups) + " s")
    res = phase.result
    if args.trace:
        res = OpResult()
        res.merge(untraced.result)
        res.merge(phase.result)
        metrics = layer_metrics(workload, tracer, untraced, phase)
        trace_file = common.OUT_DIR / f"trace-{args.workload}.jsonl"
        tracer.write(trace_file)
        common.note(f"spans: {len(tracer.spans)} written to {trace_file}")
    else:
        metrics, lines = end_to_end(phase, setup_s, workload.unit)
        for line in lines:
            common.note(line)
    error_rate = res.failed / res.attempted if res.attempted else 1.0
    for name, metric in metrics.items():
        common.note(f"{name:36s} {metric['value']:.6g} {metric['unit']}")
    common.note(f"{'error_rate':36s} {error_rate:.6g} ratio "
                f"({res.failed} failed of {res.attempted} checked)")
    for problem in res.problems[:10]:
        common.note(f"wrong output: {problem}")
    correct = res.failed == 0 and res.attempted > 0
    common.emit(correct, max(res.attempted, 1), res.failed, metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    common.adopt_orphans()
    try:
        code = main()
    finally:
        common.stop_children()
    sys.exit(code)
