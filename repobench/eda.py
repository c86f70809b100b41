"""``eda-queries``: Thicket exploration of a packed campaign.

A closed loop, one client, runs blocks of twenty operations: seven kinds
of read and one write. Within a block the order is shuffled from the
seed, and a run ends on a block boundary, so every run does the same mix
whatever its seed or speed.

Every answer is checked against an eager answer computed during set-up
from one full compose (no cache, no pushdown, no lazy plan), with plain
Python standing in for the query engine and the analyses.

A write appends a four-profile segment to a working copy of the campaign
and composes it with ``incremental=True``. Before each write the working
archive and its cache are reset to the base campaign, so writes never
grow the data that later reads scan, and each write composes exactly one
segment on top of a cached prefix.
"""

from __future__ import annotations

import itertools
import math
import random
import shutil
import time
from pathlib import Path

import numpy as np

from common import OpResult

METRIC = "Avg time/rank"
KERNEL_DEPTH = 3  # RAJAPerf -> group -> kernel
#: one block of operations; each kind's count is its weight in the mix.
#: No record of how Thicket EDA sessions are used exists to take these
#: weights from, so they are chosen, not measured (``layers.json`` gives
#: the reason for each under ``eda-queries``/``mix``). A block holds a
#: whole cycle of each parametrised kind (4 where machines, 3 lazy cuts,
#: 3 tune inputs), so every block costs the same whatever the seed, and
#: the two heaviest kinds (cold compose, write) make up the top 15% of
#: operations, so the 90th latency percentile falls inside the writes
#: rather than on a boundary between two kinds.
BLOCK = (
    ("cold_compose",) * 1 + ("write",) * 2 + ("where_compose",) * 4
    + ("cached_compose",) * 3 + ("lazy_groupby",) * 3 + ("metric_matrix",) * 2
    + ("tune",) * 3 + ("topdown",) * 2
)
_SEGMENT = 4  # profiles appended by one write
_SEGMENTS = 4  # distinct segments a write may draw


def _campaign_params(out: Path, smoke: bool, trials: int, size: str):
    from repro.suite.run_params import RunParams

    return RunParams(
        problem_size=size,
        variants=("Base_Seq", "RAJA_Seq", "RAJA_OpenMP", "Base_CUDA",
                  "RAJA_CUDA", "RAJA_HIP"),
        machines=("SPR-DDR", "SPR-HBM", "P9-V100", "EPYC-MI250X"),
        kernels=("Basic_DAXPY", "Stream_TRIAD", "Lcals_HYDRO_1D") if smoke else (),
        gpu_block_sizes=(128, 256, 512, 1024),
        trials=trials,
        pack=True,
        output_dir=str(out),
    )


def _frames_equal(thicket, dataframe, metadata) -> bool:
    return thicket.dataframe.equals(dataframe) and thicket.metadata.equals(metadata)


class EdaQueries:
    """Seeded closed loop of Thicket reads and incremental-compose writes."""

    unit = "operations"

    def __init__(self, seed: int, smoke: bool, workdir: Path, tracer,
                 traced_run: bool) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.smoke = smoke
        self.workdir = workdir
        self.tracer = tracer
        self.size = self.rng.choice(("8M", "16M", "32M", "64M"))
        self.queue: list[str] = []
        self.seq = 0
        self.read_ops = 0
        self.read_units = 0.0  # profiles composed during reads (traced)
        self.pushdown = [0.0, 0]  # entries composed, entries present

    def describe(self) -> dict:
        return {"problem_size": self.size,
                "block": {k: BLOCK.count(k) for k in dict.fromkeys(BLOCK)},
                "segment_profiles": _SEGMENT, "clients": 1}

    # ------------------------------------------------------------ set-up
    def setup(self) -> None:
        from repro.caliper.calipack import ARCHIVE_NAME, load_entries
        from repro.suite.executor import SuiteExecutor
        from repro.thicket import Thicket

        self.seq += 1
        root = self.workdir / f"setup-{self.seq}"
        base_dir = root / "base"
        SuiteExecutor(_campaign_params(base_dir, self.smoke, 2, self.size)).run(
            write_files=True)
        self.archive = base_dir / ARCHIVE_NAME
        self.base_bytes = self.archive.read_bytes()
        self.entries = len(load_entries(self.archive))
        self.cold_cache = root / "cold-cache"
        self.warm_cache = root / "warm-cache"
        self.write_archive = root / "write" / ARCHIVE_NAME
        self.write_cache = root / "write-cache"

        ref = Thicket.from_caliperreader(str(self.archive))
        self.ref = ref
        self._build_read_answers(ref)
        self._build_segments(root)
        self.where_cycle = self._cycle(self.where_answers)
        self.lazy_cycle = self._cycle(self.lazy_answers)
        self.tune_cycle = self._cycle(self.tune_inputs)
        self.segment_cycle = self._cycle(self.segments)

        # Warm the read cache, and keep its file so every write can start
        # from a cache holding exactly the base campaign.
        Thicket.from_caliperreader(str(self.archive), cache=self.warm_cache)
        (self.base_cache_file,) = self.warm_cache.glob("thicket-*")

        res = OpResult()
        for kind in dict.fromkeys(BLOCK):  # one warm-up of every kind
            self._run(kind, res)
        if res.failed:
            raise RuntimeError("warm-up read failed: " + "; ".join(res.problems[:3]))

    def _build_read_answers(self, ref) -> None:
        from repro.cpusim import PAPI_COUNTER_NAMES

        df, md = ref.dataframe, ref.metadata
        names = [str(n) for n in df["name"]]
        profiles = list(df["profile"])
        md_rows = md.to_records()

        # where: one machine's profiles, pushed into the archive index
        machines = sorted({str(r["machine"]) for r in md_rows})
        self.where_answers = {}
        for machine in machines:
            keep_md = [str(r["machine"]) == machine for r in md_rows]
            kept = {r["profile"] for r, k in zip(md_rows, keep_md) if k}
            keep_df = [p in kept for p in profiles]
            self.where_answers[machine] = (df.take(np.array(keep_df)),
                                           md.take(np.array(keep_md)))

        # lazy: per-profile sum of the metric over kernel rows above a cut
        values = [float(v) for v in df[METRIC]]
        depths = [int(d) for d in df["depth"]]
        finite = sorted(v for v, d in zip(values, depths) if d == KERNEL_DEPTH and v == v)
        self.lazy_cuts = [finite[len(finite) * q // 4] for q in (1, 2, 3)]
        self.lazy_answers = {}
        for cut in self.lazy_cuts:
            sums: dict = {}
            for p, v, d in zip(profiles, values, depths):
                if d == KERNEL_DEPTH and v > cut:
                    sums[p] = sums.get(p, 0.0) + v
            self.lazy_answers[cut] = sums

        # metric_matrix over kernel regions
        regions = list(dict.fromkeys(n for n in names if "_" in n))
        cols = list(dict.fromkeys(md["profile"].tolist()))
        matrix = [[math.nan] * len(cols) for _ in regions]
        r_at = {r: i for i, r in enumerate(regions)}
        c_at = {c: j for j, c in enumerate(cols)}
        for n, p, v in zip(names, profiles, values):
            if n in r_at and v == v:
                matrix[r_at[n]][c_at[p]] = v
        self.matrix_answer = (regions, cols, matrix)

        # tune: best block per kernel, one GPU machine+variant's profiles
        gpu = [r for r in md_rows if str(r["tuning"]).startswith("block_")]
        groups = sorted({(str(r["machine"]), str(r["variant"])) for r in gpu})
        self.tune_inputs = []
        for machine, variant in groups:
            keep_md = [str(r["machine"]) == machine and str(r["variant"]) == variant
                       for r in md_rows]
            kept = {r["profile"]: int(str(r["tuning"]).rsplit("_", 1)[1])
                    for r, k in zip(md_rows, keep_md) if k}
            best: dict = {}
            for n, p, v in zip(names, profiles, values):
                if p in kept and "_" in n and v == v:
                    if n not in best or v < best[n][0]:
                        best[n] = (v, kept[p])
            sub = type(ref)(df.take(np.array([p in kept for p in profiles])),
                            md.take(np.array(keep_md)))
            self.tune_inputs.append(
                (sub, {k: block for k, (_, block) in best.items()}))

        # topdown: TMA fractions of every kernel row of the CPU profiles
        counter_cols = [c for c in PAPI_COUNTER_NAMES if c in df]
        self.topdown_rows = []
        for i, n in enumerate(names):
            if "_" not in n or depths[i] != KERNEL_DEPTH:
                continue
            counters = {c: float(df[c][i]) for c in counter_cols}
            slots = counters.get("perf::slots", math.nan)
            if not slots > 0:
                continue
            expect = (
                counters["perf::topdown-fe-bound"] / slots,
                counters["perf::topdown-bad-spec"] / slots,
                counters["perf::topdown-retiring"] / slots,
                counters["perf::topdown-be-bound:core"] / slots,
                counters["perf::topdown-be-bound:memory"] / slots,
            )
            self.topdown_rows.append((counters, expect))

    def _build_segments(self, root: Path) -> None:
        """Extra trials of the base cells, grouped into write segments, with
        the eager full compose of base + segment for each."""
        from repro.caliper.calipack import CalipackWriter
        from repro.suite.executor import SuiteExecutor
        from repro.thicket import Thicket

        extra = SuiteExecutor(
            _campaign_params(root / "extra", self.smoke, 2 + _SEGMENTS, self.size))
        cells = [c for c in extra.build_cells() if c.trial >= 2]
        self.segments = []
        for k in range(_SEGMENTS):
            chosen = self.rng.sample(cells, _SEGMENT)
            profiles = [(c.fname, extra.run_cell(c, write_files=False).profile)
                        for c in chosen]
            full = root / f"full-{k}.calipack"
            full.write_bytes(self.base_bytes)
            with CalipackWriter(full) as writer:
                for name, profile in profiles:
                    writer.append_profile(name, profile)
            answer = Thicket.from_caliperreader(str(full))
            self.segments.append((profiles, answer.dataframe, answer.metadata))

    def _cycle(self, items):
        order = list(items)
        self.rng.shuffle(order)
        return itertools.cycle(order)

    # --------------------------------------------------------- operations
    def op(self) -> OpResult:
        if not self.queue:
            self.queue = list(BLOCK)
            self.rng.shuffle(self.queue)
        res = OpResult()
        self._run(self.queue.pop(), res)
        return res

    def at_boundary(self) -> bool:
        """Whether the current block of operations is complete."""
        return not self.queue

    def _run(self, kind: str, res: OpResult) -> None:
        """One operation: untimed preparation, the timed read or write
        (``_<kind>``), then the untimed check it returns."""
        prepare = getattr(self, f"_prepare_{kind}", None)
        arg = prepare() if prepare is not None else None
        units_before = self.tracer.counts.get("ingest.units", 0.0)
        start = time.perf_counter()
        verify = getattr(self, f"_{kind}")(arg)
        res.latencies.append(time.perf_counter() - start)
        if res.check(verify(), f"{kind}: answer differs from the eager answer"):
            res.units += 1
        if kind != "write" and self.tracer.enabled:
            self.read_ops += 1
            composed = self.tracer.counts.get("ingest.units", 0.0) - units_before
            self.read_units += composed
            if kind == "where_compose":
                self.pushdown[0] += composed
                self.pushdown[1] += self.entries

    def _prepare_cold_compose(self):
        shutil.rmtree(self.cold_cache, ignore_errors=True)

    def _cold_compose(self, _):
        from repro.thicket import Thicket

        t = Thicket.from_caliperreader(str(self.archive), cache=self.cold_cache)
        return lambda: _frames_equal(t, self.ref.dataframe, self.ref.metadata)

    def _cached_compose(self, _):
        from repro.thicket import Thicket

        t = Thicket.from_caliperreader(str(self.archive), cache=self.warm_cache)
        return lambda: _frames_equal(t, self.ref.dataframe, self.ref.metadata)

    def _prepare_where_compose(self):
        return next(self.where_cycle)

    def _where_compose(self, machine):
        from repro.dataframe import col
        from repro.thicket import Thicket

        t = Thicket.from_caliperreader(
            str(self.archive), where=col("machine") == machine)
        return lambda: _frames_equal(t, *self.where_answers[machine])

    def _prepare_lazy_groupby(self):
        return next(self.lazy_cycle)

    def _lazy_groupby(self, cut):
        from repro.dataframe import col

        got = (
            self.ref.dataframe.lazy()
            .filter((col("depth") == KERNEL_DEPTH) & (col(METRIC) > cut))
            .groupby("profile")
            .agg({METRIC: "sum"})
            .collect()
        )

        def verify():
            want = self.lazy_answers[cut]
            sums = dict(zip(got["profile"], got[f"{METRIC}_sum"]))
            return sums.keys() == want.keys() and all(
                math.isclose(sums[p], want[p], rel_tol=1e-12) for p in want)
        return verify

    def _metric_matrix(self, _):
        regions, cols, matrix = self.ref.metric_matrix(
            METRIC, region_filter=lambda s: "_" in s)

        def verify():
            want_regions, want_cols, want = self.matrix_answer
            return regions == want_regions and list(cols) == want_cols and all(
                (a == b) or (a != a and b != b)
                for row, want_row in zip(matrix.tolist(), want)
                for a, b in zip(row, want_row)
            )
        return verify

    def _prepare_tune(self):
        return next(self.tune_cycle)

    def _tune(self, arg):
        from repro.analysis import tuning

        sub, want = arg
        best = tuning.tune_from_thicket(sub, METRIC)
        return lambda: best == want

    def _topdown(self, _):
        from repro.analysis import topdown

        got = [topdown.topdown_from_counters(c) for c, _ in self.topdown_rows]

        def verify():
            return all(
                (td.frontend_bound, td.bad_speculation, td.retiring,
                 td.core_bound, td.memory_bound) == expect
                for td, (_, expect) in zip(got, self.topdown_rows))
        return verify

    def _prepare_write(self):
        self.write_archive.parent.mkdir(parents=True, exist_ok=True)
        self.write_archive.write_bytes(self.base_bytes)
        shutil.rmtree(self.write_cache, ignore_errors=True)
        self.write_cache.mkdir(parents=True)
        shutil.copyfile(self.base_cache_file,
                        self.write_cache / self.base_cache_file.name)
        return next(self.segment_cycle)

    def _write(self, segment):
        from repro.caliper.calipack import CalipackWriter
        from repro.thicket import Thicket

        profiles, want_df, want_md = segment
        with CalipackWriter(self.write_archive) as writer:
            for name, profile in profiles:
                writer.append_profile(name, profile)
        t = Thicket.from_caliperreader(
            str(self.write_archive), cache=self.write_cache, incremental=True)
        return lambda: _frames_equal(t, want_df, want_md)

    # ------------------------------------------------------------- layers
    def layer_metrics(self, tracer, ops: int, units: int) -> dict:
        hits, loads = tracer.counts["ingest_cache.hits"], tracer.calls.get(
            "ingest_cache.load", 0)
        phits, finds = tracer.counts["ingest_cache.prefix_hits"], tracer.calls.get(
            "ingest_cache.find_prefix", 0)
        composed, present = self.pushdown
        return {
            "ingest.profiles_parsed_per_read": (
                self.read_units / self.read_ops if self.read_ops else 0.0),
            "ingest.pushdown_read_ratio": composed / present if present else 0.0,
            "ingest_cache.hit_ratio": hits / loads if loads else 0.0,
            "ingest_cache.prefix_hit_ratio": phits / finds if finds else 0.0,
        }
