#!/usr/bin/env python3
"""Steadiness check: do two independent sets of runs of one workload agree?

    python3 repobench/steady.py --workload <name>

Runs two sets of ``RUNS`` runs, set A on seeds 1 to ``RUNS`` and set B on
the next ``RUNS`` seeds, interleaved (A, B, A, B, ...) so that slow drift
of the host weighs on both sets alike; every run uses ``run_seconds``
from ``BENCHMARK.json``. For each end-to-end metric it prints each set's
median and quartiles, the spread of all runs (interquartile distance /
median, as ``statistics.quantiles(n=4)`` gives the quartiles) and the
drift of set B's median from set A's, signed so that positive is worse.
A metric agrees when both the spread and the size of the drift, in
either direction, stay within its bound. Exits 0 when every metric
agrees and every run was correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 5  # runs per set


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    """One run's result line and its wall time from start to exit."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), time.perf_counter() - start


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    sets: dict[str, list[dict]] = {"A": [], "B": []}
    correct = True
    for i in range(RUNS):
        for name, seed in (("A", 1 + i), ("B", 1 + RUNS + i)):
            result, wall = run_once(args.workload, seed, seconds)
            correct &= result["correct"] and result["failed"] == 0
            sets[name].append(result)
            print(f"set {name} seed {seed} ({wall:.1f} s): " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
    print(f"\n{args.workload}: {RUNS} runs per set, {seconds} s each")
    print(f"{'metric':18s} {'set':3s} {'q1':>11s} {'median':>11s} {'q3':>11s}")
    agree = True
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = {k: [r["metrics"][name]["value"] for r in v] for k, v in sets.items()}
        medians = {}
        for key, vals in values.items():
            q1, q2, q3 = quartiles(vals)
            medians[key] = q2
            print(f"{name:18s} {key:3s} {q1:11.5g} {q2:11.5g} {q3:11.5g}")
        q1, q2, q3 = quartiles(values["A"] + values["B"])
        spread = (q3 - q1) / q2
        sign = 1 if metric["better"] == "lower" else -1
        drift = sign * (medians["B"] - medians["A"]) / medians["A"]
        ok = abs(drift) <= bound and spread <= bound
        agree &= ok
        print(f"{'':18s} spread {spread:.4f} (bound {bound}, a third {bound / 3:.4f}); "
              f"drift B vs A {drift:+.4f} (+ is worse); "
              f"{'agree' if ok else 'DISAGREE'}")
    print(f"all runs correct: {correct}; sets agree within bounds: {agree}")
    return 0 if agree and correct else 1


if __name__ == "__main__":
    sys.exit(main())
