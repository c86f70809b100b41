"""Deterministic measurement-noise model for multi-trial runs.

Real RAJAPerf runs repeat kernels and report min/avg/max times; run-to-run
variation is what makes Thicket's aggregated statistics meaningful. The
analytic model is deterministic, so multi-trial sweeps apply a small
multiplicative lognormal jitter, seeded per (kernel, machine, trial) so
results are reproducible run-to-run.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: Default run-to-run coefficient of variation (~2%, typical of a quiet
#: HPC node; noisy shared systems are far worse).
DEFAULT_SIGMA = 0.02


def noise_factor(kernel: str, machine: str, trial: int, sigma: float = DEFAULT_SIGMA) -> float:
    """Multiplicative jitter for one measurement, deterministic in its key.

    Lognormal with median 1: ``exp(sigma * z)`` where ``z`` is a standard
    normal drawn from a hash-seeded generator.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return 1.0
    key = f"{kernel}|{machine}|{trial}".encode()
    seed = int.from_bytes(hashlib.sha256(key).digest()[:8], "little")
    z = np.random.default_rng(seed).standard_normal()
    return float(np.exp(sigma * z))


def noisy_time(
    seconds: float,
    kernel: str,
    machine: str,
    trial: int,
    sigma: float = DEFAULT_SIGMA,
    factor: float | None = None,
) -> float:
    """A jittered copy of a predicted time.

    ``factor`` is this key's :func:`noise_factor`, when the caller has
    already drawn it (a campaign reuses one draw across variants).
    """
    if seconds <= 0:
        raise ValueError(f"seconds must be > 0, got {seconds}")
    if factor is None:
        factor = noise_factor(kernel, machine, trial, sigma)
    return seconds * factor
