"""The kernel base class.

Every RAJAPerf kernel in this reproduction derives from
:class:`KernelBase` and provides:

* **identity** — name, group, complexity, features, supported backends
  (Table I's row);
* **analytic metrics** — bytes read/written and FLOPs per repetition as
  functions of problem size (Section II-B), from which the
  :class:`~repro.perfmodel.WorkProfile` is assembled;
* **traits** — the efficiency vector consumed by the performance model;
* **implementations** — ``run_base`` (direct vectorized NumPy, standing in
  for the hand-written programming-model variant) and ``run_raja``
  (written against :mod:`repro.rajasim`); both must produce the same
  checksum, which :meth:`verify_variants` asserts exactly as RAJAPerf's
  checksum machinery does.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.machines.model import MachineModel
from repro.perfmodel.timing import TimeBreakdown, predict_time
from repro.perfmodel.traits import KernelTraits
from repro.perfmodel.work import WorkProfile
from repro.rajasim.policies import Backend, ExecPolicy
from repro.suite.checksum import checksums_match
from repro.suite.features import Complexity, Feature
from repro.suite.groups import Group
from repro.suite.variants import ALL_BACKENDS, Variant, VariantKind


class KernelBase:
    """Base class for all suite kernels. Subclasses set the class attributes
    and implement ``setup``/``run_base``/``run_raja``/``checksum``."""

    #: Kernel name without the group prefix, e.g. ``"TRIAD"``.
    NAME: str = ""
    GROUP: Group = Group.BASIC
    COMPLEXITY: Complexity = Complexity.N
    FEATURES: frozenset[Feature] = frozenset({Feature.FORALL})
    #: Backends with Base+RAJA implementations (Table I's checkmarks).
    BACKENDS: tuple[Backend, ...] = ALL_BACKENDS
    #: Whether a Kokkos variant exists (enumerated, not analyzed).
    HAS_KOKKOS: bool = False
    #: RAJAPerf-style default problem size; runs may override.
    DEFAULT_PROBLEM_SIZE: int = 1_000_000
    DEFAULT_REPS: int = 50
    #: Scalar instructions per iteration; ``None`` uses the WorkProfile
    #: heuristic (FLOPs + 2/word + 2 loop overhead).
    INSTR_PER_ITER: float | None = None

    def __init__(self, problem_size: int | str | None = None, seed: int = 4793) -> None:
        from repro.util.units import parse_size

        size = (
            self.DEFAULT_PROBLEM_SIZE
            if problem_size is None
            else parse_size(problem_size)
        )
        if size <= 0:
            raise ValueError(f"problem_size must be > 0, got {size}")
        self.problem_size = size
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self._is_setup = False

    # ------------------------------------------------------------ identity
    @property
    def full_name(self) -> str:
        """Group-qualified name as the paper prints it, e.g. ``Stream_TRIAD``."""
        return f"{self.GROUP.value}_{self.NAME}"

    @classmethod
    def class_full_name(cls) -> str:
        return f"{cls.GROUP.value}_{cls.NAME}"

    @classmethod
    def class_variants(cls) -> tuple[Variant, ...]:
        """All variants this kernel provides, without instantiating it.

        Variant availability is class-level data (``BACKENDS`` and
        ``HAS_KOKKOS``), so sweep drivers probing "does this kernel have
        variant X?" must not pay for a kernel allocation per probe. The
        result is cached per class.
        """
        cached = cls.__dict__.get("_VARIANTS_CACHE")
        if cached is not None:
            return cached
        out = []
        for backend in cls.BACKENDS:
            out.append(Variant(VariantKind.BASE, backend))
            out.append(Variant(VariantKind.RAJA, backend))
        if cls.HAS_KOKKOS:
            out.append(Variant(VariantKind.KOKKOS, Backend.SEQUENTIAL))
        cls._VARIANTS_CACHE = tuple(out)
        return cls._VARIANTS_CACHE

    def variants(self) -> tuple[Variant, ...]:
        """All variants this kernel provides."""
        return type(self).class_variants()

    def supports(self, variant: Variant) -> bool:
        return variant in self.variants()

    # ------------------------------------------------- analytic metrics
    def iterations(self) -> float:
        """Loop iterations per repetition (defaults to the problem size)."""
        return float(self.problem_size)

    def bytes_read(self) -> float:
        raise NotImplementedError

    def bytes_written(self) -> float:
        raise NotImplementedError

    def flops(self) -> float:
        raise NotImplementedError

    def atomics(self) -> float:
        """Atomic operations per repetition."""
        return 0.0

    def launches_per_rep(self) -> float:
        """Kernel launches (GPU grids / parallel regions) per repetition."""
        return 1.0

    def mpi_messages(self) -> float:
        return 0.0

    def mpi_bytes(self) -> float:
        return 0.0

    def traits(self) -> KernelTraits:
        """Hand-written efficiency characteristics for the performance model."""
        raise NotImplementedError

    def effective_traits(self) -> KernelTraits:
        """Traits with the calibration overlay applied.

        The overlay (:mod:`repro.perfmodel.calibrated`) holds per-kernel
        trait refinements fitted offline against the paper's published
        numbers (TMA cluster centers, Section V speedup facts); see
        ``tools/fit_traits.py``. Kernels without an overlay entry use
        their hand-written traits unchanged.
        """
        from dataclasses import replace

        from repro.perfmodel.calibrated import TRAIT_CALIBRATION

        base = self.traits()
        overlay = TRAIT_CALIBRATION.get(self.full_name)
        if not overlay:
            return base
        merged = dict(overlay)
        if "gpu_eff_overrides" in merged:
            combined = dict(base.gpu_eff_overrides)
            combined.update(merged["gpu_eff_overrides"])
            merged["gpu_eff_overrides"] = combined
        return replace(base, **merged)

    def work_profile(self, reps: int = 1) -> WorkProfile:
        """Node-level work totals for ``reps`` repetitions."""
        if reps <= 0:
            raise ValueError(f"reps must be > 0, got {reps}")
        iters = self.iterations()
        instructions = (
            self.INSTR_PER_ITER * iters if self.INSTR_PER_ITER is not None else 0.0
        )
        profile = WorkProfile(
            iterations=iters,
            bytes_read=float(self.bytes_read()),
            bytes_written=float(self.bytes_written()),
            flops=float(self.flops()),
            instructions=instructions,
            atomics=float(self.atomics()),
            launches=float(self.launches_per_rep()),
            mpi_messages=float(self.mpi_messages()),
            mpi_bytes=float(self.mpi_bytes()),
        )
        return profile.scaled(float(reps)) if reps != 1 else profile

    def analytic_metrics(self) -> dict[str, float]:
        """Fig. 1's per-iteration analytic metrics."""
        return self.work_profile().per_iteration()

    # ------------------------------------------------------- prediction
    def predict(
        self,
        machine: MachineModel,
        variant: Variant | None = None,
        block_size: int | None = None,
        *,
        work: WorkProfile | None = None,
        traits: KernelTraits | None = None,
    ) -> TimeBreakdown:
        """Predicted node-level time for one repetition on ``machine``.

        ``block_size`` applies the GPU tuning's occupancy derate.
        ``work`` (one repetition) and ``traits`` let a caller that
        already holds :meth:`work_profile` and :meth:`effective_traits`
        skip recomputing them; both are pure in the kernel and its size.
        """
        from repro.rajasim.policies import Backend as _Backend

        is_raja = variant.is_raja if variant is not None else True
        omp_regions = (
            self.launches_per_rep()
            if variant is not None and variant.backend is _Backend.OPENMP
            else 0.0
        )
        return predict_time(
            work if work is not None else self.work_profile(),
            traits if traits is not None else self.effective_traits(),
            machine,
            is_raja=is_raja,
            block_size=block_size,
            omp_regions=omp_regions,
        )

    # -------------------------------------------------------- execution
    def setup(self) -> None:
        """Allocate and initialize the kernel's data (idempotent entry)."""
        raise NotImplementedError

    def ensure_setup(self) -> None:
        if not self._is_setup:
            self.rng = np.random.default_rng(self.seed)
            self.setup()
            self._is_setup = True

    def reset(self) -> None:
        """Force re-initialization before the next run."""
        self._is_setup = False

    def run_base(self, policy: ExecPolicy) -> None:
        """The Base variant: direct vectorized implementation."""
        raise NotImplementedError

    def run_raja(self, policy: ExecPolicy) -> None:
        """The RAJA variant: written against :mod:`repro.rajasim`."""
        raise NotImplementedError

    def checksum(self) -> float:
        """Position-weighted checksum over the kernel's outputs."""
        raise NotImplementedError

    def run_variant_prepared(
        self, variant: Variant, policy: ExecPolicy | None = None
    ) -> float:
        """Run one repetition of ``variant`` against *already prepared*
        state, return its checksum.

        The caller owns setup: either :meth:`ensure_setup` ran on this
        instance, or a :class:`~repro.suite.state_pool.KernelStatePool`
        restored a post-``setup()`` snapshot into it. This is the timed
        hot path — it performs no allocation or RNG work of its own.
        """
        if not self.supports(variant):
            raise ValueError(f"{self.full_name} has no variant {variant.name}")
        if not self._is_setup:
            raise RuntimeError(
                f"{self.full_name}: run_variant_prepared() before setup — "
                "call ensure_setup() or acquire via KernelStatePool"
            )
        policy = policy if policy is not None else variant.policy()
        if variant.kind in (VariantKind.RAJA, VariantKind.KOKKOS):
            self.run_raja(policy)
        else:
            self.run_base(policy)
        return self.checksum()

    def run_variant(self, variant: Variant, policy: ExecPolicy | None = None) -> float:
        """Reset, run one repetition of ``variant``, return its checksum."""
        if not self.supports(variant):
            raise ValueError(f"{self.full_name} has no variant {variant.name}")
        self.reset()
        self.ensure_setup()
        return self.run_variant_prepared(variant, policy)

    def verify_variants(self, variants: Sequence[Variant] | None = None) -> dict[str, float]:
        """Run the given (default: all) variants; assert checksum agreement.

        Returns the per-variant checksums. Raises ``AssertionError`` on the
        first mismatch, mirroring RAJAPerf's checksum reports.
        """
        to_run = list(variants) if variants is not None else list(self.variants())
        results: dict[str, float] = {}
        reference: float | None = None
        ref_name = ""
        for variant in to_run:
            value = self.run_variant(variant)
            results[variant.name] = value
            if reference is None:
                reference, ref_name = value, variant.name
            elif not checksums_match(reference, value):
                raise AssertionError(
                    f"{self.full_name}: checksum mismatch {ref_name}="
                    f"{reference!r} vs {variant.name}={value!r}"
                )
        return results

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.full_name} n={self.problem_size}>"
