"""Kernel registry.

Kernel classes self-register via the :func:`register_kernel` decorator at
import time; :func:`load_all_kernels` imports every group subpackage so the
registry is complete. Lookups accept either the group-qualified name the
paper uses (``Stream_TRIAD``) or the bare kernel name when unambiguous.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.suite.groups import Group
from repro.suite.kernel_base import KernelBase

_REGISTRY: dict[str, type[KernelBase]] = {}
_LOADED = False


def register_kernel(cls: type[KernelBase]) -> type[KernelBase]:
    """Class decorator adding a kernel to the global registry."""
    if not issubclass(cls, KernelBase):
        raise TypeError(f"{cls!r} is not a KernelBase subclass")
    if not cls.NAME:
        raise ValueError(f"{cls!r} has no NAME")
    full = cls.class_full_name()
    existing = _REGISTRY.get(full)
    if existing is not None and existing is not cls:
        raise ValueError(f"duplicate kernel registration: {full}")
    _REGISTRY[full] = cls
    return cls


def load_all_kernels() -> None:
    """Import every kernel group subpackage (idempotent)."""
    global _LOADED
    if _LOADED:
        return
    # Imports happen for their registration side effects.
    from repro.kernels import algorithm, apps, basic, comm, lcals, polybench, stream  # noqa: F401

    _LOADED = True


def kernel_names() -> list[str]:
    """All group-qualified kernel names, sorted."""
    load_all_kernels()
    return sorted(_REGISTRY)


def get_kernel_class(name: str) -> type[KernelBase]:
    """Resolve a kernel class by full or bare name (case-insensitive)."""
    load_all_kernels()
    key = name.strip()
    for full, cls in _REGISTRY.items():
        if full.lower() == key.lower():
            return cls
    bare_matches = [
        cls for full, cls in _REGISTRY.items() if cls.NAME.lower() == key.lower()
    ]
    if len(bare_matches) == 1:
        return bare_matches[0]
    if len(bare_matches) > 1:
        raise KeyError(
            f"kernel name {name!r} is ambiguous: "
            f"{[c.class_full_name() for c in bare_matches]}"
        )
    raise KeyError(f"unknown kernel {name!r}")


def make_kernel(name: str, problem_size: int | None = None) -> KernelBase:
    """Instantiate a kernel by name."""
    return get_kernel_class(name)(problem_size=problem_size)


def all_kernel_classes() -> list[type[KernelBase]]:
    load_all_kernels()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def kernels_by_variant(
    selects: Callable[[type[KernelBase]], bool],
) -> dict[str, list[type[KernelBase]]]:
    """Selected kernel classes keyed by the names of the variants they
    provide, each list in registry order.

    Campaign code asks "which kernels run variant X?" once per cell;
    building this map once turns that into a dict lookup instead of a
    scan of every class's variant list.
    """
    out: dict[str, list[type[KernelBase]]] = {}
    for cls in all_kernel_classes():
        if selects(cls):
            for variant in cls.class_variants():
                out.setdefault(variant.name, []).append(cls)
    return out


def kernels_in_group(group: Group) -> list[type[KernelBase]]:
    load_all_kernels()
    return [cls for cls in all_kernel_classes() if cls.GROUP is group]


def similarity_kernel_classes() -> list[type[KernelBase]]:
    """Kernels admitted to the Section IV similarity analysis.

    The paper excludes kernels whose MPI decomposition gives incomparable
    work across machines: every non-O(n) kernel (sorts, matmuls, halo
    surfaces) plus three kernels with decomposition-dependent behaviour
    (HISTOGRAM's bin contention, EDGE3D's extreme-outlier profile, and
    INDEXLIST's serialized scan), matching Fig. 7's per-group counts.
    """
    explicit_exclusions = {
        "Algorithm_HISTOGRAM",
        "Apps_EDGE3D",
        "Basic_INDEXLIST",
    }
    out = []
    for cls in all_kernel_classes():
        if cls.GROUP is Group.COMM:
            continue
        if not cls.COMPLEXITY.is_linear:
            continue
        if cls.class_full_name() in explicit_exclusions:
            continue
        out.append(cls)
    return out
