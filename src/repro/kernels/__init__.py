"""Backend-dispatched compiled kernels for the engine hot loops.

The columnar frontier merge of the ``merged`` sweep
(:func:`_impl.expand_merge`, :func:`_impl.group_pairs`) is a hot loop of
the path engine.  This package selects, builds and caches one
implementation set per process:

* ``"numpy"`` — no kernel set at all; the engine runs its vectorized
  NumPy reference path.  Always available.
* ``"numba"`` — the loops of :mod:`repro.kernels._impl` compiled with
  ``numba.njit`` (no ``fastmath``, so no reassociation or FMA
  contraction) and warmed on dummy inputs at build time.  Requires the
  optional ``repro[speed]`` extra.
* ``"python"`` — the same loops un-jitted.  Orders of magnitude slower
  than NumPy; exists so the dispatch path and the bitwise-equivalence
  tests run on machines without numba.
* ``"auto"`` — resolves to ``"numba"`` when it imports and compiles,
  else to ``"numpy"`` with a ``kernels.fallback`` obs event.

All backends produce bitwise-identical results (see the contract notes
in :mod:`repro.kernels._impl`).  Compilation happens once per process:
the built :class:`KernelSet` is cached in a module table (and, when an
:class:`~repro.check.engine_cache.EngineCache` is in play, referenced
from it alongside the contexts), and a failed numba build is remembered
so later ``"auto"`` resolutions fall back without re-importing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.exceptions import CheckError
from repro.kernels import _impl
from repro.obs import get_collector

__all__ = [
    "BACKENDS",
    "KernelSet",
    "active_kernels",
    "kernel_set",
    "numba_available",
    "reset_kernel_cache",
    "resolve_backend",
]

#: Accepted values for every ``kernels=`` option in the public API.
BACKENDS = ("auto", "numpy", "numba", "python")


@dataclass(frozen=True)
class KernelSet:
    """One backend's compiled (or plain) kernel callables.

    ``compile_seconds`` is the one-off JIT build + warm-up cost paid by
    the process that compiled the set (0.0 for ``"python"``).
    """

    backend: str
    expand_merge: Callable
    group_pairs: Callable
    compile_seconds: float


_SETS: Dict[str, KernelSet] = {}
_NUMBA_FAILURE: Optional[str] = None


def reset_kernel_cache() -> None:
    """Forget built kernel sets and any remembered numba failure.

    Test hook: lets the fallback tests poison/unpoison the numba import
    and have resolution re-run from scratch.
    """
    global _NUMBA_FAILURE
    _SETS.clear()
    _NUMBA_FAILURE = None


def numba_available() -> bool:
    """Whether the ``"numba"`` backend can be (or already was) built."""
    if "numba" in _SETS:
        return True
    if _NUMBA_FAILURE is not None:
        return False
    try:
        import numba  # noqa: F401
    except Exception:
        return False
    return True


def _warm(kernels: KernelSet) -> None:
    """Force-compile every kernel on minimal inputs of the real dtypes."""
    int1 = np.zeros(1, dtype=np.int64)
    float1 = np.ones(1, dtype=np.float64)
    indptr = np.array([0, 1], dtype=np.int64)
    kernels.expand_merge(
        int1, int1, int1, float1, indptr, int1, float1, int1, int1, int1, 1
    )
    kernels.group_pairs(int1, int1, float1)


def _build_numba_set() -> KernelSet:
    """Import numba, jit the loop kernels and warm them; timed."""
    start = time.perf_counter()
    from numba import njit

    built = KernelSet(
        backend="numba",
        expand_merge=njit(nogil=True)(_impl.expand_merge),
        group_pairs=njit(nogil=True)(_impl.group_pairs),
        compile_seconds=0.0,
    )
    _warm(built)
    elapsed = time.perf_counter() - start
    return KernelSet(
        backend="numba",
        expand_merge=built.expand_merge,
        group_pairs=built.group_pairs,
        compile_seconds=elapsed,
    )


def kernel_set(backend: str) -> Optional[KernelSet]:
    """Build (once per process) and return the set for a concrete backend.

    ``"numpy"`` returns ``None`` — the engine's reference path needs no
    kernel set.  Raises :class:`~repro.exceptions.CheckError` when the
    ``"numba"`` set cannot be built (import or compile failure); the
    failure is remembered so later calls fail fast.
    """
    global _NUMBA_FAILURE
    if backend == "numpy":
        return None
    cached = _SETS.get(backend)
    if cached is not None:
        return cached
    if backend == "python":
        built = KernelSet(
            backend="python",
            expand_merge=_impl.expand_merge,
            group_pairs=_impl.group_pairs,
            compile_seconds=0.0,
        )
    elif backend == "numba":
        if _NUMBA_FAILURE is not None:
            raise CheckError(f"numba kernels unavailable: {_NUMBA_FAILURE}")
        try:
            built = _build_numba_set()
        except Exception as exc:
            _NUMBA_FAILURE = f"{type(exc).__name__}: {exc}"
            raise CheckError(
                f"numba kernels unavailable: {_NUMBA_FAILURE}"
            ) from exc
        collector = get_collector()
        if collector.enabled:
            collector.event(
                "kernels.compiled",
                backend="numba",
                compile_seconds=built.compile_seconds,
            )
    else:
        raise CheckError(f"unknown kernel backend {backend!r}")
    _SETS[backend] = built
    return built


def resolve_backend(requested: str) -> str:
    """Resolve a requested backend name to a concrete one.

    ``"auto"`` prefers ``"numba"`` when the set builds, falling back to
    ``"numpy"`` with a ``kernels.fallback`` obs event otherwise.  An
    explicit ``"numba"`` request raises when unavailable; ``"numpy"``
    and ``"python"`` pass through (building the python set eagerly).
    """
    if requested not in BACKENDS:
        raise CheckError(
            f"unknown kernel backend {requested!r} (choose from "
            f"{', '.join(BACKENDS)})"
        )
    if requested != "auto":
        if requested in ("numba", "python"):
            kernel_set(requested)
        return requested
    try:
        kernel_set("numba")
    except CheckError as exc:
        collector = get_collector()
        if collector.enabled:
            collector.event(
                "kernels.fallback",
                requested="auto",
                backend="numpy",
                reason=str(exc),
            )
        return "numpy"
    return "numba"


def active_kernels(backend: str) -> Optional[KernelSet]:
    """The kernel set a hot loop should use for a resolved backend.

    Never raises: when the requested set cannot be built here (e.g. a
    pool worker whose parent resolved ``"numba"`` but whose own import
    fails), records a ``kernels.fallback`` event and returns ``None``
    so the caller runs the NumPy path.
    """
    if backend in ("numpy", ""):
        return None
    if backend == "auto":
        backend = resolve_backend("auto")
        if backend == "numpy":
            return None
    cached = _SETS.get(backend)
    if cached is not None:
        return cached
    try:
        return kernel_set(backend)
    except CheckError as exc:
        collector = get_collector()
        if collector.enabled:
            collector.event(
                "kernels.fallback",
                requested=backend,
                backend="numpy",
                reason=str(exc),
            )
        return None
