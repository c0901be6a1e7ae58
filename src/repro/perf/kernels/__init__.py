"""``repro.perf.kernels`` — the compiled batch-kernel backend.

Profiling (PR 1, ``benchmarks/test_perf_batch_kernels.py``) shows solve
time is dominated by a few batch primitives: the gather+einsum node-weight
kernels, the lazy best-first level enumeration that feeds them, the SDC
merge walk, and the MER score-then-select level trim.  This package gives
each a compiled implementation while keeping the historical NumPy/Python
expressions as the byte-for-byte reference:

* :mod:`~repro.perf.kernels.numpy_backend` — pure NumPy, always available,
  the semantic reference;
* :mod:`~repro.perf.kernels.native` — a zero-dependency C library compiled
  once with the system ``cc`` and loaded through ctypes.

**Selection happens once, at import time.**  ``COSCHED_NATIVE=0`` (or
``false``/``no``/``off``) forces the NumPy fallback;
``COSCHED_KERNEL_BACKEND=cc|numpy`` pins a specific provider.  Otherwise
the cc build is used when it compiles; it is adopted only after passing a
self-check against the NumPy backend on small randomized inputs, so a
broken compiler or miscompiled library degrades to the fallback instead of
corrupting results.

Every caller (degradation models, the SDC merge, level expansion) imports
the module-level functions below, which dispatch to the active backend.
:func:`active_backend` (``"native"`` | ``"numpy"``) is surfaced in
``SolveReport.to_dict()``, ``cosched solve --json``, the service
``/metrics`` payload, and ``BENCH_*.json`` documents so every recorded
measurement names the path that produced it.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import numpy_backend

__all__ = [
    "active_backend",
    "backend_info",
    "native_disabled",
    "pairwise_node_weights",
    "pressure_monotone_topk",
    "pressure_node_weights",
    "sdc_merge_ways",
    "select_smallest",
]

_FALSEY = ("0", "false", "no", "off")


def native_disabled() -> bool:
    """True when ``COSCHED_NATIVE`` opts out of compiled kernels."""
    return os.environ.get("COSCHED_NATIVE", "").strip().lower() in _FALSEY


def _self_check(impl) -> bool:
    """Verify a candidate backend against the NumPy reference.

    Tiny randomized inputs, 1e-12 tolerance: catches ABI mismatches,
    miscompiles and broken jits before the backend is adopted.  The full
    randomized sweep lives in ``tests/perf/test_kernels_equivalence.py``.
    """
    try:
        rng = np.random.default_rng(7)
        n, u, N = 9, 3, 40
        nodes = rng.integers(0, n, size=(N, u)).astype(np.intp)
        P = rng.uniform(0.0, 1.0, size=(n, n))
        ref = numpy_backend.pairwise_node_weights(P, nodes)
        got = impl.pairwise_node_weights(P, nodes)
        if not np.allclose(ref, got, rtol=0, atol=1e-12):
            return False
        m = rng.uniform(0.15, 0.75, size=n)
        a = rng.uniform(0.15, 0.75, size=n)
        ordered = np.argsort(m[1:], kind="stable") + 1
        for sens, aggr in ((m, m), (m, a)):
            for sat in (None, 0.9):
                ref = numpy_backend.pressure_node_weights(
                    sens, aggr, nodes, 0.31, sat)
                got = impl.pressure_node_weights(sens, aggr, nodes, 0.31, sat)
                if not np.allclose(ref, got, rtol=0, atol=1e-12):
                    return False
                # Top-L of level 0 over pids 1..8: 40 of the C(8, 3) = 56
                # subsets, so the enumeration stops mid-level.
                args = (ordered, 0, u, sens, aggr, 0.31, sat, 40)
                ref_s, ref_w = numpy_backend.pressure_monotone_topk(*args)
                got_s, got_w = impl.pressure_monotone_topk(*args)
                if not (
                    np.array_equal(ref_s, got_s)
                    and np.allclose(ref_w, got_w, rtol=0, atol=1e-12)
                ):
                    return False
        # Large enough (k*assoc >= the cc backend's marshalling cutoff)
        # that the compiled walk actually runs, and again tiny so the
        # delegating small-merge path is covered too.
        counters = [tuple(rng.uniform(0, 100, size=rng.integers(1, 50)))
                    for _ in range(4)]
        weights = [float(w) for w in rng.uniform(0.1, 2.0, size=4)]
        for assoc in (96, 8):
            if impl.sdc_merge_ways(counters, weights, assoc) != (
                numpy_backend.sdc_merge_ways(counters, weights, assoc)
            ):
                return False
        w = rng.uniform(0, 1, size=64)
        w[10] = w[20] = w[30]  # exercise the (weight, index) tie-break
        for k in (1, 7, 64):
            if list(impl.select_smallest(w, k)) != list(
                numpy_backend.select_smallest(w, k)
            ):
                return False
        return True
    except Exception:
        return False


def _select_backend():
    """Pick the active backend once; returns ``(impl, info_dict)``."""
    info: Dict[str, object] = {
        "backend": "numpy",
        "provider": "numpy",
        "native_disabled": native_disabled(),
    }
    if native_disabled():
        return numpy_backend, info
    from . import native

    pinned = os.environ.get("COSCHED_KERNEL_BACKEND", "").strip().lower()
    if pinned == "numpy":
        return numpy_backend, info
    impl = native.load_cc_backend()
    if impl is not None and _self_check(impl):
        info["backend"] = "native"
        info["provider"] = impl.provider
        return impl, info
    return numpy_backend, info


_IMPL, _INFO = _select_backend()


def active_backend() -> str:
    """``"native"`` (compiled kernels in use) or ``"numpy"`` (fallback)."""
    return str(_INFO["backend"])


def backend_info() -> Dict[str, object]:
    """Details for reports: backend, provider (cc/numpy), opt-out."""
    return dict(_INFO)


def pairwise_node_weights(pairwise: np.ndarray,
                          nodes: np.ndarray) -> np.ndarray:
    """Batch node weights from a pairwise degradation table."""
    return _IMPL.pairwise_node_weights(pairwise, nodes)


def pressure_node_weights(
    sens: np.ndarray,
    aggr: np.ndarray,
    nodes: np.ndarray,
    kappa: float,
    saturation: Optional[float],
) -> np.ndarray:
    """Batch ``sum_i s_i * kappa * phi(A_T - a_i)`` node weights."""
    return _IMPL.pressure_node_weights(sens, aggr, nodes, kappa, saturation)


def pressure_monotone_topk(
    ordered: np.ndarray,
    level_pid: int,
    k: int,
    sens: np.ndarray,
    aggr: np.ndarray,
    kappa: float,
    saturation: Optional[float],
    L: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """First ``L`` k-subsets of the rank-ordered candidates ``ordered`` in
    lazy best-first order, scored as node rows ``[level_pid, *subset]``.

    The order is :func:`~repro.graph.subset_enum.iter_subsets_monotone`'s:
    ascending weight for member-monotone weights, the same approximate
    order for proxy ranks.  Returns ``(subsets, weights)`` — an ``(M, k)``
    pid array (members in rank order) and ``M = min(L, C(m, k))`` weights.
    """
    return _IMPL.pressure_monotone_topk(ordered, level_pid, k, sens, aggr,
                                        kappa, saturation, L)


def sdc_merge_ways(
    counters: Sequence[Sequence[float]],
    weights: Sequence[float],
    associativity: int,
) -> list:
    """SDC merge: ways won per process (see :mod:`repro.cache.sdc`)."""
    return _IMPL.sdc_merge_ways(counters, weights, associativity)


def select_smallest(weights: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest weights, ``(weight, index)`` order."""
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    return _IMPL.select_smallest(np.asarray(weights, dtype=np.float64), k)
