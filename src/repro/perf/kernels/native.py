"""The native kernel provider: a cc-compiled ctypes library.

Zero-dependency: ``_kernels.c`` (shipped with the package) is compiled
once with the system C compiler into a per-user cache directory keyed by
the source hash, then loaded through :mod:`ctypes`.  Rebuilds happen only
when the source changes.

The provider exposes the exact call signatures of
:mod:`repro.perf.kernels.numpy_backend` so the dispatcher can swap them
freely, and is verified against the NumPy backend on tiny inputs before
being adopted (see ``_self_check`` in the package ``__init__``).  Any
failure — no compiler, sandboxed tmpdir — is contained here and reported
as ``None``, never raised to import time.

Pointer arguments are declared ``c_void_p`` and passed as the raw
``arr.ctypes.data`` address: building a typed ``POINTER`` object per
argument (``data_as``) costs about twice as much per call, and at
frontier sizes marshalling is most of a call.  Every array passed this way
is a local of the wrapper, so it stays alive until the call returns.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import subprocess
import tempfile
from array import array
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from . import numpy_backend

__all__ = ["load_cc_backend"]

_SRC = Path(__file__).with_name("_kernels.c")

#: sdc_merge_ways in C uses a fixed-size pointer scratch; groups larger
#: than this (never seen in practice — k is one machine's core count)
#: fall back to the NumPy walk.
_SDC_MAX_GROUP = 64

#: Below this many position*process steps the pure-Python walk beats the
#: compiled call — marshalling through ctypes costs more than the walk
#: itself.  Measured crossover is ~k=8, assoc=32.
_SDC_MIN_WORK = 256

_P = ctypes.c_void_p
_I = ctypes.c_int64
_D = ctypes.c_double


def _cache_dir() -> Path:
    override = os.environ.get("COSCHED_KERNEL_CACHE")
    if override:
        return Path(override)
    return Path(tempfile.gettempdir()) / f"cosched-kernels-{os.getuid()}"


def _compile_library(source: Path) -> Optional[Path]:
    """Compile ``source`` into the cache dir; return the .so path or None."""
    text = source.read_bytes()
    tag = hashlib.sha256(text).hexdigest()[:16]
    cache = _cache_dir()
    lib = cache / f"_cosched_kernels_{tag}.so"
    if lib.is_file():
        return lib
    try:
        cache.mkdir(parents=True, exist_ok=True)
        tmp = cache / f".build_{tag}_{os.getpid()}.so"
        cmd = [
            os.environ.get("CC", "cc"),
            # No fused multiply-adds: every call site of the shared row
            # function must round exactly alike.
            "-O3", "-ffp-contract=off", "-fPIC", "-shared",
            "-o", str(tmp), str(source), "-lm",
        ]
        proc = subprocess.run(
            cmd, capture_output=True, timeout=120, check=False
        )
        if proc.returncode != 0 or not tmp.is_file():
            return None
        os.replace(tmp, lib)  # atomic: concurrent builders converge
        return lib
    except (OSError, subprocess.SubprocessError):
        return None


class _CcBackend:
    """ctypes wrappers around the compiled ``_kernels.c`` library."""

    provider = "cc"

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        signatures = {
            "pairwise_node_weights": ([_P, _I, _P, _I, _I, _P], None),
            "pressure_node_weights": ([_P, _P, _P, _I, _I, _D, _D, _P], None),
            "pressure_monotone_topk": (
                [_P, _P, _P, _I, _I, _I, _D, _D, _I, _P, _P], _I),
            "sdc_merge_ways": ([_P, _P, _P, _P, _I, _I, _P], None),
            "select_smallest": ([_P, _I, _I, _P], None),
        }
        for name, (argtypes, restype) in signatures.items():
            fn = getattr(lib, name)
            fn.argtypes = argtypes
            fn.restype = restype

    # ------------------------------------------------------------------ #

    def pairwise_node_weights(self, pairwise: np.ndarray,
                              nodes: np.ndarray) -> np.ndarray:
        P = np.ascontiguousarray(pairwise, dtype=np.float64)
        nd = np.ascontiguousarray(nodes, dtype=np.int64)
        out = np.empty(len(nd), dtype=np.float64)
        self._lib.pairwise_node_weights(
            P.ctypes.data, P.shape[0], nd.ctypes.data, nd.shape[0],
            nd.shape[1], out.ctypes.data,
        )
        return out

    def pressure_node_weights(self, sens: np.ndarray, aggr: np.ndarray,
                              nodes: np.ndarray, kappa: float,
                              saturation: Optional[float]) -> np.ndarray:
        s = np.ascontiguousarray(sens, dtype=np.float64)
        a = s if aggr is sens else np.ascontiguousarray(aggr, dtype=np.float64)
        nd = np.ascontiguousarray(nodes, dtype=np.int64)
        out = np.empty(len(nd), dtype=np.float64)
        self._lib.pressure_node_weights(
            s.ctypes.data, a.ctypes.data, nd.ctypes.data, nd.shape[0],
            nd.shape[1], float(kappa),
            -1.0 if saturation is None else float(saturation),
            out.ctypes.data,
        )
        return out

    def pressure_monotone_topk(self, ordered: np.ndarray, level_pid: int,
                               k: int, sens: np.ndarray, aggr: np.ndarray,
                               kappa: float, saturation: Optional[float],
                               L: int) -> Tuple[np.ndarray, np.ndarray]:
        o = np.ascontiguousarray(ordered, dtype=np.int64)
        s = np.ascontiguousarray(sens, dtype=np.float64)
        a = s if aggr is sens else np.ascontiguousarray(aggr, dtype=np.float64)
        # The C loop indexes sens/aggr by these pids unchecked.
        n = min(len(s), len(a))
        if k < 0 or not 0 <= level_pid < n or (
            len(o) and not (0 <= o.min() and o.max() < n)
        ):
            raise ValueError("pressure_monotone_topk: k or a pid out of range")
        L = max(0, min(int(L), math.comb(len(o), k) if k <= len(o) else 0))
        subsets = np.empty((L, k), dtype=np.int64)
        weights = np.empty(L, dtype=np.float64)
        got = self._lib.pressure_monotone_topk(
            s.ctypes.data, a.ctypes.data, o.ctypes.data, len(o),
            int(level_pid), int(k), float(kappa),
            -1.0 if saturation is None else float(saturation), L,
            subsets.ctypes.data, weights.ctypes.data,
        )
        if got < 0:
            raise MemoryError("pressure_monotone_topk: scratch allocation")
        return subsets[:got], weights[:got]

    def sdc_merge_ways(self, counters: Sequence[Sequence[float]],
                       weights: Sequence[float], associativity: int) -> list:
        k = len(counters)
        if (
            k == 0
            or k > _SDC_MAX_GROUP
            or k * associativity < _SDC_MIN_WORK
        ):
            return numpy_backend.sdc_merge_ways(counters, weights,
                                                associativity)
        # Marshalling is the hot part at merge sizes, so the ragged
        # counters go through stdlib ``array`` buffers (C-speed extend,
        # zero-copy pointer via buffer_info) rather than numpy allocation
        # + fancy indexing.  The arrays must stay referenced until the
        # call returns — they are locals, so they do.
        offsets = array("q", bytes(8 * k))
        lengths = array("q", bytes(8 * k))
        flat = array("d")
        for i, c in enumerate(counters):
            offsets[i] = len(flat)
            lengths[i] = len(c)
            flat.extend(c)
        w = array("d", [float(x) for x in weights])
        won = array("q", bytes(8 * k))
        self._lib.sdc_merge_ways(
            flat.buffer_info()[0], offsets.buffer_info()[0],
            lengths.buffer_info()[0], w.buffer_info()[0],
            k, int(associativity), won.buffer_info()[0],
        )
        return list(won)

    def select_smallest(self, weights: np.ndarray, k: int) -> np.ndarray:
        w = np.ascontiguousarray(weights, dtype=np.float64)
        k = min(int(k), len(w))
        # The bounded max-heap is O(N log k): a huge win for the MER
        # regime (k = n/u, a sliver of the level) but it loses to the
        # stable argsort once k approaches N.  Measured crossover ~N/6.
        if 6 * k > len(w):
            return numpy_backend.select_smallest(w, k)
        out = np.empty(k, dtype=np.int64)
        self._lib.select_smallest(w.ctypes.data, len(w), k, out.ctypes.data)
        return out


def load_cc_backend() -> Optional[_CcBackend]:
    """Compile (or reuse) the C library and wrap it; None on any failure."""
    try:
        if not _SRC.is_file():
            return None
        lib_path = _compile_library(_SRC)
        if lib_path is None:
            return None
        return _CcBackend(ctypes.CDLL(str(lib_path)))
    except OSError:
        return None
