"""Pure-NumPy reference implementations of the batch kernels.

This is the fallback backend — always importable, no compiler, no optional
dependency — and the *semantic definition* every native backend is tested
against (``tests/perf/test_kernels_equivalence.py`` asserts 1e-9 agreement
on randomized inputs).  The vectorized bodies are exactly the expressions
the degradation models shipped before the backends were split out, so
selecting this backend reproduces the historical results bit-for-bit.

The lazy best-first level enumerator :func:`iter_subsets_monotone` lives
here too (re-exported by :mod:`repro.graph.subset_enum`): driven by
:func:`pressure_node_weights` it *is* the reference of the compiled
``pressure_monotone_topk`` kernel, and this module imports nothing from
the rest of the package, so the dispatcher's import-time self-check can
run it.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "iter_subsets_monotone",
    "pairwise_node_weights",
    "pressure_monotone_topk",
    "pressure_node_weights",
    "sdc_merge_ways",
    "select_smallest",
]


def pairwise_node_weights(pairwise: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Node weights from a pairwise degradation table.

    Gather each node's u x u pairwise block; the node weight is the block
    sum minus the self-interaction diagonal (the ``nii->n`` trace).
    """
    sub = pairwise[nodes[:, :, None], nodes[:, None, :]]
    return sub.sum(axis=(1, 2)) - np.einsum("nii->n", sub)


def pressure_node_weights(
    sens: np.ndarray,
    aggr: np.ndarray,
    nodes: np.ndarray,
    kappa: float,
    saturation: Optional[float],
) -> np.ndarray:
    """``sum_i s_i * kappa * phi(A_T - a_i)`` over N nodes at once.

    ``sens is aggr`` gives :class:`~repro.core.degradation
    .MissRatePressureModel`'s kernel; distinct vectors give the
    asymmetric-contention kernel.  ``saturation=None`` is the linear
    response ``phi(x) = x``.
    """
    s_m = sens[nodes]
    a_m = aggr[nodes] if aggr is not sens else s_m
    others = a_m.sum(axis=1, keepdims=True) - a_m
    if saturation is None:
        resp = others
    else:
        sat = saturation
        resp = sat * (1.0 - np.exp(-others / sat))
    return kappa * np.einsum("nu,nu->n", s_m, resp)


def iter_subsets_monotone(
    items: Sequence[int],
    k: int,
    weight: Optional[Callable[[Tuple[int, ...]], float]],
    rank_key: Callable[[int], float],
    weight_batch: Optional[Callable[[List[Tuple[int, ...]]], Sequence[float]]] = None,
    topk: Optional[Callable[[List[int], int], Tuple[np.ndarray, np.ndarray]]] = None,
    first: int = 64,
) -> Iterator[Tuple[Tuple[int, ...], float]]:
    """Yield k-subsets of ``items`` in non-decreasing ``weight`` order.

    Requires member-wise monotonicity of ``weight`` with respect to
    ``rank_key``: swapping a member for an item of higher rank key must never
    decrease the weight.  Under that contract the heap frontier property
    holds and subsets pop in exactly ascending weight.

    Yields ``(subset, weight)`` with subsets as tuples of items (in rank
    order).  Lazily explores only what is consumed: taking the first ``t``
    subsets costs ``O(t * k * log)`` heap operations.

    ``weight_batch``, when given, scores each pop's child frontier (up to
    ``k`` new subsets) with ONE call instead of ``k`` scalar ``weight``
    calls — the hook the vectorized degradation kernels plug into.  It must
    agree with ``weight`` on every subset; ``weight`` is then never called
    and may be None.

    Entries pop in ``(weight, index tuple)`` order — the heap key — so ties
    break on rank positions, and non-monotone (proxy) weights still give
    one deterministic order.  ``pressure_monotone_topk`` reproduces this
    order exactly in compiled code.

    ``topk``, when given, replaces the heap: ``topk(ordered, L)`` returns
    the first ``L`` entries of this order over the rank-ordered items in
    one call, as an ``(L, k)`` item array and ``L`` weights (the compiled
    kernel).  The generator asks for ``first`` entries, then four times as
    many per further call up to ``C(n, k)``, and yields only the entries
    past those already yielded.  The recomputed prefixes cost at most a
    third of the last call; the last call may compute up to four times
    what is read (or ``first`` entries when fewer are read), which only
    pays when the oracle is compiled.
    """
    n = len(items)
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        yield ((), 0.0)
        return
    if k > n:
        return
    ordered = sorted(items, key=rank_key)
    if topk is not None:
        total = math.comb(n, k)
        done, count = 0, min(max(1, first), total)
        while done < total:
            subsets, weights = topk(ordered, count)
            yield from zip(map(tuple, subsets[done:].tolist()),
                           weights[done:].tolist())
            done, count = count, min(4 * count, total)
        return

    def subset_of(index_tuple: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(ordered[i] for i in index_tuple)

    start = tuple(range(k))
    if weight_batch is not None:
        w0 = float(weight_batch([subset_of(start)])[0])
    else:
        w0 = weight(subset_of(start))
    heap: List[Tuple[float, Tuple[int, ...]]] = [(w0, start)]
    seen = {start}
    while heap:
        w, idx = heapq.heappop(heap)
        yield (subset_of(idx), w)
        # Successors: advance any single index while keeping strict ascent.
        frontier: List[Tuple[int, ...]] = []
        for j in range(k):
            nxt = idx[j] + 1
            if j + 1 < k and nxt >= idx[j + 1]:
                continue
            if nxt >= n:
                continue
            child = idx[:j] + (nxt,) + idx[j + 1 :]
            if child in seen:
                continue
            seen.add(child)
            frontier.append(child)
        if not frontier:
            continue
        if weight_batch is not None:
            ws = weight_batch([subset_of(c) for c in frontier])
            for child, cw in zip(frontier, ws):
                heapq.heappush(heap, (float(cw), child))
        else:
            for child in frontier:
                heapq.heappush(heap, (weight(subset_of(child)), child))


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
    """The first ``L`` k-subsets of ``ordered`` in lazy best-first order.

    ``ordered`` holds the candidate pids in rank order.  The reference is
    :func:`iter_subsets_monotone` itself, scoring
    each pop's children as node rows ``[level_pid, *subset]`` with
    :func:`pressure_node_weights`.  Returns ``(subsets, weights)``: an
    ``(M, k)`` pid array (members in rank order) and ``M`` weights,
    ``M = min(L, C(len(ordered), k))``.
    """
    ordered = np.asarray(ordered, dtype=np.intp)

    def weight_batch(subs):
        rows = np.empty((len(subs), k + 1), dtype=np.intp)
        rows[:, 0] = level_pid
        rows[:, 1:] = ordered[np.asarray(subs, dtype=np.intp).reshape(-1, k)]
        return pressure_node_weights(sens, aggr, rows, kappa, saturation)

    # Enumerate positions 0..m-1 (already in rank order) and map to pids.
    top = list(itertools.islice(
        iter_subsets_monotone(range(len(ordered)), k, None, int,
                              weight_batch=weight_batch),
        max(0, int(L)),
    ))
    subsets = np.array([ordered[list(sub)] for sub, _w in top],
                       dtype=np.int64).reshape(len(top), k)
    weights = np.array([w for _sub, w in top], dtype=np.float64)
    return subsets, weights


def sdc_merge_ways(
    counters: Sequence[Sequence[float]],
    weights: Sequence[float],
    associativity: int,
) -> list:
    """The SDC position-by-position merge walk (Chandra et al., HPCA'05).

    At each of the ``associativity`` positions the process with the highest
    current rate-weighted hit counter wins the position and advances its own
    pointer; ties go to the lower process index, the walk stops when every
    live counter is non-positive, and unclaimed positions are dealt
    round-robin so the full cache is always accounted for.
    """
    k = len(counters)
    ptr = [0] * k
    won = [0] * k
    for _pos in range(associativity):
        best = -1
        best_val = -1.0
        for i in range(k):
            if ptr[i] >= len(counters[i]):
                continue
            val = counters[i][ptr[i]] * weights[i]
            if val > best_val:
                best_val = val
                best = i
        if best < 0 or best_val <= 0.0:
            break
        won[best] += 1
        ptr[best] += 1
    remaining = associativity - sum(won)
    i = 0
    while remaining > 0:
        won[i % k] += 1
        remaining -= 1
        i += 1
    return won


def select_smallest(weights: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest weights in ``(weight, index)`` order.

    A stable argsort breaks ties by position exactly like the historical
    ``heapq.nsmallest(..., key=lambda t: (weight, node))`` trim did (level
    nodes are enumerated in ascending node order, so index order *is* node
    order).
    """
    order = np.argsort(weights, kind="stable")
    if k < len(order):
        order = order[:k]
    return order
