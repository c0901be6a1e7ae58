"""Lazy best-first subset enumeration.

At the paper's largest scales (Fig. 12-13: up to 1208 jobs on 8-core
machines) a single graph level holds ~C(1200, 7) nodes, so "sort the nodes of
each level by weight" (Section IV) cannot be done by materializing the level.
For *member-wise monotone* weight functions — replacing a subset member with
a higher-ranked item never decreases the weight, which holds for
:class:`~repro.core.degradation.MissRatePressureModel` — the k lowest-weight
subsets can be enumerated lazily with a heap, in the style of the classic
k-smallest-sums algorithm.

:func:`iter_subsets_by_weight` dispatches between the lazy enumerator and an
exact sort-everything fallback for arbitrary weight functions at small n.

:func:`iter_subsets_monotone` lives in
:mod:`repro.perf.kernels.numpy_backend` and is re-exported here.  It is the
reference of the compiled ``pressure_monotone_topk`` kernel, and with
compiled kernels :class:`~repro.graph.levels.SuccessorGenerator` streams
pressure-form levels through its ``topk`` hook, one kernel call per
growing prefix.  The kernels' import-time self-check runs it; importing
it from this package there would be circular (the graph modules import
the degradation models, which import the kernels).
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from ..perf.kernels.numpy_backend import iter_subsets_monotone

__all__ = ["iter_subsets_monotone", "iter_subsets_exact", "iter_subsets_by_weight"]


def iter_subsets_exact(
    items: Sequence[int],
    k: int,
    weight: Callable[[Tuple[int, ...]], float],
) -> Iterator[Tuple[Tuple[int, ...], float]]:
    """Materialize every k-subset, sort by weight, yield ascending.

    Exact for arbitrary weight functions; only viable when ``C(|items|, k)``
    is modest (all the paper's catalog-scale experiments).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    scored = [
        (weight(c), c) for c in itertools.combinations(sorted(items), k)
    ]
    scored.sort(key=lambda t: (t[0], t[1]))
    for w, c in scored:
        yield (c, w)


def iter_subsets_by_weight(
    items: Sequence[int],
    k: int,
    weight: Callable[[Tuple[int, ...]], float],
    rank_key: Callable[[int], float] | None = None,
    monotone: bool = False,
    weight_batch: Optional[Callable[[List[Tuple[int, ...]]], Sequence[float]]] = None,
) -> Iterator[Tuple[Tuple[int, ...], float]]:
    """Dispatch: lazy heap enumeration when ``monotone``, else exact sort."""
    if monotone:
        if rank_key is None:
            raise ValueError("monotone enumeration requires rank_key")
        return iter_subsets_monotone(items, k, weight, rank_key,
                                     weight_batch=weight_batch)
    return iter_subsets_exact(items, k, weight)
