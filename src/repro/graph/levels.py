"""Graph levels: successor generation and h(v) level statistics.

The co-scheduling graph (Fig. 3) organizes its C(n, u) nodes into levels by
the smallest process id in the node.  A search state is the set of already
scheduled processes; its *valid level* is the smallest unscheduled pid, and
its successors are the nodes ``{level_pid} ∪ (u-1 unscheduled others)``.

:class:`SuccessorGenerator` enumerates successors with three optimizations:

* **PE bucketing** — processes of one PE job are fully interchangeable, so
  only the lowest-ranked unscheduled processes of each PE job are ever
  chosen (exact, always safe);
* **PC condensation** — Section III-E: successors with identical serial
  content and identical per-PC-job communication properties are collapsed to
  one representative;
* **lazy monotone enumeration** — for member-wise monotone models at scale,
  successors stream in ascending weight without materializing the level.

:class:`HeuristicEstimator` implements the paper's two h(v) strategies
(Section III-D) over precomputed per-level minimum weights, in several
rigor modes (see :meth:`HeuristicEstimator.__init__`).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..comm.properties import node_condensation_key
from ..core.degradation import MissRatePressureModel
from ..core.jobs import JobKind
from ..core.problem import CoSchedulingProblem
from ..perf import kernels as _kernels
from ..perf.parallel_expand import ParallelLevelScorer
from .subset_enum import iter_subsets_monotone

__all__ = ["SuccessorGenerator", "HeuristicEstimator"]


# --------------------------------------------------------------------- #
# Successor generation
# --------------------------------------------------------------------- #


def _iter_group_combinations(
    groups: Sequence[Tuple[int, ...]], k: int
) -> Iterator[Tuple[int, ...]]:
    """Combinations of ``k`` pids, choosing a *prefix* from each group.

    ``groups`` are disjoint sorted pid tuples; interchangeable processes
    share a group and only their lowest unscheduled members are eligible,
    which is what makes the enumeration canonical (each equivalence class
    appears exactly once).
    """
    n_groups = len(groups)
    suffix_capacity = [0] * (n_groups + 1)
    for i in range(n_groups - 1, -1, -1):
        suffix_capacity[i] = suffix_capacity[i + 1] + len(groups[i])

    chosen: List[int] = []

    def rec(gi: int, remaining: int) -> Iterator[Tuple[int, ...]]:
        if remaining == 0:
            yield tuple(sorted(chosen))
            return
        if gi >= n_groups or suffix_capacity[gi] < remaining:
            return
        group = groups[gi]
        top = min(len(group), remaining)
        for take in range(top, -1, -1):
            chosen.extend(group[:take])
            yield from rec(gi + 1, remaining - take)
            del chosen[len(chosen) - take :]

    yield from rec(0, k)


class SuccessorGenerator:
    """Enumerates the valid successor nodes of a search state."""

    def __init__(
        self,
        problem: CoSchedulingProblem,
        condense_pe: bool = True,
        condense_pc: bool = False,
        lazy_threshold: int = 512,
        presort_limit: int = 300_000,
        parallel_workers: Optional[int] = None,
        parallel_threshold: int = 8192,
        parallel_chunk: int = 4096,
    ):
        self.problem = problem
        self.condense_pe = condense_pe
        self.condense_pc = condense_pc
        self.lazy_threshold = lazy_threshold
        self.presort_limit = presort_limit
        self.parallel_threshold = parallel_threshold
        wl = problem.workload
        self._kind: List[JobKind] = [wl.kind_of(pid) for pid in wl.iter_pids()]
        self._job_id: List[int] = [
            -1 if wl.job_of(pid) is None else wl.job_of(pid).job_id
            for pid in wl.iter_pids()
        ]
        self._has_parallel = any(k is not JobKind.SERIAL for k in self._kind)
        self._monotone_ok = (
            problem.model.is_member_monotone() and not self._has_parallel
        )
        # Proxy streaming: the model exposes a pressure rank key and a fast
        # node weight but is NOT member-monotone — lazy enumeration is then
        # only approximately sorted, which the trimmed (HA*) search may use
        # with oversampling; exact searches never do.
        model = problem.model
        self._proxy_ok = (
            not self._has_parallel
            and not self._monotone_ok
            and callable(getattr(model, "node_weight_fast", None))
            and self._has_pressure(model)
        )
        # Per-pid rank keys of the lazy enumerator, looked up per level.
        self._rank_keys: List[float] = []
        if self._monotone_ok or self._proxy_ok:
            self._rank_keys = [model.pressure(pid) for pid in range(problem.n)]
        # Presorted levels: the paper's graph organization — materialize
        # every node once, sort each level by weight, and filter validity
        # per state.  Exact ascending order for ANY model, at the cost of
        # C(n, u) node evaluations up front; only worthwhile for serial
        # workloads at moderate n (parallel workloads use condensation
        # instead, huge n uses the lazy streams).
        self._presort_ok = (
            not self._has_parallel
            and not self._monotone_ok
            and not self._proxy_ok
            and math.comb(problem.n, problem.u) <= self.presort_limit
        )
        self._levels_sorted: Optional[List[List[Tuple[float, Tuple[int, ...]]]]] = None
        self.stats = {"generated": 0, "condensed_away": 0}
        # Opt-in multiprocessing MER scoring: only pays off when the model
        # kernel is vectorized and levels are big enough to amortize pickles.
        self._scorer: Optional[ParallelLevelScorer] = None
        if (
            parallel_workers is not None
            and parallel_workers > 1
            and problem.supports_batch_weights()
        ):
            self._scorer = ParallelLevelScorer(
                problem.model, parallel_workers, chunk=parallel_chunk
            )

    def close(self) -> None:
        """Release the parallel scoring pool, if one was started."""
        if self._scorer is not None:
            self._scorer.close()

    def _score_nodes(self, nodes: List[Tuple[int, ...]]) -> np.ndarray:
        """Weights for already-enumerated nodes, one kernel call per chunk.

        Routes through the problem's memoized batch evaluator; levels past
        ``parallel_threshold`` go to the worker pool instead (bypassing the
        memo — frontiers that large are throw-away).  Returns the scored
        float array itself so callers can trim or sort it without ever
        materializing per-node Python objects.
        """
        if (
            self._scorer is not None
            and len(nodes) >= self.parallel_threshold
            and self.problem.node_extra_cost is None
        ):
            weights = self._scorer.score(np.asarray(nodes, dtype=np.intp))
            self.problem.counters.observe_batch("parallel_level_score", len(nodes))
            return weights
        return self.problem.node_weights_batch(nodes)

    def _ensure_presorted(self) -> None:
        if self._levels_sorted is not None:
            return
        n, u = self.problem.n, self.problem.u
        levels: List[List[Tuple[float, Tuple[int, ...]]]] = []
        batch_ok = self.problem.supports_batch_weights()
        for L in range(n - u + 1):
            nodes = [
                (L,) + combo
                for combo in itertools.combinations(range(L + 1, n), u - 1)
            ]
            if batch_ok:
                weights = self._score_nodes(nodes)
            else:
                weights = np.asarray(
                    [self.problem.node_weight(nd) for nd in nodes]
                )
            # Stable argsort == (weight, node) order: nodes are enumerated
            # in ascending node order, so position ties ARE node ties.
            order = _kernels.select_smallest(weights, len(nodes))
            levels.append([(float(weights[i]), nodes[i]) for i in order])
        self._levels_sorted = levels

    @staticmethod
    def _has_pressure(model) -> bool:
        try:
            model.pressure(0)
            return True
        except (NotImplementedError, IndexError):
            return False

    # ------------------------------------------------------------------ #

    def _groups(self, rest: Sequence[int]) -> List[Tuple[int, ...]]:
        """Group interchangeable PE processes; everything else is a singleton.

        Two PE ranks bucket together only when they belong to the same job
        AND the degradation model declares them exact substitutes
        (``interchangeable_key``) — arbitrary per-pid models keep every
        rank distinct, which preserves exactness.
        """
        model = self.problem.model
        singles: List[Tuple[int, ...]] = []
        pe_groups: Dict[tuple, List[int]] = {}
        for pid in rest:
            if self.condense_pe and self._kind[pid] is JobKind.PE:
                key = (self._job_id[pid], model.interchangeable_key(pid))
                pe_groups.setdefault(key, []).append(pid)
            else:
                singles.append((pid,))
        groups = singles + [tuple(sorted(v)) for v in pe_groups.values()]
        groups.sort(key=lambda g: g[0])
        return groups

    def count_valid_nodes(self, unscheduled: Sequence[int]) -> int:
        """C(|unscheduled| - 1, u - 1): valid nodes before condensation."""
        return math.comb(len(unscheduled) - 1, self.problem.u - 1)

    def successors(
        self,
        unscheduled: Tuple[int, ...],
        limit: Optional[int] = None,
        sort: bool = False,
    ) -> List[Tuple[Tuple[int, ...], float]]:
        """Successor nodes of a state, as ``(node, weight)`` pairs.

        Parameters
        ----------
        unscheduled:
            Sorted tuple of unscheduled pids; the valid level is
            ``unscheduled[0]``.
        limit:
            Keep only the ``limit`` lowest-weight successors (HA*'s MER
            trimming).  Implies weight ordering of the survivors.
        sort:
            Return successors in ascending weight even without ``limit``.
        """
        if not unscheduled:
            return []
        level_pid = unscheduled[0]
        rest = unscheduled[1:]
        k = self.problem.u - 1
        if len(rest) < k:
            return []

        if (
            limit is not None
            and (self._monotone_ok or self._proxy_ok)
            and math.comb(len(rest), k) > max(4 * limit, self.lazy_threshold)
        ):
            return self._successors_lazy(level_pid, rest, k, limit)

        if self._presort_ok:
            self._ensure_presorted()
            unsched_set = frozenset(rest)
            out = []
            for w, node in self._levels_sorted[level_pid]:
                ok = True
                for pid in node[1:]:
                    if pid not in unsched_set:
                        ok = False
                        break
                if ok:
                    out.append((node, w))
                    if limit is not None and len(out) >= limit:
                        break
            self.stats["generated"] += len(out)
            return out

        seen_keys = set()
        if self._has_parallel and (self.condense_pe or self.condense_pc):
            combos: Iterator[Tuple[int, ...]] = _iter_group_combinations(
                self._groups(rest), k
            )
        else:
            combos = itertools.combinations(rest, k)
        wl = self.problem.workload
        nodes: List[Tuple[int, ...]] = []
        for combo in combos:
            # combos are ascending and level_pid is the smallest unscheduled
            # pid, so the concatenation is already in node-id order.
            node = (level_pid,) + combo
            if self.condense_pc and self._has_parallel:
                key = node_condensation_key(wl, node)
                if key in seen_keys:
                    self.stats["condensed_away"] += 1
                    continue
                seen_keys.add(key)
            nodes.append(node)
        # Score the whole surviving level at once: one batch-kernel call
        # (chunked to workers at scale) instead of one Python weight
        # evaluation per node.
        if self.problem.supports_batch_weights():
            weights = self._score_nodes(nodes)
        else:
            node_weight = self.problem.node_weight
            weights = np.asarray([node_weight(nd) for nd in nodes])
        self.stats["generated"] += len(nodes)
        if limit is not None or sort:
            # Fused score-then-select (the MER top-n/u trim): the k lowest
            # (weight, node) survivors come straight off the scored array —
            # the full level is never materialized as Python pairs only to
            # be re-partitioned by a heap.
            k = len(nodes) if limit is None else min(limit, len(nodes))
            sel = _kernels.select_smallest(weights, k)
            return [(nodes[i], float(weights[i])) for i in sel]
        return list(zip(nodes, weights.tolist()))

    def supports_stream(self) -> bool:
        """True when successors can be streamed in exact ascending weight
        (member-monotone lazy enumeration, or presorted levels)."""
        return self._monotone_ok or self._presort_ok

    def successors_stream(
        self, unscheduled: Tuple[int, ...]
    ) -> Iterator[Tuple[Tuple[int, ...], float]]:
        """Stream successors in ascending weight.

        Member-monotone models enumerate lazily (a level with
        astronomically many nodes costs only what the search consumes);
        other serial models walk their presorted level, skipping invalid
        nodes — the paper's own search organization.  Used by
        partial-expansion A* and HA*.
        """
        if self._presort_ok:
            self._ensure_presorted()
            level_pid = unscheduled[0]
            unsched_set = frozenset(unscheduled[1:])
            for w, node in self._levels_sorted[level_pid]:
                ok = True
                for pid in node[1:]:
                    if pid not in unsched_set:
                        ok = False
                        break
                if ok:
                    self.stats["generated"] += 1
                    yield (node, w)
            return
        if not self._monotone_ok:
            raise RuntimeError("successor streaming requires a monotone model")
        level_pid = unscheduled[0]
        rest = unscheduled[1:]
        k = self.problem.u - 1
        if len(rest) < k:
            return
        for item in self._iter_lazy(level_pid, rest, k, 64):
            self.stats["generated"] += 1
            yield item

    def _iter_lazy(
        self, level_pid: int, rest: Tuple[int, ...], k: int, first: int
    ) -> Iterator[Tuple[Tuple[int, ...], float]]:
        """Successors of a level in the lazy enumerator's order (ascending
        weight for member-monotone models).

        With compiled kernels, pressure-form models (:meth:`~repro.core
        .degradation.CacheDegradationModel.pressure_terms`) take the
        entries from ``pressure_monotone_topk``: ``first`` of them in one
        call, then four times as many per further call (see
        :func:`iter_subsets_monotone`).  Otherwise — models without
        pressure terms (the pairwise proxy, split-search restrictions), or
        the NumPy provider, whose top-L *is* the Python heap — the heap of
        :func:`iter_subsets_monotone` streams directly, scoring each pop's
        children in one batch, so no prefix is ever recomputed.  Both bypass the problem memo — lazy
        frontiers are throw-away — so extra node costs must be absent,
        matching the ``node_weight_fast`` streaming contract.
        """
        model = self.problem.model
        terms = model.pressure_terms()
        topk = None
        if terms is not None and _kernels.active_backend() == "native":
            counters = self.problem.counters

            def topk(ordered, count):
                subsets, weights = _kernels.pressure_monotone_topk(
                    np.asarray(ordered, dtype=np.int64), level_pid, k,
                    *terms, count,
                )
                counters.observe_batch("lazy_frontier", len(weights))
                return subsets, weights

        fast = getattr(model, "node_weight_fast", None)
        score = fast if callable(fast) else self.problem.node_weight

        def weight(sub: Tuple[int, ...]) -> float:
            return score((level_pid,) + sub)

        for sub, w in iter_subsets_monotone(
            rest, k, weight, self._rank_keys.__getitem__,
            weight_batch=self._make_weight_batch(level_pid, k),
            topk=topk, first=first,
        ):
            yield (tuple(sorted((level_pid,) + sub)), w)

    def _make_weight_batch(self, level_pid: int, k: int):
        """Child-frontier scoring closure for the Python heap enumerator.

        Maps a batch of (u-1)-subsets to full nodes and runs ONE vectorized
        model-kernel call; None when the model has no vectorized kernel
        (the enumerator then falls back to scalar ``weight`` calls).
        """
        model = self.problem.model
        if not model.supports_batch():
            return None
        counters = self.problem.counters

        def weight_batch(subs: List[Tuple[int, ...]]) -> np.ndarray:
            arr = np.empty((len(subs), k + 1), dtype=np.intp)
            arr[:, 0] = level_pid
            arr[:, 1:] = subs
            counters.observe_batch("lazy_frontier", len(subs))
            return model.node_weights_batch(arr)

        return weight_batch

    def _successors_lazy(
        self, level_pid: int, rest: Tuple[int, ...], k: int, limit: int
    ) -> List[Tuple[Tuple[int, ...], float]]:
        """First ``limit`` successors in ascending weight, without
        materializing the level.

        For member-monotone models the heap enumeration is exactly sorted;
        for proxy models (``_proxy_ok``) the stream is only approximately
        sorted, so we oversample 4x and keep the ``limit`` lowest true
        weights — the documented approximation HA* uses at scale.
        """
        take = limit if self._monotone_ok else 4 * limit
        out = list(itertools.islice(
            self._iter_lazy(level_pid, rest, k, take), take))
        if not self._monotone_ok and len(out) > limit:
            out = heapq.nsmallest(limit, out, key=lambda t: (t[1], t[0]))
        self.stats["generated"] += len(out)
        return out


# --------------------------------------------------------------------- #
# h(v) estimation (Section III-D)
# --------------------------------------------------------------------- #


class HeuristicEstimator:
    """The paper's two strategies for the A* heuristic ``h(v)``.

    Parameters
    ----------
    problem:
        The instance; level statistics are precomputed once per estimator.
    strategy:
        1 — the r smallest node weights among all remaining levels;
        2 — one minimum-weight node per remaining valid level (much tighter,
        the paper's Table IV winner).
    h_parallel:
        How parallel processes count inside node weights: ``"zero"``
        (admissible — a parallel process's degradation may be absorbed by
        its job's running max, which g already includes) or ``"sum"``
        (the paper's literal node weight; can over-estimate with parallel
        jobs, reproduced for the ablation).
    level_mode:
        How per-level minimum node weights are obtained:
        ``"exact"`` — enumerate every node (tiny n);
        ``"monotone"`` — closed form via the lowest-pressure members
        (member-monotone serial models, any n);
        ``"pairwise"`` — admissible lower bound ``min_j d(L, {j})`` from the
        pairwise degradation table (any model, inclusion-monotone cache d);
        ``"auto"`` — monotone if available, exact when C(n, u) is small,
        else pairwise.
    variant:
        Strategy-2 level selection: ``"suffix"`` (admissible suffix-minimum
        over levels ≥ the k-th smallest unscheduled pid) or ``"paper"``
        (literal levels ``u_1, u_{1+u}, …``).
    """

    def __init__(
        self,
        problem: CoSchedulingProblem,
        strategy: int = 2,
        h_parallel: str = "zero",
        level_mode: str = "auto",
        variant: str = "suffix",
        exact_limit: int = 40_000,
    ):
        if strategy not in (1, 2):
            raise ValueError("strategy must be 1 or 2")
        if h_parallel not in ("zero", "sum"):
            raise ValueError("h_parallel must be 'zero' or 'sum'")
        if variant not in ("suffix", "paper"):
            raise ValueError("variant must be 'suffix' or 'paper'")
        self.problem = problem
        self.strategy = strategy
        self.h_parallel = h_parallel
        self.variant = variant
        n, u = problem.n, problem.u
        self.n, self.u = n, u
        wl = problem.workload
        self._serial_only = all(
            wl.kind_of(pid) is JobKind.SERIAL for pid in wl.iter_pids()
        )

        if level_mode == "auto":
            if problem.model.is_member_monotone() and self._serial_only:
                level_mode = "monotone"
            elif math.comb(n, u) <= exact_limit:
                level_mode = "exact"
            else:
                level_mode = "pairwise"
        self.level_mode = level_mode

        self._node_weights_sorted: Optional[List[Tuple[float, int]]] = None
        with problem.counters.phase("heuristic_levels"):
            self._level_min = self._compute_level_min()
        # suffix_min[L] = min over levels >= L (levels run 0..n-u).
        suffix = list(self._level_min)
        for L in range(len(suffix) - 2, -1, -1):
            suffix[L] = min(suffix[L], suffix[L + 1])
        self._suffix_min = suffix
        self._s1_cache: Dict[Tuple[int, int], float] = {}

    # ------------------------------------------------------------------ #

    def _h_node_weight(self, node: Tuple[int, ...]) -> float:
        return self.problem.node_h_weight(node, parallel_as=self.h_parallel)

    def _compute_level_min(self) -> List[float]:
        n, u = self.n, self.u
        n_levels = n - u + 1
        if self.level_mode == "exact":
            level_min = [math.inf] * n_levels
            all_nodes: List[Tuple[float, int]] = []
            # Serial-only workloads with no extra node cost have
            # node_h_weight == node_weight for either h_parallel mode, so
            # whole levels batch through the vectorized kernel (and the
            # scored weights land in the problem memo for the search to
            # reuse).
            batch_ok = (
                self._serial_only
                and self.problem.supports_batch_weights()
                and self.problem.node_extra_cost is None
            )
            for L in range(n_levels):
                nodes = [
                    (L,) + combo
                    for combo in itertools.combinations(range(L + 1, n), u - 1)
                ]
                if batch_ok:
                    weights = self.problem.node_weights_batch(nodes)
                    level_min[L] = float(weights.min()) if len(weights) else math.inf
                    all_nodes.extend((float(w), L) for w in weights)
                else:
                    for node in nodes:
                        w = self._h_node_weight(node)
                        all_nodes.append((w, L))
                        if w < level_min[L]:
                            level_min[L] = w
            all_nodes.sort()
            self._node_weights_sorted = all_nodes
            return level_min

        if self.level_mode == "monotone":
            model = self.problem.model
            pressures = [(model.pressure(pid), pid) for pid in range(n)]
            level_min = [math.inf] * n_levels
            # Sweep L descending, maintaining the u-1 lowest-pressure pids > L.
            best: List[Tuple[float, int]] = []  # max-heap via negation
            for L in range(n - 1, -1, -1):
                if L < n_levels and len(best) == u - 1:
                    members = (L,) + tuple(pid for _, pid in best)
                    if isinstance(model, MissRatePressureModel):
                        level_min[L] = model.node_weight_fast(members)
                    else:  # pragma: no cover
                        level_min[L] = self._h_node_weight(tuple(sorted(members)))
                p = pressures[L]
                if len(best) < u - 1:
                    heapq.heappush(best, (-p[0], p[1]))
                elif best and -best[0][0] > p[0]:
                    heapq.heapreplace(best, (-p[0], p[1]))
            return level_min

        if self.level_mode == "pairwise":
            wl = self.problem.workload
            level_min = []
            for L in range(n_levels):
                if wl.is_imaginary(L) or wl.kind_of(L) is not JobKind.SERIAL:
                    # Parallel/imaginary level pid contributes 0 under
                    # h_parallel="zero"; other members bounded below by 0.
                    level_min.append(0.0)
                    continue
                # The process's global floor (min over all feasible cosets of
                # the right size) bounds its node weight contribution, and
                # the other u-1 members contribute >= 0 — admissible without
                # any monotonicity assumption.
                level_min.append(self.problem.min_process_degradation(L))
            return level_min

        raise ValueError(f"unknown level_mode {self.level_mode!r}")

    # ------------------------------------------------------------------ #

    def h(self, unscheduled: Tuple[int, ...]) -> float:
        """Estimated remaining distance for a state (Section III-D)."""
        r = len(unscheduled) // self.u
        if r == 0:
            return 0.0
        if self.strategy == 1:
            return self._h1(unscheduled[0], r)
        return self._h2(unscheduled, r)

    def h_tail(self, unscheduled: Tuple[int, ...]) -> float:
        """Lower bound on h for any *child* of this state.

        For the suffix variant of Strategy 2, dropping the first-level term
        is admissible: a child's k-th smallest unscheduled pid is at least
        this state's (k+1)-th, and the suffix minima are non-decreasing.
        Used by partial-expansion A* to price un-generated successors.
        """
        if self.strategy != 2 or self.variant != "suffix":
            return 0.0
        r = len(unscheduled) // self.u
        if r <= 1:
            return 0.0
        last_level = self.n - self.u
        total = 0.0
        for k in range(1, r):
            L = min(unscheduled[k], last_level)
            total += self._suffix_min[L]
        return total

    def _h1(self, first_unscheduled: int, r: int) -> float:
        key = (first_unscheduled, r)
        hit = self._s1_cache.get(key)
        if hit is not None:
            return hit
        if self._node_weights_sorted is not None:
            total = 0.0
            taken = 0
            for w, level in self._node_weights_sorted:
                if level < first_unscheduled:
                    continue
                total += w
                taken += 1
                if taken == r:
                    break
        else:
            # One node per level is admissible (completion levels are
            # distinct); use the r smallest level minima.
            candidates = self._level_min[first_unscheduled:]
            total = sum(heapq.nsmallest(r, candidates))
        self._s1_cache[key] = total
        return total

    def _h2(self, unscheduled: Tuple[int, ...], r: int) -> float:
        last_level = self.n - self.u
        if self.variant == "paper":
            total = 0.0
            for k in range(r):
                L = min(unscheduled[k * self.u], last_level)
                total += self._level_min[L]
            return total
        total = 0.0
        for k in range(r):
            L = min(unscheduled[k], last_level)
            total += self._suffix_min[L]
        return total
