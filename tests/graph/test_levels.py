"""Tests for successor generation and the h(v) estimators."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.degradation import (
    AsymmetricContentionModel,
    MatrixDegradationModel,
    MissRatePressureModel,
)
from repro.core.jobs import Workload, pe_job, serial_job
from repro.core.machine import DUAL_CORE_CLUSTER, QUAD_CORE_CLUSTER
from repro.core.objective import evaluate_schedule
from repro.core.problem import CoSchedulingProblem
from repro.core.schedule import CoSchedule
from repro.perf import kernels
import repro.graph.levels as levels_mod
from repro.graph.levels import HeuristicEstimator, SuccessorGenerator
from repro.graph.subset_enum import iter_subsets_monotone


def pressure_problem(n, cluster=QUAD_CORE_CLUSTER, seed=0, saturation=None):
    jobs = [serial_job(i, f"j{i}") for i in range(n)]
    wl = Workload(jobs, cores_per_machine=cluster.cores)
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.15, 0.75, size=wl.n)
    for pid in range(wl.n):
        if wl.is_imaginary(pid):
            rates[pid] = 0.0
    model = MissRatePressureModel(rates, cores=cluster.cores,
                                  saturation=saturation)
    return CoSchedulingProblem(wl, cluster, model)


class TestSuccessorGenerator:
    def test_counts_all_valid_nodes(self):
        problem = pressure_problem(8)
        gen = SuccessorGenerator(problem)
        succ = gen.successors(tuple(range(8)))
        assert len(succ) == math.comb(7, 3)
        assert all(node[0] == 0 for node, _w in succ)

    def test_limit_returns_lowest_weights(self):
        problem = pressure_problem(8)
        gen = SuccessorGenerator(problem)
        full = sorted(w for _n, w in gen.successors(tuple(range(8))))
        top = gen.successors(tuple(range(8)), limit=5)
        assert [w for _n, w in top] == pytest.approx(full[:5])

    def test_lazy_path_matches_exact(self):
        problem = pressure_problem(16)
        exact_gen = SuccessorGenerator(problem, lazy_threshold=10**9)
        lazy_gen = SuccessorGenerator(problem, lazy_threshold=1)
        st_ = tuple(range(16))
        exact = exact_gen.successors(st_, limit=4)
        lazy = lazy_gen.successors(st_, limit=4)
        assert [w for _n, w in exact] == pytest.approx([w for _n, w in lazy])
        assert [set(n) for n, _ in exact] == [set(n) for n, _ in lazy]

    def test_pe_bucketing_shrinks_enumeration(self):
        jobs = [pe_job(0, "mc", nprocs=6), serial_job(1, "a"), serial_job(2, "b")]
        wl = Workload(jobs, cores_per_machine=4)
        # PE ranks share a miss rate, so the model declares them
        # interchangeable and bucketing may kick in.
        model = MissRatePressureModel([0.5] * 6 + [0.2, 0.7], cores=4)
        problem = CoSchedulingProblem(wl, QUAD_CORE_CLUSTER, model)
        bucketed = SuccessorGenerator(problem, condense_pe=True)
        flat = SuccessorGenerator(problem, condense_pe=False)
        s = tuple(range(8))
        n_b = len(bucketed.successors(s))
        n_f = len(flat.successors(s))
        assert n_b < n_f == math.comb(7, 3)
        # Bucketed choices: level pid is rank 0 of the PE job; remaining
        # 3 slots from {5 more PE ranks (prefix only), a, b}:
        # compositions: (3,0,0),(2,1,0),(2,0,1),(1,1,1) -> 4 nodes.
        assert n_b == 4

    def test_stream_requires_monotone(self):
        jobs = [pe_job(0, "mc", nprocs=4)]
        wl = Workload(jobs, cores_per_machine=2)
        problem = CoSchedulingProblem(
            wl, DUAL_CORE_CLUSTER,
            MatrixDegradationModel(pairwise=np.zeros((4, 4))),
        )
        gen = SuccessorGenerator(problem)
        assert not gen.supports_stream()
        with pytest.raises(RuntimeError):
            next(gen.successors_stream((0, 1, 2, 3)))

    def test_stream_ascending(self):
        problem = pressure_problem(12)
        gen = SuccessorGenerator(problem)
        assert gen.supports_stream()
        ws = [w for _n, w in itertools.islice(
            gen.successors_stream(tuple(range(12))), 30)]
        assert all(a <= b + 1e-12 for a, b in zip(ws, ws[1:]))


def heap_successors(problem, unscheduled):
    """A level's successors from the per-pop Python heap enumerator,
    scored through the model's batch kernel — the order the lazy paths
    must reproduce."""
    model = problem.model
    level_pid, rest = unscheduled[0], unscheduled[1:]
    k = problem.u - 1

    def weight_batch(subs):
        rows = np.array([(level_pid,) + sub for sub in subs], dtype=np.intp)
        return model.node_weights_batch(rows)

    for sub, w in iter_subsets_monotone(rest, k, None, model.pressure,
                                        weight_batch=weight_batch):
        yield tuple(sorted((level_pid,) + sub)), w


COMPILED = kernels.active_backend() == "native"
needs_compiled = pytest.mark.skipif(not COMPILED,
                                    reason="compiled kernels not active")


class TestLazyLevelKernel:
    """With compiled kernels, pressure-form models take each lazy level
    prefix from one ``pressure_monotone_topk`` call; without them the
    Python heap streams.  The order must not change either way."""

    def test_stream_reads_past_first_call(self):
        problem = pressure_problem(20, saturation=0.9)
        gen = SuccessorGenerator(problem)
        state = tuple(range(20))
        got = list(itertools.islice(gen.successors_stream(state), 300))
        assert got == list(itertools.islice(heap_successors(problem, state),
                                            300))
        assert gen.stats["generated"] == 300

    @needs_compiled
    def test_compiled_stream_grows_fourfold(self):
        problem = pressure_problem(20, saturation=0.9)
        gen = SuccessorGenerator(problem)
        # C(19, 3) = 969: calls for 64, 256, then the whole level (capped).
        list(itertools.islice(gen.successors_stream(tuple(range(20))), 300))
        stats = problem.counters.batch_stats("lazy_frontier")
        assert (stats["batches"], stats["items"]) == (3, 64 + 256 + 969)

    def test_heap_stream_scores_only_what_it_reads(self, monkeypatch):
        """Without compiled kernels the heap streams directly: reading
        ``t`` entries scores at most ``1 + t*k`` subsets, with no prefix
        recomputed."""
        monkeypatch.setattr(levels_mod._kernels, "active_backend",
                            lambda: "numpy")
        problem = pressure_problem(20, saturation=0.9)
        gen = SuccessorGenerator(problem)
        state = tuple(range(20))
        got = list(itertools.islice(gen.successors_stream(state), 65))
        assert got == list(itertools.islice(heap_successors(problem, state),
                                            65))
        assert problem.counters.batch_stats("lazy_frontier")["items"] <= (
            1 + 65 * 3)

    def test_stream_covers_whole_level_once(self):
        problem = pressure_problem(12, seed=4)
        gen = SuccessorGenerator(problem)
        state = tuple(range(3, 12))
        got = list(gen.successors_stream(state))
        assert got == list(heap_successors(problem, state))
        assert len(got) == math.comb(8, 3)  # fewer than 64: one call
        if COMPILED:
            batches = problem.counters.batch_stats("lazy_frontier")["batches"]
            assert batches == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_lazy_trim_matches_heap_for_monotone_and_proxy(self, seed):
        jobs = [serial_job(i, f"j{i}") for i in range(24)]
        wl = Workload(jobs, cores_per_machine=4)
        for model in (
            MissRatePressureModel.random(24, cores=4, seed=seed),
            AsymmetricContentionModel.random(24, cores=4, seed=seed,
                                             saturation=0.9),
        ):
            problem = CoSchedulingProblem(wl, QUAD_CORE_CLUSTER, model)
            gen = SuccessorGenerator(problem, lazy_threshold=1)
            state = tuple(range(24))
            got = gen.successors(state, limit=6)
            if model.is_member_monotone():
                prefix = list(itertools.islice(
                    heap_successors(problem, state), 6))
                want = prefix
            else:
                # Proxy ranks: oversample 4x, keep the 6 lightest.
                prefix = list(itertools.islice(
                    heap_successors(problem, state), 24))
                want = sorted(prefix, key=lambda t: (t[1], t[0]))[:6]
            assert got == want
            if COMPILED:
                assert problem.counters.batch_stats("lazy_frontier") == {
                    "batches": 1, "items": len(prefix),
                    "max_size": len(prefix), "mean_size": float(len(prefix)),
                }


def complete_schedules(n, u):
    """All canonical partitions, as node tuples."""
    def rec(unscheduled):
        if not unscheduled:
            yield ()
            return
        head, rest = unscheduled[0], unscheduled[1:]
        for combo in itertools.combinations(rest, u - 1):
            node = (head,) + combo
            remaining = tuple(p for p in rest if p not in combo)
            for tail in rec(remaining):
                yield (node,) + tail
    yield from rec(tuple(range(n)))


class TestHeuristicAdmissibility:
    @pytest.mark.parametrize("strategy", [1, 2])
    @pytest.mark.parametrize("level_mode", ["exact", "monotone", "pairwise"])
    def test_h_never_exceeds_best_completion(self, strategy, level_mode):
        """From the root state, h must lower-bound the optimal objective."""
        problem = pressure_problem(8, cluster=QUAD_CORE_CLUSTER, seed=3)
        est = HeuristicEstimator(problem, strategy=strategy,
                                 level_mode=level_mode)
        best = min(
            evaluate_schedule(
                problem, CoSchedule.from_groups(groups, u=4, n=8)
            ).objective
            for groups in complete_schedules(8, 4)
        )
        assert est.h(tuple(range(8))) <= best + 1e-9

    def test_h_admissible_from_intermediate_states(self):
        problem = pressure_problem(8, cluster=DUAL_CORE_CLUSTER, seed=5)
        est = HeuristicEstimator(problem, strategy=2, level_mode="exact")
        # For every partial path, h(state) <= cost of the best completion
        # of the REMAINING jobs.
        from repro.core.objective import partial_distance

        for groups in complete_schedules(6, 2):
            # evaluate suffix completions of each prefix
            for k in range(1, 3):
                prefix, suffix = groups[:k], groups[k:]
                unscheduled = tuple(sorted(
                    p for g in suffix for p in g
                ))
                suffix_cost = partial_distance(problem, suffix)
                assert est.h(unscheduled) <= suffix_cost + 1e-9

    def test_both_strategies_give_positive_bounds(self):
        """S1 and S2 are incomparable pointwise (the paper's claim is about
        pruning effectiveness, not dominance) — but both must be positive
        lower bounds on a contended instance."""
        problem = pressure_problem(12, seed=7)
        e1 = HeuristicEstimator(problem, strategy=1, level_mode="exact")
        e2 = HeuristicEstimator(problem, strategy=2, level_mode="exact")
        state = tuple(range(12))
        assert e1.h(state) > 0.0
        assert e2.h(state) > 0.0

    def test_h_tail_bounds_children(self):
        problem = pressure_problem(12, seed=9)
        est = HeuristicEstimator(problem, strategy=2)
        state = tuple(range(12))
        tail = est.h_tail(state)
        gen = SuccessorGenerator(problem)
        for node, _w in gen.successors(state, limit=10):
            child = tuple(p for p in state if p not in node)
            assert est.h(child) >= tail - 1e-9

    def test_zero_when_done(self):
        problem = pressure_problem(8)
        est = HeuristicEstimator(problem)
        assert est.h(()) == 0.0

    def test_invalid_args(self):
        problem = pressure_problem(8)
        with pytest.raises(ValueError):
            HeuristicEstimator(problem, strategy=3)
        with pytest.raises(ValueError):
            HeuristicEstimator(problem, h_parallel="bogus")
        with pytest.raises(ValueError):
            HeuristicEstimator(problem, variant="bogus")
        with pytest.raises(ValueError):
            HeuristicEstimator(problem, level_mode="bogus")


class TestBatchScoredSuccessors:
    def test_eager_batch_matches_scalar_reference(self):
        problem = pressure_problem(12)
        gen = SuccessorGenerator(problem)
        unscheduled = tuple(range(12))
        out = gen.successors(unscheduled)
        for node, w in out:
            assert w == pytest.approx(problem.node_weight(node), abs=1e-12)
        assert len(out) == math.comb(11, 3)

    def test_parallel_pool_successors_identical(self):
        problem = pressure_problem(16)  # multiple of u: batch-capable
        unscheduled = tuple(range(16))
        reference = SuccessorGenerator(problem).successors(unscheduled)
        problem.clear_caches()
        gen = SuccessorGenerator(problem, parallel_workers=2,
                                 parallel_threshold=8, parallel_chunk=64)
        try:
            pooled = gen.successors(unscheduled)
        finally:
            gen.close()
        assert [nd for nd, _ in pooled] == [nd for nd, _ in reference]
        ref_w = [w for _, w in reference]
        pool_w = [w for _, w in pooled]
        assert pool_w == pytest.approx(ref_w, abs=1e-12)
        assert problem.counters.batch_stats("parallel_level_score")["batches"] >= 1

    def test_presorted_levels_batch_matches(self):
        # MatrixDegradationModel without pressure-free path -> presorted
        # levels, now scored through the batch kernel.
        model = MatrixDegradationModel.random_interaction(8, cores=2, seed=3)
        jobs = [serial_job(i, f"j{i}") for i in range(8)]
        wl = Workload(jobs, cores_per_machine=2)
        problem = CoSchedulingProblem(wl, DUAL_CORE_CLUSTER, model)
        gen = SuccessorGenerator(problem)
        out = gen.successors(tuple(range(8)), sort=True)
        weights = [w for _, w in out]
        assert weights == sorted(weights)
        for node, w in out:
            assert w == pytest.approx(problem.node_weight(node), abs=1e-12)
