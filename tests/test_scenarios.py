"""Scenario layer: heterogeneous rosters + pluggable constraints.

Covers the constraint protocol (penalty math, generic relabeling /
machine reordering, validation), the scenario-aware problem surface
(capacity rosters, capability reporting, canonical schedules,
evaluation), and the solver contract on scenario instances: every
capable solver agrees with brute force, every incapable solver refuses
structurally before searching.
"""

import itertools

import numpy as np
import pytest

from repro.core.constraints import (
    BandwidthCapConstraint,
    CachePartitionModel,
    ScenarioConstraint,
    constraint_from_dict,
    constraint_to_dict,
)
from repro.core.degradation import MissRatePressureModel
from repro.core.jobs import Workload, serial_job
from repro.core.machine import MACHINES, ClusterSpec
from repro.core.objective import evaluate_schedule
from repro.core.problem import CoSchedulingProblem
from repro.runtime import create_solver
from repro.solvers.base import CapabilityError
from repro.workloads import bandwidth_capped_mix, heterogeneous_serial_mix
from repro.workloads.synthetic import random_heterogeneous_instance


def tiny_problem(machines=("dual", "quad"), **kwargs):
    return random_heterogeneous_instance(machines, seed=3, **kwargs)


class TestBandwidthCapConstraint:
    def test_penalty_is_relative_overage(self):
        c = BandwidthCapConstraint(
            demands=[3.0, 2.0, 1.0], caps=[4.0, None], weight=2.0
        )
        # 3 + 2 = 5 against a cap of 4: overage 1, relative 0.25, x weight.
        assert c.penalty(0, (0, 1)) == pytest.approx(2.0 * 1.0 / 4.0)
        assert c.penalty(0, (1, 2)) == 0.0       # 3 <= 4 fits
        assert c.penalty(1, (0, 1, 2)) == 0.0    # uncapped machine
        assert not c.feasible(0, (0, 1))
        assert c.feasible(0, (1, 2))

    def test_validation(self):
        with pytest.raises(ValueError):
            BandwidthCapConstraint(demands=[-1.0], caps=[None])
        with pytest.raises(ValueError):
            BandwidthCapConstraint(demands=[1.0], caps=[0.0])
        with pytest.raises(ValueError):
            BandwidthCapConstraint(demands=[1.0], caps=[None], weight=-1.0)
        c = BandwidthCapConstraint(demands=[1.0, 2.0], caps=[None, 3.0])
        c.validate_for(n=2, n_machines=2)
        with pytest.raises(ValueError, match="3 processes"):
            c.validate_for(n=3, n_machines=2)
        with pytest.raises(ValueError, match="machines"):
            c.validate_for(n=2, n_machines=3)

    def test_relabeled_moves_per_pid_data(self):
        c = BandwidthCapConstraint(
            demands=[10.0, 20.0, 30.0], caps=[5.0], weight=1.5
        )
        moved = c.relabeled([2, 0, 1])  # old pid 0 -> new pid 2, ...
        assert moved.demands == (20.0, 30.0, 10.0)
        assert moved.caps == c.caps and moved.weight == c.weight

    def test_machines_reordered_moves_caps(self):
        c = BandwidthCapConstraint(demands=[1.0], caps=[5.0, None, 7.0])
        moved = c.machines_reordered([2, 0, 1])
        assert moved.caps == (7.0, 5.0, None)
        assert c.machine_key(0) == moved.machine_key(1)

    def test_dict_round_trip(self):
        c = BandwidthCapConstraint(
            demands=[1.0, 2.0], caps=[None, 4.0], weight=0.5
        )
        back = constraint_from_dict(constraint_to_dict(c))
        assert isinstance(back, BandwidthCapConstraint)
        assert back.demands == c.demands
        assert back.caps == c.caps
        assert back.weight == c.weight

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown constraint kind"):
            constraint_from_dict({"kind": "quantum_entanglement"})


class TestCachePartitionModel:
    def test_penalty_is_spill_fraction(self):
        c = CachePartitionModel(
            footprints=[6.0, 6.0, 1.0], cache_bytes=[8.0, 16.0], weight=1.0
        )
        assert c.penalty(0, (0, 1)) == pytest.approx((12.0 - 8.0) / 8.0)
        assert c.penalty(1, (0, 1)) == 0.0       # fits the bigger cache
        assert c.feasible(0, (0, 2))

    def test_for_cluster_reads_machine_caches(self):
        roster = (MACHINES["dual"], MACHINES["quad"])
        c = CachePartitionModel.for_cluster(
            footprints=[1.0] * 6, machines=roster
        )
        assert c.cache_bytes == tuple(
            m.shared_cache.size_bytes for m in roster
        )

    def test_dict_round_trip(self):
        c = CachePartitionModel(footprints=[1.0], cache_bytes=[2.0])
        back = constraint_from_dict(constraint_to_dict(c))
        assert isinstance(back, CachePartitionModel)
        assert back.footprints == c.footprints


def roster_problem(machines, constraints=(), scaling=None, n=None):
    roster = tuple(MACHINES[m] for m in machines)
    cluster = ClusterSpec.of_machines(roster)
    n = sum(m.cores for m in roster) if n is None else n
    jobs = [serial_job(i, f"j{i}", profile_name=f"j{i}") for i in range(n)]
    wl = Workload(jobs)
    model = MissRatePressureModel(
        miss_rates=[0.01 * (i + 1) for i in range(n)],
        cores=cluster.machine.cores,
    )
    return CoSchedulingProblem(
        wl, cluster, model, constraints=constraints, machine_scaling=scaling
    )


class TestScenarioProblem:
    def test_capability_reporting(self):
        het = roster_problem(("dual", "quad"))
        assert het.is_scenario
        assert het.required_capabilities() == frozenset({"heterogeneous"})
        capped = bandwidth_capped_mix()
        assert capped.required_capabilities() == frozenset({"constraints"})
        both = heterogeneous_serial_mix(bandwidth_caps=(2.5e9, None))
        assert both.required_capabilities() == frozenset(
            {"heterogeneous", "constraints"}
        )

    def test_homogeneous_problem_requires_nothing(self):
        from repro import serial_mix

        problem = serial_mix(["BT", "CG", "EP", "FT"], cluster="quad")
        assert not problem.is_scenario
        assert problem.required_capabilities() == frozenset()

    def test_roster_sum_mismatch_names_the_roster(self):
        with pytest.raises(ValueError, match="roster provides"):
            roster_problem(("dual", "quad"), n=5)

    def test_scaling_length_and_sign_checked(self):
        with pytest.raises(ValueError, match="2 machines"):
            roster_problem(("dual", "quad"), scaling=[1.0])
        with pytest.raises(ValueError, match="positive"):
            roster_problem(("dual", "quad"), scaling=[1.0, -2.0])

    def test_equal_scaling_keeps_problem_homogeneous(self):
        p = roster_problem(("quad", "quad"), scaling=[2.0, 2.0])
        assert not p.is_scenario

    def test_make_schedule_canonicalizes_interchangeable_machines(self):
        p = roster_problem(("dual", "dual", "quad"))
        a = p.make_schedule([[4, 5], [0, 1], [2, 3, 6, 7]])
        b = p.make_schedule([[0, 1], [4, 5], [2, 3, 6, 7]])
        # The two dual machines are interchangeable, so both placements
        # canonicalize to the same machine-indexed schedule ...
        assert a == b
        assert a.groups[0] == (0, 1)
        # ... and evaluate identically.
        assert evaluate_schedule(p, a).objective == pytest.approx(
            evaluate_schedule(p, b).objective
        )

    def test_distinct_machines_are_not_swapped(self):
        caps = BandwidthCapConstraint(
            demands=[1.0] * 4, caps=[1.0, None]
        )
        p = roster_problem(("dual", "dual"), constraints=(caps,))
        s = p.make_schedule([[2, 3], [0, 1]])
        # Machine 0 is capped, machine 1 is not: the groups must stay put.
        assert s.groups == ((2, 3), (0, 1))

    def test_evaluation_includes_penalty_and_scaling(self):
        base = roster_problem(("dual", "quad"))
        sched = base.make_schedule([[0, 1], [2, 3, 4, 5]])
        plain = evaluate_schedule(base, sched).objective

        demands = [10.0] * 6
        capped = roster_problem(
            ("dual", "quad"),
            constraints=(BandwidthCapConstraint(
                demands=demands, caps=[10.0, None], weight=3.0),),
        )
        with_pen = evaluate_schedule(
            capped, capped.make_schedule([[0, 1], [2, 3, 4, 5]])
        ).objective
        # Machine 0 usage 20 against cap 10 -> penalty 3.0 * 10/10 = 3.0.
        assert with_pen == pytest.approx(plain + 3.0)

        scaled = roster_problem(("dual", "quad"), scaling=[2.0, 1.0])
        sched_s = scaled.make_schedule([[0, 1], [2, 3, 4, 5]])
        ev_base = evaluate_schedule(base, sched)
        ev_scaled = evaluate_schedule(scaled, sched_s)
        for pid in (0, 1):
            assert ev_scaled.process_degradations[pid] == pytest.approx(
                2.0 * ev_base.process_degradations[pid]
            )

    def test_capacity_mismatch_rejected(self):
        p = roster_problem(("dual", "quad"))
        other = roster_problem(("quad", "dual"))
        sched = other.make_schedule([[0, 1, 2, 3], [4, 5]])
        with pytest.raises(ValueError, match="make_schedule"):
            evaluate_schedule(p, sched)


class _EveryOtherGroup(ScenarioConstraint):
    """A third-party constraint that defines ``penalty`` only: it charges
    ``cost`` for groups whose leader is even."""

    kind = "every_other"

    def __init__(self, cost):
        self.cost = cost

    def penalty(self, machine_idx, node):
        return self.cost if node[0] % 2 == 0 else 0.0


def _with_cache_partition(problem, rng):
    """``problem`` plus a CachePartitionModel whose random footprints
    overcommit some groups on every machine."""
    cache = min(m.shared_cache.size_bytes / m.cores for m in problem.machines)
    partition = CachePartitionModel.for_cluster(
        footprints=rng.uniform(0.0, 2.5 * cache, size=problem.n).tolist(),
        machines=problem.machines, weight=0.7,
    )
    return CoSchedulingProblem(
        problem.workload, problem.cluster, problem.model,
        constraints=problem.constraints + (partition,),
        machine_scaling=problem.machine_scale,
    )


def _sample_groups(problem, k, rng, limit=150):
    groups = list(itertools.combinations(range(problem.n), problem.capacities[k]))
    picks = rng.choice(len(groups), size=min(limit, len(groups)), replace=False)
    return [groups[i] for i in sorted(picks)]


class TestBatchScoring:
    """``machine_node_weights_batch`` is the search's one scoring path;
    the scalar ``machine_node_weight`` is the reference."""

    ROSTERS = (
        (("dual", "quad"), (1.2e9, None)),
        (("quad", "eight"), (None, 3.0e9)),
        (("quad", "quad", "eight"), (None, 1.6e9, None)),
        (("dual", "dual", "quad"), (0.8e9, None, 2.0e9)),
    )

    @pytest.mark.parametrize("machines,caps", ROSTERS)
    @pytest.mark.parametrize("seed", (1, 2))
    def test_batch_matches_scalar(self, machines, caps, seed):
        rng = np.random.default_rng(seed)
        p = _with_cache_partition(random_heterogeneous_instance(
            machines, seed=seed, bandwidth_caps=caps, clock_scaling=True,
        ), rng)
        penalized = 0
        for k in range(p.n_machines):
            nodes = _sample_groups(p, k, rng)
            batch = p.machine_node_weights_batch(k, nodes)
            scalar = [p.machine_node_weight(k, node) for node in nodes]
            assert batch == pytest.approx(scalar, rel=0, abs=1e-12)
            arr = np.asarray(nodes)
            for c in p.constraints:
                vec = c.penalties(k, arr)
                assert vec.tolist() == [c.penalty(k, node) for node in nodes]
                penalized += int((vec > 0).sum())
        assert penalized > 0  # the penalties were really exercised

    def test_batch_matches_scalar_on_the_sdc_fallback(self):
        p = bandwidth_capped_mix()
        assert not p.supports_batch_weights()
        for k in range(p.n_machines):
            nodes = list(itertools.combinations(range(p.n), p.capacities[k]))
            batch = p.machine_node_weights_batch(k, nodes)
            assert batch == pytest.approx(
                [p.machine_node_weight(k, node) for node in nodes],
                rel=0, abs=1e-12,
            )

    def test_penalty_only_constraint_gets_batch_penalties(self):
        c = _EveryOtherGroup(0.25)
        nodes = np.array([[0, 1], [1, 2], [2, 5], [3, 4]])
        assert c.penalties(0, nodes).tolist() == [0.25, 0.0, 0.25, 0.0]
        p = roster_problem(("dual", "quad"), constraints=(c,))
        groups = list(itertools.combinations(range(6), 4))
        assert p.machine_node_weights_batch(1, groups) == pytest.approx(
            [p.machine_node_weight(1, g) for g in groups], rel=0, abs=1e-12
        )

    def test_negative_penalty_rejected_on_both_paths(self):
        p = roster_problem(("dual", "quad"), constraints=(_EveryOtherGroup(-1.0),))
        with pytest.raises(ValueError, match="negative penalty -1.0 for machine 0"):
            p.machine_node_weight(0, (0, 3))
        with pytest.raises(ValueError, match="negative penalty -1.0 for machine 0"):
            p.machine_node_weights_batch(0, [(1, 3), (2, 3)])
        # A batch without an offending group scores normally.
        assert len(p.machine_node_weights_batch(0, [(1, 2), (3, 4)])) == 2


EXACT = ("brute", "oastar", "osvp")
HEURISTIC = ("hastar", "pg", "hill", "anneal", "genetic")


class TestScenarioSolvers:
    @pytest.fixture(scope="class")
    def het(self):
        return tiny_problem(
            bandwidth_caps=(1.5e9, None), clock_scaling=True
        )

    @pytest.fixture(scope="class")
    def optimum(self, het):
        het.clear_caches()
        return create_solver("brute").solve(het).objective

    @pytest.mark.parametrize("name", EXACT)
    def test_exact_solvers_agree_with_brute_force(self, name, het, optimum):
        het.clear_caches()
        result = create_solver(name).solve(het)
        assert result.objective == pytest.approx(optimum, abs=1e-9)
        assert sorted(result.schedule.capacities) == [2, 4]

    @pytest.mark.parametrize("name", HEURISTIC)
    def test_heuristics_never_beat_the_optimum(self, name, het, optimum):
        het.clear_caches()
        spec = name if name in ("pg", "hastar") else f"{name}?seed=0"
        result = create_solver(spec).solve(het)
        assert result.schedule is not None
        assert result.objective >= optimum - 1e-9

    @pytest.mark.parametrize("name", ("ip", "bb"))
    def test_incapable_solver_refuses_before_searching(self, name, het):
        with pytest.raises(CapabilityError) as err:
            create_solver(name).solve(het)
        assert err.value.reason == "unsupported_scenario"

    def test_warm_start_on_scenario_problem(self, het, optimum):
        het.clear_caches()
        seed = create_solver("pg").solve(het).schedule
        result = create_solver("hill?seed=1").solve(
            het, initial_schedule=seed
        )
        assert "warm_start" in result.stats
        assert result.objective <= evaluate_schedule(
            het, seed
        ).objective + 1e-9
