"""Pinned behaviour of the scenario best-first search (``het_search``).

The search scores each expansion with one batched call and trims HA*'s
successors with a stable selection.  Node counts and HA* schedules are
pinned to the values of the one-group-at-a-time search that scored
through the scalar ``machine_node_weight``: batching must change how
weights are computed, never which nodes are expanded, generated or
dismissed, nor which schedule wins a tie.
"""

import pytest

from repro.runtime import create_solver
from repro.solvers.budget import Budget
from repro.workloads import bandwidth_capped_mix
from repro.workloads.synthetic import random_heterogeneous_instance

INSTANCES = {
    **{
        f"q+e-s{s}": (lambda s=s: random_heterogeneous_instance(
            ("quad", "eight"), seed=s))
        for s in range(1, 7)
    },
    "bw-mix": bandwidth_capped_mix,
    "dual+quad": lambda: random_heterogeneous_instance(
        ("dual", "quad"), seed=3, bandwidth_caps=(1.5e9, None),
        clock_scaling=True),
}

#: (expanded, generated, dismissed) per instance and solver.
COUNTS = {
    ("q+e-s1", "oastar"): (488, 535, 447),
    ("q+e-s2", "oastar"): (473, 532, 435),
    ("q+e-s3", "oastar"): (483, 530, 447),
    ("q+e-s4", "oastar"): (491, 552, 433),
    ("q+e-s5", "oastar"): (475, 575, 394),
    ("q+e-s6", "oastar"): (486, 546, 434),
    ("bw-mix", "oastar"): (14, 71, 12),
    ("dual+quad", "oastar"): (11, 21, 4),
    **{(f"q+e-s{s}", "hastar"): (3, 4, 0) for s in range(1, 7)},
    ("bw-mix", "hastar"): (3, 3, 1),
    ("dual+quad", "hastar"): (3, 4, 0),
}

#: HA* schedules, machine-indexed groups.
HASTAR_GROUPS = {
    "q+e-s1": ((1, 3, 6, 8), (0, 2, 4, 5, 7, 9, 10, 11)),
    "q+e-s2": ((2, 5, 9, 10), (0, 1, 3, 4, 6, 7, 8, 11)),
    "q+e-s3": ((2, 3, 6, 8), (0, 1, 4, 5, 7, 9, 10, 11)),
    "q+e-s4": ((0, 2, 6, 10), (1, 3, 4, 5, 7, 8, 9, 11)),
    "q+e-s5": ((0, 1, 2, 9), (3, 4, 5, 6, 7, 8, 10, 11)),
    "q+e-s6": ((4, 5, 8, 11), (0, 1, 2, 3, 6, 7, 9, 10)),
    "bw-mix": ((0, 2, 5, 7), (1, 3, 4, 6)),
    "dual+quad": ((2, 5), (0, 1, 3, 4)),
}

#: Budget-stopped HA*: (instance, max_expanded) -> greedy completion.
BUDGET_GROUPS = {
    ("q+e-s1", 0): ((1, 3, 6, 10), (0, 2, 4, 5, 7, 8, 9, 11)),
    ("dual+quad", 1): ((2, 3), (0, 1, 4, 5)),
    ("bw-mix", 0): ((0, 2, 5, 7), (1, 3, 4, 6)),
}


@pytest.mark.parametrize("name,solver", sorted(COUNTS))
def test_search_counts_are_pinned(name, solver):
    result = create_solver(solver).solve(INSTANCES[name]())
    stats = result.stats
    assert stats["heterogeneous"]
    assert (stats["expanded"], stats["generated"], stats["dismissed"]) == (
        COUNTS[name, solver]
    )


@pytest.mark.parametrize("name", sorted(HASTAR_GROUPS))
def test_hastar_schedule_is_pinned(name):
    result = create_solver("hastar").solve(INSTANCES[name]())
    assert result.schedule.groups == HASTAR_GROUPS[name]


@pytest.mark.parametrize("name,max_expanded", sorted(BUDGET_GROUPS))
def test_budget_stopped_completion_is_pinned(name, max_expanded):
    """The greedy completion picks each slot's first cheapest group."""
    problem = INSTANCES[name]()
    result = create_solver("hastar").solve(
        problem, budget=Budget(max_expanded=max_expanded))
    assert result.budget_stopped == "expanded"
    assert result.schedule.groups == BUDGET_GROUPS[name, max_expanded]
