"""Pinned behaviour of OA* and HA* on homogeneous pressure-model instances.

These are the tier-1-sized instances of the benchmark's ``exact-homog``
set: quad-core ``random_serial_instance`` problems, OA* at n=24 and HA*
at n=24..40.  Both searches take the lazy successor paths there — HA*
trims levels through ``SuccessorGenerator._successors_lazy`` and OA*'s
partial expansion reads ``successors_stream`` — so the node counts and
HA* schedules pin the order in which each level's subsets are produced.
The values are those of the per-pop Python heap enumerator that the
compiled ``pressure_monotone_topk`` kernel replaced: moving enumeration
into one call per level must change how fast subsets are produced, never
which nodes are expanded, visited, generated or dismissed, nor which
schedule wins a tie.  They hold on either kernel backend.
"""

import pytest

from repro.runtime import create_solver
from repro.workloads.synthetic import random_serial_instance

#: (expanded, visited_paths, nodes_generated, dismissed) per
#: (instance, solver).  Names are the benchmark manifest's ids:
#: ``oa<n>``/``ha<n>`` then ``-s<seed>``.
COUNTS = {
    ("oa24-s1", "oastar"): (542, 16087, 16284, 197),
    ("oa24-s1", "hastar"): (32, 81, 5833, 107),
    ("oa24-s2", "oastar"): (771, 22213, 23233, 1018),
    ("oa24-s2", "hastar"): (37, 51, 6688, 167),
    ("oa24-s3", "oastar"): (357, 10548, 10748, 201),
    ("oa24-s3", "hastar"): (49, 79, 10248, 211),
    ("ha28-s1", "hastar"): (53, 184, 9487, 182),
    ("ha32-s1", "hastar"): (94, 291, 13595, 455),
    ("ha36-s1", "hastar"): (161, 472, 23337, 970),
    ("ha40-s1", "hastar"): (309, 1002, 35866, 2080),
    ("ha28-s2", "hastar"): (61, 104, 10341, 318),
    ("ha32-s2", "hastar"): (89, 144, 13418, 562),
    ("ha36-s2", "hastar"): (134, 212, 18950, 987),
    ("ha40-s2", "hastar"): (220, 404, 23611, 1788),
}

#: HA* schedules.
HASTAR_GROUPS = {
    "oa24-s1": (
        (0, 9, 16, 21),
        (1, 2, 4, 19),
        (3, 5, 14, 18),
        (6, 7, 12, 22),
        (8, 10, 11, 17),
        (13, 15, 20, 23),
    ),
    "oa24-s2": (
        (0, 3, 7, 8),
        (1, 6, 11, 18),
        (2, 10, 19, 20),
        (4, 12, 14, 17),
        (5, 13, 21, 23),
        (9, 15, 16, 22),
    ),
    "oa24-s3": (
        (0, 1, 9, 20),
        (2, 4, 7, 10),
        (3, 5, 16, 19),
        (6, 17, 22, 23),
        (8, 11, 13, 18),
        (12, 14, 15, 21),
    ),
    "ha28-s1": (
        (0, 9, 16, 21),
        (1, 2, 4, 18),
        (3, 5, 19, 27),
        (6, 7, 12, 17),
        (8, 14, 15, 25),
        (10, 11, 13, 26),
        (20, 22, 23, 24),
    ),
    "ha32-s1": (
        (0, 9, 16, 18),
        (1, 2, 21, 31),
        (3, 4, 27, 28),
        (5, 7, 12, 14),
        (6, 8, 17, 19),
        (10, 11, 15, 26),
        (13, 22, 24, 25),
        (20, 23, 29, 30),
    ),
    "ha36-s1": (
        (0, 2, 9, 18),
        (1, 21, 28, 31),
        (3, 4, 16, 27),
        (5, 7, 12, 14),
        (6, 8, 17, 19),
        (10, 11, 15, 26),
        (13, 22, 25, 32),
        (20, 23, 30, 33),
        (24, 29, 34, 35),
    ),
    "ha40-s1": (
        (0, 2, 9, 39),
        (1, 21, 31, 36),
        (3, 4, 16, 28),
        (5, 7, 18, 19),
        (6, 14, 22, 27),
        (8, 12, 15, 37),
        (10, 11, 30, 38),
        (13, 17, 20, 32),
        (23, 25, 26, 29),
        (24, 33, 34, 35),
    ),
    "ha28-s2": (
        (0, 3, 7, 8),
        (1, 6, 19, 20),
        (2, 11, 21, 24),
        (4, 10, 12, 14),
        (5, 18, 23, 26),
        (9, 15, 22, 27),
        (13, 16, 17, 25),
    ),
    "ha32-s2": (
        (0, 3, 7, 19),
        (1, 8, 28, 29),
        (2, 6, 11, 18),
        (4, 21, 24, 30),
        (5, 10, 20, 26),
        (9, 12, 14, 22),
        (13, 15, 25, 27),
        (16, 17, 23, 31),
    ),
    "ha36-s2": (
        (0, 3, 6, 7),
        (1, 19, 29, 30),
        (2, 11, 26, 28),
        (4, 8, 12, 20),
        (5, 10, 24, 35),
        (9, 14, 18, 27),
        (13, 15, 32, 34),
        (16, 21, 23, 25),
        (17, 22, 31, 33),
    ),
    "ha40-s2": (
        (0, 3, 28, 29),
        (1, 7, 11, 24),
        (2, 6, 19, 35),
        (4, 8, 21, 30),
        (5, 12, 14, 18),
        (9, 10, 20, 36),
        (13, 15, 26, 37),
        (16, 17, 23, 39),
        (22, 25, 32, 34),
        (27, 31, 33, 38),
    ),
}


def build(name):
    n, seed = name[2:].split("-s")
    return random_serial_instance(int(n), cluster="quad", seed=int(seed))


@pytest.mark.parametrize("name,solver", sorted(COUNTS))
def test_search_counts_are_pinned(name, solver):
    stats = create_solver(solver).solve(build(name)).stats
    assert (
        stats["expanded"], stats["visited_paths"],
        stats["nodes_generated"], stats["dismissed"],
    ) == COUNTS[name, solver]


@pytest.mark.parametrize("name", sorted(HASTAR_GROUPS))
def test_hastar_schedule_is_pinned(name):
    result = create_solver("hastar").solve(build(name))
    assert result.schedule.groups == HASTAR_GROUPS[name]
