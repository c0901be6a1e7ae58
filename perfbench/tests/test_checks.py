"""Output checks catch broken schedules and mislabelled answers."""

import pytest

from cobench import checks


@pytest.fixture(scope="module")
def solved():
    from repro import run_solve
    from repro.workloads import random_serial_instance

    problem = random_serial_instance(8, "quad", seed=3)
    return problem, run_solve(problem, "oastar")


def test_valid_answer_passes(solved):
    problem, report = solved
    assert checks.schedule_errors(problem, report.schedule, report.objective,
                                  optimum=report.objective, exact=True) == []


def test_wrong_objective_is_caught(solved):
    problem, report = solved
    errs = checks.schedule_errors(problem, report.schedule,
                                  report.objective * 1.01)
    assert any("re-evaluated" in e for e in errs)


def test_exact_solver_must_hit_the_optimum(solved):
    problem, report = solved
    errs = checks.schedule_errors(problem, report.schedule, report.objective,
                                  optimum=report.objective * 0.9, exact=True)
    assert any("optimum" in e for e in errs)


@pytest.mark.parametrize("groups", [
    [[0, 1, 2, 3], [4, 5, 6, 6]],        # duplicate, 7 missing
    [[0, 1, 2], [3, 4, 5, 6, 7]],        # wrong group sizes
    [[0, 1, 2, 3]],                      # processes missing
])
def test_partition_errors(solved, groups):
    problem, _ = solved
    assert checks.partition_errors(problem, groups)


def test_relabelled_answer_must_be_translated(solved):
    """A schedule answered for another labelling of the same problem only
    passes once mapped into the requester's labelling."""
    from repro import CoSchedule, CoSchedulingProblem, MissRatePressureModel
    from repro import Workload, evaluate_schedule, serial_job
    from repro.core.machine import CLUSTERS

    problem, report = solved
    rates = list(problem.model.miss_rates)
    perm = [3, 7, 1, 0, 6, 2, 5, 4]          # new pid i is old pid perm[i]
    jobs = [serial_job(i, f"syn{i}", profile_name=f"syn{i}") for i in range(8)]
    relabelled = CoSchedulingProblem(
        Workload(jobs, cores_per_machine=4), CLUSTERS["quad"],
        MissRatePressureModel(miss_rates=[rates[p] for p in perm], cores=4))
    inv = {old: new for new, old in enumerate(perm)}
    mapped = CoSchedule.from_groups(
        [[inv[p] for p in g] for g in report.schedule.groups], u=4)
    assert checks.schedule_errors(relabelled, mapped, report.objective) == []
    unmapped = evaluate_schedule(relabelled, report.schedule).objective
    if not checks.close(unmapped, report.objective):
        assert checks.schedule_errors(relabelled, report.schedule,
                                      report.objective)
