"""Output checks: every failure here counts against ``ok_frac``.

The partition check is written independently of the program's own
validation, so a bug there cannot hide a bad schedule.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

#: Relative tolerance for re-derived and reference objectives.
TOL = 1e-9


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def partition_errors(problem, groups: Sequence[Sequence[int]]) -> List[str]:
    """Reasons ``groups`` is not a valid schedule of ``problem``: each
    process exactly once, and each machine filled to its core count."""
    n = problem.n
    seen: List[int] = []
    for g in groups:
        seen.extend(int(p) for p in g)
    errors = []
    if sorted(seen) != list(range(n)):
        errors.append(f"groups do not partition the {n} processes")
    if problem.is_scenario:
        sizes = [len(g) for g in groups]
        if sizes != list(problem.capacities):
            errors.append(f"machine group sizes {sizes} != capacities "
                          f"{list(problem.capacities)}")
    elif any(len(g) != problem.u for g in groups):
        errors.append(f"a group does not hold exactly u={problem.u} "
                      "processes")
    return errors


def schedule_errors(problem, schedule, reported: float,
                    optimum: Optional[float] = None,
                    exact: bool = False) -> List[str]:
    """Partition check, objective re-derivation by ``evaluate_schedule``
    and, given a proven ``optimum``, the reference check: an exact solver
    must hit it and no solver may beat it."""
    from repro import evaluate_schedule

    if schedule is None:
        return ["no schedule returned"]
    errors = partition_errors(problem, schedule.groups)
    if errors:
        return errors
    derived = evaluate_schedule(problem, schedule).objective
    if not close(derived, reported):
        errors.append(f"reported objective {reported!r} != re-evaluated "
                      f"{derived!r}")
    if optimum is not None:
        if exact and not close(reported, optimum):
            errors.append(f"exact solver objective {reported!r} != "
                          f"optimum {optimum!r}")
        elif reported < optimum and not close(reported, optimum):
            errors.append(f"objective {reported!r} beats the optimum "
                          f"{optimum!r}")
    return errors
