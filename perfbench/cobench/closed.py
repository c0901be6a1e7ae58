"""Closed-loop workloads: one caller, ``run_solve`` to completion.

A *pass* runs every ``(instance, solver)`` operation of the workload's
fixed set once, in an order drawn from the run's seed, on freshly built
problems (so no memo survives between passes).  After each pass the
caller makes incremental re-solves on a small online roster
(:class:`repro.online.ProblemSession`), the in-process form of the
service's ``/delta``: the benchmark's result format asks every workload
for every end-to-end metric, ``delta_ms_p50`` included.  The number of
passes is fixed per workload from ``--seconds``, so every run of a
workload makes the same samples.  An untimed pass over the tiny stand-in
set comes first, so no timed pass pays first-call costs.
"""

from __future__ import annotations

import gc
import random
from typing import Dict, List

from . import checks, hostspeed, instances, layers
from .spans import Recorder
from .stats import latency_summary, median, tail_percentile, worst_mean

#: Seconds one pass takes on the reference host (2 CPUs, cc kernels);
#: only used to turn ``--seconds`` into a fixed number of passes.
NOMINAL_PASS_S = {"exact-homog": 6.6, "exact-scenario": 9.0,
                  "anytime-large": 9.5}
TINY_PASS_S = 0.5
DELTAS_PER_PASS = 60


def passes_for(workload: str, seconds: float, tiny: bool) -> int:
    nominal = TINY_PASS_S if tiny else NOMINAL_PASS_S[workload]
    return max(1, int(seconds / nominal + 0.5))


#: The side stream's starting roster: 12 jobs, the same for every seed.
ROSTER = [(f"j{i}", round(random.Random(i).uniform(0.15, 0.75), 6))
          for i in range(12)]


def online_deltas(rng: random.Random, count: int) -> List[Dict[str, object]]:
    """A fresh ``ProblemSession`` on :data:`ROSTER`, solved, then
    ``count`` events cycling update, arrival, departure (so the roster
    stays at 12–13 jobs), each followed by a timed ``repair()``.  The seed
    picks the jobs and the new miss rates."""
    from repro.online import ProblemSession

    session = ProblemSession(jobs=ROSTER)
    session.solve()
    out = []
    for k in range(count):
        names = sorted(session.roster)
        kind = ("update", "arrive", "depart")[k % 3]
        rate = round(rng.uniform(0.15, 0.75), 6)
        if kind == "update":
            session.update(rng.choice(names), rate)
        elif kind == "arrive":
            session.arrive(f"a{k}", rate)
        else:
            session.depart(rng.choice(names))
        with hostspeed.Timed() as timed:
            report = session.repair()
        out.append({"s": timed.seconds, "adj": timed.factor,
                    "errors": checks.schedule_errors(
                        session.problem, report.schedule, report.objective)})
    return out


def _run_pass(ops: List[tuple], rng: random.Random):
    """One pass; returns ``(pass_seconds, op records, delta records)``,
    times adjusted to reference-host speed (:mod:`.hostspeed`).

    Problems are built before the clock starts and each is released as
    soon as it is solved, so peak memory is that of the largest solve.
    A full garbage collection runs before each timed call, so no call
    pays for the garbage of the calls before it, whatever the order; the
    pass time is the sum of the timed calls.
    """
    from repro import run_solve
    from repro.solvers import Budget

    order = list(ops)
    rng.shuffle(order)
    built = [(inst, spec, instances.build(inst),
              Budget(max_expanded=inst["budget"]) if inst["budget"] else None)
             for inst, spec in order]
    records = []
    for k, (inst, spec, problem, budget) in enumerate(built):
        built[k] = None
        rec = {"inst": inst, "spec": spec}
        gc.collect()
        try:
            with hostspeed.Timed() as timed:
                rec["report"] = run_solve(problem, spec, budget=budget)
            rec["req_s"] = timed.seconds
            # The solver's own clock also ran through the probes.
            rec["solve_s"] = max(0.0, rec["report"].solve_seconds
                                 - timed.inside)
            rec["adj"] = timed.factor
        except Exception as exc:  # noqa: BLE001 — counted, not fatal
            rec["error"] = repr(exc)
        del problem
        records.append(rec)
    wall = sum(rec.get("req_s", 0.0) * rec.get("adj", 1.0) for rec in records)
    # Once, not before each repair: a collection evicts the caches, and a
    # repair (about a millisecond) would then time mostly cache misses.
    gc.collect()
    try:
        deltas = online_deltas(rng, DELTAS_PER_PASS)
    except Exception as exc:  # noqa: BLE001 — counted, not fatal
        deltas = [{"errors": [repr(exc)]}]
    return wall, records, deltas


def _op_errors(rec: dict, refs: Dict[str, dict]) -> List[str]:
    from repro.runtime import get_info

    if "error" in rec:
        return [rec["error"]]
    report = rec["report"]
    ref = refs[rec["inst"]["id"]]
    optimum = ref["reference"] if ref["kind"] == "optimum" else None
    name = parse_name(rec["spec"])
    exact = get_info(name).exact
    # Checked against a freshly built copy the solver never touched.
    errors = checks.schedule_errors(instances.build(rec["inst"]),
                                    report.schedule, report.objective,
                                    optimum, exact)
    stats = report.result.stats
    limits = (stats.get("budget") or {}).get("limits") or {}
    if "wall_time" in limits:
        errors.append("a wall-clock budget reached the solver")
    if name == "genetic" and not stats.get("generations", 0) > 0:
        errors.append("genetic ran 0 generations: its GA body went "
                      "unmeasured (raise the instance budget)")
    return errors


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> Dict[str, object]:
    """Run a closed-loop workload; returns the result document."""
    insts = instances.instance_sets(tiny)[workload]
    refs = instances.references(workload, tiny)
    ops = [(inst, spec) for inst in insts for spec in inst["solvers"]]
    rng = random.Random(seed)
    n_passes = passes_for(workload, seconds, tiny)

    tiny_ops = [(inst, spec)
                for inst in instances.instance_sets(True)[workload]
                for spec in inst["solvers"]]
    _run_pass(tiny_ops, random.Random(seed))

    passes = []
    recorder = None
    if trace:
        # An untraced baseline pass, then a traced pass in the same order
        # with the same side stream.
        state = rng.getstate()
        passes.append(_run_pass(ops, rng))
        rng.setstate(state)
        recorder = Recorder()
        layers.instrument(recorder)
        try:
            passes.append(_run_pass(ops, rng))
        finally:
            recorder.restore()
    else:
        for _ in range(n_passes):
            passes.append(_run_pass(ops, rng))

    records = [r for _, recs, _ in passes for r in recs]
    deltas = [d for _, _, ds in passes for d in ds]
    labelled = [(f"{r['inst']['id']}/{r['spec']}", _op_errors(r, refs))
                for r in records]
    labelled += [("online delta", d["errors"]) for d in deltas]
    failures = [f"{label}: {e}" for label, errs in labelled for e in errs]
    attempted = len(labelled)
    failed_ops = sum(1 for _, errs in labelled if errs)

    good = [r for r in records if "report" in r]
    req = per_op_summary(good, lambda r: r["req_s"] * r["adj"])
    solve = per_op_summary(good, lambda r: r["solve_s"] * r["adj"])
    delta_ms = [1e3 * d["s"] * d["adj"] for d in deltas if "s" in d] or [0.0]
    raw_req = per_op_summary(good, lambda r: r["req_s"])
    raw_solve = per_op_summary(good, lambda r: r["solve_s"])
    ratios = [(parse_name(r["spec"]),
               r["report"].objective / refs[r["inst"]["id"]]["reference"])
              for r in good]
    suite = median([wall for wall, _, _ in passes])
    end_to_end = {
        "solve_ms_p50": solve["p50"],
        "solve_ms_tail": solve["tail"],
        "suite_s": suite,
        "objective_ratio": worst_mean(ratios) if ratios else 0.0,
        "req_ms_p50": req["p50"],
        "req_ms_tail": req["tail"],
        "delta_ms_p50": median(delta_ms),
        "ok_frac": 1.0 - failed_ops / attempted,
        "primary_frac": 1.0,
    }
    doc = {
        "attempted": attempted,
        "failed": failed_ops,
        "failures": failures[:20],
        "end_to_end": end_to_end,
        "info": {"passes": len(passes), "ops_per_pass": len(ops),
                 "tail_pct": req["tail_pct"], "tail_samples": req["n"],
                 "pass_s": [wall for wall, _, _ in passes],
                 "raw": {"solve_ms_p50": raw_solve["p50"],
                         "solve_ms_tail": raw_solve["tail"],
                         "req_ms_p50": raw_req["p50"],
                         "req_ms_tail": raw_req["tail"],
                         "suite_s": median([sum(r.get("req_s", 0.0)
                                                for r in recs)
                                            for _, recs, _ in passes]),
                         "delta_ms_p50": median(
                             [1e3 * d["s"] for d in deltas if "s" in d]
                             or [0.0])},
                 "speed_factor": median([r["adj"] for r in good] or [1.0])},
    }
    if recorder is not None:
        traced = passes[-1][1]
        tgood = [r for r in traced if "report" in r]
        per = layers.span_metrics(recorder)
        per.update(layers.stats_metrics(
            [r["report"].result.stats for r in tgood],
            [(r["report"].result.stats, r["report"].solve_seconds)
             for r in tgood if parse_name(r["spec"]) == "genetic"],
            per["solvers.search_s"]))
        per["trace.overhead_frac"] = layers.ratio(
            passes[-1][0] - passes[0][0], passes[0][0])
        # The percentile an untraced run of this workload uses.
        samples = n_passes * len(ops)
        per["tail.percentile"] = tail_percentile(samples)
        per["tail.samples"] = samples
        per["error_frac"] = failed_ops / attempted
        doc["per_layer"] = per
        doc["recorder"] = recorder
    return doc


def per_op_summary(records: List[dict], seconds) -> Dict[str, float]:
    """Latency summary in ms in which each operation counts once per pass
    with the median of its ``seconds(record)`` over the passes.  The
    operations differ in size by two orders of magnitude, so a median or
    tail over raw samples would land between two operations and jump
    with the noise of single samples."""
    by_op: Dict[tuple, list] = {}
    for r in records:
        by_op.setdefault((r["inst"]["id"], r["spec"]), []).append(
            1e3 * seconds(r))
    values = [median(v) for v in by_op.values() for _ in v]
    return latency_summary(values or [0.0])


def parse_name(spec: str) -> str:
    from repro.runtime import parse_spec

    return parse_spec(spec).name
