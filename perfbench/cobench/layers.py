"""Which public functions of each ``repro`` layer get a span, and how the
spans and the solver counters become the per-layer metrics named in
``BENCHMARK.json``.

Counts and the ``*_ms`` / ``*_s`` totals of the kernel, core, graph,
cache and solver layers cover the traced pass (closed loops) or the
traced request stream (service-open); ``*_per_call``, ``*_us`` and the
service, runtime and online ``*_ms`` metrics are means per call.

A metric is ``None`` — not applicable — when nothing it is taken over
happened: a mean or ratio over zero calls, or a solver counter no solve
of the pass reports (``het_search`` and the anytime solvers return no
search profile, so the lazy-frontier and memo counters exist only on the
``astar_core`` path).
"""

from __future__ import annotations

import heapq
import types
from typing import Dict, Iterable, Optional

from .spans import Recorder

_KERNELS = {
    "pressure_node_weights": ("pressure", 2),
    "pairwise_node_weights": ("pairwise", 1),
    "sdc_merge_ways": ("sdc_merge", 0),
    "select_smallest": ("select", 0),
}


def _items(position: int):
    def attrs(args, kwargs, result, dur):
        return {"items": len(args[position])}
    return attrs


def _batch_items(args, kwargs, result, dur):
    return {"items": len(args[1])}


def _solve_attrs(args, kwargs, result, dur):
    if type(args[0]).__name__ != "RepairSolver":
        return {}
    stats = getattr(result, "stats", None) or {}
    return {"repairs": 1, "repair_s": dur,
            "machines_kept": stats.get("machines_kept", 0),
            "machines_resolved": stats.get("machines_resolved", 0)}


def _wait_attrs(args, kwargs, result, dur):
    ticket = args[0]
    solve_s = ticket.time_seconds or 0.0
    if ticket.disposition not in ("solved", "coalesced"):
        solve_s = 0.0
    return {"queue_s": max(0.0, dur - solve_s)}


def _counting_heapq(recorder: Recorder) -> types.SimpleNamespace:
    """Stands in for ``heapq`` inside the search modules; every push and
    pop is tallied as ``solvers.heap_op``."""
    def push(heap, item):
        recorder.tally("solvers.heap_op")
        heapq.heappush(heap, item)

    def pop(heap):
        recorder.tally("solvers.heap_op")
        return heapq.heappop(heap)

    return types.SimpleNamespace(heappush=push, heappop=pop,
                                 heapify=heapq.heapify,
                                 nsmallest=heapq.nsmallest)


def instrument(recorder: Recorder, service: bool = False) -> None:
    """Wrap each layer's public entry points.  ``service=True`` adds the
    HTTP service layers (used inside the server process)."""
    import repro.cache.sdc as sdc
    import repro.graph.levels as levels
    import repro.graph.subset_enum as subset_enum
    import repro.online.session as online_session
    import repro.perf.kernels as kernels
    import repro.runtime.session as runtime_session
    import repro.service.codec as codec
    import repro.service.server as server
    import repro.solvers.astar_core as astar_core
    import repro.solvers.het_search as het_search
    from repro.core.problem import CoSchedulingProblem
    from repro.service.queue import ServiceTicket, SolveService
    from repro.service.store import SolutionStore
    from repro.solvers.base import Solver

    for fn, (short, pos) in _KERNELS.items():
        recorder.patch(kernels, fn, f"kernels.{short}", group="kernels",
                       attrs=_items(pos))
    recorder.patch(CoSchedulingProblem, "node_weights_batch", "core.batch",
                   attrs=_batch_items)
    recorder.patch(CoSchedulingProblem, "node_weight", "core.node_weight",
                   group="core.scalar")
    recorder.patch(CoSchedulingProblem, "machine_node_weight",
                   "core.machine_node_weight", group="core.scalar")
    for fn in ("iter_subsets_monotone", "iter_subsets_exact",
               "iter_subsets_by_weight"):
        recorder.patch(subset_enum, fn, f"graph.{fn}")
    recorder.patch(levels.HeuristicEstimator, "h", "graph.heuristic")
    for fn in ("sdc_effective_ways", "sdc_corun_misses"):
        recorder.patch(sdc, fn, f"cache.{fn}", group="cache.sdc")
    recorder.patch(runtime_session, "run_solve", "runtime.run_solve")
    recorder.patch(Solver, "solve", "solvers.solve", attrs=_solve_attrs)
    shim = _counting_heapq(recorder)
    for module in (astar_core, het_search):
        recorder.replace(module, "heapq", shim)
    recorder.patch(online_session.ProblemSession, "repair", "online.delta",
                   request=True)
    if service:
        recorder.patch(server._Handler, "do_POST", "service.http",
                       request=True)
        recorder.patch(codec, "problem_from_dict", "service.decode")
        recorder.patch(codec, "problem_fingerprint", "service.fingerprint")
        recorder.patch(SolveService, "submit", "service.submit")
        recorder.patch(SolveService, "submit_delta", "online.delta")
        recorder.patch(ServiceTicket, "wait", "service.wait",
                       attrs=_wait_attrs)
        recorder.patch(ServiceTicket, "to_dict", "service.encode")
        recorder.patch(SolutionStore, "lookup", "store.lookup")
        recorder.patch(SolutionStore, "record", "store.record")


def ratio(a: Optional[float], b: Optional[float],
           scale: float = 1.0) -> Optional[float]:
    """``scale * a / b``; ``None`` (not applicable) over nothing."""
    return scale * a / b if a is not None and b else None


def mean_ms(rec: Recorder, name: str) -> Optional[float]:
    """Mean duration of one ``name`` span, in ms."""
    return ratio(rec.total(name), rec.count(name), 1e3)


def span_metrics(rec: Recorder) -> Dict[str, Optional[float]]:
    """Metrics read off the spans alone."""
    m: Dict[str, float] = {}
    calls = items = busy = 0.0
    for short, _ in _KERNELS.values():
        name = f"kernels.{short}"
        n = rec.count(name)
        calls += n
        items += rec.attr(name, "items")
        busy += rec.total(name)
        m[f"{name}.calls"] = n
        m[f"{name}.us_per_call"] = ratio(rec.total(name), n, 1e6)
    m["kernels.calls"] = calls
    m["kernels.items_per_call"] = ratio(items, calls)
    m["kernels.us_per_call"] = ratio(busy, calls, 1e6)
    n = rec.count("core.batch")
    m["core.batch_calls"] = n
    m["core.batch_mean_size"] = ratio(rec.attr("core.batch", "items"), n)
    m["core.batch_ms"] = 1e3 * rec.total("core.batch")
    scalar_calls, scalar_s = rec.group("core.scalar")
    m["core.scalar_calls"] = scalar_calls
    m["core.scalar_ms"] = 1e3 * scalar_s
    # Self time: the scoring the enumerators call back into is kernel
    # and core time, reported there.
    m["graph.enum_ms"] = 1e3 * sum(rec.self_time(n)
                                   for n in rec.names("graph.iter_subsets_"))
    m["graph.heuristic_s"] = rec.total("graph.heuristic")
    sdc_calls, sdc_s = rec.group("cache.sdc")
    m["cache.sdc_calls"] = sdc_calls
    m["cache.sdc_ms"] = 1e3 * sdc_s
    m["runtime.overhead_ms"] = ratio(rec.self_time("runtime.run_solve"),
                                     rec.count("runtime.run_solve"), 1e3)
    m["solvers.search_s"] = rec.group("solvers.solve")[1]
    m["solvers.heap_ops"] = rec.count("solvers.heap_op")
    m["online.delta_ms"] = mean_ms(rec, "online.delta")
    m["online.repair_ms"] = ratio(rec.attr("solvers.solve", "repair_s"),
                                  rec.attr("solvers.solve", "repairs"), 1e3)
    kept = rec.attr("solvers.solve", "machines_kept")
    resolved = rec.attr("solvers.solve", "machines_resolved")
    m["online.machines_resolved_ratio"] = ratio(resolved, kept + resolved)
    return m


def _sum(stats_list, *keys) -> Optional[float]:
    """Sum of the first of ``keys`` each stats dict has; ``None`` when no
    dict has any of them."""
    total = None
    for st in stats_list:
        for key in keys:
            if key in st:
                total = (total or 0.0) + st[key]
                break
    return total


def stats_metrics(stats_list: Iterable[dict],
                  genetic: Iterable[tuple],
                  search_s: float) -> Dict[str, Optional[float]]:
    """Metrics read off ``SolveResult.stats`` of the traced solves;
    ``genetic`` holds ``(stats, solve_seconds)`` of the genetic runs."""
    stats_list = list(stats_list)
    profiles = [st["profile"] for st in stats_list if st.get("profile")]
    counts = [p.get("counts", {}) for p in profiles]
    lazy = [p.get("batches", {}).get("lazy_frontier") or {"batches": 0,
                                                          "items": 0}
            for p in profiles]
    memo_hits = _sum(counts, "node_memo_hits") or 0.0
    batched = _sum(counts, "node_weight_batched") or 0.0
    batches = _sum(lazy, "batches")
    generated = _sum(stats_list, "nodes_generated", "generated")
    genetic = list(genetic)
    stats_g = [st for st, _ in genetic]
    evals = _sum(stats_g, "evaluations")
    return {
        "solvers.expanded": _sum(stats_list, "expanded"),
        "solvers.generated": generated,
        "solvers.dismissed_ratio": ratio(_sum(stats_list, "dismissed"),
                                         generated),
        "solvers.nodes_per_s": ratio(generated, search_s),
        "graph.frontier_batches": batches,
        "graph.frontier_mean_size": ratio(_sum(lazy, "items"), batches),
        "core.memo_hit_ratio": ratio(memo_hits, memo_hits + batched),
        "evolve.generations": _sum(stats_g, "generations"),
        "evolve.evaluations": evals,
        "evolve.floor_eval_ratio": ratio(_sum(stats_g, "floor_evaluations"),
                                         evals),
        "evolve.evals_per_s": ratio(evals,
                                    sum(seconds for _, seconds in genetic)),
    }
