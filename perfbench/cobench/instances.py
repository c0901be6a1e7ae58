"""The fixed instance sets of the closed-loop workloads and the manifest
that pins them.

Every closed-loop workload is a fixed list of ``(instance, solver)``
operations — the same work on every run; the run's seed only shuffles the
order of each pass and drives the online side stream.  The committed
``manifest.json`` records, per instance, the generator, its arguments,
the program's ``problem_fingerprint`` and the reference objective (the
OA* optimum where OA* is tractable, otherwise the best objective any
solver found).  ``run.py --check-manifest`` regenerates every input and
fails on fingerprint drift.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "manifest.json")


def _inst(iid: str, generator: str, args: dict, solvers: List[str],
          budget=None) -> dict:
    return {"id": iid, "generator": generator, "args": args,
            "solvers": solvers, "budget": budget}


def _rsi(n: int, seed: int, saturation=None) -> dict:
    args = {"n": n, "cluster": "quad", "seed": seed}
    if saturation is not None:
        args["saturation"] = saturation
    return args


def _exact_homog() -> List[dict]:
    both = ["oastar", "hastar"]
    out = [_inst(f"oa24-s{s}", "random_serial_instance", _rsi(24, s), both)
           for s in (1, 2, 3)]
    for n in range(28, 65, 4):
        seed = 17 if n == 64 else 1
        out.append(_inst(f"ha{n}-s{seed}", "random_serial_instance",
                         _rsi(n, seed), ["hastar"]))
    for n in (28, 32, 36, 40):
        out.append(_inst(f"ha{n}-s2", "random_serial_instance",
                         _rsi(n, 2), ["hastar"]))
    return out


def _exact_scenario() -> List[dict]:
    both = ["oastar", "hastar"]
    out = []
    for s in range(1, 7):
        out.append(_inst(f"q+e-s{s}", "random_heterogeneous_instance",
                         {"machines": ["quad", "eight"], "seed": s}, both))
    out.append(_inst("e+e-cap-s1", "random_heterogeneous_instance",
                     {"machines": ["eight", "eight"], "seed": 1,
                      "bandwidth_caps": [None, 2.4e9]}, both))
    out.append(_inst("q+q+e-cap-clk-s1", "random_heterogeneous_instance",
                     {"machines": ["quad", "quad", "eight"], "seed": 1,
                      "bandwidth_caps": [None, 1.6e9, None],
                      "clock_scaling": True}, both))
    out.append(_inst("het-mix", "heterogeneous_serial_mix", {}, both))
    out.append(_inst("bw-mix", "bandwidth_capped_mix", {}, both))
    return out


def _anytime_large() -> List[dict]:
    # Budgets are max_expanded evaluations, never wall time, and exceed
    # the evaluations hill needs to converge on that instance, so the
    # genetic solver's hill floor leaves budget for its GA generations.
    out = []
    for n, seed, budget in ((48, 1, 8000), (48, 3, 8000), (64, 3, 14000)):
        specs = ["pg", f"hill?seed={seed}", f"anneal?seed={seed}",
                 f"genetic?seed={seed}"]
        out.append(_inst(f"sat{n}-s{seed}", "random_serial_instance",
                         _rsi(n, seed, saturation=0.9), specs, budget))
    return out


def _tiny() -> Dict[str, List[dict]]:
    """Seconds-long stand-ins with the same shape, for smoke tests."""
    return {
        "exact-homog": [_inst("tiny-h8", "random_serial_instance",
                              _rsi(8, 1), ["oastar", "hastar"])],
        "exact-scenario": [_inst("tiny-bw", "bandwidth_capped_mix", {},
                                 ["oastar", "hastar"])],
        "anytime-large": [_inst("tiny-sat12", "random_serial_instance",
                                _rsi(12, 1, saturation=0.9),
                                ["pg", "hill?seed=1", "anneal?seed=1",
                                 "genetic?seed=1"], 2000)],
    }


def instance_sets(tiny: bool = False) -> Dict[str, List[dict]]:
    if tiny:
        return _tiny()
    return {
        "exact-homog": _exact_homog(),
        "exact-scenario": _exact_scenario(),
        "anytime-large": _anytime_large(),
    }


def _generators():
    from repro import workloads

    return {
        "random_serial_instance": workloads.random_serial_instance,
        "random_heterogeneous_instance":
            workloads.random_heterogeneous_instance,
        "heterogeneous_serial_mix": workloads.heterogeneous_serial_mix,
        "bandwidth_capped_mix": workloads.bandwidth_capped_mix,
    }


def build(inst: dict):
    """A fresh problem for ``inst`` (fresh memo caches every call)."""
    args = {k: tuple(v) if isinstance(v, list) else v
            for k, v in inst["args"].items()}
    return _generators()[inst["generator"]](**args)


def load_manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def references(workload: str, tiny: bool = False) -> Dict[str, dict]:
    """``id -> {"reference", "kind"}``; tiny sets are solved on the spot."""
    if tiny:
        return {i["id"]: _reference(i) for i in instance_sets(True)[workload]}
    entries = load_manifest()["workloads"][workload]["instances"]
    return {e["id"]: {"reference": e["reference"], "kind": e["kind"]}
            for e in entries}


def _reference(inst: dict) -> dict:
    """Optimum via OA* when the set runs it, else the best of the set's
    solvers and a long hill/genetic run."""
    from repro import run_solve
    from repro.solvers import Budget

    if "oastar" in inst["solvers"]:
        return {"reference": run_solve(build(inst), "oastar").objective,
                "kind": "optimum"}
    budget = Budget(max_expanded=max(4 * (inst["budget"] or 0), 50_000))
    specs = list(inst["solvers"]) + ["hill", "genetic?seed=0"]
    best = min(run_solve(build(inst), s, budget=budget).objective
               for s in specs)
    return {"reference": best, "kind": "best_known"}


def manifest_entries(workload: str) -> List[dict]:
    from repro.service.codec import problem_fingerprint

    out = []
    for inst in instance_sets()[workload]:
        problem = build(inst)
        out.append({**inst, "n": problem.n,
                    "fingerprint": problem_fingerprint(problem)})
    return out


def write_manifest(service_digest: dict) -> dict:
    doc = {"schema": "cobench-manifest/1", "workloads": {}}
    for workload in instance_sets():
        entries = manifest_entries(workload)
        for e in entries:
            e.update(_reference(e))
        doc["workloads"][workload] = {"instances": entries}
    doc["workloads"]["service-open"] = service_digest
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return doc


def check_manifest(service_digest: dict) -> List[str]:
    """Differences between the committed manifest and regenerated inputs."""
    doc = load_manifest()
    problems = []
    for workload in instance_sets():
        committed = doc["workloads"].get(workload, {}).get("instances", [])
        fresh = manifest_entries(workload)
        if [e["id"] for e in committed] != [e["id"] for e in fresh]:
            problems.append(f"{workload}: instance list changed")
            continue
        for old, new in zip(committed, fresh):
            for key in ("generator", "args", "solvers", "budget",
                        "fingerprint"):
                if old[key] != new[key]:
                    problems.append(f"{workload}/{old['id']}: {key} drifted "
                                    f"({old[key]!r} -> {new[key]!r})")
    committed = doc["workloads"].get("service-open", {})
    for key, value in service_digest.items():
        if committed.get(key) != value:
            problems.append(f"service-open: {key} drifted "
                            f"({committed.get(key)!r} -> {value!r})")
    return problems
