#!/usr/bin/env python3
"""Fixed-work benchmark of the ``repro`` co-scheduling engine.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload exact-homog --seed 1 --seconds 20 --trace 0

It prints the host block and every metric by name with its unit, then, as
the last line, ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics.  Other modes::

    python3 perfbench/run.py --check-manifest     # fail on input drift
    python3 perfbench/run.py --write-manifest     # re-pin inputs + references
    python3 perfbench/run.py --compare A.json B.json

Every run also writes its full result document under
``.bench_build/cobench/results/``; ``--compare`` reads two of them and
refuses results from different hosts or kernel backends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_build", "cobench")
WORKLOADS = ("exact-homog", "exact-scenario", "anytime-large", "service-open")
SETUP_REPEATS = 3


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def prepare() -> dict:
    """Check the checkout, point imports at ``src/`` and keep the kernel
    build cache inside the checkout; returns the child environment."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(SRC, "repro")) or not os.path.isfile(
            spec_path):
        fail(f"{ROOT} is not a checkout of the repository (needs src/repro "
             "and BENCHMARK.json)")
    for sub in ("results", "tmp"):
        os.makedirs(os.path.join(OUT, sub), exist_ok=True)
    # The kernel build cache and the C compiler's scratch files stay
    # inside the checkout.
    os.environ["COSCHED_KERNEL_CACHE"] = os.path.join(OUT, "kernels")
    os.environ["TMPDIR"] = os.path.join(OUT, "tmp")
    sys.path[:0] = [SRC, HERE]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def probe(workload: str, seed: int, seconds: float, tiny: bool) -> None:
    """The set-up that :func:`setup_seconds` times: imports, kernel
    backend selection, and the workload's inputs."""
    import repro.perf.kernels  # noqa: F401 — selects (and loads) the backend
    from cobench import instances, service

    if workload == "service-open":
        service.make_stream(seed, service.RATE, 1.0 if tiny else seconds)
        return
    for inst in instances.instance_sets(tiny)[workload]:
        instances.build(inst)
    instances.references(workload, tiny)


def setup_seconds(args, env: dict) -> list:
    """Set-up times of fresh processes, adjusted to reference-host speed."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--probe",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds)] + (["--tiny"] if args.tiny else [])
    from cobench import hostspeed

    times = []
    for _ in range(SETUP_REPEATS):
        with hostspeed.Around() as speed:
            t0 = time.perf_counter()
            subprocess.run(cmd, env=env, cwd=ROOT, check=True)
            took = time.perf_counter() - t0
        times.append(took * speed.factor)
    return times


def kernel_build_seconds(env: dict) -> float:
    """Cold compile of the native kernels in a fresh cache directory,
    less the same import with that cache warm."""
    import shutil

    cache = os.path.join(OUT, "kernels-cold")
    shutil.rmtree(cache, ignore_errors=True)
    cmd = [sys.executable, "-c", "import repro.perf.kernels"]
    child = dict(env, COSCHED_KERNEL_CACHE=cache)
    took = []
    for _ in range(2):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=child, cwd=ROOT, check=True)
        took.append(time.perf_counter() - t0)
    shutil.rmtree(cache, ignore_errors=True)
    return max(0.0, took[0] - took[1])


def run_workload(args, env: dict) -> dict:
    from cobench import closed, host, service

    spec = load_spec()
    host_block = host.host_block()
    setups = setup_seconds(args, env)
    if args.workload == "service-open":
        doc = service.run(args.seed, args.seconds, bool(args.trace), ROOT,
                          OUT, env, tiny=args.tiny)
        setup = statistics.median(setups) + statistics.median(doc["startups"])
        extra_rss = doc["server_rss_mb"]
    else:
        doc = closed.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), tiny=args.tiny)
        setup = statistics.median(setups)
        extra_rss = 0.0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = dict(doc["end_to_end"], setup_s=setup, peak_rss_mb=rss + extra_rss)
    if args.trace:
        per = dict(doc["per_layer"])
        per["kernels.build_s"] = kernel_build_seconds(env)
        recorder = doc.get("recorder")
        if recorder is not None:
            recorder.write(os.path.join(
                OUT, f"spans-{args.workload}-s{args.seed}.jsonl"))
        # The result line must carry every per-layer metric: one that does
        # not apply to this workload reads 0 and is listed as such.
        not_applicable = [m["name"] for m in spec["per_layer"]
                          if per.get(m["name"]) is None]
        metrics = {m["name"]: {"value": float(per.get(m["name"]) or 0.0),
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        not_applicable = []
        metrics = {m["name"]: {"value": float(e2e[m["name"]]),
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {
        "schema": "cobench-result/1",
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "host": host_block,
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"], "failed": doc["failed"],
        "failures": doc["failures"],
        "metrics": metrics,
        "not_applicable": not_applicable,
        "setup_runs_s": setups,
        "info": doc["info"],
    }


def compare(path_a: str, path_b: str) -> int:
    from cobench import host

    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    reasons = host.comparable(a["host"], b["host"])
    if a["workload"] != b["workload"] or a["trace"] != b["trace"]:
        reasons.append("different workload or trace mode")
    if reasons:
        print("perfbench: refusing to compare:", file=sys.stderr)
        for r in reasons:
            print(f"  {r}", file=sys.stderr)
        return 3
    spec = {m["name"]: m for m in load_spec()["end_to_end"]}
    for name, ma in a["metrics"].items():
        va, vb = ma["value"], b["metrics"][name]["value"]
        change = (vb - va) / va if va else 0.0
        line = f"{name:<20} {va:>12.4f} {vb:>12.4f} {ma['unit']:<6} {change:+.1%}"
        m = spec.get(name)
        if m is not None:
            worse = change if m["better"] == "lower" else -change
            if worse > m["bound"]:
                line += f"  WORSE than bound {m['bound']:.0%}"
        print(line)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="seconds-long stand-in inputs (smoke tests)")
    ap.add_argument("--check-manifest", action="store_true")
    ap.add_argument("--write-manifest", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar="RESULT.json")
    ap.add_argument("--probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # A terminated run unwinds, so the servers it started are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = prepare()

    if args.probe:
        probe(args.probe, args.seed, args.seconds, args.tiny)
        return 0
    if args.compare:
        return compare(*args.compare)
    if args.check_manifest or args.write_manifest:
        from cobench import instances, service

        digest = service.stream_digest()
        if args.write_manifest:
            instances.write_manifest(digest)
            print(f"wrote {instances.MANIFEST}")
            return 0
        problems = instances.check_manifest(digest)
        for p in problems:
            print(f"drift: {p}", file=sys.stderr)
        print("manifest ok" if not problems else
              f"manifest drift in {len(problems)} place(s)")
        return 1 if problems else 0
    if args.workload is None:
        fail("--workload is required")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    doc = run_workload(args, env)
    out = os.path.join(OUT, "results",
                       f"{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    print("host " + json.dumps(doc["host"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          + json.dumps(doc["info"], sort_keys=True, default=str))
    for f in doc["failures"]:
        print(f"FAILED {f}")
    for name, m in doc["metrics"].items():
        if name in doc["not_applicable"]:
            print(f"metric {name} n/a {m['unit']}")
        else:
            print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": doc["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
