"""Tiny-size runs of every workload, untraced and traced, end to end
through ``run.py``: the last line is the result, every metric named in
``BENCHMARK.json`` is present, and every output check passed."""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
WORKLOADS = ["exact-homog", "exact-scenario", "anytime-large", "service-open"]

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run(*args):
    proc = subprocess.run([sys.executable, RUN, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run(workload, trace):
    lines = run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, "\n".join(lines)
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    assert printed == set(result["metrics"])


def test_every_per_layer_metric_is_produced_somewhere():
    """A per-layer name no workload computes would silently read 0."""
    seen = set()
    for workload in WORKLOADS:
        path = os.path.join(ROOT, ".bench_build", "cobench", "results",
                            f"{workload}-s3-t1.json")
        if not os.path.exists(path):
            pytest.skip("needs the traced tiny runs above")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        seen |= {k for k, v in doc["metrics"].items() if v["value"] != 0}
    # Counts a tiny run cannot reach (pairwise tables, a compile that is
    # not timed when the cache is reused) are exempt.
    exempt = {"kernels.pairwise.calls", "kernels.pairwise.us_per_call",
              "service.slo_rps", "error_frac", "degraded_frac",
              "core.memo_hit_ratio", "trace.overhead_frac",
              "service.coalesce_ratio"}
    exempt |= {m["name"] for m in SPEC["per_layer"]
               if m["name"].startswith("service.tail_ms.")}
    missing = {m["name"] for m in SPEC["per_layer"]} - seen - exempt
    assert not missing


def test_search_counters_on_the_scenario_path():
    """``het_search`` returns no search profile: its heap operations are
    still counted, and the profile-only metrics are marked not applicable
    instead of reading as the program's 0."""
    path = os.path.join(ROOT, ".bench_build", "cobench", "results",
                        "exact-scenario-s3-t1.json")
    if not os.path.exists(path):
        pytest.skip("needs the traced tiny runs above")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["metrics"]["solvers.heap_ops"]["value"] > 0
    assert {"graph.frontier_mean_size", "core.memo_hit_ratio",
            "evolve.generations"} <= set(doc["not_applicable"])


def test_manifest_has_not_drifted():
    lines = run("--check-manifest")
    assert lines[-1] == "manifest ok"


def test_refuses_outside_a_checkout(tmp_path):
    """With only BENCHMARK.json and perfbench/ present, the benchmark
    exits non-zero without printing a result."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-homog",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_compare_refuses_other_hosts(tmp_path):
    doc = {"workload": "exact-homog", "trace": 0, "metrics": {},
           "host": {"cpu_model": "a", "nproc": 2, "python": "3",
                    "numpy": "1", "scipy": "1",
                    "kernels": {"backend": "native", "provider": "cc"}}}
    other = json.loads(json.dumps(doc))
    other["host"]["kernels"] = {"backend": "numpy", "provider": "numpy"}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(doc))
    b.write_text(json.dumps(other))
    proc = subprocess.run([sys.executable, RUN, "--compare", str(a), str(b)],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 3
    assert "kernels.backend" in proc.stderr
