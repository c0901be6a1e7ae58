"""Native-vs-NumPy kernel equivalence: the contract behind backend swap.

The compiled backend may only ship results the NumPy reference would have
produced — callers never know which backend scored them.  This suite
checks that bit-level promise on randomized inputs far larger than the
import-time self-check: every degradation model's batch kernel, the SDC
merge walk across ragged group shapes, and the (weight, index) tie-break
of the fused level select, and the compiled top-L level enumeration
against the Python heap it replaced.  A subprocess test pins ``COSCHED_NATIVE=0``
and asserts the dispatcher reports (and uses) the NumPy fallback.

When no native provider loads in this environment, the dispatch tests
reduce to NumPy-vs-NumPy and the dedicated native assertions skip.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.degradation import (
    AsymmetricContentionModel,
    MatrixDegradationModel,
    MissRatePressureModel,
)
from repro.graph.subset_enum import iter_subsets_monotone
from repro.perf import kernels
from repro.perf.kernels import native, numpy_backend

ATOL = 1e-9


def nodes_for(rng, n, u, count):
    return rng.integers(0, n, size=(count, u)).astype(np.intp)


def native_impl():
    impl = native.load_cc_backend()
    if impl is None:
        pytest.skip("no native kernel provider in this environment")
    return impl


class TestDegradationModelEquivalence:
    """Batch node weights agree between backends for every model."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matrix_model(self, seed):
        rng = np.random.default_rng(seed)
        n, u = int(rng.integers(4, 40)), int(rng.integers(2, 9))
        P = rng.uniform(0.0, 0.5, size=(n, n))
        np.fill_diagonal(P, 0.0)
        model = MatrixDegradationModel(pairwise=P)
        nodes = nodes_for(rng, n, u, 500)
        ref = numpy_backend.pairwise_node_weights(P, nodes)
        np.testing.assert_allclose(
            model.node_weights_batch(nodes), ref, rtol=0, atol=ATOL)
        got = native_impl().pairwise_node_weights(P, nodes)
        np.testing.assert_allclose(got, ref, rtol=0, atol=ATOL)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("saturation", [None, 0.9, 4.0])
    def test_miss_rate_model(self, seed, saturation):
        rng = np.random.default_rng(100 + seed)
        n, u = int(rng.integers(4, 60)), int(rng.integers(2, 9))
        model = MissRatePressureModel.random(n, cores=u, seed=seed,
                                             saturation=saturation)
        nodes = nodes_for(rng, n, u, 500)
        ref = numpy_backend.pressure_node_weights(
            model.miss_rates, model.miss_rates, nodes, model.kappa,
            model.saturation)
        np.testing.assert_allclose(
            model.node_weights_batch(nodes), ref, rtol=0, atol=ATOL)
        got = native_impl().pressure_node_weights(
            model.miss_rates, model.miss_rates, nodes, model.kappa,
            model.saturation)
        np.testing.assert_allclose(got, ref, rtol=0, atol=ATOL)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("saturation", [None, 0.9])
    def test_asymmetric_model(self, seed, saturation):
        rng = np.random.default_rng(200 + seed)
        n, u = int(rng.integers(4, 60)), int(rng.integers(2, 9))
        model = AsymmetricContentionModel.random(n, cores=u, seed=seed,
                                                 saturation=saturation)
        nodes = nodes_for(rng, n, u, 500)
        ref = numpy_backend.pressure_node_weights(
            model.s, model.a, nodes, model.kappa, model.saturation)
        np.testing.assert_allclose(
            model.node_weights_batch(nodes), ref, rtol=0, atol=ATOL)
        got = native_impl().pressure_node_weights(
            model.s, model.a, nodes, model.kappa, model.saturation)
        np.testing.assert_allclose(got, ref, rtol=0, atol=ATOL)

    def test_batch_matches_scalar_node_weight(self):
        # The dispatcher output must still agree with the scalar path the
        # kernels replaced, not just with the other backend.
        rng = np.random.default_rng(7)
        model = AsymmetricContentionModel.random(12, cores=4, seed=7,
                                                 saturation=0.9)
        # Distinct pids per row — the scalar path works on process *sets*.
        nodes = np.array([rng.permutation(12)[:4] for _ in range(50)],
                         dtype=np.intp)
        batch = model.node_weights_batch(nodes)
        for row, w in zip(nodes, batch):
            scalar = sum(
                model.cache_degradation(
                    int(p), frozenset(int(q) for q in row) - {int(p)})
                for p in row
            )
            assert abs(scalar - w) < 1e-9


class TestSdcMergeEquivalence:
    """The merge walk: ragged shapes, rates, ties, zero counters."""

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_groups(self, seed):
        rng = np.random.default_rng(300 + seed)
        impl = native_impl()
        k = int(rng.integers(1, 9))
        counters = [
            tuple(rng.uniform(0.0, 100.0,
                              size=int(rng.integers(1, 70))))
            for _ in range(k)
        ]
        weights = [float(w) for w in rng.uniform(0.0, 2.0, size=k)]
        # Span both sides of the cc backend's small-merge cutoff.
        for assoc in (4, 16, 64, 128):
            assert impl.sdc_merge_ways(counters, weights, assoc) == \
                numpy_backend.sdc_merge_ways(counters, weights, assoc)
            assert kernels.sdc_merge_ways(counters, weights, assoc) == \
                numpy_backend.sdc_merge_ways(counters, weights, assoc)

    def test_exhausted_counters_deal_round_robin(self):
        impl = native_impl()
        counters = [(1.0,), (2.0,)]
        for assoc in (64, 256):
            assert impl.sdc_merge_ways(counters, [1.0, 1.0], assoc) == \
                numpy_backend.sdc_merge_ways(counters, [1.0, 1.0], assoc)

    def test_ties_go_to_lower_index(self):
        impl = native_impl()
        counters = [(5.0,) * 40, (5.0,) * 40, (5.0,) * 40]
        weights = [1.0, 1.0, 1.0]
        assert impl.sdc_merge_ways(counters, weights, 96) == \
            numpy_backend.sdc_merge_ways(counters, weights, 96)

    def test_zero_rate_process_wins_nothing_directly(self):
        impl = native_impl()
        counters = [(9.0,) * 80, (9.0,) * 80]
        assert impl.sdc_merge_ways(counters, [1.0, 0.0], 128) == \
            numpy_backend.sdc_merge_ways(counters, [1.0, 0.0], 128)


class TestSelectSmallest:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_stable_argsort(self, seed):
        rng = np.random.default_rng(400 + seed)
        w = rng.uniform(0.0, 1.0, size=2000)
        # Inject duplicate weights: ties must break on the lower index.
        dup = rng.integers(0, 2000, size=100)
        w[dup] = w[dup[0]]
        for k in (1, 5, 100, 2000):
            assert list(kernels.select_smallest(w, k)) == \
                list(numpy_backend.select_smallest(w, k))

    def test_k_zero_and_oversized(self):
        w = np.array([3.0, 1.0, 2.0])
        assert list(kernels.select_smallest(w, 0)) == []
        assert list(kernels.select_smallest(w, 99)) == [1, 2, 0]


def topk_case(seed):
    """A random level: rank-ordered candidates plus pressure terms.

    Odd seeds draw miss rates on a 0.05 grid, so many subsets tie exactly
    and the (weight, index tuple) tie-break decides their order; seeds
    divisible by 3 use distinct sensitivity and aggressiveness vectors
    (the proxy-ranked asymmetric kernel), the others ``sens is aggr``.
    """
    rng = np.random.default_rng(500 + seed)
    k = 1 + seed % 7
    m = k + int(rng.integers(0, 12))
    n = m + 1
    sens = rng.uniform(0.15, 0.75, size=n)
    if seed % 2:
        sens = np.round(sens * 20) / 20
    aggr = sens if seed % 3 else rng.uniform(0.15, 0.75, size=n)
    level_pid = int(rng.integers(0, n))
    rest = np.array([p for p in range(n) if p != level_pid])
    keys = sens[rest] if aggr is sens else sens[rest] + aggr[rest]
    ordered = rest[np.argsort(keys, kind="stable")]
    saturation = (None, 0.9)[seed % 4 // 2]
    return ordered, level_pid, k, sens, aggr, 0.31, saturation


def heap_reference(impl, ordered, level_pid, k, sens, aggr, kappa,
                   saturation, L):
    """The Python heap enumerator scoring each pop with ``impl``'s
    ``pressure_node_weights`` — the per-pop path the kernel replaced."""
    def weight_batch(subs):
        rows = np.empty((len(subs), k + 1), dtype=np.intp)
        rows[:, 0] = level_pid
        rows[:, 1:] = subs
        return impl.pressure_node_weights(sens, aggr, rows, kappa,
                                          saturation)

    rank = {int(p): i for i, p in enumerate(ordered)}
    return list(itertools.islice(
        iter_subsets_monotone([int(p) for p in ordered], k, None,
                              rank.__getitem__, weight_batch=weight_batch),
        L))


def tie_classes(subsets, weights, tol=1e-12):
    """Runs of (near-)equal weights, as sets of subsets."""
    out = []
    for sub, w in zip(subsets, weights):
        if out and abs(w - out[-1][0]) <= tol:
            out[-1][1].add(tuple(sub))
        else:
            out.append((w, {tuple(sub)}))
    return [members for _w, members in out]


class TestMonotoneTopk:
    """``pressure_monotone_topk``: the compiled lazy level enumeration."""

    @pytest.mark.parametrize("seed", range(42))
    def test_native_matches_python_heap_bitwise(self, seed):
        impl = native_impl()
        case = topk_case(seed)
        ordered, k = case[0], case[2]
        total = math.comb(len(ordered), k)
        for L in sorted({1, max(1, total // 3), total, total + 7}):
            subs, ws = impl.pressure_monotone_topk(*case, L)
            ref = heap_reference(impl, *case, L)
            assert len(ws) == len(ref) == min(L, total)
            assert [tuple(r) for r in subs.tolist()] == [s for s, _ in ref]
            # Same row function, same rows: bit-identical weights, so ties
            # break identically too.
            assert ws.tolist() == [w for _, w in ref]

    @pytest.mark.parametrize("seed", range(42))
    def test_dispatch_matches_numpy_reference(self, seed):
        case = topk_case(seed)
        ordered, k, sens, aggr = case[0], case[2], case[3], case[4]
        total = math.comb(len(ordered), k)
        for L in sorted({1, max(1, total // 3), total, total + 7}):
            got_s, got_w = kernels.pressure_monotone_topk(*case, L)
            ref_s, ref_w = numpy_backend.pressure_monotone_topk(*case, L)
            assert got_s.shape == ref_s.shape == (min(L, total), k)
            np.testing.assert_allclose(got_w, ref_w, rtol=0, atol=1e-12)
            if seed % 2 == 0:
                # Untied draws: the orders agree exactly.
                assert np.array_equal(got_s, ref_s)
            elif aggr is sens:
                # Exact ties may round apart differently between the
                # backends; each run of equal weights holds the same
                # subsets (the last run may be cut short by L).
                assert tie_classes(got_s.tolist(), got_w)[:-1] == \
                    tie_classes(ref_s.tolist(), ref_w)[:-1]

    def test_numpy_reference_is_the_python_heap(self):
        case = topk_case(4)
        subs, ws = numpy_backend.pressure_monotone_topk(*case, 50)
        ref = heap_reference(numpy_backend, *case, 50)
        assert [tuple(r) for r in subs.tolist()] == [s for s, _ in ref]
        assert ws.tolist() == [w for _, w in ref]

    @pytest.mark.parametrize("impl_name", ["native", "numpy"])
    def test_edge_sizes(self, impl_name):
        impl = native_impl() if impl_name == "native" else numpy_backend
        sens = np.array([0.2, 0.5, 0.7, 0.4])
        ordered = np.array([1, 3, 2])
        # m == k: the single subset is the whole candidate list.
        subs, ws = impl.pressure_monotone_topk(ordered, 0, 3, sens, sens,
                                               0.5, None, 10)
        assert subs.tolist() == [[1, 3, 2]]
        assert ws.tolist() == numpy_backend.pressure_node_weights(
            sens, sens, np.array([[0, 1, 3, 2]]), 0.5, None).tolist()
        # k > m, L == 0, and k == 0 (the empty subset, weight 0).
        for k, L, want in ((4, 5, 0), (2, 0, 0), (0, 5, 1)):
            subs, ws = impl.pressure_monotone_topk(ordered, 0, k, sens,
                                                   sens, 0.5, None, L)
            assert subs.shape == (want, k) and len(ws) == want
        assert ws.tolist() == [0.0]

    def test_native_rejects_out_of_range_pids(self):
        # The compiled loop indexes the pressure vectors unchecked.
        impl = native_impl()
        sens = np.array([0.2, 0.5, 0.7])
        for ordered, level_pid, k in (([1, 3], 0, 1), ([1, 2], 3, 1),
                                      ([-1, 2], 0, 1), ([1, 2], 0, -1)):
            with pytest.raises(ValueError):
                impl.pressure_monotone_topk(np.array(ordered), level_pid, k,
                                            sens, sens, 0.5, None, 3)


class TestSelfCheck:
    """The import-time gate must reject a provider whose top-L kernel
    disagrees with the reference, so it degrades to the fallback."""

    def test_rejects_wrong_topk_order(self):
        impl = native_impl()

        class SwappedTopk:
            def __getattr__(self, name):
                return getattr(impl, name)

            def pressure_monotone_topk(self, *args):
                subsets, weights = impl.pressure_monotone_topk(*args)
                return subsets[::-1], weights[::-1]

        assert kernels._self_check(impl)
        assert not kernels._self_check(SwappedTopk())


class TestForcedFallback:
    """``COSCHED_NATIVE=0`` must pin the NumPy backend in a fresh process."""

    def _probe(self, env_extra):
        env = dict(os.environ)
        env.update(env_extra)
        src_dir = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src_dir)
        code = (
            "import json\n"
            "from repro.perf import kernels\n"
            "import numpy as np\n"
            "w = kernels.pressure_node_weights(\n"
            "    np.array([0.2, 0.5, 0.7]), np.array([0.2, 0.5, 0.7]),\n"
            "    np.array([[0, 1], [1, 2]], dtype=np.intp), 0.5, None)\n"
            "print(json.dumps({'info': kernels.backend_info(),\n"
            "                  'w': w.tolist()}))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_opt_out_forces_numpy(self):
        got = self._probe({"COSCHED_NATIVE": "0"})
        assert got["info"]["backend"] == "numpy"
        assert got["info"]["provider"] == "numpy"
        assert got["info"]["native_disabled"] is True

    def test_opt_out_results_match_default(self):
        disabled = self._probe({"COSCHED_NATIVE": "0"})
        default = self._probe({})
        np.testing.assert_allclose(disabled["w"], default["w"],
                                   rtol=0, atol=ATOL)

    def test_backend_pin_numpy(self):
        got = self._probe({"COSCHED_KERNEL_BACKEND": "numpy"})
        assert got["info"]["backend"] == "numpy"

    def test_report_surfaces_backend(self):
        # SolveReport.to_dict carries the active backend name.
        from repro.runtime import run_solve
        from repro.workloads.synthetic import random_serial_instance

        report = run_solve(random_serial_instance(8, "dual", seed=1),
                           "oastar")
        doc = report.to_dict()
        assert doc["kernel_backend"] in ("native", "numpy")
        assert doc["kernel_backend"] == kernels.active_backend()
