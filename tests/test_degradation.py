"""Unit + property tests for the degradation models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.degradation import (
    AsymmetricContentionModel,
    MatrixDegradationModel,
    MissRatePressureModel,
    SDCDegradationModel,
)
from repro.core.jobs import Workload, pe_job, serial_job
from repro.core.machine import QUAD_CORE
from repro.workloads.catalog import CATALOG
from repro.workloads.synthetic import random_profiles


def sdc_model(names, u=4):
    jobs = [serial_job(i, n) for i, n in enumerate(names)]
    wl = Workload(jobs, cores_per_machine=u)
    return wl, SDCDegradationModel(wl, QUAD_CORE, CATALOG)


class TestSDCModel:
    def test_alone_is_zero(self):
        _wl, model = sdc_model(["BT", "CG", "EP", "FT"])
        assert model.cache_degradation(0, frozenset()) == 0.0

    def test_nonnegative(self):
        _wl, model = sdc_model(["BT", "CG", "EP", "FT"])
        assert model.cache_degradation(0, frozenset({1, 2, 3})) >= 0.0

    def test_memory_bound_suffers_more_than_compute_bound(self):
        """art (memory-hostile) degrades more than EP (compute) against the
        same heavy co-runners."""
        wl, model = sdc_model(["art", "EP", "CG", "MG"])
        d_art = model.cache_degradation(0, frozenset({2, 3}))
        d_ep = model.cache_degradation(1, frozenset({2, 3}))
        assert d_art > d_ep

    def test_heavy_corunners_hurt_more_than_light(self):
        wl, model = sdc_model(["BT", "CG", "MG", "EP", "PI"])
        heavy = model.cache_degradation(0, frozenset({1, 2}))  # CG+MG
        light = model.cache_degradation(0, frozenset({3, 4}))  # EP+PI
        assert heavy > light

    def test_profile_keyed_memoization(self):
        wl, model = sdc_model(["BT", "CG", "EP", "FT"])
        d1 = model.cache_degradation(0, frozenset({1, 2}))
        before = len(model._cache)
        d2 = model.cache_degradation(0, frozenset({1, 2}))
        assert d1 == d2 and len(model._cache) == before

    def test_parallel_ranks_share_entries(self):
        jobs = [pe_job(0, "RA", nprocs=3, profile_name="RA"),
                serial_job(1, "BT")]
        wl = Workload(jobs, cores_per_machine=2)
        model = SDCDegradationModel(wl, QUAD_CORE, CATALOG)
        assert (model.cache_degradation(0, frozenset({3}))
                == model.cache_degradation(2, frozenset({3})))

    def test_unknown_profile_rejected(self):
        jobs = [serial_job(0, "nonesuch")]
        wl = Workload(jobs, cores_per_machine=1)
        with pytest.raises(KeyError, match="nonesuch"):
            SDCDegradationModel(wl, QUAD_CORE, CATALOG)

    def test_min_degradation_is_true_floor(self):
        import itertools

        wl, model = sdc_model(["BT", "CG", "EP", "FT", "IS", "LU", "MG", "SP"])
        universe = list(range(8))
        for pid in (0, 3):
            floor = model.min_degradation(pid, universe, 3)
            actual_min = min(
                model.cache_degradation(pid, frozenset(c))
                for c in itertools.combinations([q for q in universe if q != pid], 3)
            )
            assert floor == pytest.approx(actual_min)

    def test_min_degradation_matches_generate_and_filter(self):
        """The bounded-multiset floor equals filtering every
        ``combinations_with_replacement`` candidate by availability, on
        random universes where profiles repeat."""
        import itertools
        import random

        def generate_and_filter(model, pid, universe, k):
            me = model._pid_profile[pid]
            avail = {}
            for q in universe:
                if q != pid:
                    name = model._pid_profile[q]
                    avail[name] = avail.get(name, 0) + 1
            if k == 0 or sum(avail.values()) < k:
                return 0.0
            return min(
                model.degradation_by_names(me, combo)
                for combo in itertools.combinations_with_replacement(
                    sorted(avail), k)
                if all(combo.count(nm) <= avail[nm] for nm in set(combo))
            )

        rng = random.Random(11)
        pool = ["BT", "CG", "EP", "FT", "IS", "art", "MG"]
        for _ in range(12):
            names = [rng.choice(pool[:rng.randint(2, len(pool))])
                     for _ in range(rng.randint(3, 10))]
            _wl, model = sdc_model(names)
            universe = rng.sample(range(len(names)), rng.randint(2, len(names)))
            pid = rng.choice(universe)
            for k in range(0, 5):
                assert model.min_degradation(pid, universe, k) == (
                    generate_and_filter(model, pid, universe, k)
                ), (names, universe, pid, k)


class TestMatrixModel:
    def test_pairwise_additive(self):
        D = np.array([[0.0, 0.1, 0.2], [0.3, 0.0, 0.4], [0.5, 0.6, 0.0]])
        model = MatrixDegradationModel(pairwise=D)
        assert model.cache_degradation(0, frozenset({1, 2})) == pytest.approx(0.3)

    def test_exact_override(self):
        D = np.zeros((3, 3))
        model = MatrixDegradationModel(
            pairwise=D, exact={(0, frozenset({1, 2})): 9.0}
        )
        assert model.cache_degradation(0, frozenset({1, 2})) == 9.0
        assert model.cache_degradation(1, frozenset({0, 2})) == 0.0

    def test_exact_only_without_pairwise_raises_on_miss(self):
        model = MatrixDegradationModel(exact={(0, frozenset({1})): 1.0}, n=2)
        assert model.cache_degradation(0, frozenset({1})) == 1.0
        with pytest.raises(KeyError):
            model.cache_degradation(1, frozenset({0}))

    def test_needs_something(self):
        with pytest.raises(ValueError):
            MatrixDegradationModel()

    def test_min_degradation_k_smallest(self):
        D = np.array([[0, 5, 1, 3], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
                     dtype=float)
        model = MatrixDegradationModel(pairwise=D)
        assert model.min_degradation(0, [1, 2, 3], 2) == pytest.approx(4.0)

    def test_random_interaction_properties(self):
        model = MatrixDegradationModel.random_interaction(10, cores=4, seed=0)
        assert model.pairwise.shape == (10, 10)
        assert np.all(np.diag(model.pairwise) == 0.0)
        assert np.all(model.pairwise >= 0.0)
        # node_weight_fast agrees with explicit summation
        members = (0, 3, 7)
        expected = sum(
            model.cache_degradation(i, frozenset(members) - {i}) for i in members
        )
        assert model.node_weight_fast(members) == pytest.approx(expected)


class TestPressureModel:
    def test_formula_linear(self):
        model = MissRatePressureModel([0.2, 0.4, 0.6], kappa=1.0)
        assert model.cache_degradation(0, frozenset({1, 2})) == pytest.approx(0.2)

    def test_member_monotone_flag(self):
        assert MissRatePressureModel([0.2, 0.4]).is_member_monotone()
        assert not AsymmetricContentionModel([0.1], [0.1]).is_member_monotone()

    def test_node_weight_fast_matches_sum(self):
        for sat in (None, 0.7):
            model = MissRatePressureModel([0.2, 0.4, 0.6, 0.3], kappa=0.5,
                                          saturation=sat)
            members = (0, 1, 3)
            expected = sum(
                model.cache_degradation(i, frozenset(members) - {i})
                for i in members
            )
            assert model.node_weight_fast(members) == pytest.approx(expected)

    def test_saturation_caps_response(self):
        model = MissRatePressureModel([1.0] * 10, kappa=1.0, saturation=0.5)
        big = model.cache_degradation(0, frozenset(range(1, 10)))
        assert big <= 0.5 + 1e-9

    def test_phi_min_slope_is_chord(self):
        model = MissRatePressureModel([0.5], saturation=1.0)
        slope = model.phi_min_slope(2.0)
        # Concavity: phi(x) >= slope * x on [0, 2].
        for x in np.linspace(0.01, 2.0, 20):
            assert model.phi(x) >= slope * x - 1e-12

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=4,
                    max_size=8))
    def test_property_member_monotone(self, rates):
        """Swapping a coset member for a higher-miss-rate process never
        lowers my degradation."""
        model = MissRatePressureModel(rates + [0.0, 1.0], saturation=0.8)
        n = len(rates)
        lo, hi = n, n + 1  # appended 0.0 and 1.0
        d_lo = model.cache_degradation(0, frozenset({1, lo}))
        d_hi = model.cache_degradation(0, frozenset({1, hi}))
        assert d_hi >= d_lo - 1e-12

    def test_min_degradation_exact(self):
        model = MissRatePressureModel([0.5, 0.1, 0.9, 0.3], kappa=1.0)
        # best pair for pid 0: {0.1, 0.3}
        assert model.min_degradation(0, [1, 2, 3], 2) == pytest.approx(0.5 * 0.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            MissRatePressureModel([])
        with pytest.raises(ValueError):
            MissRatePressureModel([1.5])
        with pytest.raises(ValueError):
            MissRatePressureModel([0.5], saturation=0.0)


class TestAsymmetricModel:
    def test_decoupled_roles(self):
        model = AsymmetricContentionModel(
            sensitivities=[1.0, 0.0], aggressiveness=[0.0, 1.0], kappa=1.0
        )
        # pid 0 is sensitive, pid 1 aggressive: 0 suffers, 1 does not.
        assert model.cache_degradation(0, frozenset({1})) == pytest.approx(1.0)
        assert model.cache_degradation(1, frozenset({0})) == 0.0

    def test_node_weight_fast_matches_sum(self):
        for sat in (None, 0.6):
            model = AsymmetricContentionModel.random(6, cores=4, seed=1,
                                                     saturation=sat)
            members = (0, 2, 5)
            expected = sum(
                model.cache_degradation(i, frozenset(members) - {i})
                for i in members
            )
            assert model.node_weight_fast(members) == pytest.approx(expected)

    def test_min_degradation_floor(self):
        import itertools

        model = AsymmetricContentionModel.random(6, cores=4, seed=2)
        floor = model.min_degradation(0, list(range(6)), 2)
        actual = min(
            model.cache_degradation(0, frozenset(c))
            for c in itertools.combinations(range(1, 6), 2)
        )
        assert floor == pytest.approx(actual)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            AsymmetricContentionModel([0.1, 0.2], [0.1])
