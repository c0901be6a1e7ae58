"""Tests for the lazy best-first subset enumerator."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.subset_enum import (
    iter_subsets_by_weight,
    iter_subsets_exact,
    iter_subsets_monotone,
)


def sum_weight(vals):
    return lambda sub: sum(vals[i] for i in sub)


class TestExact:
    def test_yields_all_combinations_ascending(self):
        vals = {0: 3.0, 1: 1.0, 2: 2.0, 3: 0.5}
        out = list(iter_subsets_exact([0, 1, 2, 3], 2, sum_weight(vals)))
        assert len(out) == 6
        weights = [w for _s, w in out]
        assert weights == sorted(weights)
        assert out[0][0] == (1, 3)  # 1.5 is the smallest pair

    def test_k_zero(self):
        out = list(iter_subsets_exact([1, 2], 0, lambda s: 0.0))
        assert out == [((), 0.0)]


class TestMonotone:
    def test_matches_exact_for_additive_weights(self):
        vals = {i: float((i * 7) % 5) + 0.1 * i for i in range(8)}
        w = sum_weight(vals)
        lazy = list(iter_subsets_monotone(list(range(8)), 3, w,
                                          rank_key=lambda i: vals[i]))
        exact = list(iter_subsets_exact(list(range(8)), 3, w))
        assert [lw for _s, lw in lazy] == pytest.approx(
            [ew for _s, ew in exact]
        )
        assert len(lazy) == math.comb(8, 3)
        assert {frozenset(s) for s, _ in lazy} == {
            frozenset(s) for s, _ in exact
        }

    def test_lazy_touches_only_what_is_consumed(self):
        evals = {"n": 0}
        vals = list(range(100))

        def w(sub):
            evals["n"] += 1
            return sum(vals[i] for i in sub)

        it = iter_subsets_monotone(list(range(100)), 4, w, rank_key=lambda i: i)
        for _ in range(5):
            next(it)
        # 5 pops cost at most 1 + 5*k pushes worth of evaluations.
        assert evals["n"] <= 1 + 5 * 4

    def test_k_larger_than_n_yields_nothing(self):
        assert list(iter_subsets_monotone([1, 2], 3, lambda s: 0.0,
                                          rank_key=lambda i: i)) == []

    def test_k_zero(self):
        out = list(iter_subsets_monotone([1], 0, lambda s: 1.0,
                                         rank_key=lambda i: i))
        assert out == [((), 0.0)]

    def test_negative_k(self):
        with pytest.raises(ValueError):
            list(iter_subsets_monotone([1], -1, lambda s: 0.0,
                                       rank_key=lambda i: i))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=3,
                 max_size=9),
        st.integers(min_value=1, max_value=4),
    )
    def test_property_complete_and_sorted(self, vals, k):
        if k > len(vals):
            k = len(vals)
        items = list(range(len(vals)))
        w = sum_weight(dict(enumerate(vals)))
        out = list(iter_subsets_monotone(items, k, w,
                                         rank_key=lambda i: vals[i]))
        assert len(out) == math.comb(len(vals), k)
        weights = [wt for _s, wt in out]
        assert all(a <= b + 1e-9 for a, b in zip(weights, weights[1:]))


class TestDispatch:
    def test_requires_rank_key_for_monotone(self):
        with pytest.raises(ValueError):
            iter_subsets_by_weight([1, 2], 1, lambda s: 0.0, monotone=True)

    def test_dispatch_exact(self):
        out = list(iter_subsets_by_weight([0, 1], 1, lambda s: float(s[0])))
        assert out == [((0,), 0.0), ((1,), 1.0)]


class TestDispatchEquivalence:
    """The lazy path and the exact-sort fallback must be interchangeable:
    same (subset, weight) prefixes wherever the monotone contract holds —
    including nonlinear weights and ties — and same full coverage even on a
    weight function that violates the contract."""

    def test_identical_prefixes_on_saturating_weight(self):
        # Concave (non-additive) weight: min-like saturation of the sum.
        # Member-monotone, but far from the linear sums of the other tests.
        vals = {i: 0.3 + 0.1 * i for i in range(7)}

        def w(sub):
            s = sum(vals[i] for i in sub)
            return min(s, 1.2) + 0.25 * max(vals[i] for i in sub)

        lazy = list(iter_subsets_by_weight(
            list(range(7)), 3, w, rank_key=lambda i: vals[i], monotone=True))
        exact = list(iter_subsets_by_weight(list(range(7)), 3, w))
        assert lazy == exact

    def test_identical_prefixes_on_ties(self):
        # Heavy ties: only two distinct values, so most weights collide and
        # ordering is decided by the tie-break.  Both paths must agree on
        # every prefix, not just on the sorted weights.
        vals = {0: 1.0, 1: 1.0, 2: 1.0, 3: 2.0, 4: 2.0, 5: 2.0}
        w = sum_weight(vals)
        lazy = list(iter_subsets_by_weight(
            list(range(6)), 2, w, rank_key=lambda i: vals[i], monotone=True))
        exact = list(iter_subsets_by_weight(list(range(6)), 2, w))
        assert [wt for _s, wt in lazy] == [wt for _s, wt in exact]
        for t in range(1, len(lazy) + 1):
            assert {s for s, _ in lazy[:t]} == {s for s, _ in exact[:t]}, t

    def test_constant_weight_full_tie(self):
        w = lambda sub: 1.0  # noqa: E731 - every subset ties
        lazy = list(iter_subsets_by_weight(
            [0, 1, 2, 3], 2, w, rank_key=lambda i: i, monotone=True))
        exact = list(iter_subsets_by_weight([0, 1, 2, 3], 2, w))
        assert lazy == exact

    def test_non_monotone_weight_same_coverage(self):
        """Off-contract (a genuinely non-member-monotone weight): the lazy
        path loses its ordering guarantee but must still enumerate every
        subset exactly once with correct weights — the exact fallback is
        the sorted reference."""
        def w(sub):
            return float((sum(sub) * 7919) % 13)

        items = list(range(8))
        lazy = list(iter_subsets_by_weight(
            items, 3, w, rank_key=lambda i: i, monotone=True))
        exact = list(iter_subsets_by_weight(items, 3, w))
        assert len(lazy) == len(exact) == math.comb(8, 3)
        assert sorted(lazy, key=lambda t: (t[1], t[0])) == exact
        ew = [wt for _s, wt in exact]
        assert ew == sorted(ew)


class TestWeightBatch:
    """The weight_batch hook must be a pure accelerator: identical output,
    fewer calls."""

    def test_batch_matches_scalar_sequence(self):
        vals = {i: 0.15 + 0.07 * i for i in range(9)}
        w = sum_weight(vals)

        def wb(subs):
            return [w(s) for s in subs]

        plain = list(iter_subsets_monotone(
            list(range(9)), 3, w, rank_key=lambda i: vals[i]))
        batched = list(iter_subsets_monotone(
            list(range(9)), 3, w, rank_key=lambda i: vals[i],
            weight_batch=wb))
        assert plain == batched

    def test_batch_called_once_per_frontier(self):
        calls = {"n": 0, "sizes": []}
        vals = list(range(10))
        w = sum_weight(dict(enumerate(vals)))

        def wb(subs):
            calls["n"] += 1
            calls["sizes"].append(len(subs))
            return [w(s) for s in subs]

        it = iter_subsets_monotone(list(range(10)), 4, w,
                                   rank_key=lambda i: vals[i],
                                   weight_batch=wb)
        for _ in range(6):
            next(it)
        # One call for the start subset plus at most one per pop.
        assert calls["n"] <= 1 + 6
        assert all(1 <= s <= 4 for s in calls["sizes"])
        assert any(s > 1 for s in calls["sizes"])

    def test_dispatch_forwards_weight_batch(self):
        seen = {"called": False}
        w = sum_weight({0: 1.0, 1: 2.0, 2: 3.0})

        def wb(subs):
            seen["called"] = True
            return [w(s) for s in subs]

        out = list(iter_subsets_by_weight(
            [0, 1, 2], 2, w, rank_key=lambda i: i, monotone=True,
            weight_batch=wb))
        assert seen["called"]
        assert [s for s, _ in out] == [(0, 1), (0, 2), (1, 2)]


class TestPrefixOracle:
    """The ``topk`` hook streams growing prefixes from a one-call oracle:
    same entries and order as the heap, each entry yielded once."""

    @staticmethod
    def oracle(w, rank, k, calls):
        def topk(ordered, count):
            calls.append(count)
            assert ordered == sorted(ordered, key=rank)
            head = list(itertools.islice(
                iter_subsets_monotone(ordered, k, w, rank), count))
            return (np.array([s for s, _ in head]).reshape(len(head), k),
                    np.array([x for _, x in head]))
        return topk

    @pytest.mark.parametrize("n,k,first", [(11, 3, 5), (9, 2, 64), (7, 7, 3)])
    def test_matches_heap_and_grows_fourfold(self, n, k, first):
        vals = {i: 0.1 + ((7 * i) % n) * 0.05 for i in range(n)}
        rank = vals.__getitem__
        w = sum_weight(vals)
        calls = []
        got = list(iter_subsets_monotone(
            list(range(n)), k, w, rank,
            topk=self.oracle(w, rank, k, calls), first=first))
        assert got == list(iter_subsets_monotone(list(range(n)), k, w, rank))
        total = math.comb(n, k)
        want, count = [], min(first, total)
        while True:
            want.append(count)
            if count == total:
                break
            count = min(4 * count, total)
        assert calls == want

    def test_reads_only_the_first_call_when_enough(self):
        vals = {i: float(i) for i in range(12)}
        rank = vals.__getitem__
        w = sum_weight(vals)
        calls = []
        it = iter_subsets_monotone(list(range(12)), 3, w, rank,
                                   topk=self.oracle(w, rank, 3, calls),
                                   first=6)
        assert len(list(itertools.islice(it, 6))) == 6
        assert calls == [6]
