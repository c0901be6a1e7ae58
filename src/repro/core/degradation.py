"""Cache-contention degradation models.

All solvers consume degradations through one interface,
:class:`CacheDegradationModel`: ``cache_degradation(pid, coset)`` is
``d_{i,S}`` of Eq. 1 — the relative slowdown of process ``pid`` when it
co-runs with the process set ``coset`` on one machine — and
``single_time(pid)`` is ``ct_i``, needed to normalize communication time into
Eq. 9's communication-combined degradation.

Three implementations:

* :class:`SDCDegradationModel` — the paper's pipeline: per-program stack
  distance profiles merged with the SDC model to predict co-run misses, then
  Eq. 14-15 to turn extra misses into extra time.
* :class:`MatrixDegradationModel` — explicit tabulated ``d_{i,S}`` (exact
  per-coset table and/or a pairwise-additive matrix); used for controlled
  tests and tiny hand-checkable instances such as the paper's Fig. 3.
* :class:`MissRatePressureModel` — the scalable synthetic model for the
  paper's large experiments (Figs. 5, 12, 13): each process has a cache-miss
  rate ``m_i ~ U[0.15, 0.75]`` and ``d_{i,S} = m_i * κ * Σ_{j∈S} m_j``.  It
  is *member-wise monotone*, which lets graph levels be enumerated lazily in
  ascending weight (see :mod:`repro.graph.subset_enum`).
"""

from __future__ import annotations

import abc
from typing import (
    AbstractSet, Dict, FrozenSet, Iterator, Mapping, Optional, Sequence, Tuple,
)

import numpy as np

from ..cache.cpu_time import degradation_from_misses
from ..cache.sdc import sdc_corun_misses
from ..perf import kernels as _kernels
from .jobs import Workload
from .machine import MachineSpec

__all__ = [
    "CacheDegradationModel",
    "SDCDegradationModel",
    "MatrixDegradationModel",
    "MissRatePressureModel",
]


class CacheDegradationModel(abc.ABC):
    """Interface every degradation provider implements."""

    @abc.abstractmethod
    def cache_degradation(self, pid: int, coset: FrozenSet[int]) -> float:
        """``d_{pid, coset}`` from cache contention alone (Eq. 1), >= 0."""

    @abc.abstractmethod
    def single_time(self, pid: int) -> float:
        """Single-run execution time ``ct_pid`` in seconds, > 0."""

    def supports_batch(self) -> bool:
        """True when :meth:`node_weights_batch` is vectorized (one NumPy
        kernel per call) rather than the generic scalar loop — the signal
        the graph layers use to decide whether chunked batch scoring is
        worth routing weights through.  Pressure-form models are."""
        return self.pressure_terms() is not None

    def pressure_terms(self):
        """``(sens, aggr, kappa, saturation)`` when the model has the
        pressure form ``d_{i,S} = sens_i · κ · φ(Σ_{j∈S} aggr_j)``, else
        None.  ``saturation`` None is the linear ``φ(x) = x``; otherwise
        ``φ(x) = s · (1 − exp(−x/s))``.  These are the arguments of the
        ``pressure_node_weights`` and ``pressure_monotone_topk`` kernels."""
        return None

    def node_weights_batch(self, nodes) -> np.ndarray:
        """Cache-contention node weights ``Σ_i d_{i, T∖i}`` for many nodes.

        ``nodes`` is an ``(N, u)`` array-like of process ids (each row one
        node; row order within a node is irrelevant).  Returns a length-N
        float array matching the scalar ``cache_degradation`` sum to
        floating-point round-off.  Pressure-form models (see
        :meth:`pressure_terms`) score all rows in one kernel call; other
        models loop here unless they override it
        (:class:`MatrixDegradationModel` does for pairwise tables).
        """
        nodes = np.asarray(nodes, dtype=np.intp)
        if nodes.ndim != 2:
            raise ValueError("nodes must be a 2-D (N, u) array of pids")
        terms = self.pressure_terms()
        if terms is not None:
            sens, aggr, kappa, saturation = terms
            return _kernels.pressure_node_weights(sens, aggr, nodes, kappa,
                                                  saturation)
        out = np.empty(len(nodes), dtype=float)
        for r in range(len(nodes)):
            members = frozenset(int(p) for p in nodes[r])
            out[r] = sum(
                self.cache_degradation(pid, members - {pid}) for pid in members
            )
        return out

    def clear_caches(self) -> None:
        """Drop internal memo state so a mutated model can't serve stale
        values.  Default: stateless models have nothing to clear."""

    def is_member_monotone(self) -> bool:
        """True if replacing a coset member with a higher-pressure process
        never decreases any degradation — enables lazy sorted level
        enumeration at scale."""
        return False

    def pressure(self, pid: int) -> float:
        """Scalar contention pressure of a process (used as the lazy-level
        sort key when :meth:`is_member_monotone`).  Default: undefined."""
        raise NotImplementedError

    def min_degradation(self, pid: int, universe: Sequence[int], k: int) -> float:
        """Lower bound on ``d_{pid,S}`` over every k-subset ``S`` of
        ``universe`` — an admissible per-process floor used to tighten the
        A* heuristic.  The default (0) is always safe."""
        return 0.0

    def interchangeable_key(self, pid: int):
        """Hashable token; two processes with equal tokens behave
        identically under this model (same suffered and inflicted
        degradations), so search may treat them as interchangeable.  The
        safe default makes every process unique (no bucketing)."""
        return ("pid", pid)


class SDCDegradationModel(CacheDegradationModel):
    """Degradations predicted by SDC merge + the Eq. 14-15 time model.

    Parameters
    ----------
    workload:
        Workload whose jobs carry ``profile_name`` keys.
    machine:
        Machine whose shared cache is contended.
    profiles:
        Map from profile name to a :class:`~repro.workloads.catalog.ProgramProfile`
        (anything with ``sdp(associativity)``, ``cpu_cycles``, ``accesses``,
        ``access_rate(machine)`` attributes/methods).

    Degradations depend only on the co-running *programs*, so results are
    memoized by profile-name multiset; a workload with many processes of one
    parallel job reuses each other's entries.
    """

    def __init__(
        self,
        workload: Workload,
        machine: MachineSpec,
        profiles: Mapping[str, "object"],
    ):
        self.workload = workload
        self.machine = machine
        self.profiles = dict(profiles)
        self._pid_profile: Dict[int, Optional[str]] = {}
        for pid in workload.iter_pids():
            job = workload.job_of(pid)
            if job is None:
                self._pid_profile[pid] = None  # imaginary: no contention
            else:
                if job.profile_name not in self.profiles:
                    raise KeyError(
                        f"no profile {job.profile_name!r} for job {job.name!r}"
                    )
                self._pid_profile[pid] = job.profile_name
        self._cache: Dict[Tuple[str, Tuple[str, ...]], float] = {}
        self._single_times: Dict[str, float] = {}
        self._sdp_cache: Dict[str, object] = {}
        self._rate_cache: Dict[str, float] = {}

    # ------------------------------------------------------------------ #

    def _profile(self, name: str):
        return self.profiles[name]

    def single_time(self, pid: int) -> float:
        name = self._pid_profile[pid]
        if name is None:
            return 1.0  # imaginary processes: arbitrary positive time
        if name not in self._single_times:
            prof = self._profile(name)
            self._single_times[name] = prof.single_time(self.machine)
        return self._single_times[name]

    def degradation_by_names(self, me: str, others: Tuple[str, ...]) -> float:
        """Degradation of program ``me`` co-running with the named programs.

        ``others`` must be sorted; results are memoized on this key, which is
        what lets parallel jobs with many identical ranks share entries.
        """
        if not others:
            return 0.0
        key = (me, others)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        assoc = self.machine.shared_cache.associativity
        names = (me,) + others
        for nm in names:
            if nm not in self._sdp_cache:
                prof = self._profile(nm)
                self._sdp_cache[nm] = prof.sdp(assoc)
                self._rate_cache[nm] = prof.access_rate(self.machine)
        sdps = [self._sdp_cache[nm] for nm in names]
        rates = [self._rate_cache[nm] for nm in names]
        result = sdc_corun_misses(sdps, assoc, rates)
        mine = self._profile(me)
        d = degradation_from_misses(
            cpu_cycles=mine.cpu_cycles,
            single_misses=result.single_misses[0],
            corun_misses=result.corun_misses[0],
            miss_penalty_cycles=self.machine.miss_penalty_cycles,
        )
        self._cache[key] = d
        return d

    def interchangeable_key(self, pid: int):
        # Processes sharing a program profile are exact substitutes.
        return ("profile", self._pid_profile[pid])

    def clear_caches(self) -> None:
        self._cache.clear()
        self._single_times.clear()
        self._sdp_cache.clear()
        self._rate_cache.clear()

    def cache_degradation(self, pid: int, coset: FrozenSet[int]) -> float:
        me = self._pid_profile[pid]
        if me is None:
            return 0.0
        others = tuple(sorted(
            n for n in (self._pid_profile[q] for q in coset if q != pid)
            if n is not None
        ))
        return self.degradation_by_names(me, others)

    def min_degradation(self, pid: int, universe: Sequence[int], k: int) -> float:
        """Exact minimum of ``d_{pid,S}`` over k-subsets of ``universe``.

        Degradations depend only on the co-runner *profile multiset*, so the
        minimum is taken over distinct multisets, and only over those the
        universe can supply: each profile appears at most as often as
        processes carrying it are available.
        """
        me = self._pid_profile[pid]
        if me is None or k == 0:
            return 0.0
        avail: Dict[str, int] = {}
        for q in universe:
            if q == pid:
                continue
            name = self._pid_profile[q]
            if name is not None:
                avail[name] = avail.get(name, 0) + 1
        if sum(avail.values()) < k:
            return 0.0  # not enough co-runners: conservative floor
        return min(
            self.degradation_by_names(me, combo)
            for combo in _bounded_multisets(sorted(avail.items()), k)
        )


def _bounded_multisets(
    counts: Sequence[Tuple[str, int]], k: int
) -> Iterator[Tuple[str, ...]]:
    """Every sorted k-multiset drawing name ``n`` at most ``c`` times, for
    ``(n, c)`` in ``counts`` (sorted by name), in lexicographic order.

    Recursing over names with a count in ``0..min(c, remaining)`` visits
    only feasible multisets, where filtering
    ``combinations_with_replacement`` would generate C(P + k - 1, k)
    candidates for P names; a branch whose later names cannot fill the
    remaining slots is cut before it is entered.
    """
    supply = [0] * (len(counts) + 1)
    for i in range(len(counts) - 1, -1, -1):
        supply[i] = supply[i + 1] + counts[i][1]

    def walk(i: int, left: int) -> Iterator[Tuple[str, ...]]:
        if left == 0:
            yield ()
            return
        name, avail = counts[i]
        for take in range(min(avail, left), -1, -1):
            if supply[i + 1] < left - take:
                break
            head = (name,) * take
            for rest in walk(i + 1, left - take):
                yield head + rest

    if supply[0] >= k:
        yield from walk(0, k)


class MatrixDegradationModel(CacheDegradationModel):
    """Tabulated degradations.

    ``pairwise[i, j]`` gives the degradation inflicted on ``i`` by co-running
    with ``j`` alone; for larger cosets contributions add (the additive model
    used by [18]'s experiments).  ``exact`` entries — keyed
    ``(pid, frozenset(coset))`` — override the additive rule where present,
    so arbitrary tables (e.g. the Fig. 3 example) can be expressed.
    """

    def __init__(
        self,
        pairwise: Optional[np.ndarray] = None,
        exact: Optional[Mapping[Tuple[int, FrozenSet[int]], float]] = None,
        single_times: Optional[Sequence[float]] = None,
        n: Optional[int] = None,
    ):
        if pairwise is None and exact is None:
            raise ValueError("need pairwise matrix and/or exact table")
        if pairwise is not None:
            pairwise = np.asarray(pairwise, dtype=float)
            if pairwise.ndim != 2 or pairwise.shape[0] != pairwise.shape[1]:
                raise ValueError("pairwise must be square")
            if (pairwise < 0).any():
                raise ValueError("degradations must be non-negative")
            if n is None:
                n = pairwise.shape[0]
        self.pairwise = pairwise
        self.exact = dict(exact) if exact else {}
        self.n = n
        self._single = (
            np.asarray(single_times, dtype=float) if single_times is not None else None
        )
        if self._single is not None and (self._single <= 0).any():
            raise ValueError("single times must be positive")

    def cache_degradation(self, pid: int, coset: FrozenSet[int]) -> float:
        key = (pid, frozenset(coset) - {pid})
        if key in self.exact:
            return self.exact[key]
        if self.pairwise is None:
            raise KeyError(f"no degradation entry for {key} and no pairwise matrix")
        return float(sum(self.pairwise[pid, j] for j in key[1]))

    def single_time(self, pid: int) -> float:
        if self._single is None:
            return 1.0
        return float(self._single[pid])

    def min_degradation(self, pid: int, universe: Sequence[int], k: int) -> float:
        """Additive model: sum of the k smallest pairwise entries.

        Exact for purely pairwise tables; with ``exact`` overrides present
        the floor falls back to 0 (overrides may undercut the pairwise sum).
        """
        if k == 0 or self.exact or self.pairwise is None:
            return 0.0
        import heapq as _hq

        vals = [float(self.pairwise[pid, q]) for q in universe if q != pid]
        if len(vals) < k:
            return 0.0
        return float(sum(_hq.nsmallest(k, vals)))

    def pressure(self, pid: int) -> float:
        """Proxy rank key for trimmed enumeration on pairwise tables:
        how much the process participates in contention overall (mean of
        suffered + inflicted pairwise degradations)."""
        if self.pairwise is None:
            raise NotImplementedError
        n = self.pairwise.shape[0]
        if n <= 1:
            return 0.0
        return float(
            (self.pairwise[pid].sum() + self.pairwise[:, pid].sum()) / (n - 1)
        )

    def node_weight_fast(self, members: Sequence[int]) -> float:
        """Node weight from the pairwise table — O(|T|²), no set machinery.

        Only valid for purely pairwise tables (no ``exact`` overrides).
        """
        if self.pairwise is None or self.exact:
            raise NotImplementedError
        total = 0.0
        P = self.pairwise
        for i in members:
            row = P[i]
            for j in members:
                if j != i:
                    total += row[j]
        return float(total)

    def supports_batch(self) -> bool:
        # Exact overrides are keyed by frozenset and may undercut or exceed
        # the pairwise sum per node, so only pure pairwise tables vectorize.
        return self.pairwise is not None and not self.exact

    def node_weights_batch(self, nodes) -> np.ndarray:
        if not self.supports_batch():
            return super().node_weights_batch(nodes)
        nodes = np.asarray(nodes, dtype=np.intp)
        if nodes.ndim != 2:
            raise ValueError("nodes must be a 2-D (N, u) array of pids")
        # Each node's u×u pairwise block summed without its diagonal — one
        # compiled pass, or the gather+einsum expression on the fallback.
        return _kernels.pairwise_node_weights(self.pairwise, nodes)

    @classmethod
    def random_interaction(
        cls,
        n: int,
        cores: int = 4,
        seed: int = 0,
        low: float = 0.15,
        high: float = 0.75,
        noise_sigma: float = 0.8,
    ) -> "MatrixDegradationModel":
        """Random idiosyncratic pairwise degradations.

        ``D[i, j] = s_i · a_j · ε_ij / (u-1)`` with sensitivity ``s``,
        aggressiveness ``a`` ~ U[low, high] and lognormal pair noise
        ``ε_ij``.  Models the fact that real cache interference is
        pair-specific (set conflicts, reuse-pattern beats) — the regime
        where single-score greedy heuristics like PG genuinely trail
        search-based schedulers, as in the paper's Figs. 10-12.
        """
        rng = np.random.default_rng(seed)
        s = rng.uniform(low, high, size=n)
        a = rng.uniform(low, high, size=n)
        eps = rng.lognormal(mean=0.0, sigma=noise_sigma, size=(n, n))
        D = np.outer(s, a) * eps / max(1, cores - 1)
        np.fill_diagonal(D, 0.0)
        return cls(pairwise=D)


class MissRatePressureModel(CacheDegradationModel):
    """Scalable synthetic model: ``d_{i,S} = m_i * κ * φ(Σ_{j∈S} m_j)``.

    ``m_i`` is process ``i``'s cache-miss rate (the paper's synthetic jobs
    draw it uniformly from [15%, 75%]); ``κ`` scales how hard the shared
    cache punishes combined pressure and defaults to ``1/u`` so that typical
    degradations stay in the paper's observed range regardless of core count.

    ``φ`` models cache saturation.  ``saturation=None`` gives the linear
    model ``φ(x) = x`` (for which perfectly balanced pressure is provably
    optimal — a degenerate regime where even the simple PG greedy is
    near-optimal).  A finite ``saturation`` level ``s`` gives the concave
    ``φ(x) = s · (1 − exp(−x/s))``: once co-runner pressure thrashes the
    cache, extra pressure adds little, so packing aggressors together and
    sheltering the sensitive is better than balancing — the regime real
    memory hierarchies (and the paper's measured degradations) live in.

    Member-wise monotone either way: swapping a coset member for one with a
    higher miss rate can only increase everyone's degradation — the
    structural property the lazy level enumerator relies on.
    """

    def __init__(
        self,
        miss_rates: Sequence[float],
        kappa: Optional[float] = None,
        cores: int = 4,
        saturation: Optional[float] = None,
        single_times: Optional[Sequence[float]] = None,
    ):
        rates = np.asarray(miss_rates, dtype=float)
        if rates.ndim != 1 or rates.size == 0:
            raise ValueError("miss_rates must be a non-empty 1-D sequence")
        if (rates < 0).any() or (rates > 1).any():
            raise ValueError("miss rates must lie in [0, 1]")
        self.miss_rates = rates
        self.kappa = float(kappa) if kappa is not None else 1.0 / max(1, cores - 1)
        if self.kappa < 0:
            raise ValueError("kappa must be non-negative")
        if saturation is not None and saturation <= 0:
            raise ValueError("saturation must be positive (or None for linear)")
        self.saturation = float(saturation) if saturation is not None else None
        self._single = (
            np.asarray(single_times, dtype=float) if single_times is not None else None
        )
        if self._single is not None and (self._single <= 0).any():
            raise ValueError("single times must be positive")

    @classmethod
    def random(
        cls,
        n: int,
        cores: int,
        seed: int = 0,
        low: float = 0.15,
        high: float = 0.75,
        saturation: Optional[float] = None,
    ) -> "MissRatePressureModel":
        """Random instance following the paper's synthetic methodology."""
        rng = np.random.default_rng(seed)
        return cls(
            miss_rates=rng.uniform(low, high, size=n),
            cores=cores,
            saturation=saturation,
        )

    def phi(self, x: float) -> float:
        """The (possibly saturating) pressure response."""
        if self.saturation is None:
            return x
        import math as _math

        return self.saturation * (1.0 - _math.exp(-x / self.saturation))

    def phi_min_slope(self, x_max: float) -> float:
        """Least slope of φ on [0, x_max] — the chord slope for concave φ.

        Used to linearly under-estimate completion costs in the admissible
        balance bound: ``φ(x) >= slope * x`` for all x in [0, x_max].
        """
        if self.saturation is None:
            return 1.0
        if x_max <= 0:
            return 1.0
        return self.phi(x_max) / x_max

    def cache_degradation(self, pid: int, coset: FrozenSet[int]) -> float:
        m = self.miss_rates
        total = sum(m[j] for j in coset if j != pid)
        return float(m[pid] * self.kappa * self.phi(total))

    def min_degradation(self, pid: int, universe: Sequence[int], k: int) -> float:
        """Exact: co-run with the k lowest-pressure processes available."""
        if k == 0:
            return 0.0
        import heapq as _hq

        rates = [self.miss_rates[q] for q in universe if q != pid]
        if len(rates) < k:
            return 0.0
        smallest = _hq.nsmallest(k, rates)
        return float(self.miss_rates[pid] * self.kappa * self.phi(sum(smallest)))

    def single_time(self, pid: int) -> float:
        if self._single is None:
            return 1.0
        return float(self._single[pid])

    def is_member_monotone(self) -> bool:
        return True

    def pressure(self, pid: int) -> float:
        return float(self.miss_rates[pid])

    def interchangeable_key(self, pid: int):
        return ("miss-rate", float(self.miss_rates[pid]))

    def node_weight_fast(self, members: Sequence[int]) -> float:
        """Σ_i d_{i, T∖i} for node ``T`` — O(|T|), no set machinery.

        Linear φ collapses to ``κ (σ² − Σ m_i²)``; the saturating form
        evaluates φ per member.
        """
        m = self.miss_rates
        vals = [m[i] for i in members]
        s = sum(vals)
        if self.saturation is None:
            return float(self.kappa * (s * s - sum(v * v for v in vals)))
        return float(self.kappa * sum(v * self.phi(s - v) for v in vals))

    def pressure_terms(self):
        return (self.miss_rates, self.miss_rates, self.kappa,
                self.saturation)


class AsymmetricContentionModel(CacheDegradationModel):
    """Synthetic model with decoupled sensitivity and aggressiveness.

    ``d_{i,S} = s_i * κ * Σ_{j∈S} a_j`` — process ``i`` *suffers* in
    proportion to its sensitivity ``s_i`` and *inflicts* in proportion to its
    aggressiveness ``a_j``.  Real programs decouple these (a streaming code
    like RandomAccess thrashes the cache for everyone but barely slows down
    itself), and it is exactly this decoupling that defeats single-score
    greedy heuristics like PG (which ranks by inflicted damage only) while
    search-based HA* still finds good pairings — the regime of the paper's
    Fig. 12.

    Not member-wise monotone in general (no total order exists over
    ``(s, a)`` pairs), so exact searches fall back to full enumeration;
    ``pressure`` exposes ``a`` as a *proxy* rank key that HA*'s trimmed
    enumeration may use approximately (see
    :class:`~repro.graph.levels.SuccessorGenerator`).
    """

    def __init__(
        self,
        sensitivities: Sequence[float],
        aggressiveness: Sequence[float],
        kappa: Optional[float] = None,
        cores: int = 4,
        saturation: Optional[float] = None,
        single_times: Optional[Sequence[float]] = None,
    ):
        s = np.asarray(sensitivities, dtype=float)
        a = np.asarray(aggressiveness, dtype=float)
        if s.shape != a.shape or s.ndim != 1 or s.size == 0:
            raise ValueError("sensitivities/aggressiveness must match, 1-D")
        if (s < 0).any() or (a < 0).any():
            raise ValueError("sensitivities and aggressiveness must be >= 0")
        self.s = s
        self.a = a
        self.kappa = float(kappa) if kappa is not None else 1.0 / max(1, cores - 1)
        if saturation is not None and saturation <= 0:
            raise ValueError("saturation must be positive (or None for linear)")
        self.saturation = float(saturation) if saturation is not None else None
        self._single = (
            np.asarray(single_times, dtype=float) if single_times is not None else None
        )
        if self._single is not None and (self._single <= 0).any():
            raise ValueError("single times must be positive")

    @classmethod
    def random(
        cls,
        n: int,
        cores: int,
        seed: int = 0,
        low: float = 0.15,
        high: float = 0.75,
        saturation: Optional[float] = None,
    ) -> "AsymmetricContentionModel":
        """Independent U[low, high] sensitivity and aggressiveness draws
        (same range as the paper's synthetic miss rates)."""
        rng = np.random.default_rng(seed)
        return cls(
            sensitivities=rng.uniform(low, high, size=n),
            aggressiveness=rng.uniform(low, high, size=n),
            cores=cores,
            saturation=saturation,
        )

    def phi(self, x: float) -> float:
        """The (possibly saturating) pressure response, as in
        :class:`MissRatePressureModel`."""
        if self.saturation is None:
            return x
        import math as _math

        return self.saturation * (1.0 - _math.exp(-x / self.saturation))

    def cache_degradation(self, pid: int, coset: FrozenSet[int]) -> float:
        total = sum(self.a[j] for j in coset if j != pid)
        return float(self.s[pid] * self.kappa * self.phi(total))

    def single_time(self, pid: int) -> float:
        if self._single is None:
            return 1.0
        return float(self._single[pid])

    def pressure(self, pid: int) -> float:
        """Proxy rank key for approximate trimmed ordering.

        Both how much a process inflicts (a) and how much it suffers (s)
        raise the weight of nodes containing it, so the sum is the natural
        single-key proxy for the bilinear weight ``S_T · A_T``.
        """
        return float(self.a[pid] + self.s[pid])

    def min_degradation(self, pid: int, universe: Sequence[int], k: int) -> float:
        """Exact: co-run with the k least aggressive processes available."""
        if k == 0:
            return 0.0
        import heapq as _hq

        vals = [float(self.a[q]) for q in universe if q != pid]
        if len(vals) < k:
            return 0.0
        return float(
            self.s[pid] * self.kappa * self.phi(sum(_hq.nsmallest(k, vals)))
        )

    def node_weight_fast(self, members: Sequence[int]) -> float:
        """Σ_i s_i κ φ(A_T − a_i) — O(|T|); the linear case collapses to
        κ (S_T · A_T − Σ s_i a_i)."""
        if self.saturation is None:
            S = sum(self.s[i] for i in members)
            A = sum(self.a[i] for i in members)
            cross = sum(self.s[i] * self.a[i] for i in members)
            return float(self.kappa * (S * A - cross))
        A = sum(self.a[i] for i in members)
        return float(
            self.kappa * sum(self.s[i] * self.phi(A - self.a[i]) for i in members)
        )

    def pressure_terms(self):
        return (self.s, self.a, self.kappa, self.saturation)
