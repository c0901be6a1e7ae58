"""Pluggable scenario constraints for heterogeneous deployments.

The paper's model is unconstrained beyond the fixed group size ``u``.  Real
deployments add per-machine resource limits the objective should feel:

* a shared memory-bus **bandwidth cap** per machine (Eremeev et al. study
  makespan scheduling under a total bandwidth constraint);
* a **cache partition** budget — co-runners whose combined footprint
  overcommits the machine's shared cache degrade super-linearly
  (Hassidim, Kaplan & Tuval study cache-aware co-scheduling as a
  partition game).

A constraint sees a candidate co-run group (``node`` — a tuple of pids)
together with the index of the machine it would be placed on, and answers
two questions:

* ``feasible(machine_idx, node)`` — hard yes/no (derived from the penalty
  by default: feasible iff the penalty is zero);
* ``penalty(machine_idx, node)`` — a *soft*, non-negative cost added to
  the objective for that placement;
* ``penalties(machine_idx, nodes)`` — the same cost for many groups on one
  machine at once (a loop over ``penalty`` by default; the shipped
  constraints vectorize it).

Penalties are finite, so every placement stays evaluable — "never a wrong
schedule" is enforced by solver capability gating (see
``docs/SCENARIOS.md``), not by un-evaluable states.  ``machine_key(k)``
exposes a hashable per-machine identity so solvers can recognise machines
that are symmetric *under the constraint* and dedupe permutations of them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

__all__ = [
    "ScenarioConstraint",
    "BandwidthCapConstraint",
    "CachePartitionModel",
    "constraint_to_dict",
    "constraint_from_dict",
]


class ScenarioConstraint:
    """Protocol + shared machinery for scenario constraints.

    Subclasses set ``kind`` (stable codec identifier), implement
    ``penalty`` and the dict codec, and declare which attributes hold
    per-pid / per-machine data so relabeling and machine reordering can
    be applied generically.
    """

    #: stable identifier used by the codec.
    kind: str = "abstract"
    #: attribute names holding one value per process id.
    per_pid_fields: Tuple[str, ...] = ()
    #: attribute names holding one value per machine index.
    per_machine_fields: Tuple[str, ...] = ()

    # -- the scenario protocol ------------------------------------------ #

    def penalty(self, machine_idx: int, node: Sequence[int]) -> float:
        """Non-negative soft cost of placing co-run group ``node`` on
        machine ``machine_idx``."""
        raise NotImplementedError

    def penalties(self, machine_idx: int, nodes: np.ndarray) -> np.ndarray:
        """:meth:`penalty` for every row of ``nodes`` (an ``(N, u)`` pid
        array) on machine ``machine_idx``, as a length-N float array.

        This default calls :meth:`penalty` once per row, so a constraint
        that only defines ``penalty`` still works in batched scoring;
        override it with a vectorized form that returns the same values.
        """
        return np.array(
            [self.penalty(machine_idx, tuple(row)) for row in nodes.tolist()],
            dtype=float,
        )

    def feasible(self, machine_idx: int, node: Sequence[int]) -> bool:
        """True when the placement incurs no penalty."""
        return self.penalty(machine_idx, node) <= 0.0

    def machine_key(self, machine_idx: int) -> Tuple:
        """Hashable identity of ``machine_idx`` under this constraint —
        machines with equal keys (and equal specs) are interchangeable."""
        return (self.kind,) + tuple(
            getattr(self, f)[machine_idx] for f in self.per_machine_fields
        )

    # -- codec ----------------------------------------------------------- #

    def to_dict(self) -> Dict:
        raise NotImplementedError

    @classmethod
    def from_dict(cls, data: Dict) -> "ScenarioConstraint":
        raise NotImplementedError

    # -- generic relabeling / reordering --------------------------------- #

    def relabeled(self, new_pid_of: Sequence[int]) -> "ScenarioConstraint":
        """A copy whose per-pid data follows ``new_pid_of[old] = new``."""
        data = self.to_dict()
        for field in self.per_pid_fields:
            old = data[field]
            moved = [None] * len(old)
            for old_pid, value in enumerate(old):
                moved[new_pid_of[old_pid]] = value
            data[field] = moved
        return type(self).from_dict(data)

    def machines_reordered(self, order: Sequence[int]) -> "ScenarioConstraint":
        """A copy whose per-machine data is permuted so slot ``i`` holds
        the data of old machine ``order[i]``."""
        data = self.to_dict()
        for field in self.per_machine_fields:
            old = data[field]
            data[field] = [old[k] for k in order]
        return type(self).from_dict(data)

    def validate_for(self, n: int, n_machines: int) -> None:
        """Raise ValueError unless array lengths match the problem shape."""
        for field in self.per_pid_fields:
            values = getattr(self, field)
            if len(values) != n:
                raise ValueError(
                    f"{type(self).__name__}.{field} has {len(values)} entries "
                    f"but the workload has {n} processes"
                )
        for field in self.per_machine_fields:
            values = getattr(self, field)
            if len(values) != n_machines:
                raise ValueError(
                    f"{type(self).__name__}.{field} has {len(values)} entries "
                    f"but the cluster has {n_machines} machines"
                )


def _overage_penalties(
    per_pid: np.ndarray, nodes: np.ndarray, cap: float, weight: float
) -> np.ndarray:
    """``weight * max(0, Σ_{p∈node} per_pid[p] − cap) / cap`` per row of
    ``nodes``.  Columns are added one at a time, left to right, so each
    row's total is rounded exactly like the scalar ``sum`` over the node."""
    total = np.zeros(len(nodes))
    for col in nodes.T:
        total += per_pid[col]
    return np.where(total > cap, weight * (total - cap) / cap, 0.0)


class BandwidthCapConstraint(ScenarioConstraint):
    """Per-machine memory-bus bandwidth cap (Eremeev et al. scenario).

    Each process ``p`` demands ``demands[p]`` bytes/s of memory bandwidth;
    machine ``k`` sustains at most ``caps[k]`` (``None`` = uncapped).
    Overcommitting a machine costs ``weight * overage / cap`` — the
    relative oversubscription, so the penalty is scale-free and additive
    with the degradation objective.
    """

    kind = "bandwidth_cap"
    per_pid_fields = ("demands",)
    per_machine_fields = ("caps",)

    def __init__(
        self,
        demands: Sequence[float],
        caps: Sequence[Optional[float]],
        weight: float = 1.0,
    ) -> None:
        self.demands: Tuple[float, ...] = tuple(float(d) for d in demands)
        self.caps: Tuple[Optional[float], ...] = tuple(
            None if c is None else float(c) for c in caps
        )
        self.weight = float(weight)
        if any(d < 0 for d in self.demands):
            raise ValueError("bandwidth demands must be non-negative")
        self._demand_arr = np.asarray(self.demands, dtype=float)
        if any(c is not None and c <= 0 for c in self.caps):
            raise ValueError("bandwidth caps must be positive (or None)")
        if self.weight < 0:
            raise ValueError("constraint weight must be non-negative")

    def penalty(self, machine_idx: int, node: Sequence[int]) -> float:
        cap = self.caps[machine_idx]
        if cap is None:
            return 0.0
        usage = sum(self.demands[p] for p in node)
        if usage <= cap:
            return 0.0
        return self.weight * (usage - cap) / cap

    def penalties(self, machine_idx: int, nodes: np.ndarray) -> np.ndarray:
        cap = self.caps[machine_idx]
        if cap is None:
            return np.zeros(len(nodes))
        return _overage_penalties(self._demand_arr, nodes, cap, self.weight)

    def to_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "demands": list(self.demands),
            "caps": list(self.caps),
            "weight": self.weight,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "BandwidthCapConstraint":
        return cls(
            demands=data["demands"],
            caps=data["caps"],
            weight=data.get("weight", 1.0),
        )


class CachePartitionModel(ScenarioConstraint):
    """Cache-partition-aware degradation family (Hassidim/Kaplan/Tuval).

    Each process ``p`` claims a partition of ``footprints[p]`` bytes of the
    shared cache; machine ``k`` offers ``cache_bytes[k]``.  A co-run group
    whose combined footprint fits is free; an overcommitted group pays
    ``weight * overage / cache`` — the fraction of the working set spilled
    past the partition budget.
    """

    kind = "cache_partition"
    per_pid_fields = ("footprints",)
    per_machine_fields = ("cache_bytes",)

    def __init__(
        self,
        footprints: Sequence[float],
        cache_bytes: Sequence[float],
        weight: float = 1.0,
    ) -> None:
        self.footprints: Tuple[float, ...] = tuple(float(f) for f in footprints)
        self.cache_bytes: Tuple[float, ...] = tuple(float(c) for c in cache_bytes)
        self.weight = float(weight)
        if any(f < 0 for f in self.footprints):
            raise ValueError("cache footprints must be non-negative")
        self._footprint_arr = np.asarray(self.footprints, dtype=float)
        if any(c <= 0 for c in self.cache_bytes):
            raise ValueError("cache sizes must be positive")
        if self.weight < 0:
            raise ValueError("constraint weight must be non-negative")

    @classmethod
    def for_cluster(
        cls,
        footprints: Sequence[float],
        machines: Sequence,
        weight: float = 1.0,
    ) -> "CachePartitionModel":
        """Build from a MachineSpec roster, reading each machine's shared
        cache size."""
        return cls(
            footprints=footprints,
            cache_bytes=[m.shared_cache.size_bytes for m in machines],
            weight=weight,
        )

    def penalty(self, machine_idx: int, node: Sequence[int]) -> float:
        cache = self.cache_bytes[machine_idx]
        total = sum(self.footprints[p] for p in node)
        if total <= cache:
            return 0.0
        return self.weight * (total - cache) / cache

    def penalties(self, machine_idx: int, nodes: np.ndarray) -> np.ndarray:
        return _overage_penalties(
            self._footprint_arr, nodes, self.cache_bytes[machine_idx],
            self.weight,
        )

    def to_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "footprints": list(self.footprints),
            "cache_bytes": list(self.cache_bytes),
            "weight": self.weight,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CachePartitionModel":
        return cls(
            footprints=data["footprints"],
            cache_bytes=data["cache_bytes"],
            weight=data.get("weight", 1.0),
        )


_KINDS: Dict[str, Type[ScenarioConstraint]] = {
    BandwidthCapConstraint.kind: BandwidthCapConstraint,
    CachePartitionModel.kind: CachePartitionModel,
}


def constraint_to_dict(constraint: ScenarioConstraint) -> Dict:
    """Codec entry point — delegates to the constraint's own ``to_dict``."""
    if constraint.kind not in _KINDS:
        raise ValueError(f"unregistered constraint kind {constraint.kind!r}")
    return constraint.to_dict()


def constraint_from_dict(data: Dict) -> ScenarioConstraint:
    """Codec entry point — dispatches on the ``kind`` discriminator."""
    kind = data.get("kind")
    klass = _KINDS.get(kind)
    if klass is None:
        raise ValueError(
            f"unknown constraint kind {kind!r}; known: {sorted(_KINDS)}"
        )
    return klass.from_dict(data)
