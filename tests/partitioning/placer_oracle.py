"""Reference oracle for pass-2 placement: the per-edge all-``p`` placer.

:class:`OracleStreamingPlacer` is
:class:`~repro.partitioning.oocore.place.StreamingPlacer` as first
written: one :meth:`place` call per edge, scoring every partition through
:func:`~repro.partitioning.scoring.hdrf_ties` (or
:func:`~repro.partitioning.scoring.greedy_choice` over all partitions),
with cluster affinity looked up through ``cluster_of`` and
``cluster_partition``.  It is kept deliberately naive so it can serve as
the executable specification the pruned batch placer is pinned against:
same choices, same sizes, same replica masks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.partitioning.oocore.place import DEFAULT_GAMMA
from repro.partitioning.oocore.sketch import DegreeSketch
from repro.partitioning.scoring import greedy_choice, hdrf_ties


class _Mask:
    """``in`` view over a replica bitmask, for the scoring core."""

    __slots__ = ("mask",)

    def __init__(self, mask: int) -> None:
        self.mask = mask

    def __contains__(self, k: int) -> bool:
        return bool(self.mask >> k & 1)


def mask_set(mask: int) -> Set[int]:
    """The partition ids whose bits are set in ``mask``."""
    out = set()
    k = 0
    while mask:
        if mask & 1:
            out.add(k)
        mask >>= 1
        k += 1
    return out


class OracleStreamingPlacer:
    """One all-``p`` scoring per arriving edge (the reference placer)."""

    def __init__(
        self,
        num_partitions: int,
        degrees: DegreeSketch,
        *,
        policy: str = "hdrf",
        lam: float = 1.1,
        epsilon: float = 1.0,
        gamma: float = DEFAULT_GAMMA,
        cluster_of: Optional[Dict[int, int]] = None,
        cluster_partition: Optional[Dict[int, int]] = None,
        offsets: Optional[Sequence[int]] = None,
    ) -> None:
        self.num_partitions = num_partitions
        self.degrees = degrees
        self.policy = policy
        self.lam = lam
        self.epsilon = epsilon
        self.gamma = gamma
        self.cluster_of = cluster_of or {}
        self.cluster_partition = cluster_partition or {}
        self.offsets = list(offsets) if offsets is not None else None
        self.sizes: List[int] = [0] * num_partitions
        self.masks: Dict[int, int] = {}
        self._candidates = list(range(num_partitions))

    def _affinity(self, u: int, v: int) -> Optional[Set[int]]:
        if not self.cluster_partition:
            return None
        targets = set()
        for vertex in (u, v):
            cluster = self.cluster_of.get(vertex)
            if cluster is not None:
                k = self.cluster_partition.get(cluster)
                if k is not None:
                    targets.add(k)
        return targets or None

    def place(
        self,
        u: int,
        v: int,
        degree_u: Optional[int] = None,
        degree_v: Optional[int] = None,
    ) -> int:
        """Choose (and commit) the partition for edge ``(u, v)``."""
        mask_u = self.masks.get(u, 0)
        mask_v = self.masks.get(v, 0)
        if self.policy == "greedy":
            k = greedy_choice(
                mask_set(mask_u), mask_set(mask_v), self.sizes, self._candidates
            )
        else:
            affinity = self._affinity(u, v)
            if degree_u is None:
                degree_u = self.degrees.get(u)
            if degree_v is None:
                degree_v = self.degrees.get(v)
            ties = hdrf_ties(
                max(1, degree_u),
                max(1, degree_v),
                _Mask(mask_u),
                _Mask(mask_v),
                self.sizes,
                lam=self.lam,
                epsilon=self.epsilon,
                offsets=self.offsets,
                affinity=affinity,
                gamma=self.gamma if affinity is not None else 0.0,
            )
            k = ties[0]  # deterministic: lowest id wins ties
        self.sizes[k] += 1
        bit = 1 << k
        self.masks[u] = mask_u | bit
        self.masks[v] = mask_v | bit
        return k
