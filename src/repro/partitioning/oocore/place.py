"""Pass 2: cluster-aware streaming HDRF/greedy placement.

Re-streams the edge file and places every edge with the shared scoring
core (:mod:`repro.partitioning.scoring`) — the same arithmetic as the
in-memory :class:`~repro.partitioning.hdrf.HDRFPartitioner` and the
online ingest scorer, which is what makes streamed placements provably
comparable (bit-identical under the parity suite's conditions: exact
degrees, no clustering bonus, deterministic ties).

Extra signals on top of plain HDRF, both optional:

* cluster affinity — partitions owning the endpoints' pass-1 clusters
  score ``gamma`` higher, concentrating intra-cluster edges (2PS §4);
* refined-profile priors — ``offsets`` from
  :func:`repro.partitioning.scoring.balance_offsets` steer the balance
  term toward a previous refinement's partition-size shape.

Per-vertex replica sets are packed into integer bitmasks (one ``int``
per covered vertex, bit ``k`` = replica on partition ``k``) so the
placement state stays a few dozen bytes per *vertex* — never per edge —
and the exact replication-factor numerator is a popcount away.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.partitioning.oocore.sketch import DegreeSketch
from repro.partitioning.scoring import greedy_choice, hdrf_ties

#: Default cluster-affinity weight.  Half a replica-hit: strong enough to
#: herd a cluster's edges together, too weak to override a real replica
#: match (worth >= 1.0) or a large balance gap.
DEFAULT_GAMMA = 0.5

#: Accepted ``policy=`` values.
POLICIES = ("hdrf", "greedy")


class _Mask:
    """``in`` view over a replica bitmask, for the scoring core."""

    __slots__ = ("mask",)

    def __init__(self, mask: int) -> None:
        self.mask = mask

    def __contains__(self, k: int) -> bool:
        return bool(self.mask >> k & 1)


class StreamingPlacer:
    """One irrevocable partition decision per arriving edge.

    ``degrees`` is the pass-1 sketch (final full-stream degrees, exact
    or count-min); ``cluster_of``/``cluster_partition`` carry the pass-1
    clustering (both may be empty to disable affinity).
    """

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
        if num_partitions < 1:
            raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        if offsets is not None and len(offsets) != num_partitions:
            raise ValueError(
                f"offsets has {len(offsets)} entries for {num_partitions} partitions"
            )
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
        self._masks: Dict[int, int] = {}
        self._replica_total = 0
        self._candidates = list(range(num_partitions))

    # -- placement ---------------------------------------------------------

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
        """Choose (and commit) the partition for edge ``(u, v)``.

        ``degree_u``/``degree_v`` are the endpoints' sketch degrees when
        the caller already looked them up for a whole batch; by default
        they are read from ``degrees``.
        """
        mask_u = self._masks.get(u, 0)
        mask_v = self._masks.get(v, 0)
        if self.policy == "greedy":
            k = greedy_choice(
                _mask_set(mask_u), _mask_set(mask_v), self.sizes, self._candidates
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
        if not mask_u & bit:
            self._masks[u] = mask_u | bit
            self._replica_total += 1
        if not mask_v & bit:
            self._masks[v] = mask_v | bit
            self._replica_total += 1
        return k

    # -- exact summary stats ----------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Covered vertices (endpoints of at least one placed edge)."""
        return len(self._masks)

    @property
    def total_replicas(self) -> int:
        return self._replica_total

    def replication_factor(self) -> float:
        """Exact RF of the placements so far (1.0 for an empty stream)."""
        if not self._masks:
            return 1.0
        return self._replica_total / len(self._masks)


def _mask_set(mask: int) -> Set[int]:
    out = set()
    k = 0
    while mask:
        if mask & 1:
            out.add(k)
        mask >>= 1
        k += 1
    return out
