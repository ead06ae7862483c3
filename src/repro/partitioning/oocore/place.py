"""Pass 2: cluster-aware streaming HDRF/greedy placement.

Re-streams the edge file and places every edge with the scoring rule of
:mod:`repro.partitioning.scoring` — the same arithmetic as the in-memory
:class:`~repro.partitioning.hdrf.HDRFPartitioner` and the online ingest
scorer, which is what makes streamed placements provably comparable
(bit-identical under the parity suite's conditions: exact degrees, no
clustering bonus, deterministic ties).

Extra signals on top of plain HDRF, both optional:

* cluster affinity — the partitions owning the endpoints' pass-1
  clusters score ``gamma`` higher, concentrating intra-cluster edges
  (2PS §4);
* refined-profile priors — ``offsets`` from
  :func:`repro.partitioning.scoring.balance_offsets` steer the balance
  term toward a previous refinement's partition-size shape.

Per-vertex replica sets are packed into integer bitmasks (one ``int``
per covered vertex, bit ``k`` = replica on partition ``k``) so the
placement state stays a few dozen bytes per *vertex* — never per edge —
and the exact replication-factor numerator is a popcount away.

**Only the partitions that can win are scored.**  A partition that hosts
neither endpoint and is no affinity target scores ``lam * c_bal`` alone,
and with ``lam > 0`` the partition of lowest effective size (size plus
offset; lowest id on ties) maximises that term.  So the all-``p`` argmax
of :func:`~repro.partitioning.scoring.hdrf_ties` always lies among the
set bits of ``mask_u | mask_v``, the 0–2 affinity targets and that
least-loaded partition, which a running maximum and a lazy ``(eff, k)``
heap track incrementally.  The candidates are scored in ascending id
with the same expression in the same float order, so the winner is
bit-identical while a placement costs O(candidates + log p) instead of
O(p).  (With ``lam == 0`` every such partition scores 0 and the lowest
id among them stands in.)  The greedy policy prunes the same way: only
its "no endpoint placed yet" rule looks past the replica sets, and it
wants the least-loaded partition.  The all-``p`` per-edge placer lives
on in ``tests/partitioning/placer_oracle.py`` as the reference.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence

from repro.partitioning.oocore.sketch import DegreeSketch

#: Default cluster-affinity weight.  Half a replica-hit: strong enough to
#: herd a cluster's edges together, too weak to override a real replica
#: match (worth >= 1.0) or a large balance gap.
DEFAULT_GAMMA = 0.5

#: Accepted ``policy=`` values.
POLICIES = ("hdrf", "greedy")


def affinity_targets(
    cluster_of: Dict[int, int], cluster_partition: Dict[int, int]
) -> Dict[int, int]:
    """Vertex -> partition of its pass-1 cluster, for the clusters mapped."""
    return {
        vertex: cluster_partition[cluster]
        for vertex, cluster in cluster_of.items()
        if cluster in cluster_partition
    }


def check_placer_options(
    num_partitions: int,
    policy: str,
    lam: float,
    epsilon: float,
    gamma: float,
    offsets: Optional[Sequence[int]],
) -> None:
    """Reject options the pruned placement cannot honour (both placers)."""
    if num_partitions < 1:
        raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
    if offsets is not None and len(offsets) != num_partitions:
        raise ValueError(
            f"offsets has {len(offsets)} entries for {num_partitions} partitions"
        )
    if not (lam >= 0 and epsilon > 0 and gamma >= 0):
        raise ValueError(
            f"need lam >= 0, epsilon > 0 and gamma >= 0, got "
            f"lam={lam}, epsilon={epsilon}, gamma={gamma}"
        )


class StreamingPlacer:
    """One irrevocable partition decision per arriving edge.

    ``degrees`` is the pass-1 sketch (final full-stream degrees, exact
    or count-min); ``affinity`` maps a vertex to the partition of its
    pass-1 cluster (see :func:`affinity_targets`; empty or ``None``
    disables the bonus).  ``lam`` must be ``>= 0``, ``epsilon > 0`` and
    ``gamma >= 0``: the pruning argument above needs all three.
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
        affinity: Optional[Dict[int, int]] = None,
        offsets: Optional[Sequence[int]] = None,
    ) -> None:
        check_placer_options(num_partitions, policy, lam, epsilon, gamma, offsets)
        self.num_partitions = num_partitions
        self.degrees = degrees
        self.policy = policy
        self.lam = lam
        self.epsilon = epsilon
        self.gamma = gamma
        self.affinity = affinity or {}
        self.offsets = list(offsets) if offsets is not None else None
        self.sizes: List[int] = [0] * num_partitions
        self._masks: Dict[int, int] = {}
        self._replica_total = 0
        self._track_balance()

    def _track_balance(self) -> None:
        """(Re)build the effective sizes, their maximum and the min-heap.

        Greedy balances raw sizes; HDRF balances ``sizes + offsets``.
        Without offsets the effective sizes *are* ``sizes``.
        """
        if self.offsets is None or self.policy == "greedy":
            self._eff = self.sizes
        else:
            self._eff = [s + o for s, o in zip(self.sizes, self.offsets)]
        self._max_eff = max(self._eff)
        self._heap = [(e, k) for k, e in enumerate(self._eff)]
        heapq.heapify(self._heap)

    # -- placement ---------------------------------------------------------

    def place_batch(
        self,
        us: Sequence[int],
        vs: Sequence[int],
        degrees_u: Optional[Sequence[int]] = None,
        degrees_v: Optional[Sequence[int]] = None,
    ) -> List[int]:
        """Choose (and commit) the partition of each edge ``(us[i], vs[i])``.

        Edges are placed in order, each seeing the state its
        predecessors left.  ``degrees_u``/``degrees_v`` are the
        endpoints' sketch degrees when the caller already looked them up
        for the batch; by default they are read from ``degrees``.
        """
        if self.policy == "greedy":
            return self._greedy_batch(us, vs)
        if degrees_u is None or degrees_v is None:
            get = self.degrees.get
            degrees_u = [get(u) for u in us]
            degrees_v = [get(v) for v in vs]
        masks = self._masks
        mask_of = masks.get
        target_of = self.affinity.get if self.affinity else None
        sizes, eff, heap = self.sizes, self._eff, self._heap
        shared = eff is sizes
        hi = self._max_eff
        lam, epsilon, gamma = self.lam, self.epsilon, self.gamma
        full = (1 << self.num_partitions) - 1
        heapreplace = heapq.heapreplace
        neg_inf = float("-inf")
        replicas = 0
        out: List[int] = []
        for u, v, du, dv in zip(us, vs, degrees_u, degrees_v):
            mask_u = mask_of(u, 0)
            mask_v = mask_of(v, 0)
            targets = 0
            if target_of is not None:
                k = target_of(u)
                if k is not None:
                    targets = 1 << k
                k = target_of(v)
                if k is not None:
                    targets |= 1 << k
            # Least-loaded partition: refresh stale heap tops (sizes only
            # grow, so every entry is a lower bound of its partition).
            lo, least = heap[0]
            while eff[least] != lo:
                heapreplace(heap, (eff[least], least))
                lo, least = heap[0]
            hosts = mask_u | mask_v | targets
            if lam:
                cands = hosts | 1 << least
            else:
                cands = hosts | (~hosts & (hosts + 1) & full)
            # hdrf_ties' arithmetic, term for term.
            du = du if du > 1 else 1
            dv = dv if dv > 1 else 1
            theta_u = du / (du + dv)
            theta_v = 1.0 - theta_u
            hit_u = 1.0 + (1.0 - theta_u)
            hit_v = 1.0 + (1.0 - theta_v)
            spread = epsilon + hi - lo
            best = neg_inf
            chosen = 0
            while cands:
                bit = cands & -cands
                cands ^= bit
                k = bit.bit_length() - 1
                score = (
                    (hit_u if mask_u & bit else 0.0)
                    + (hit_v if mask_v & bit else 0.0)
                    + lam * ((hi - eff[k]) / spread)
                )
                if targets & bit:
                    score += gamma
                if score > best:
                    best = score
                    chosen = k
            sizes[chosen] += 1
            if not shared:
                eff[chosen] += 1
            if eff[chosen] > hi:
                hi = eff[chosen]
            bit = 1 << chosen
            if not mask_u & bit:
                masks[u] = mask_u | bit
                replicas += 1
            if not mask_v & bit:
                masks[v] = mask_v | bit
                replicas += 1
            out.append(chosen)
        self._max_eff = hi
        self._replica_total += replicas
        return out

    def _greedy_batch(self, us: Sequence[int], vs: Sequence[int]) -> List[int]:
        """PowerGraph's greedy rules (:func:`~repro.partitioning.scoring.greedy_choice`).

        Both endpoints' common partitions, else either's, else the
        least-loaded partition; the smallest size wins, lowest id first.
        """
        masks = self._masks
        mask_of = masks.get
        sizes, heap = self.sizes, self._heap
        heapreplace = heapq.heapreplace
        replicas = 0
        out: List[int] = []
        for u, v in zip(us, vs):
            mask_u = mask_of(u, 0)
            mask_v = mask_of(v, 0)
            pool = mask_u & mask_v or mask_u | mask_v
            if pool:
                chosen = -1
                while pool:
                    bit = pool & -pool
                    pool ^= bit
                    k = bit.bit_length() - 1
                    if chosen < 0 or sizes[k] < sizes[chosen]:
                        chosen = k
            else:
                lo, chosen = heap[0]
                while sizes[chosen] != lo:
                    heapreplace(heap, (sizes[chosen], chosen))
                    lo, chosen = heap[0]
            sizes[chosen] += 1
            bit = 1 << chosen
            if not mask_u & bit:
                masks[u] = mask_u | bit
                replicas += 1
            if not mask_v & bit:
                masks[v] = mask_v | bit
                replicas += 1
            out.append(chosen)
        self._replica_total += replicas
        return out

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
