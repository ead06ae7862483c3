"""The growing partition of one local-partitioning round.

:class:`CSRPartitionState` owns all invariants of Algorithm 1's inner loop
over a :class:`~repro.graph.residual_csr.CSRResidual`:

* ``members`` = ``V(P_k)`` so far; ``edge_array()`` = ``E(P_k)`` so far;
* ``internal`` = ``|E(P_k)|``; ``external`` = ``|E_out(P_k)|`` — residual
  edges with exactly one endpoint in ``members``;
* the :class:`~repro.core.frontier.DenseFrontier` is exactly the set of
  external endpoints, with ``sum(c) == external``;
* no residual edge ever has both endpoints in ``members`` (allocation is
  exhaustive), except immediately after a capacity-truncated add, which ends
  the round.

Neighbourhood snapshots: within a round, a frontier vertex keeps its
residual adjacency untouched (only member-member edges are allocated), so
its live CSR row *is* the round-start neighbourhood of any non-member.  A
member's round-start neighbourhood is snapshotted at join time, which is
all the Stage-I similarity (Eq. 7) needs; snapshots are processed lazily
(only when Stage I actually selects) and then discarded, keeping space at
O(L d) as claimed in §III-E.

The compiled kernel (:mod:`repro.core.native_grow`) runs the same loop in
C; this class is the numpy path used when no kernel is available and for
stage policies the kernel does not encode.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import numpy as np

from repro.core.frontier import DenseFrontier
from repro.graph.graph import Edge
from repro.graph.residual_csr import CSRResidual

SIMILARITY_SCOPES = ("residual", "original")


class CSRPartitionState:
    """State of one partition while it grows, as flat CSR arrays.

    Every inner-loop operation is a vectorised slice:

    * membership is a dense boolean mask indexed by vertex index;
    * ``add_vertex`` classifies a whole adjacency row (live / member /
      outside) with three boolean kernels and kills the allocated edges
      through the slot-parallel ``alive`` mask;
    * Stage-I similarity (Eq. 7) counts sorted-row intersections with one
      ``searchsorted`` over the concatenated two-hop neighbourhood
      instead of per-pair Python set intersections.

    ``similarity_scope="original"`` uses the static (round-zero) CSR rows,
    which are exactly the full input graph's adjacency.
    """

    def __init__(
        self, residual: CSRResidual, similarity_scope: str = "residual"
    ) -> None:
        if similarity_scope not in SIMILARITY_SCOPES:
            raise ValueError(
                f"similarity_scope must be one of {SIMILARITY_SCOPES}, "
                f"got {similarity_scope!r}"
            )
        self._residual = residual
        self._similarity_scope = similarity_scope
        n = residual.num_vertices
        self._member_mask = np.zeros(n, dtype=bool)
        #: ``E(P_k)`` so far: one ``(k, 2)`` array of canonical id rows
        #: per allocating :meth:`add_vertex`, in allocation order.
        self.edge_blocks: List[np.ndarray] = []
        self.internal = 0
        self.external = 0
        self.frontier = DenseFrontier(n)
        # Members whose Stage-I similarity contributions are not yet
        # applied: (member index, round-start live-neighbour row).
        self._pending_mu1: List[Tuple[int, np.ndarray]] = []

    # -- derived quantities --------------------------------------------------

    @property
    def members(self) -> Set[int]:
        """Current member *ids* (materialised on demand; not a hot path)."""
        idx = np.flatnonzero(self._member_mask)
        return set(self._residual.ids[idx].tolist())

    def edge_array(self) -> np.ndarray:
        """``E(P_k)`` so far as one ``(m_k, 2)`` int64 array."""
        if not self.edge_blocks:
            return np.empty((0, 2), dtype=np.int64)
        return np.concatenate(self.edge_blocks)

    @property
    def edges(self) -> List[Edge]:
        """``E(P_k)`` so far as ``(u, v)`` tuples (not a hot path)."""
        rows = self.edge_array()
        return list(zip(rows[:, 0].tolist(), rows[:, 1].tolist()))

    @property
    def modularity(self) -> float:
        """``M(P_k) = |E(P_k)| / |E_out(P_k)|`` (Definition 8); inf if closed."""
        if self.external == 0:
            return float("inf")
        return self.internal / self.external

    def frontier_empty(self) -> bool:
        """True when ``N(P_k)`` is empty (equivalently ``E_out = 0``)."""
        return len(self.frontier) == 0

    # -- growth --------------------------------------------------------------

    def seed(self, x: int) -> None:
        """Start (or restart) growth from the vertex with original id ``x``."""
        res = self._residual
        i = res.index_of[x]
        if self._member_mask[i]:
            raise ValueError(f"seed {x} is already a member")
        snapshot = res.live_row(i)
        self._member_mask[i] = True
        self.frontier.touch_and_increment_many(snapshot, res.live_deg)
        self.external += len(snapshot)
        self._pending_mu1.append((i, snapshot))

    def add_vertex(self, v: int, max_edges: Optional[int] = None) -> Tuple[int, bool]:
        """Move frontier vertex ``v`` (original id) into the partition.

        Allocates every residual edge between ``v`` and the members; if
        ``max_edges`` is smaller than that batch, only the first
        ``max_edges`` member neighbours in ascending id order are allocated
        (strict-capacity truncation) and the round must end.

        Returns ``(allocated, truncated)``.
        """
        res = self._residual
        i = res.index_of[v]
        s, e = res.indptr[i], res.indptr[i + 1]
        row = res.indices[s:e]
        live = res.alive[s:e].view(bool)
        snapshot = row[live]  # sorted: row is sorted, mask keeps order
        mem = self._member_mask[snapshot]
        member_nbrs = snapshot[mem]
        slots = s + np.flatnonzero(live)[mem]
        truncated = max_edges is not None and len(member_nbrs) > max_edges
        if truncated:
            member_nbrs = member_nbrs[:max_edges]
            slots = slots[:max_edges]
        res.kill_slots(i, slots, member_nbrs)
        k = len(member_nbrs)
        if k:
            uids = res.ids[member_nbrs]
            vid = int(res.ids[i])
            self.edge_blocks.append(
                np.column_stack((np.minimum(uids, vid), np.maximum(uids, vid)))
            )
        self.internal += k
        self.external -= k
        if truncated:
            # Round over: bookkeeping beyond the edge list no longer matters.
            return k, True
        self._member_mask[i] = True
        if i in self.frontier:
            self.frontier.remove(i)
        outside = snapshot[~mem]
        self.frontier.touch_and_increment_many(outside, res.live_deg)
        self.external += len(outside)
        self._pending_mu1.append((i, snapshot))
        return k, False

    # -- Stage-I score maintenance -------------------------------------------

    def flush_stage1_scores(self) -> None:
        """Apply pending Stage-I similarity updates (Eq. 7), vectorised.

        For each unprocessed member ``v_j``, the live rows of all its
        non-member snapshot neighbours are concatenated into one ragged
        batch; a single ``searchsorted`` against the sorted ``N(v_j)`` row
        counts every intersection at C speed.
        """
        if not self._pending_mu1:
            return
        res = self._residual
        use_original = self._similarity_scope == "original"
        member_mask = self._member_mask
        indptr, indices, alive = res.indptr, res.indices, res.alive
        for j, snapshot in self._pending_mu1:
            nbrs_j = res.static_row(j) if use_original else snapshot
            deg_j = len(nbrs_j)
            if deg_j == 0:
                continue
            outside = snapshot[~member_mask[snapshot]]
            if len(outside) == 0:
                continue
            starts = indptr[outside]
            lens = indptr[outside + 1] - starts
            total = int(lens.sum())
            if total == 0:
                continue
            # Ragged gather: positions of every adjacency slot of every
            # outside vertex, in one flat array.
            prefix = np.zeros(len(outside), dtype=np.int64)
            np.cumsum(lens[:-1], out=prefix[1:])
            positions = np.arange(total, dtype=np.int64) + np.repeat(
                starts - prefix, lens
            )
            cat = indices[positions]
            loc = np.searchsorted(nbrs_j, cat)
            hit = nbrs_j[np.minimum(loc, deg_j - 1)] == cat
            if not use_original:
                hit &= alive[positions].view(bool)
            labels = np.repeat(np.arange(len(outside), dtype=np.int64), lens)
            counts = np.bincount(labels[hit], minlength=len(outside))
            self.frontier.raise_mu1_many(outside, counts / deg_j)
        self._pending_mu1.clear()

    # -- selection -----------------------------------------------------------

    def select_stage1(self) -> Optional[int]:
        """Best Stage-I vertex id (Eq. 8), refreshing scores first."""
        self.flush_stage1_scores()
        i = self.frontier.select_stage1()
        return None if i is None else int(self._residual.ids[i])

    def select_stage2(self) -> Optional[int]:
        """Best Stage-II vertex id (Eq. 11)."""
        i = self.frontier.select_stage2(self.internal, self.external)
        return None if i is None else int(self._residual.ids[i])
