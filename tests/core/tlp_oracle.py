"""Reference oracle for TLP growth: the dict-of-sets state and frontier.

:class:`PartitionState` and :class:`Frontier` are the growth state of
Algorithm 1 as first written — a dict-of-sets
:class:`~repro.graph.residual.ResidualGraph`, per-vertex Python set
intersections for Stage I and a dict-addressed frontier — kept verbatim
so they serve as the executable specification the shipped array path
(:class:`~repro.core.state.CSRPartitionState` over a
:class:`~repro.graph.residual_csr.CSRResidual`, or the compiled kernel)
is pinned against.

:class:`OracleLocalPartitioner` runs the round loop of
:class:`~repro.core.local.LocalEdgePartitioner` over that state (same
option validation, seed strategies, capacity rule and telemetry), and
:class:`OracleWindowedPartitioner` grows TLP-W episodes directly inside
the dict buffer instead of an array mirror.  Under a fixed seed both must
reproduce the shipped partitioners bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.frontier import argmax_with_ties
from repro.core.local import LocalEdgePartitioner
from repro.core.stages import STAGE_ONE
from repro.core.state import SIMILARITY_SCOPES
from repro.core.telemetry import StageTelemetry
from repro.core.windowed import WindowedLocalPartitioner
from repro.graph.graph import Edge, Graph
from repro.graph.residual import ResidualGraph
from repro.partitioning.assignment import EdgePartition
from repro.partitioning.base import default_capacity
from repro.utils.rng import make_rng
from repro.utils.validation import check_positive

_INITIAL_CAPACITY = 64


class Frontier:
    """Dynamic arrays over the frontier with swap-and-pop deletion."""

    def __init__(self) -> None:
        self._ids = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._c = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        self._r = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        self._mu1 = np.zeros(_INITIAL_CAPACITY, dtype=np.float64)
        self._pos: Dict[int, int] = {}
        self._size = 0

    # -- structure ----------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, v: int) -> bool:
        return v in self._pos

    def c_of(self, v: int) -> int:
        """Current ``c(v)``; 0 if ``v`` is not in the frontier."""
        i = self._pos.get(v)
        return int(self._c[i]) if i is not None else 0

    def _grow(self) -> None:
        new_cap = 2 * len(self._ids)
        for name in ("_ids", "_c", "_r", "_mu1"):
            old = getattr(self, name)
            fresh = np.zeros(new_cap, dtype=old.dtype)
            fresh[: self._size] = old[: self._size]
            setattr(self, name, fresh)

    def touch(self, v: int, residual_degree: int) -> None:
        """Ensure ``v`` is present (with ``c = 0`` if new)."""
        if v in self._pos:
            return
        if self._size == len(self._ids):
            self._grow()
        i = self._size
        self._ids[i] = v
        self._c[i] = 0
        self._r[i] = residual_degree
        self._mu1[i] = 0.0
        self._pos[v] = i
        self._size += 1

    def increment_c(self, v: int) -> None:
        """One more partition edge now touches ``v``."""
        self._c[self._pos[v]] += 1

    def touch_and_increment(self, v: int, residual_degree_of) -> None:
        """Fused :meth:`touch` + :meth:`increment_c` (the allocation hot path).

        ``residual_degree_of`` is a callable evaluated only when ``v`` is new
        to the frontier, saving a degree lookup per repeat touch.
        """
        i = self._pos.get(v)
        if i is not None:
            self._c[i] += 1
            return
        if self._size == len(self._ids):
            self._grow()
        i = self._size
        self._ids[i] = v
        self._c[i] = 1
        self._r[i] = residual_degree_of(v)
        self._mu1[i] = 0.0
        self._pos[v] = i
        self._size += 1

    def raise_mu1(self, v: int, value: float) -> None:
        """Monotone update of the Stage-I score (scores only ever improve)."""
        i = self._pos[v]
        if value > self._mu1[i]:
            self._mu1[i] = value

    def remove(self, v: int) -> None:
        """Remove ``v`` (it became a member) via swap-and-pop."""
        i = self._pos.pop(v)
        last = self._size - 1
        if i != last:
            for arr in (self._ids, self._c, self._r, self._mu1):
                arr[i] = arr[last]
            self._pos[int(self._ids[i])] = i
        self._size = last

    # -- selection ----------------------------------------------------------

    def _argmax_with_ties(
        self, primary: np.ndarray, secondary: np.ndarray
    ) -> int:
        """Index of the max of ``primary``; ties by max ``secondary``, min id."""
        return argmax_with_ties(primary, secondary, self._ids[: self._size])

    def select_stage1(self) -> Optional[int]:
        """Vertex maximising ``mu_s1`` (Eq. 8); ties to higher residual degree.

        The degree tie-break implements the paper's stated intent that Stage I
        prefers the *high-degree* close vertex (§III-C discussion of Fig. 6).
        """
        n = self._size
        if n == 0:
            return None
        i = self._argmax_with_ties(self._mu1[:n], self._r[:n])
        return int(self._ids[i])

    def select_stage2(self, internal: int, external: int) -> Optional[int]:
        """Vertex maximising the modularity gain ``dM`` (Eq. 9-11).

        Maximising ``mu_s2 = 1 - 1/(1 + dM)`` is equivalent to maximising the
        post-move modularity ``M' = (E_in + c) / (E_out + r - 2c)`` because
        ``M`` is fixed within a step.  A non-positive denominator means the
        partition would swallow its whole remaining component (``M' = inf``),
        the best possible move.  Ties go to larger ``c`` (more edges absorbed),
        then smaller id.
        """
        n = self._size
        if n == 0:
            return None
        c = self._c[:n]
        r = self._r[:n]
        num = (internal + c).astype(np.float64)
        den = (external + r - 2 * c).astype(np.float64)
        score = np.where(den > 0, num / np.where(den > 0, den, 1.0), np.inf)
        i = self._argmax_with_ties(score, c)
        return int(self._ids[i])



class PartitionState:
    """State of one partition while it grows."""

    def __init__(
        self,
        residual: ResidualGraph,
        graph: Graph,
        similarity_scope: str = "residual",
    ) -> None:
        if similarity_scope not in SIMILARITY_SCOPES:
            raise ValueError(
                f"similarity_scope must be one of {SIMILARITY_SCOPES}, "
                f"got {similarity_scope!r}"
            )
        self._residual = residual
        self._graph = graph
        self._similarity_scope = similarity_scope
        self.members: Set[int] = set()
        self.edges: List[Edge] = []
        self.internal = 0
        self.external = 0
        self.frontier = Frontier()
        # Members whose Stage-I similarity contributions are not yet applied:
        # (member, round-start neighbour snapshot).
        self._pending_mu1: List[Tuple[int, Set[int]]] = []

    # -- derived quantities --------------------------------------------------

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
        """Start (or restart, for disconnected residuals) growth from ``x``.

        Implements lines 1-3 of Algorithm 1: ``x`` joins ``V(P_k)`` and its
        neighbours form the frontier.  No edges are allocated yet.
        """
        if x in self.members:
            raise ValueError(f"seed {x} is already a member")
        snapshot = set(self._residual.neighbors(x))
        self.members.add(x)
        degree_of = self._residual.degree
        for u in snapshot:
            # A neighbour of a fresh seed can never already be a member:
            # that edge would have been external, contradicting the empty
            # frontier that triggered reseeding.
            self.frontier.touch_and_increment(u, degree_of)
        self.external += len(snapshot)
        self._pending_mu1.append((x, snapshot))

    def add_vertex(self, v: int, max_edges: Optional[int] = None) -> Tuple[int, bool]:
        """Move frontier vertex ``v`` into the partition (line 10 of Alg. 1).

        Allocates every residual edge between ``v`` and ``members``; if
        ``max_edges`` is smaller than that batch, only ``max_edges`` of them
        are allocated (strict-capacity truncation) and the round must end.

        Returns ``(allocated, truncated)``.
        """
        snapshot = set(self._residual.neighbors(v))
        # Sorted batch order makes capacity truncation canonical (smallest
        # neighbour ids win), so every backend truncates identically.
        member_nbrs = sorted(u for u in snapshot if u in self.members)
        truncated = max_edges is not None and len(member_nbrs) > max_edges
        batch = member_nbrs[:max_edges] if truncated else member_nbrs
        for u in batch:
            self._residual.remove_edge(v, u)
            self.edges.append((v, u) if v < u else (u, v))
        self.internal += len(batch)
        self.external -= len(batch)
        if truncated:
            # Round over: bookkeeping beyond the edge list no longer matters.
            return len(batch), True
        self.members.add(v)
        if v in self.frontier:
            self.frontier.remove(v)
        members = self.members
        degree_of = self._residual.degree
        outside = 0
        for u in snapshot:
            if u in members:
                continue
            self.frontier.touch_and_increment(u, degree_of)
            outside += 1
        self.external += outside
        self._pending_mu1.append((v, snapshot))
        return len(batch), False

    # -- Stage-I score maintenance -------------------------------------------

    def flush_stage1_scores(self) -> None:
        """Apply pending Stage-I similarity updates (Eq. 7).

        For each unprocessed member ``v_j`` and each non-member neighbour
        ``u``, raise ``mu1(u)`` to ``|N(u) ∩ N(v_j)| / |N(v_j)|``.  Each
        member is processed exactly once per round, so the total Stage-I
        cost is bounded by the two-hop neighbourhood of the partition no
        matter how often the stage toggles.
        """
        if not self._pending_mu1:
            return
        use_original = self._similarity_scope == "original"
        for v_j, snapshot in self._pending_mu1:
            if use_original:
                nbrs_j: Set[int] = self._graph.neighbors(v_j)
            else:
                nbrs_j = snapshot
            deg_j = len(nbrs_j)
            if deg_j == 0:
                continue
            for u in snapshot:
                if u in self.members:
                    continue
                nbrs_u = (
                    self._graph.neighbors(u)
                    if use_original
                    else self._residual.neighbors(u)
                )
                # C-speed set intersection (both operands are sets).
                common = len(nbrs_u & nbrs_j)
                self.frontier.raise_mu1(u, common / deg_j)
        self._pending_mu1.clear()

    # -- selection -----------------------------------------------------------

    def select_stage1(self) -> Optional[int]:
        """Best Stage-I vertex (Eq. 8), refreshing scores first."""
        self.flush_stage1_scores()
        return self.frontier.select_stage1()

    def select_stage2(self) -> Optional[int]:
        """Best Stage-II vertex (Eq. 11)."""
        return self.frontier.select_stage2(self.internal, self.external)


class OracleLocalPartitioner(LocalEdgePartitioner):
    """:class:`LocalEdgePartitioner` grown over the dict-of-sets state.

    Takes the same constructor arguments; :meth:`partition` never builds a
    CSR residual or consults the compiled kernel.
    """

    def partition(self, graph: Graph, num_partitions: int) -> EdgePartition:
        check_positive("num_partitions", num_partitions)
        rng = make_rng(self.seed)
        telemetry = StageTelemetry()
        residual = ResidualGraph(graph)
        capacity = default_capacity(graph.num_edges, num_partitions, self.slack)
        parts = []
        for k in range(num_partitions):
            is_last = k == num_partitions - 1
            cap = residual.num_edges if is_last else capacity
            parts.append(
                self._grow_oracle_round(graph, residual, cap, k, rng, telemetry)
            )
        self.last_telemetry = telemetry
        return EdgePartition(parts)

    def _grow_oracle_round(
        self,
        graph: Graph,
        residual: ResidualGraph,
        capacity: int,
        k: int,
        rng,
        telemetry: StageTelemetry,
    ) -> List[Edge]:
        if capacity <= 0 or residual.is_exhausted():
            return []
        state = PartitionState(residual, graph, self.similarity_scope)
        state.seed(self._pick_seed(residual, rng))
        while state.internal < capacity:
            if state.frontier_empty():
                # Algorithm 1, lines 11-13: the residual component is used up.
                if not self.reseed_on_break or residual.is_exhausted():
                    break
                telemetry.record_reseed()
                state.seed(self._pick_seed(residual, rng))
                continue
            stage = self.stage_policy.stage(state, capacity)
            v = state.select_stage1() if stage == STAGE_ONE else state.select_stage2()
            if v is None:  # pragma: no cover - frontier_empty() guards this
                break
            max_edges = capacity - state.internal if self.strict_capacity else None
            allocated, truncated = state.add_vertex(v, max_edges)
            telemetry.record(k, stage, v, graph.degree(v), allocated)
            telemetry.record_local_state(state.internal + len(state.frontier))
            if truncated:
                break
        return state.edges


class OracleWindowedPartitioner(WindowedLocalPartitioner):
    """TLP-W with every episode grown inside the dict buffer itself."""

    def _grow(
        self,
        buffer: ResidualGraph,
        cap: int,
        k: int,
        rng,
        telemetry: StageTelemetry,
        graph: Optional[Graph],
    ) -> List[Edge]:
        state = PartitionState(buffer, graph or Graph.empty(), "residual")
        state.seed(buffer.sample_seed(rng))
        while state.internal < cap:
            if state.frontier_empty():
                break  # caller refills/reseeds with a fresh episode
            stage = self.stage_policy.stage(state, cap)
            v = state.select_stage1() if stage == STAGE_ONE else state.select_stage2()
            allocated, truncated = state.add_vertex(v, cap - state.internal)
            degree = graph.degree(v) if graph is not None and v in graph else buffer.degree(v)
            telemetry.record(k, stage, v, degree, allocated)
            telemetry.record_local_state(state.internal + len(state.frontier))
            if truncated:
                break
        return state.edges
