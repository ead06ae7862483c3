"""Windowed streaming-local partitioning — the paper's §V future work.

TLP needs the residual graph in memory.  The paper's conclusion proposes a
*sliding window* so graph data can be sorted and partitioned as a stream.
:class:`WindowedLocalPartitioner` realises that design:

* edges arrive as a stream and fill a bounded **buffer residual** of at most
  ``window_size`` edges;
* each partition is grown locally *inside the buffer* with the usual
  two-stage heuristics;
* the buffer is refilled from the stream between rounds (and whenever the
  buffer runs dry during the final sweep), so peak state is
  ``window_size + frontier`` edges regardless of graph size.

With ``window_size >= |E|`` the behaviour converges to plain TLP; smaller
windows trade RF for memory.  The edge capacity per partition requires the
total edge count (for ``C = ceil(m/p)``): pass ``total_edges``, or supply a
graph, or let the partitioner count by materialising the stream (documented
fallback for convenience, not for production streams).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, List, Optional

from repro.core.stages import STAGE_ONE, ModularityStagePolicy, StagePolicy
from repro.core.state import CSRPartitionState
from repro.core.telemetry import StageTelemetry
from repro.graph.graph import Edge, Graph
from repro.graph.residual import ResidualGraph
from repro.graph.residual_csr import CSRResidual
from repro.partitioning.assignment import EdgePartition
from repro.partitioning.base import StreamingEdgePartitioner
from repro.utils.rng import Seed, make_rng
from repro.utils.validation import check_positive


class WindowedLocalPartitioner(StreamingEdgePartitioner):
    """Local two-stage partitioning over a bounded stream window."""

    name = "TLP-W"

    def __init__(
        self,
        window_size: int,
        stage_policy: Optional[StagePolicy] = None,
        seed: Seed = None,
        slack: float = 1.0,
    ) -> None:
        check_positive("window_size", window_size)
        if slack < 1.0:
            raise ValueError(f"slack must be >= 1.0, got {slack}")
        self.window_size = window_size
        self.stage_policy = stage_policy or ModularityStagePolicy()
        self.seed = seed
        self.slack = slack
        self.last_telemetry = StageTelemetry()
        # Array mirror of the buffer that episodes grow in, rebuilt lazily
        # after each refill.  The compiled kernel is never used here:
        # episodes are short and the buffer mutates between them.
        self._csr_mirror: Optional[CSRResidual] = None

    # -- public API ----------------------------------------------------------

    def assign_stream(
        self,
        edges: Iterable[Edge],
        num_partitions: int,
        graph: Optional[Graph] = None,
        total_edges: Optional[int] = None,
    ) -> EdgePartition:
        """Partition a stream of edges using only the window as state.

        ``total_edges`` sets the capacity ``C``; a stream with more edges
        than that raises ``ValueError``, and a shorter one is partitioned
        as it is.
        """
        check_positive("num_partitions", num_partitions)
        if total_edges is None:
            if graph is not None:
                total_edges = graph.num_edges
            else:
                edges = list(edges)  # convenience fallback: count by buffering
                total_edges = len(edges)
        capacity = max(1, math.ceil(self.slack * total_edges / num_partitions))
        if self.window_size < capacity:
            raise ValueError(
                f"window_size={self.window_size} is smaller than the partition "
                f"capacity C={capacity}; a partition must fit in the window"
            )
        rng = make_rng(self.seed)
        telemetry = StageTelemetry()
        source: Iterator[Edge] = iter(edges)
        buffer = ResidualGraph.empty()
        stream_exhausted = self._refill(buffer, source)
        assigned = 0
        parts: List[List[Edge]] = []
        for k in range(num_partitions):
            is_last = k == num_partitions - 1
            cap = total_edges - assigned if is_last else capacity
            part_edges: List[Edge] = []
            # Keep growing episodes (fresh seeds) until the partition is full
            # or no edge remains anywhere; the final round drains everything.
            while len(part_edges) < cap:
                if buffer.is_exhausted():
                    if stream_exhausted:
                        break
                    stream_exhausted = self._refill(buffer, source)
                    continue
                if part_edges:
                    telemetry.record_reseed()  # fresh episode within the round
                grown = self._grow(
                    buffer, cap - len(part_edges), k, rng, telemetry, graph
                )
                part_edges.extend(grown)
            parts.append(part_edges)
            assigned += len(part_edges)
            if not stream_exhausted:
                stream_exhausted = self._refill(buffer, source)
        if not buffer.is_exhausted():
            # The last round stops at the declared total, so an edge left
            # over means the stream was longer than declared.
            seen = assigned + buffer.num_edges + sum(1 for _ in source)
            raise ValueError(
                f"the edge stream holds more than total_edges={total_edges} "
                f"edges: {seen} seen"
            )
        self.last_telemetry = telemetry
        return EdgePartition(parts)

    def partition(self, graph: Graph, num_partitions: int) -> EdgePartition:
        """Stream the graph's edges in storage order through the window."""
        return self.assign_stream(
            graph.edges(), num_partitions, graph=graph, total_edges=graph.num_edges
        )

    # -- internals -----------------------------------------------------------

    def _refill(self, buffer: ResidualGraph, source: Iterator[Edge]) -> bool:
        """Top the buffer up to ``window_size`` edges; True when stream ended."""
        # New edges invalidate the CSR mirror; it is rebuilt lazily on the
        # next growth episode.
        self._csr_mirror = None
        while buffer.num_edges < self.window_size:
            try:
                u, v = next(source)
            except StopIteration:
                return True
            buffer.add_edge(u, v)
        return False

    def _grow(
        self,
        buffer: ResidualGraph,
        cap: int,
        k: int,
        rng,
        telemetry: StageTelemetry,
        graph: Optional[Graph],
    ) -> List[Edge]:
        """One local growth episode inside the (frozen) buffer."""
        if self._csr_mirror is None:
            self._csr_mirror = CSRResidual.from_adjacency(
                buffer.vertices(), buffer.neighbors, buffer.num_edges
            )
        state = CSRPartitionState(self._csr_mirror, "residual")
        # The dict buffer stays authoritative for seed sampling, refills and
        # degree telemetry; every allocation is replayed on it.
        state.seed(buffer.sample_seed(rng))
        synced = 0
        while state.internal < cap:
            if state.frontier_empty():
                break  # caller refills/reseeds with a fresh episode
            stage = self.stage_policy.stage(state, cap)
            v = state.select_stage1() if stage == STAGE_ONE else state.select_stage2()
            allocated, truncated = state.add_vertex(v, cap - state.internal)
            for block in state.edge_blocks[synced:]:
                for a, b in block.tolist():
                    buffer.remove_edge(a, b)
            synced = len(state.edge_blocks)
            degree = graph.degree(v) if graph is not None and v in graph else buffer.degree(v)
            telemetry.record(k, stage, v, degree, allocated)
            telemetry.record_local_state(state.internal + len(state.frontier))
            if truncated:
                break
        return state.edges
