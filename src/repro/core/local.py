"""The local graph partitioning framework (Section III of the paper).

A :class:`LocalEdgePartitioner` grows partitions one round at a time over a
shrinking residual graph, holding in memory only the current partition and
its frontier — the paper's defining "local" property.  The vertex-selection
heuristic of each step is delegated to a
:class:`~repro.core.stages.StagePolicy`, which is what distinguishes TLP,
TLP_R and the one-stage ablations; everything else (seeding, allocation,
capacity, reseeding, telemetry) is shared here.

Growth rounds are sequential by definition — each round consumes the
residual the previous round left — so parallelism lives one level up, in
*independent* ``partition()`` jobs (seed sweeps, benchmark repetitions,
per-dataset builds), each bit-identical to its own sequential run.  Use
one :class:`LocalEdgePartitioner` instance per job; ``last_telemetry``
is recorded on the instance.
"""

from __future__ import annotations

import numpy as np

from repro.core.stages import STAGE_ONE, StagePolicy
from repro.core.state import SIMILARITY_SCOPES, CSRPartitionState
from repro.core.telemetry import StageTelemetry
from repro.graph.graph import Graph
from repro.graph.residual_csr import CSRResidual
from repro.partitioning.assignment import EdgePartition
from repro.partitioning.base import EdgePartitioner, default_capacity
from repro.utils.rng import Seed, make_rng
from repro.utils.validation import check_positive


class LocalEdgePartitioner(EdgePartitioner):
    """Round-based local edge partitioning with a pluggable stage policy.

    Parameters
    ----------
    stage_policy:
        Decides Stage I vs Stage II before every selection.
    seed:
        Seed for the random partition seeds (and nothing else — selection is
        deterministic given the seeds).
    slack:
        Capacity multiplier; ``C = ceil(slack * m / p)``.
    strict_capacity:
        ``True`` (default) truncates the final vertex's edge batch so that
        ``|E(P_k)| <= C`` holds exactly (Definition 3).  ``False`` reproduces
        the paper's Algorithm 1 literally: the last selection may overshoot.
    reseed_on_break:
        ``True`` (default) restarts growth from a fresh seed when the
        frontier empties before the partition is full, so exactly ``p``
        partitions always result.  ``False`` reproduces Algorithm 1's
        literal ``break`` (the partition stays underfull).
    similarity_scope:
        ``"residual"`` (default) computes Stage-I neighbourhoods in the
        residual graph the algorithm actually observes; ``"original"`` uses
        the full input graph.
    seed_strategy:
        How the random seed vertex of each round is picked (Algorithm 1,
        line 1).  ``"random"`` is the paper's choice; ``"max-degree"`` /
        ``"min-degree"`` sample a small pool of candidates and keep the
        highest/lowest residual degree — the seed-choice ablation.

    Growth runs over a :class:`~repro.graph.residual_csr.CSRResidual`.
    Each round uses the compiled kernel when it builds and encodes the
    stage policy, else the numpy :class:`~repro.core.state.CSRPartitionState`
    path; both give bit-for-bit the same output under a fixed seed.  Set
    ``REPRO_NO_NATIVE=1`` to force the numpy path.
    """

    name = "Local"

    SEED_STRATEGIES = ("random", "max-degree", "min-degree")
    _SEED_POOL_SIZE = 16

    def __init__(
        self,
        stage_policy: StagePolicy,
        seed: Seed = None,
        slack: float = 1.0,
        strict_capacity: bool = True,
        reseed_on_break: bool = True,
        similarity_scope: str = "residual",
        seed_strategy: str = "random",
    ) -> None:
        if similarity_scope not in SIMILARITY_SCOPES:
            raise ValueError(
                f"similarity_scope must be one of {SIMILARITY_SCOPES}, "
                f"got {similarity_scope!r}"
            )
        if slack < 1.0:
            raise ValueError(f"slack must be >= 1.0, got {slack}")
        if seed_strategy not in self.SEED_STRATEGIES:
            raise ValueError(
                f"seed_strategy must be one of {self.SEED_STRATEGIES}, "
                f"got {seed_strategy!r}"
            )
        self.stage_policy = stage_policy
        self.seed = seed
        self.slack = slack
        self.strict_capacity = strict_capacity
        self.reseed_on_break = reseed_on_break
        self.similarity_scope = similarity_scope
        self.seed_strategy = seed_strategy
        #: Telemetry of the most recent :meth:`partition` call.
        self.last_telemetry: StageTelemetry = StageTelemetry()

    # -- public API ----------------------------------------------------------

    def partition(self, graph: Graph, num_partitions: int) -> EdgePartition:
        """Partition ``graph`` into ``num_partitions`` edge sets."""
        return self._partition(CSRResidual(graph), num_partitions)

    def partition_edges(
        self, edges: np.ndarray, vertices: np.ndarray, num_partitions: int
    ) -> EdgePartition:
        """Partition the graph whose edges are the rows of ``edges``.

        ``edges`` holds each undirected edge once, with no self loops, and
        ``vertices`` every vertex id in the order :meth:`Graph.vertices`
        would list them, which fixes the seed draws
        (:func:`repro.graph.io.read_edge_array` reads a file into both).
        The result equals :meth:`partition` of that graph, without
        building it.
        """
        return self._partition(CSRResidual.from_edges(edges, vertices), num_partitions)

    def _partition(self, residual: CSRResidual, num_partitions: int) -> EdgePartition:
        check_positive("num_partitions", num_partitions)
        rng = make_rng(self.seed)
        telemetry = StageTelemetry()
        runner = self._make_native_runner(residual)
        capacity = default_capacity(residual.num_edges, num_partitions, self.slack)
        parts = []
        for k in range(num_partitions):
            is_last = k == num_partitions - 1
            cap = residual.num_edges if is_last else capacity
            if runner is not None:
                parts.append(
                    runner.grow_round(
                        cap,
                        k,
                        rng,
                        telemetry,
                        self._pick_seed,
                        self.reseed_on_break,
                    )
                )
            else:
                parts.append(self._grow_round(residual, cap, k, rng, telemetry))
        self.last_telemetry = telemetry
        return EdgePartition.from_arrays(parts)

    # -- kernel dispatch -------------------------------------------------------

    def _make_native_runner(self, residual: CSRResidual):
        """A compiled-kernel round runner, or ``None`` for the numpy path.

        ``None`` when no kernel is available (no C toolchain, or
        ``REPRO_NO_NATIVE`` set) or the stage policy is one the kernel
        does not encode.
        """
        from repro._native import load_kernel
        from repro.core.native_grow import NativeRunner

        kernel = load_kernel()
        if kernel is None:
            return None
        return NativeRunner.try_create(
            kernel,
            residual,
            self.stage_policy,
            self.similarity_scope,
            self.strict_capacity,
        )

    # -- one round -----------------------------------------------------------

    def _grow_round(
        self,
        residual: CSRResidual,
        capacity: int,
        k: int,
        rng,
        telemetry: StageTelemetry,
    ) -> np.ndarray:
        if capacity <= 0 or residual.is_exhausted():
            return np.empty((0, 2), dtype=np.int64)
        state = CSRPartitionState(residual, self.similarity_scope)
        static_degree = np.diff(residual.indptr)
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
            degree = int(static_degree[residual.index_of[v]])
            telemetry.record(k, stage, v, degree, allocated)
            telemetry.record_local_state(state.internal + len(state.frontier))
            if truncated:
                break
        return state.edge_array()

    def _pick_seed(self, residual, rng) -> int:
        """Apply the configured seed strategy to the residual graph."""
        if self.seed_strategy == "random":
            return residual.sample_seed(rng)
        candidates = {
            residual.sample_seed(rng) for _ in range(self._SEED_POOL_SIZE)
        }
        if self.seed_strategy == "max-degree":
            return max(candidates, key=lambda v: (residual.degree(v), -v))
        return min(candidates, key=lambda v: (residual.degree(v), v))
