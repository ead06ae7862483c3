"""Synchronous GAS engine over an edge partition.

Simulates a PowerGraph-style cluster: machine ``k`` stores the edges of
partition ``P_k``; a spanned vertex has a master and mirrors (see
:mod:`repro.runtime.replication`).  Each superstep:

1. **Gather** — every machine folds its local edges into per-vertex partial
   accumulators; each *mirror* sends its partial to the vertex's master
   (one message per mirror per superstep: ``sum_v (replicas(v) - 1)``).
2. **Apply** — the master computes the new vertex value.
3. **Scatter** — masters of *changed* vertices broadcast the new value to
   their mirrors (one message per mirror of each changed vertex).

The engine therefore reproduces, message for message, why the paper's RF
metric matters: gather traffic is exactly ``(RF - 1) * |V|`` per superstep.
Results are independent of the partitioning — tests verify bit-equality with
:func:`repro.runtime.programs.run_reference`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.graph.graph import Graph
from repro.partitioning.assignment import EdgePartition
from repro.runtime.programs import GASProgram
from repro.runtime.replication import ReplicationTable
from repro.runtime.stats import MachineLoad, RunStats, SuperstepStats


@dataclass
class EngineResult:
    """Final vertex values plus run statistics."""

    values: Dict[int, float]
    stats: RunStats
    converged: bool


class GASEngine:
    """Synchronous gather-apply-scatter execution over a partitioned graph."""

    def __init__(
        self, graph: Graph, partition: EdgePartition, program: GASProgram
    ) -> None:
        partition.validate_against(graph)
        self.graph = graph
        self.partition = partition
        self.program = program
        self.replication = ReplicationTable(partition)
        # Local (machine-resident) state: edges per machine.
        self._local_edges: List[List[tuple]] = [
            list(partition.edges_of(k)) for k in range(partition.num_partitions)
        ]
        self._degree: Dict[int, int] = {
            v: graph.degree(v) for v in graph.vertices()
        }
        # Per-machine adjacency, built lazily for the incremental mode.
        self._machine_adj: Optional[List[Dict[int, List[int]]]] = None

    @classmethod
    def from_bundle(
        cls,
        directory,
        graph: Graph,
        program: GASProgram,
        *,
        verify: bool = True,
    ) -> "GASEngine":
        """Open a ``save_partition`` bundle as a ready-to-run engine.

        Loads the bundle with :func:`~repro.partitioning.serialization.
        load_partition` (manifest-verified unless ``verify=False``).
        """
        from repro.partitioning.serialization import load_partition

        return cls(graph, load_partition(directory, verify=verify), program)

    # -- execution -----------------------------------------------------------

    def run(
        self,
        max_supersteps: int = 200,
        checkpoint_every: Optional[int] = None,
        fail_at: Iterable[int] = (),
        incremental: bool = False,
    ) -> EngineResult:
        """Run to convergence or ``max_supersteps``.

        Failure injection: ``fail_at`` lists superstep indices at which a
        simulated machine crash destroys the in-flight superstep.  The engine
        recovers by rolling every vertex value back to the most recent
        checkpoint (taken every ``checkpoint_every`` completed supersteps;
        the initial state is always checkpoint zero) and re-executing — the
        standard synchronous checkpoint/rollback scheme of Pregel-style
        systems.  Recovery work is visible in ``stats.recoveries`` and
        ``stats.wasted_supersteps``; the final values are identical to a
        failure-free run (tests assert this).  Each entry in ``fail_at``
        fires at most once.

        ``incremental=True`` enables PowerGraph-style delta caching: each
        machine recomputes a vertex's partial gather only when one of its
        local neighbours changed in the previous superstep, and a mirror
        sends its partial to the master only when it changed.  "Changed"
        means the program's :meth:`~repro.runtime.programs.GASProgram.converged`
        test fired, so results are bit-identical for exact-convergence
        programs (CC, SSSP) and within the program's tolerance for
        tolerance-based ones (PageRank) — the standard delta-caching
        trade-off.  Gather traffic shrinks as the computation converges.
        Incompatible with failure injection (a crash would invalidate the
        caches), so ``fail_at`` must be empty.
        """
        if incremental and fail_at:
            raise ValueError("incremental mode does not support failure injection")
        program = self.program
        values: Dict[int, float] = {
            v: program.init(v, self._degree[v]) for v in self.graph.vertices()
        }
        stats = RunStats()
        converged = False
        pending_failures = set(fail_at)
        checkpoint: Dict[int, float] = dict(values)
        checkpoint_step = 0
        step = 0
        completed = 0  # supersteps that contributed to progress
        changed_prev: Optional[List[int]] = None  # None = recompute everything
        partial_cache: List[Dict[int, float]] = [
            {} for _ in range(self.partition.num_partitions)
        ]
        acc_cache: Dict[int, float] = {}
        while completed < max_supersteps:
            if step in pending_failures:
                pending_failures.discard(step)
                stats.recoveries += 1
                stats.wasted_supersteps += step - checkpoint_step
                values = dict(checkpoint)
                step = checkpoint_step
                continue
            if incremental:
                gather_messages, acc = self._gather_incremental(
                    values, changed_prev, partial_cache, acc_cache
                )
            else:
                gather_messages, acc = self._gather(values)
            changed = self._apply(values, acc)
            scatter_messages = sum(
                self.replication.mirror_count(v) for v in changed
            )
            stats.add(
                SuperstepStats(
                    superstep=step,
                    gather_messages=gather_messages,
                    scatter_messages=scatter_messages,
                    changed_vertices=len(changed),
                )
            )
            step += 1
            completed += 1
            changed_prev = changed
            if checkpoint_every and step % checkpoint_every == 0:
                checkpoint = dict(values)
                checkpoint_step = step
            if not changed:
                converged = True
                break
        return EngineResult(values=values, stats=stats, converged=converged)

    def _gather(self, values: Dict[int, float]) -> tuple:
        """Per-machine partial gathers + mirror->master aggregation."""
        program = self.program
        # partials[k] maps vertex -> partial accumulator on machine k.
        partials: List[Dict[int, float]] = []
        for edges in self._local_edges:
            local: Dict[int, float] = {}
            for u, v in edges:
                contribution_u = program.gather(values[v], self._degree[v])
                contribution_v = program.gather(values[u], self._degree[u])
                local[u] = (
                    contribution_u
                    if u not in local
                    else program.merge(local[u], contribution_u)
                )
                local[v] = (
                    contribution_v
                    if v not in local
                    else program.merge(local[v], contribution_v)
                )
            partials.append(local)
        # Mirrors ship partials to masters.
        gather_messages = 0
        acc: Dict[int, float] = {}
        for k, local in enumerate(partials):
            for vertex, partial in local.items():
                if self.replication.master_of(vertex) != k:
                    gather_messages += 1
                acc[vertex] = (
                    partial
                    if vertex not in acc
                    else program.merge(acc[vertex], partial)
                )
        return gather_messages, acc

    def _get_machine_adj(self) -> List[Dict[int, List[int]]]:
        """Per-machine adjacency lists (built once, for incremental mode)."""
        if self._machine_adj is None:
            machine_adj: List[Dict[int, List[int]]] = []
            for edges in self._local_edges:
                adj: Dict[int, List[int]] = {}
                for u, v in edges:
                    adj.setdefault(u, []).append(v)
                    adj.setdefault(v, []).append(u)
                machine_adj.append(adj)
            self._machine_adj = machine_adj
        return self._machine_adj

    def _local_partial(
        self, k: int, u: int, values: Dict[int, float]
    ) -> float:
        """Machine ``k``'s partial gather for vertex ``u`` (u must be local)."""
        program = self.program
        total: Optional[float] = None
        for v in self._get_machine_adj()[k][u]:
            contribution = program.gather(values[v], self._degree[v])
            total = (
                contribution if total is None else program.merge(total, contribution)
            )
        assert total is not None  # local vertices have at least one local edge
        return total

    def _gather_incremental(
        self,
        values: Dict[int, float],
        changed_prev: Optional[List[int]],
        partial_cache: List[Dict[int, float]],
        acc_cache: Dict[int, float],
    ) -> tuple:
        """Delta-cached gather: recompute only neighbourhoods of changes."""
        program = self.program
        machine_adj = self._get_machine_adj()
        p = self.partition.num_partitions
        if changed_prev is None:
            # Cold start: full recompute, identical to _gather.
            gather_messages = 0
            for k in range(p):
                local = {
                    u: self._local_partial(k, u, values) for u in machine_adj[k]
                }
                partial_cache[k] = local
                gather_messages += sum(
                    1 for u in local if self.replication.master_of(u) != k
                )
            acc_cache.clear()
            for k in range(p):
                for u, partial in partial_cache[k].items():
                    acc_cache[u] = (
                        partial
                        if u not in acc_cache
                        else program.merge(acc_cache[u], partial)
                    )
            return gather_messages, acc_cache

        # Vertices whose partial may have changed, per machine.
        affected: List[set] = [set() for _ in range(p)]
        for w in changed_prev:
            for k in self.replication.replicas_of(w):
                affected[k].update(machine_adj[k].get(w, ()))
        gather_messages = 0
        dirty: set = set()
        for k in range(p):
            for u in affected[k]:
                partial = self._local_partial(k, u, values)
                if partial != partial_cache[k][u]:
                    partial_cache[k][u] = partial
                    dirty.add(u)
                    if self.replication.master_of(u) != k:
                        gather_messages += 1
        # Re-merge the dirty vertices in fixed machine order (bitwise equal
        # to a full gather, since clean partials are value-identical).
        for u in dirty:
            total: Optional[float] = None
            for k in self.replication.replicas_of(u):
                partial = partial_cache[k].get(u)
                if partial is None:
                    continue
                total = partial if total is None else program.merge(total, partial)
            if total is not None:
                acc_cache[u] = total
        return gather_messages, acc_cache

    def _apply(self, values: Dict[int, float], acc: Dict[int, float]) -> List[int]:
        """Masters apply; returns the list of changed vertices."""
        program = self.program
        changed: List[int] = []
        for vertex in self.graph.vertices():
            gathered = acc.get(vertex, program.identity())
            new = program.apply(vertex, values[vertex], gathered)
            if not program.converged(values[vertex], new):
                changed.append(vertex)
            values[vertex] = new
        return changed

    # -- static load ----------------------------------------------------------

    def machine_loads(self) -> List[MachineLoad]:
        """Edges, replica vertices and mirrors hosted per machine."""
        vertex_sets = self.partition.vertex_sets()
        loads: List[MachineLoad] = []
        for k in range(self.partition.num_partitions):
            mirrors = sum(
                1 for v in vertex_sets[k] if self.replication.master_of(v) != k
            )
            loads.append(
                MachineLoad(
                    machine=k,
                    edges=len(self._local_edges[k]),
                    vertices=len(vertex_sets[k]),
                    mirrors=mirrors,
                )
            )
        return loads
