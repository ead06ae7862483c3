#!/usr/bin/env python
"""Anatomy of one TLP partition: watch the two stages switch.

Grows a single partition step by step on a community graph, printing the
modularity trajectory, the active stage, and the degree of each selected
vertex — the mechanism behind the paper's Fig. 4/5 narrative and Table VI.

Run:  python examples/stage_anatomy.py
"""

import math

from repro.core.stages import ModularityStagePolicy
from repro.core.state import CSRPartitionState
from repro.graph.generators import community_graph
from repro.graph.residual_csr import CSRResidual
from repro.utils.rng import make_rng


def main() -> None:
    graph = community_graph(600, 3_600, 6, intra_fraction=0.92, seed=7)
    p = 6
    capacity = math.ceil(graph.num_edges / p)
    print(
        f"graph: {graph.num_vertices} vertices, {graph.num_edges} edges; "
        f"growing one partition to capacity {capacity}\n"
    )

    residual = CSRResidual(graph)
    state = CSRPartitionState(residual)
    policy = ModularityStagePolicy()
    rng = make_rng(0)
    state.seed(residual.sample_seed(rng))

    print(f"{'step':>4}  {'stage':>5}  {'vertex':>6}  {'deg':>4}  "
          f"{'alloc':>5}  {'|E|':>5}  {'E_out':>5}  {'M':>7}")
    step = 0
    switches = []
    previous_stage = None
    while state.internal < capacity and not state.frontier_empty():
        stage = policy.stage(state, capacity)
        if previous_stage is not None and stage != previous_stage:
            switches.append((step, previous_stage, stage))
        previous_stage = stage
        v = state.select_stage1() if stage == 1 else state.select_stage2()
        allocated, truncated = state.add_vertex(
            v, max_edges=capacity - state.internal
        )
        step += 1
        if step <= 15 or step % 25 == 0:
            modularity = state.modularity
            mod_str = f"{modularity:7.3f}" if modularity != math.inf else "    inf"
            print(
                f"{step:>4}  {stage:>5}  {v:>6}  {graph.degree(v):>4}  "
                f"{allocated:>5}  {state.internal:>5}  {state.external:>5}  {mod_str}"
            )
        if truncated:
            break

    print(f"\npartition finished: {state.internal} edges, "
          f"{len(state.members)} vertices, {step} selections")
    for at, frm, to in switches[:10]:
        print(f"  stage switch {frm} -> {to} at step {at}")
    if not switches:
        print("  (no stage switch — the partition stayed in one regime)")


if __name__ == "__main__":
    main()
