"""Property-based tests of CSRPartitionState against brute-force recomputation.

Drives a growing partition with arbitrary valid selections (not just the TLP
heuristics) and re-derives every incremental quantity from scratch after each
step — the strongest check that the incremental bookkeeping can't drift.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.state import CSRPartitionState
from repro.graph.generators import erdos_renyi_gnm
from repro.graph.residual import ResidualGraph
from repro.graph.residual_csr import CSRResidual
from tests.core.tlp_oracle import PartitionState


@given(
    st.integers(3, 25),
    st.integers(2, 60),
    st.integers(0, 2**31),
    st.integers(0, 2**31),
)
@settings(max_examples=50, deadline=None)
def test_incremental_state_matches_brute_force(n, m, graph_seed, pick_seed):
    m = min(m, n * (n - 1) // 2)
    graph = erdos_renyi_gnm(n, m, seed=graph_seed)
    residual = CSRResidual(graph)
    state = CSRPartitionState(residual)
    index_of = residual.index_of
    rng = random.Random(pick_seed)
    try:
        state.seed(residual.sample_seed(rng))
    except LookupError:
        return  # edgeless graph

    for _ in range(n):
        if state.frontier_empty():
            break
        # Arbitrary (possibly non-heuristic) valid selection.
        candidates = [v for v in graph.vertices() if index_of[v] in state.frontier]
        v = rng.choice(candidates)
        state.add_vertex(v)

        # Brute-force external count and frontier membership.
        external = 0
        frontier = set()
        members = state.members
        for a, b in residual.edges():
            a_in = a in members
            b_in = b in members
            assert not (a_in and b_in), "residual edge inside the partition"
            if a_in != b_in:
                external += 1
                frontier.add(b if a_in else a)
        assert state.external == external
        assert frontier == {u for u in graph.vertices() if index_of[u] in state.frontier}
        # c values sum to the external count.
        assert (
            sum(state.frontier.c_of(index_of[u]) for u in frontier) == external
        )
        # internal count equals allocated edges.
        assert state.internal == len(state.edges)
        # allocated + residual = all edges.
        assert state.internal + residual.num_edges == graph.num_edges


@given(
    st.integers(3, 25),
    st.integers(2, 60),
    st.integers(0, 2**31),
    st.integers(0, 2**31),
    st.sampled_from(["residual", "original"]),
)
@settings(max_examples=50, deadline=None)
def test_state_matches_dict_oracle_step_by_step(n, m, graph_seed, pick_seed, scope):
    """Same arbitrary selections on both states -> same bookkeeping and picks."""
    m = min(m, n * (n - 1) // 2)
    graph = erdos_renyi_gnm(n, m, seed=graph_seed)
    residual = CSRResidual(graph)
    state = CSRPartitionState(residual, scope)
    oracle_residual = ResidualGraph(graph)
    oracle = PartitionState(oracle_residual, graph, scope)
    rng = random.Random(pick_seed)
    oracle_rng = random.Random(pick_seed)
    try:
        x = residual.sample_seed(rng)
    except LookupError:
        return  # edgeless graph
    assert oracle_residual.sample_seed(oracle_rng) == x
    state.seed(x)
    oracle.seed(x)

    for _ in range(n):
        assert state.frontier_empty() == oracle.frontier_empty()
        if state.frontier_empty():
            break
        assert state.select_stage1() == oracle.select_stage1()
        assert state.select_stage2() == oracle.select_stage2()
        candidates = sorted(
            v for v in graph.vertices() if residual.index_of[v] in state.frontier
        )
        assert candidates == sorted(v for v in graph.vertices() if v in oracle.frontier)
        v = rng.choice(candidates)
        cut = rng.choice([None, 0, 1, 2])
        result = state.add_vertex(v, cut)
        assert result == oracle.add_vertex(v, cut)
        assert state.edges == oracle.edges
        assert (state.internal, state.external) == (oracle.internal, oracle.external)
        if result[1]:
            break  # a truncated add ends the round
        assert state.members == oracle.members
        for u in graph.vertices():
            assert state.frontier.c_of(residual.index_of[u]) == oracle.frontier.c_of(u)
