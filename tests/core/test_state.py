"""Unit tests for CSRPartitionState invariants and the paper's worked examples.

The frontier is addressed by dense vertex index; :func:`in_frontier` and
:func:`frontier_ids` translate to original ids.
"""

import pytest

from repro.core.state import CSRPartitionState
from repro.graph.graph import Graph
from repro.graph.residual_csr import CSRResidual


def make_state(graph, scope="residual"):
    residual = CSRResidual(graph)
    return CSRPartitionState(residual, scope), residual


def in_frontier(state, residual, v):
    return residual.index_of[v] in state.frontier


def frontier_ids(state, residual):
    return set(residual.ids[state.frontier.members()].tolist())


def external_count_brute_force(state, residual):
    return sum(
        1
        for u, v in residual.edges()
        if (u in state.members) != (v in state.members)
    )


class TestSeed:
    def test_seed_initialises_frontier(self, triangle):
        state, _ = make_state(triangle)
        state.seed(0)
        assert state.members == {0}
        assert state.internal == 0
        assert state.external == 2
        assert not state.frontier_empty()
        assert state.modularity == 0.0

    def test_seed_twice_same_vertex_rejected(self, triangle):
        state, _ = make_state(triangle)
        state.seed(0)
        with pytest.raises(ValueError, match="already a member"):
            state.seed(0)

    def test_isolated_seed_gives_empty_frontier(self):
        g = Graph.from_edges([(0, 1)], vertices=[9])
        state, _ = make_state(g)
        state.seed(9)
        assert state.frontier_empty()
        assert state.modularity == float("inf")


class TestAddVertex:
    def test_allocates_all_member_edges(self, triangle):
        state, residual = make_state(triangle)
        state.seed(0)
        allocated, truncated = state.add_vertex(1)
        assert (allocated, truncated) == (1, False)
        assert state.edges == [(0, 1)]
        assert state.internal == 1
        # external edges now: (0,2) and (1,2)
        assert state.external == 2

    def test_second_add_closes_triangle(self, triangle):
        state, residual = make_state(triangle)
        state.seed(0)
        state.add_vertex(1)
        allocated, truncated = state.add_vertex(2)
        assert allocated == 2
        assert state.internal == 3
        assert state.external == 0
        assert state.frontier_empty()
        assert residual.is_exhausted()

    def test_truncation_respects_max_edges(self, triangle):
        state, residual = make_state(triangle)
        state.seed(0)
        state.add_vertex(1)
        allocated, truncated = state.add_vertex(2, max_edges=1)
        assert truncated is True
        assert allocated == 1
        assert state.internal == 2
        assert residual.num_edges == 1

    def test_invariant_no_internal_residual_edges(self, small_social):
        state, residual = make_state(small_social)
        state.seed(next(iter(small_social.vertices())))
        for _ in range(30):
            if state.frontier_empty():
                break
            v = state.select_stage2()
            state.add_vertex(v)
        for u, v in residual.edges():
            assert not (u in state.members and v in state.members)

    def test_external_count_matches_brute_force(self, small_social):
        state, residual = make_state(small_social)
        state.seed(next(iter(small_social.vertices())))
        for step in range(25):
            if state.frontier_empty():
                break
            v = state.select_stage1() if step % 2 else state.select_stage2()
            state.add_vertex(v)
            assert state.external == external_count_brute_force(state, residual)

    def test_frontier_is_exactly_external_endpoints(self, communities):
        state, residual = make_state(communities)
        state.seed(next(iter(communities.vertices())))
        for _ in range(20):
            if state.frontier_empty():
                break
            state.add_vertex(state.select_stage2())
        expected = {
            (v if u in state.members else u)
            for u, v in residual.edges()
            if (u in state.members) != (v in state.members)
        }
        assert expected == frontier_ids(state, residual)


class TestStage1Scores:
    def test_paper_fig6_example(self):
        """Fig. 6: N(P_k) = {a, e, g}; mu_s1(a)=0.4, mu_s1(e)=0.6, mu_s1(g)=0.5.

        We reconstruct a graph realising those ratios: members {b, c, d},
        candidates a, e, g.  mu_s1(v) = max_{member j adj v} |N(v) & N(j)| / |N(j)|.
        """
        # b: |N(b)|=5, 2 common with a          -> mu_s1(a) = 2/5 = 0.4
        # c: |N(c)|=5, 3 common with e          -> mu_s1(e) = 3/5 = 0.6
        # d: |N(d)|=4, 2 common with g          -> mu_s1(g) = 2/4 = 0.5
        a, b, c, d, e, g = "abcdeg"
        edges = [
            # members form a path b - c - d
            (b, c), (c, d),
            # candidate a: N(a) = {b, n1, n2}; N(b) = {c, a, n1, n2, n3}
            (a, b), (a, "n1"), (a, "n2"),
            (b, "n1"), (b, "n2"), (b, "n3"),
            # candidate e: N(e) = {c, d, m1, m2, g}; N(c) = {b, d, e, m1, m2}
            # common(e, c) = {d, m1, m2}
            (e, c), (e, d), (e, "m1"), (e, "m2"),
            (c, "m1"), (c, "m2"),
            # candidate g: N(g) = {d, e, m3}; N(d) = {c, e, g, m3}
            # common(g, d) = {e, m3}
            (g, d), (g, e), (g, "m3"),
            (d, "m3"),
        ]
        ids = {name: i for i, name in enumerate(sorted({v for edge in edges for v in edge}))}
        graph = Graph.from_edges([(ids[u], ids[v]) for u, v in edges])
        state, residual = make_state(graph)
        # Manually install members b, c, d (bypassing selection).
        state.seed(ids[b])
        state.add_vertex(ids[c])
        state.add_vertex(ids[d])
        state.flush_stage1_scores()
        f = state.frontier
        scores = {
            name: f._mu1[f._pos[residual.index_of[ids[name]]]] for name in (a, e, g)
        }
        assert scores[a] == pytest.approx(0.4)
        assert scores[e] == pytest.approx(0.6)
        assert scores[g] == pytest.approx(0.5)
        assert state.select_stage1() == ids[e]

    def test_flush_is_idempotent(self, small_social):
        state, _ = make_state(small_social)
        state.seed(next(iter(small_social.vertices())))
        state.flush_stage1_scores()
        v1 = state.frontier.select_stage1()
        state.flush_stage1_scores()
        assert state.frontier.select_stage1() == v1

    def test_original_scope_uses_full_graph(self, small_social):
        # Smoke test: both scopes run and select valid frontier vertices.
        for scope in ("residual", "original"):
            state, residual = make_state(small_social, scope)
            state.seed(next(iter(small_social.vertices())))
            v = state.select_stage1()
            assert in_frontier(state, residual, v)

    def test_invalid_scope_rejected(self, triangle):
        residual = CSRResidual(triangle)
        with pytest.raises(ValueError, match="similarity_scope"):
            CSRPartitionState(residual, "bogus")


class TestModularityTracking:
    def test_matches_definition_on_path(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        state, _ = make_state(g)
        state.seed(1)
        state.add_vertex(0)
        # E_in = 1 (edge 0-1); external = 1 (edge 1-2)
        assert state.modularity == 1.0

    def test_paper_fig5a_stage_boundary(self):
        """Fig. 5(a): |E(P_k)|=2, |E_out|=3 -> M=0.67 (Stage I)."""
        # P_k = {0,1,2} path 0-1-2 (2 internal), three external edges.
        g = Graph.from_edges(
            [(0, 1), (1, 2), (0, 3), (1, 4), (2, 5)]
        )
        state, _ = make_state(g)
        state.seed(0)
        state.add_vertex(1)
        state.add_vertex(2)
        assert state.internal == 2
        assert state.external == 3
        assert state.modularity == pytest.approx(2 / 3, abs=0.01)
