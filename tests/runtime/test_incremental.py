"""Tests for the incremental (delta-cached) gather mode."""

import pytest

from repro.core.tlp import TLPPartitioner
from repro.graph.generators import community_graph, path_graph
from repro.runtime.engine import GASEngine
from repro.runtime.programs import (
    ConnectedComponents,
    PageRank,
    SingleSourceShortestPaths,
)


@pytest.fixture(scope="module")
def setup():
    graph = community_graph(200, 1200, 5, 0.9, seed=4)
    partition = TLPPartitioner(seed=0).partition(graph, 5)
    return graph, partition


class TestIncrementalCorrectness:
    def test_cc_values_identical_to_full_mode(self, setup):
        """Exact-convergence programs are bit-identical under delta caching."""
        graph, partition = setup
        full = GASEngine(graph, partition, ConnectedComponents()).run()
        delta = GASEngine(graph, partition, ConnectedComponents()).run(
            incremental=True
        )
        assert delta.values == full.values
        assert delta.converged == full.converged
        assert delta.stats.num_supersteps == full.stats.num_supersteps

    def test_pagerank_within_tolerance_of_full_mode(self, setup):
        """Tolerance-based programs may drift by O(tolerance): skipped
        propagations are each below PageRank's 1e-10 convergence threshold."""
        graph, partition = setup
        full = GASEngine(graph, partition, PageRank()).run()
        delta = GASEngine(graph, partition, PageRank()).run(incremental=True)
        for v in full.values:
            assert delta.values[v] == pytest.approx(full.values[v], abs=1e-7)

    def test_sssp_identical(self, setup):
        graph, partition = setup
        source = next(iter(graph.vertices()))
        program = SingleSourceShortestPaths(source)
        full = GASEngine(graph, partition, program).run()
        delta = GASEngine(
            graph, partition, SingleSourceShortestPaths(source)
        ).run(incremental=True)
        assert delta.values == full.values

    def test_incompatible_with_failures(self, setup):
        graph, partition = setup
        with pytest.raises(ValueError, match="failure injection"):
            GASEngine(graph, partition, PageRank()).run(
                incremental=True, fail_at=[2]
            )


class TestIncrementalSavings:
    def test_first_superstep_matches_full(self, setup):
        graph, partition = setup
        full = GASEngine(graph, partition, ConnectedComponents()).run()
        delta = GASEngine(graph, partition, ConnectedComponents()).run(
            incremental=True
        )
        assert (
            delta.stats.supersteps[0].gather_messages
            == full.stats.supersteps[0].gather_messages
        )

    def test_gather_traffic_shrinks_as_cc_converges(self, setup):
        graph, partition = setup
        delta = GASEngine(graph, partition, ConnectedComponents()).run(
            incremental=True
        )
        messages = [s.gather_messages for s in delta.stats.supersteps]
        assert messages[-1] < messages[0]
        # The final superstep changes no value, so nothing is scattered.
        assert delta.stats.supersteps[-1].scatter_messages == 0

    def test_total_messages_never_exceed_full_mode(self, setup):
        graph, partition = setup
        full = GASEngine(graph, partition, ConnectedComponents()).run()
        delta = GASEngine(graph, partition, ConnectedComponents()).run(
            incremental=True
        )
        assert delta.stats.total_messages <= full.stats.total_messages

    def test_sssp_wavefront_messages_localised(self):
        """On a path, SSSP's change wavefront is O(1) wide, so incremental
        gather messages per superstep stay tiny."""
        graph = path_graph(60)
        partition = TLPPartitioner(seed=0).partition(graph, 4)
        program = SingleSourceShortestPaths(0)
        result = GASEngine(graph, partition, program).run(incremental=True)
        mid_run = [s.gather_messages for s in result.stats.supersteps[2:-1]]
        assert mid_run and max(mid_run) <= 4
