"""Additional coverage for figure builders and the report module."""

import math

from repro.bench.figures import TLPRSweep, fig8
from repro.bench.report import render_table
from repro.graph.generators import community_graph


class TestTLPRSweepEdgeCases:
    def test_no_interior_points(self):
        sweep = TLPRSweep("X", 4, 2.0, [0.0, 1.0], [3.0, 3.5])
        assert math.isnan(sweep.best_interior())
        assert sweep.endpoint_worst() == 3.5

    def test_no_endpoints(self):
        sweep = TLPRSweep("X", 4, 2.0, [0.3, 0.7], [2.5, 2.6])
        assert sweep.best_interior() == 2.5
        assert math.isnan(sweep.endpoint_worst())

    def test_render_contains_bars(self):
        sweep = TLPRSweep("X", 4, 2.0, [0.0, 0.5], [3.0, 2.5])
        out = sweep.render()
        assert "#" in out
        assert "p=4" in out


class TestFig8CustomAlgorithms:
    def test_subset_of_algorithms(self):
        graphs = {"A": community_graph(80, 400, 4, 0.9, seed=0)}
        data = fig8(graphs=graphs, algorithms=("Random",), p_values=(2,), seed=0)
        assert len(data.results) == 1
        assert data.results[0].algorithm == "Random"

    def test_progress_hook(self):
        seen = []
        graphs = {"A": community_graph(80, 400, 4, 0.9, seed=0)}
        fig8(
            graphs=graphs,
            algorithms=("Random",),
            p_values=(2,),
            seed=0,
            progress=seen.append,
        )
        assert len(seen) == 1


class TestRenderTablePrecision:
    def test_custom_precision(self):
        out = render_table(["x"], [[1.23456]], precision=1)
        assert "1.2" in out
        assert "1.23" not in out

    def test_mixed_types_row(self):
        out = render_table(["a", "b", "c"], [["s", 2, 3.14159]])
        assert "3.142" in out
