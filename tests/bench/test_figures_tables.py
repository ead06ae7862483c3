"""Tests for the figure/table builders (on tiny graphs for speed)."""

import pytest

from repro.bench.figures import TLPRSweep, fig8, tlp_r_sweep
from repro.bench.tables import Table4Data, render_table3, table4, table6
from repro.graph.generators import community_graph, holme_kim


@pytest.fixture(scope="module")
def tiny_graphs():
    return {
        "A": holme_kim(150, 4, 0.5, seed=0),
        "B": community_graph(150, 700, 4, 0.9, seed=1),
    }


@pytest.fixture(scope="module")
def fig8_data(tiny_graphs):
    return fig8(
        graphs=tiny_graphs,
        algorithms=("TLP", "METIS", "Random"),
        p_values=(2, 4),
        seed=0,
    )


class TestFig8:
    def test_grid_complete(self, fig8_data):
        assert len(fig8_data.results) == 2 * 2 * 3

    def test_rf_lookup(self, fig8_data):
        assert fig8_data.rf("A", "TLP", 2) >= 1.0

    def test_missing_cell_raises(self, fig8_data):
        with pytest.raises(KeyError):
            fig8_data.rf("A", "TLP", 99)

    def test_render_contains_all_datasets(self, fig8_data):
        out = fig8_data.render(2, algorithms=("TLP", "METIS", "Random"))
        assert "A" in out and "B" in out and "TLP" in out

    def test_random_is_worst(self, fig8_data):
        for dataset in ("A", "B"):
            for p in (2, 4):
                assert fig8_data.rf(dataset, "Random", p) >= fig8_data.rf(
                    dataset, "TLP", p
                )


class TestTable4:
    def test_from_fig8(self, fig8_data):
        data = table4(fig8_data=fig8_data)
        assert set(data.datasets) == {"A", "B"}
        assert data.p_values == [2, 4]
        for key, value in data.delta_rf.items():
            dataset, p = key
            expected = fig8_data.rf(dataset, "METIS", p) - fig8_data.rf(
                dataset, "TLP", p
            )
            assert value == pytest.approx(expected)

    def test_average_and_positive_fraction(self):
        data = Table4Data(
            delta_rf={("A", 2): 1.0, ("B", 2): -0.5},
            p_values=[2],
            datasets=["A", "B"],
        )
        assert data.average(2) == pytest.approx(0.25)
        assert data.positive_fraction(2) == 0.5

    def test_render_contains_average(self, fig8_data):
        out = table4(fig8_data=fig8_data).render()
        assert "Average" in out


class TestTLPRSweep:
    def test_sweep_shape(self, tiny_graphs):
        sweep = tlp_r_sweep(tiny_graphs["B"], "B", 4, r_values=(0.0, 0.5, 1.0), seed=0)
        assert sweep.r_values == [0.0, 0.5, 1.0]
        assert len(sweep.tlp_r_rf) == 3
        assert sweep.tlp_rf >= 1.0

    def test_best_interior_and_endpoints(self):
        sweep = TLPRSweep("X", 4, 2.0, [0.0, 0.5, 1.0], [3.0, 2.5, 3.2])
        assert sweep.best_interior() == 2.5
        assert sweep.endpoint_worst() == 3.2

    def test_render_lists_all_r(self, tiny_graphs):
        sweep = tlp_r_sweep(tiny_graphs["A"], "A", 2, r_values=(0.0, 1.0), seed=0)
        out = sweep.render()
        assert "R=0.0" in out and "R=1.0" in out and "TLP" in out


class TestTable6:
    def test_structure(self, tiny_graphs):
        data = table6(graphs=tiny_graphs, p_values=(2,), seed=0)
        assert set(data.datasets) == {"A", "B"}
        s1, s2 = data.mean_degrees[("A", 2)]
        assert s1 > 0
        assert s2 > 0

    def test_stage1_degrees_dominate(self, tiny_graphs):
        """The Table VI headline: Stage I picks much higher-degree vertices."""
        data = table6(graphs=tiny_graphs, p_values=(4,), seed=0)
        for dataset in data.datasets:
            s1, s2 = data.mean_degrees[(dataset, 4)]
            assert s1 > s2

    def test_render(self, tiny_graphs):
        out = table6(graphs=tiny_graphs, p_values=(2,), seed=0).render()
        assert "StageI" in out and "StageII" in out


class TestTable3:
    def test_render_contains_all_rows(self):
        out = render_table3()
        assert "email-Eu-core" in out
        assert "huapu" in out
        assert "4309321" in out
