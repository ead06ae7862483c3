"""Smoke tests of the public API surface: everything documented imports and
composes the way README/USAGE show."""


class TestTopLevelImports:
    def test_readme_quickstart_surface(self):
        from repro import (
            EdgePartition,  # noqa: F401
            Graph,  # noqa: F401
            GraphBuilder,  # noqa: F401
            TLPPartitioner,
            TLPRPartitioner,  # noqa: F401
            make_partitioner,
            replication_factor,
        )

        assert callable(make_partitioner)
        assert callable(replication_factor)

    def test_version_string(self):
        import repro

        assert repro.__version__.count(".") == 2

    def test_subpackage_all_exports_resolve(self):
        import repro.bench
        import repro.core
        import repro.datasets
        import repro.graph
        import repro.partitioning
        import repro.runtime
        import repro.streaming
        import repro.utils

        for module in (
            repro.bench,
            repro.core,
            repro.datasets,
            repro.graph,
            repro.partitioning,
            repro.runtime,
            repro.streaming,
            repro.utils,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name} missing"


class TestUsageCookbookFlows:
    """The flows documented in docs/USAGE.md, executed end to end."""

    def test_partition_measure_flow(self, small_social):
        from repro import TLPPartitioner
        from repro.analysis.partition_stats import describe_partition
        from repro.partitioning.metrics import PartitionReport

        partition = TLPPartitioner(seed=0).partition(small_social, 8)
        report = PartitionReport.evaluate(partition, small_social)
        assert report.replication_factor >= 1.0
        assert sum(report.partition_sizes) == small_social.num_edges
        assert "modularity" in describe_partition(partition, small_social)

    def test_runtime_flow(self, communities):
        from repro import make_partitioner
        from repro.runtime import GASEngine, PageRank, estimate_makespan

        partition = make_partitioner("TLP", seed=0).partition(communities, 4)
        engine = GASEngine(communities, partition, PageRank())
        result = engine.run(max_supersteps=3)
        assert estimate_makespan(engine.machine_loads(), result.stats) > 0

    def test_streaming_flow(self, communities):
        import math

        from repro.core import WindowedLocalPartitioner
        from repro.streaming import edge_stream, windowed_stream

        edges = windowed_stream(edge_stream(communities, "random", seed=0), 64)
        p = 4
        window = max(math.ceil(len(edges) / p), 400)
        partition = WindowedLocalPartitioner(window_size=window, seed=0).assign_stream(
            iter(edges), p, total_edges=len(edges)
        )
        partition.validate_against(communities)

    def test_save_load_flow(self, small_social, tmp_path):
        from repro import TLPPartitioner
        from repro.partitioning import load_partition, save_partition

        partition = TLPPartitioner(seed=0).partition(small_social, 4)
        save_partition(partition, tmp_path / "bundle", metadata={"p": 4})
        loaded = load_partition(tmp_path / "bundle")
        loaded.validate_against(small_social)

    def test_refine_flow(self, communities):
        from repro.partitioning import RandomPartitioner, replication_factor
        from repro.partitioning.refine import LocalSearchRefiner

        rough = RandomPartitioner(seed=0, balanced=False).partition(communities, 6)
        refined, stats = LocalSearchRefiner(slack=1.1).refine(rough)
        assert replication_factor(refined, communities) <= replication_factor(
            rough, communities
        )
        refined.validate_against(communities)
