"""Property-based tests: serialization round-trips."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import erdos_renyi_gnm
from repro.partitioning.registry import make_partitioner
from repro.partitioning.serialization import load_partition, save_partition


@st.composite
def arbitrary_partition(draw):
    n = draw(st.integers(min_value=2, max_value=25))
    max_m = n * (n - 1) // 2
    m = draw(st.integers(min_value=1, max_value=min(max_m, 60)))
    graph = erdos_renyi_gnm(n, m, seed=draw(st.integers(0, 2**31)))
    p = draw(st.integers(min_value=1, max_value=6))
    name = draw(st.sampled_from(["TLP", "Random", "Greedy"]))
    partition = make_partitioner(name, seed=draw(st.integers(0, 50))).partition(
        graph, p
    )
    return graph, partition


@given(arbitrary_partition())
@settings(max_examples=25, deadline=None)
def test_serialization_round_trip(tmp_path_factory, gp):
    graph, partition = gp
    directory = tmp_path_factory.mktemp("bundle")
    save_partition(partition, directory)
    loaded = load_partition(directory)
    assert loaded.num_partitions == partition.num_partitions
    for k in range(partition.num_partitions):
        assert sorted(loaded.edges_of(k)) == sorted(partition.edges_of(k))
