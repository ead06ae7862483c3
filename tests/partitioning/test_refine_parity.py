"""Parity suite: the array-backed refiner against the dict-state oracle.

``LocalSearchRefiner`` searches over one array-backed state (sorted edge
indices, a dense ``V x p`` incidence-count matrix, vectorised gain and
counter-move scoring).  ``tests/partitioning/refine_oracle.py`` keeps the
original dict-of-dicts search state and runs it under the same refiner.
Every case here asserts the two produce the identical partition (the
same ``edges_of(k)`` lists, in order) and identical ``RefineStats``
apart from the wall-clock ``seconds``:

* TLP and DBH outputs on the quick-scale G1–G5 stand-ins;
* the option grid (explicit capacity, slack, epsilon, move budget, swap
  limit, swaps off, a single pass) on a swap-heavy and a move-heavy input;
* hypothesis partitions over sparse, huge (beyond int64 too) and
  negative vertex ids, with empty partitions and ``p = 1``;
* the empty partition.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import load_dataset
from repro.partitioning.assignment import EdgePartition
from repro.partitioning.refine import _State, refine_partition
from repro.partitioning.registry import make_partitioner
from tests.partitioning.refine_oracle import refine_with_oracle

P = 8


def _assert_parity(partition, **options):
    refined, stats = refine_partition(partition, **options)
    expected, oracle_stats = refine_with_oracle(partition, **options)
    assert refined.num_partitions == expected.num_partitions
    for k in range(expected.num_partitions):
        assert refined.edges_of(k) == expected.edges_of(k), f"partition {k}"
    got = dataclasses.asdict(stats)
    want = dataclasses.asdict(oracle_stats)
    del got["seconds"], want["seconds"]
    assert got == want
    return stats


_INPUTS = {}


def _input(dataset, source):
    key = (dataset, source)
    if key not in _INPUTS:
        graph = load_dataset(dataset, scale=0.05, seed=0)
        _INPUTS[key] = make_partitioner(source, seed=0).partition(graph, P)
    return _INPUTS[key]


@pytest.mark.parametrize("source", ["TLP", "DBH"])
@pytest.mark.parametrize("dataset", ["G1", "G2", "G3", "G4", "G5"])
def test_stand_ins_match_oracle(dataset, source):
    _assert_parity(_input(dataset, source))


OPTION_GRID = [
    {"capacity": 1250},  # explicit: above every G4 stand-in part (~1.15k)
    {"slack": 1.1},
    {"epsilon": 0.002},
    {"swaps": False},
    {"max_passes": 1},
    {"slack": 1.1, "max_passes": 2},
]


@pytest.mark.parametrize("options", OPTION_GRID, ids=lambda o: repr(o))
@pytest.mark.parametrize("source", ["TLP", "DBH"])
def test_option_grid_matches_oracle(source, options):
    _assert_parity(_input("G4", source), **options)


def test_swap_heavy_input_exercises_swaps():
    """The G4/TLP stand-in really runs the swap phase (so parity covers it)."""
    stats = _assert_parity(_input("G4", "TLP"))
    assert stats.swaps > 0


# -- hypothesis: odd vertex ids, empty partitions, p = 1 ---------------------

_ID_FAMILIES = [
    st.integers(0, 60),  # dense
    st.integers(0, 10**9),  # sparse
    st.integers(-(10**6), 10**6),  # negative
    st.integers(2**62, 2**63 - 1),  # near the int64 edge
    st.integers(-(2**100), 2**100),  # beyond int64: object-array ranks
]


@st.composite
def odd_partitions(draw):
    ids = draw(
        st.sampled_from(_ID_FAMILIES).flatmap(
            lambda family: st.lists(family, min_size=2, max_size=30, unique=True)
        )
    )
    pairs = draw(
        st.sets(
            st.tuples(
                st.integers(0, len(ids) - 1), st.integers(0, len(ids) - 1)
            ).filter(lambda t: t[0] != t[1]),
            max_size=80,
        )
    )
    edges = sorted({tuple(sorted((ids[a], ids[b]))) for a, b in pairs})
    p = draw(st.integers(min_value=1, max_value=6))
    assignment = draw(
        st.lists(st.integers(0, p - 1), min_size=len(edges), max_size=len(edges))
    )
    return EdgePartition.from_assignment(edges, assignment, p)


ODD_OPTIONS = st.fixed_dictionaries(
    {
        "slack": st.sampled_from([1.0, 1.2]),
        "swaps": st.booleans(),
        "max_passes": st.integers(1, 5),
        "epsilon": st.sampled_from([0.0, 0.05]),
    }
)


@given(partition=odd_partitions(), options=ODD_OPTIONS)
@example(  # ids beyond int64 always take the object-array ranking
    partition=EdgePartition(
        [[(-(2**80), 2**70), (2**70, 2**71)], [(-(2**80), 2**71), (5, 2**70)]]
    ),
    options={"slack": 1.0, "swaps": True, "max_passes": 3, "epsilon": 0.0},
)
@settings(max_examples=150, deadline=None)
def test_random_partitions_match_oracle(partition, options):
    _assert_parity(partition, **options)


@pytest.mark.parametrize("p", [0, 1, 3])
def test_empty_partition_matches_oracle(p):
    stats = _assert_parity(EdgePartition([[] for _ in range(p)]))
    assert stats.covered_vertices == 0 and stats.applied == 0


def test_vectorised_scores_match_scalar():
    """``best_moves`` over every edge equals ``best_move`` edge by edge."""
    partition = _input("G3", "DBH")
    state = _State(partition, capacity=0, slack=1.0)
    state.sizes[0] = state.capacity  # one full partition: both ways differ
    edges = np.arange(len(state.epart))
    gain, target, free_gain, free_target = state.best_moves(edges)
    for edge in edges.tolist():
        assert state.best_move(edge, True) == (gain[edge], target[edge])
        assert state.best_move(edge, False) == (
            free_gain[edge],
            free_target[edge],
        )


def test_duplicate_edge_rejected_like_oracle():
    """An edge held by two partitions is refused with the same error."""
    partition = EdgePartition([[(0, 1), (1, 2)], [(2, 3), (0, 1)]])
    with pytest.raises(ValueError, match=r"edge \(0, 1\) assigned to") as got:
        refine_partition(partition)
    with pytest.raises(ValueError) as want:
        refine_with_oracle(partition)
    assert str(got.value) == str(want.value)
