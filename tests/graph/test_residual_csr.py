"""Unit tests for the array-backed residual graph."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.graph.generators import holme_kim
from repro.graph.graph import Graph
from repro.graph.residual import ResidualGraph
from repro.graph.residual_csr import CSRResidual


class TestBuild:
    def test_structure_matches_graph(self, small_social):
        res = CSRResidual(small_social)
        assert res.num_vertices == small_social.num_vertices
        assert res.num_edges == small_social.num_edges
        assert len(res.indices) == 2 * small_social.num_edges
        for v in small_social.vertices():
            assert res.degree(v) == small_social.degree(v)
            assert res.neighbors(v) == sorted(small_social.neighbors(v))

    def test_rows_sorted(self, small_social):
        res = CSRResidual(small_social)
        for i in range(res.num_vertices):
            row = res.static_row(i)
            assert np.all(np.diff(row) > 0)

    def test_twin_is_involution(self, small_social):
        res = CSRResidual(small_social)
        assert np.array_equal(res.twin[res.twin], np.arange(len(res.indices)))
        # The twin of a slot in u's row pointing at v sits in v's row
        # pointing back at u.
        src = np.repeat(
            np.arange(res.num_vertices), np.diff(res.indptr)
        )
        assert np.array_equal(src[res.twin], res.indices)

    def test_non_contiguous_ids(self):
        g = Graph.from_edges([(100, 5), (5, 42), (42, 100), (7, 100)])
        res = CSRResidual(g)
        assert res.num_edges == 4
        assert res.neighbors(100) == [5, 7, 42]
        assert res.has_edge(5, 42) and not res.has_edge(5, 7)

    def test_from_adjacency_matches_constructor(self, small_social):
        direct = CSRResidual(small_social)
        built = CSRResidual.from_adjacency(
            list(small_social.vertices()),
            small_social.neighbors,
            small_social.num_edges,
        )
        assert np.array_equal(direct.indices, built.indices)
        assert np.array_equal(direct.twin, built.twin)
        assert direct._seed_pool == built._seed_pool

    def test_from_edges_matches_constructor(self):
        g = Graph.from_edges([(100, 5), (42, 5), (42, 100), (7, 100)], vertices=[3])
        built = CSRResidual.from_edges(
            np.array([[5, 100], [42, 5], [100, 42], [100, 7]]), [100, 5, 42, 7, 3]
        )
        direct = CSRResidual(g)
        for name in ("indptr", "indices", "twin", "ids", "live_deg"):
            assert np.array_equal(getattr(built, name), getattr(direct, name)), name
        assert built._seed_pool == direct._seed_pool
        assert built.num_edges == 4 and built.degree(3) == 0

    @pytest.mark.parametrize(
        "edges, vertices, message",
        [
            ([[1, 2], [2, 2]], [1, 2], "self loops"),
            ([[1, 2], [2, 1]], [1, 2], "distinct"),
            ([[1, 2], [2, 3]], [1, 2], "endpoint 3"),
            ([[1, 2]], [], "endpoint 1"),
        ],
    )
    def test_from_edges_rejects_bad_input(self, edges, vertices, message):
        with pytest.raises(ValueError, match=message):
            CSRResidual.from_edges(np.array(edges), np.array(vertices, dtype=np.int64))

    def test_empty(self):
        res = CSRResidual.from_edges(np.empty((0, 2), dtype=np.int64), [])
        assert res.num_vertices == 0 and res.is_exhausted()
        assert len(res.indices) == len(res.twin) == 0


class TestMutation:
    def test_kill_slots_updates_both_directions(self):
        g = Graph.from_edges([(0, 1), (0, 2), (1, 2)])
        res = CSRResidual(g)
        i = res.index_of[0]
        s = int(res.indptr[i])
        row = res.static_row(i)
        res.kill_slots(i, np.array([s, s + 1]), row[:2].copy())
        assert res.degree(0) == 0
        assert res.degree(1) == 1 and res.degree(2) == 1
        assert not res.has_edge(0, 1) and not res.has_edge(0, 2)
        assert res.has_edge(1, 2)
        assert res.num_edges == 1
        assert sorted(res.edges()) == [(1, 2)]

    def test_exhaustion(self):
        g = Graph.from_edges([(0, 1)])
        res = CSRResidual(g)
        assert not res.is_exhausted()
        i = res.index_of[0]
        res.kill_slots(i, np.array([int(res.indptr[i])]), res.static_row(i))
        assert res.is_exhausted()
        with pytest.raises(LookupError):
            res.sample_seed(random.Random(0))


class TestSeedSampling:
    def test_rng_stream_matches_reference(self):
        g = holme_kim(150, 3, 0.4, seed=9)
        ref = ResidualGraph(g)
        csr = CSRResidual(g)
        rng_ref, rng_csr = random.Random(42), random.Random(42)
        for _ in range(50):
            assert csr.sample_seed(rng_csr) == ref.sample_seed(rng_ref)
        assert rng_ref.random() == rng_csr.random()
