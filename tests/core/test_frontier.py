"""Unit tests for the vectorised frontier (:class:`DenseFrontier`).

Vertices here are dense indices ``0..n-1``; a frontier entry's ``r`` is
read from the ``live_deg`` array on its first touch.
"""

import numpy as np

from repro.core.frontier import DenseFrontier


def touch(f, vs, live_deg):
    f.touch_and_increment_many(np.asarray(vs, dtype=np.int64), live_deg)


def build(entries, n=None):
    """entries: list of (vertex, c, r, mu1); every c >= 1."""
    n = n or max(v for v, *_ in entries) + 1
    f = DenseFrontier(n)
    live_deg = np.zeros(n, dtype=np.int64)
    for v, c, r, mu1 in entries:
        live_deg[v] = r
        for _ in range(c):
            touch(f, [v], live_deg)
        f.raise_mu1_many(np.array([v]), np.array([mu1]))
    return f


def r_of(f, v):
    return int(f._r[f._pos[v]])


class TestStructure:
    def test_touch_idempotent(self):
        f = DenseFrontier(8)
        live_deg = np.full(8, 3, dtype=np.int64)
        touch(f, [5], live_deg)
        live_deg[5] = 99
        touch(f, [5], live_deg)  # must not reset r or add a second entry
        assert len(f) == 1
        assert f.c_of(5) == 2
        assert r_of(f, 5) == 3

    def test_contains_and_len(self):
        f = build([(1, 1, 2, 0.0), (2, 1, 2, 0.0)], n=4)
        assert 1 in f and 2 in f and 3 not in f
        assert len(f) == 2

    def test_remove_swaps_last(self):
        f = build([(1, 1, 2, 0.0), (2, 2, 3, 0.0), (3, 1, 1, 0.0)])
        f.remove(1)
        assert 1 not in f
        assert len(f) == 2
        assert f.c_of(2) == 2  # survivor data intact
        assert f.c_of(3) == 1
        assert sorted(f.members().tolist()) == [2, 3]

    def test_growth_beyond_initial_capacity(self):
        """The preallocated arrays hold every vertex of the universe."""
        f = DenseFrontier(500)
        touch(f, np.arange(500), np.ones(500, dtype=np.int64))
        assert len(f) == 500
        assert all(f.c_of(v) == 1 for v in range(500))

    def test_raise_mu1_is_monotone(self):
        f = build([(1, 1, 2, 0.5), (2, 1, 2, 0.4)])
        f.raise_mu1_many(np.array([1]), np.array([0.2]))  # lower: ignored
        assert f.select_stage1() == 1
        f.raise_mu1_many(np.array([1, 2]), np.array([0.3, 0.9]))
        assert f.select_stage1() == 2


class TestTouchAndIncrement:
    def test_new_vertex_computes_degree_once(self):
        """``r`` is sampled from ``live_deg`` on entry and never again."""
        f = DenseFrontier(8)
        live_deg = np.full(8, 7, dtype=np.int64)
        for later in (7, 1, 0):
            touch(f, [5], live_deg)
            live_deg[5] = later
        assert r_of(f, 5) == 7
        assert f.c_of(5) == 3

    def test_equivalent_to_touch_plus_increment(self):
        """Batched touches equal the same touches one vertex at a time."""
        live_deg = np.arange(10, 20, dtype=np.int64)
        a = DenseFrontier(10)
        b = DenseFrontier(10)
        for v in (3, 1, 3, 2, 1, 3):
            touch(a, [v], live_deg)
        for batch in ([3, 1, 2], [3, 1], [3]):
            touch(b, batch, live_deg)
        for v in (1, 2, 3):
            assert a.c_of(v) == b.c_of(v)
            assert r_of(a, v) == r_of(b, v) == live_deg[v]
        assert len(a) == len(b) == 3
        assert a.c_of(4) == b.c_of(4) == 0


class TestArgmaxFastPath:
    def test_unique_max_skips_tie_break(self):
        f = build([(1, 1, 2, 0.1), (2, 1, 2, 0.9), (3, 1, 2, 0.5)])
        assert f.select_stage1() == 2

    def test_all_equal_falls_back_to_full_tie_break(self):
        f = build([(9, 1, 3, 0.5), (4, 1, 5, 0.5), (7, 1, 5, 0.5)])
        # mu1 tie everywhere -> max r (4 and 7) -> min index (4).
        assert f.select_stage1() == 4

    def test_multiple_infinite_stage2_scores(self):
        # Two component-swallowing candidates with E_out = 4:
        # v5: den = 4 + 5 - 10 = -1 -> inf; v2: den = 4 + 4 - 8 = 0 -> inf.
        f = build([(5, 5, 5, 0.0), (2, 4, 4, 0.0)])
        # Both infinite -> tie broken by larger c: vertex 5.
        assert f.select_stage2(5, 4) == 5


class TestSelectStage1:
    def test_empty_returns_none(self):
        assert DenseFrontier(4).select_stage1() is None

    def test_max_mu1_wins(self):
        f = build([(1, 1, 5, 0.3), (2, 1, 1, 0.8), (3, 1, 9, 0.5)])
        assert f.select_stage1() == 2

    def test_tie_broken_by_degree(self):
        f = build([(1, 1, 2, 0.5), (2, 1, 7, 0.5), (3, 1, 4, 0.5)])
        assert f.select_stage1() == 2

    def test_full_tie_broken_by_lowest_id(self):
        f = build([(9, 1, 3, 0.5), (4, 1, 3, 0.5), (7, 1, 3, 0.5)])
        assert f.select_stage1() == 4


class TestSelectStage2:
    def test_empty_returns_none(self):
        assert DenseFrontier(4).select_stage2(1, 1) is None

    def test_maximises_new_modularity(self):
        # M' = (E_in + c) / (E_out + r - 2c); with E_in=5, E_out=4:
        # v1: c=1, r=2 -> 6/4 = 1.5 ; v2: c=3, r=6 -> 8/4 = 2.0
        f = build([(1, 1, 2, 0.0), (2, 3, 6, 0.0)])
        assert f.select_stage2(5, 4) == 2

    def test_paper_fig7_example(self):
        # Fig. 7: E_in=5, E_out=4; g: c=1, r=1 -> dM=0.25; e: c=3, r=4 -> dM=2.75
        f = build([(100, 1, 1, 0.0), (200, 3, 4, 0.0)])
        assert f.select_stage2(5, 4) == 200

    def test_component_swallow_beats_everything(self):
        # v1 closes the component: den = 4 + 2 - 2*3 = 0 -> M' = inf.
        f = build([(1, 3, 3, 0.0), (2, 1, 2, 0.0)])
        assert f.select_stage2(5, 4) == 1

    def test_tie_broken_by_larger_c(self):
        # Exactly equal scores with E_in=1, E_out=2:
        # v1: c=1,r=2 -> 2/2=1 ; v2: c=2,r=5 -> 3/3=1 -> tie, pick c=2 (v2)
        f = build([(1, 1, 2, 0.0), (2, 2, 5, 0.0)])
        assert f.select_stage2(1, 2) == 2

    def test_negative_gain_still_selects_best(self):
        # All candidates worsen modularity; the least-bad must be chosen.
        f = build([(1, 1, 9, 0.0), (2, 1, 4, 0.0)])
        # E_in=5, E_out=4: v1 -> 6/11, v2 -> 6/6=1.0 (still < 1.25)
        assert f.select_stage2(5, 4) == 2
