"""Additional graph-substrate coverage: iterator semantics, views, reprs."""

from repro.graph.generators import holme_kim


class TestIterationSemantics:
    def test_edges_iterator_is_lazy(self, small_social):
        iterator = small_social.edges()
        first = next(iterator)
        assert isinstance(first, tuple)
        rest = list(iterator)
        assert len(rest) == small_social.num_edges - 1

    def test_vertices_iteration_order_stable(self, small_social):
        assert list(small_social.vertices()) == list(small_social.vertices())

    def test_vertex_list_is_copy(self, small_social):
        lst = small_social.vertex_list()
        lst.append(10**9)
        assert 10**9 not in small_social

    def test_edge_list_is_copy(self, triangle):
        lst = triangle.edge_list()
        lst.append((99, 100))
        assert not triangle.has_edge(99, 100)


class TestReprs:
    def test_graph_repr(self, triangle):
        assert "|V|=3" in repr(triangle)
        assert "|E|=3" in repr(triangle)


class TestSubgraphConsistency:
    def test_subgraph_of_subgraph(self, small_social):
        vertices = list(small_social.vertices())[:60]
        sub1 = small_social.subgraph(vertices)
        sub2 = sub1.subgraph(vertices[:30])
        for u, v in sub2.edges():
            assert small_social.has_edge(u, v)

    def test_full_subgraph_identity(self, small_social):
        sub = small_social.subgraph(small_social.vertices())
        assert sub.num_edges == small_social.num_edges
        assert sub.num_vertices == small_social.num_vertices

    def test_subgraph_degree_consistency(self):
        g = holme_kim(100, 3, 0.5, seed=5)
        keep = set(list(g.vertices())[:40])
        sub = g.subgraph(keep)
        for v in sub.vertices():
            expected = sum(1 for u in g.neighbors(v) if u in keep)
            assert sub.degree(v) == expected
