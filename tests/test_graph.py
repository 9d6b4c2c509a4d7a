import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collitest.conditions import plan_centralized
from collitest.graph import (ComparisonGraph, check_graph_inequalities,
                             graph_power, make_bipartite, make_clique,
                             make_clique_union, make_cycle,
                             make_disjoint_cliques, make_matching, make_path,
                             make_star, random_connected_graph,
                             random_simple_graph, two_path_count)
from collitest.rng import Stream


def brute_two_paths(graph):
    """Ordered pairs of distinct edges sharing exactly one vertex."""
    edges = [tuple(e) for e in graph.edges.tolist()]
    count = 0
    for e1, e2 in itertools.permutations(edges, 2):
        if len(set(e1) & set(e2)) == 1:
            count += 1
    return count


def corpus_small(seed=123):
    graphs = [make_clique(3), make_clique(4), make_matching(3), make_star(3),
              make_star(5), make_cycle(5), make_cycle(6),
              make_disjoint_cliques(3, 2), make_bipartite(2, 3), make_path(6),
              make_clique_union([3, 2, 0, 4])]
    gen = Stream(seed).rng()
    for _ in range(20):
        nv = int(gen.integers(2, 13))
        graphs.append(random_simple_graph(nv, float(gen.random()), gen))
    return graphs


class TestConstructors:
    def test_triangle(self):
        g = make_clique(3)
        assert (g.vertex_count, g.edge_count, g.two_path_count) == (3, 3, 6)

    def test_matching_has_no_two_paths(self):
        g = make_matching(4)
        assert g.two_path_count == 0
        assert g.edge_count == 4

    def test_star_three_edges(self):
        g = make_star(3)
        assert g.edge_count == 3
        assert g.two_path_count == 6

    def test_disjoint_cliques_example(self):
        g = make_disjoint_cliques(3, 2)
        assert (g.vertex_count, g.edge_count, g.two_path_count) == (6, 6, 12)
        assert g.owner.tolist() == [0, 0, 0, 1, 1, 1]

    def test_bipartite_one_sided_is_a_star(self):
        g = make_bipartite(1, 5)
        s = make_star(5)
        assert (g.edge_count, g.two_path_count) == (s.edge_count, s.two_path_count) == (5, 20)

    def test_cycle_example(self):
        g = make_cycle(5)
        assert (g.edge_count, g.two_path_count) == (5, 10)

    def test_minimum_sizes_rejected(self):
        with pytest.raises(ValueError):
            make_clique(1)
        with pytest.raises(ValueError):
            make_cycle(2)
        with pytest.raises(ValueError):
            make_star(0)
        with pytest.raises(ValueError):
            make_matching(0)
        with pytest.raises(ValueError):
            make_bipartite(0, 3)
        with pytest.raises(ValueError):
            make_disjoint_cliques(3, 0)

    def test_cached_stats_match_recomputation(self):
        for g in corpus_small():
            rebuilt = ComparisonGraph(g.vertex_count, g.edges.tolist())
            assert rebuilt.edge_count == g.edge_count
            assert rebuilt.two_path_count == g.two_path_count
            assert np.array_equal(rebuilt.degrees, g.degrees)


class TestValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            ComparisonGraph(3, [(0, 0)])

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError):
            ComparisonGraph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ComparisonGraph(2, [(0, 2)])

    def test_rejects_cross_owner_edges(self):
        with pytest.raises(ValueError):
            ComparisonGraph(4, [(0, 1), (1, 2)], owner=[0, 0, 1, 1])

    def test_owner_must_cover_vertices(self):
        with pytest.raises(ValueError):
            ComparisonGraph(3, [(0, 1)], owner=[0, 0])

    def test_clique_blocks_must_describe_edges(self):
        with pytest.raises(ValueError):
            ComparisonGraph(4, [(0, 1)], clique_blocks=[(0, 2), (2, 4)])

    def test_owner_must_be_constant_on_each_block(self):
        with pytest.raises(ValueError):
            ComparisonGraph(4, clique_blocks=[(0, 2), (2, 4)], owner=[0, 1, 1, 1])
        g = ComparisonGraph(4, clique_blocks=[(0, 2), (2, 4)], owner=[0, 0, 1, 1])
        assert g.owner.tolist() == [0, 0, 1, 1]
        assert make_clique_union([2, 0, 2]).owner.tolist() == [0, 0, 2, 2]

    def test_json_roundtrip(self):
        g = make_disjoint_cliques(3, 2)
        h = ComparisonGraph.from_json(g.to_json())
        assert np.array_equal(h.edges, g.edges)
        assert np.array_equal(h.owner, g.owner)
        assert h.two_path_count == g.two_path_count


class TestBlockGraphs:
    def test_planned_clique_builds_no_edge_array(self):
        tracemalloc.start()
        try:
            g = plan_centralized(256, 0.5).build_graph()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.edge_count > 9_000_000
        assert peak < 1 << 20

    @pytest.mark.parametrize("graph, sizes", [
        (make_clique_union([5, 0, 3, 1, 2]), [5, 0, 3, 1, 2]),
        (make_matching(3), [2, 2, 2]),
    ])
    def test_lazy_edges_equal_explicit_construction(self, graph, sizes):
        chunks, offset = [], 0
        for s in sizes:
            u, v = np.triu_indices(s, k=1)
            chunks.append(np.column_stack((u, v)) + offset)
            offset += s
        expected = np.concatenate(chunks)
        assert np.array_equal(graph.edges, expected)
        assert graph.edges.dtype == np.int32
        assert not graph.edges.flags.writeable
        assert graph.edge_count == len(expected)

    def test_adjacency_matches_edge_loop(self):
        isolated = [make_clique_union([5, 0, 3, 1, 2]), ComparisonGraph(0, [])]
        for g in corpus_small() + isolated:
            neigh = [[] for _ in range(g.vertex_count)]
            for u, v in g.edges.tolist():
                neigh[u].append(v)
                neigh[v].append(u)
            got = g.adjacency()
            assert len(got) == g.vertex_count
            for xs, arr in zip(neigh, got):
                assert arr.dtype == np.int64
                assert arr.tolist() == sorted(xs)


class TestTwoPathCount:
    def test_matches_brute_force_on_corpus(self):
        for g in corpus_small():
            assert two_path_count(g) == brute_two_paths(g), g

    def test_zero_iff_max_degree_le_one(self):
        for g in corpus_small():
            assert (g.two_path_count == 0) == (g.degrees.max(initial=0) <= 1)


class TestGraphPower:
    def test_power_one_is_identity(self):
        g = make_cycle(7)
        h = graph_power(g, 1)
        assert np.array_equal(h.edges, g.edges)

    def test_path_squared_is_triangle(self):
        g = make_path(3)
        h = graph_power(g, 2)
        assert h.edge_count == 3
        assert h.two_path_count == 6

    def test_cycle6_cubed_is_k6(self):
        h = graph_power(make_cycle(6), 3)
        k6 = make_clique(6)
        assert np.array_equal(h.edges, k6.edges)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            graph_power(make_cycle(3), 0)

    def test_owner_dropped(self):
        g = make_disjoint_cliques(3, 2)
        assert graph_power(g, 2).owner is None

    def test_monotone_in_t(self):
        gen = Stream(5).rng()
        for _ in range(10):
            g = random_connected_graph(int(gen.integers(3, 15)), gen)
            prev = set(map(tuple, graph_power(g, 1).edges.tolist()))
            for t in (2, 3):
                cur = set(map(tuple, graph_power(g, t).edges.tolist()))
                assert prev <= cur
                prev = cur


class TestInequalities:
    def test_k4_values(self):
        rep = check_graph_inequalities(make_clique(4))
        assert rep.edge_bound.lhs == 6 and rep.edge_bound.rhs == 8
        assert rep.vertex_bound.rhs == pytest.approx(4 * 36 / (12 + 24))
        assert rep.two_path_bound.lhs == 24
        assert rep.all_passed

    def test_matching_vacuous_dense_item(self):
        rep = check_graph_inequalities(make_matching(3))
        assert rep.two_path_bound.vacuous
        assert rep.vertex_bound.lhs == 6
        assert rep.vertex_bound.rhs == pytest.approx(36 / 6)
        assert rep.all_passed

    def test_single_edge(self):
        rep = check_graph_inequalities(ComparisonGraph(2, [(0, 1)]))
        assert rep.vertex_bound.rhs == pytest.approx(2.0)
        assert rep.all_passed

    def test_holds_on_random_corpus(self):
        gen = Stream(99).rng()
        for _ in range(100):
            nv = int(gen.integers(1, 51))
            g = random_simple_graph(nv, float(gen.random()), gen)
            assert check_graph_inequalities(g).all_passed


class TestGenerators:
    def test_random_simple_is_seeded(self):
        a = random_simple_graph(20, 0.3, Stream(7).rng())
        b = random_simple_graph(20, 0.3, Stream(7).rng())
        assert np.array_equal(a.edges, b.edges)

    def test_random_connected_is_connected(self):
        gen = Stream(13).rng()
        for _ in range(20):
            g = random_connected_graph(int(gen.integers(1, 30)), gen)
            seen = {0}
            frontier = [0]
            adjacency = g.adjacency()
            while frontier:
                nxt = []
                for u in frontier:
                    for v in adjacency[u]:
                        if int(v) not in seen:
                            seen.add(int(v))
                            nxt.append(int(v))
                frontier = nxt
            assert len(seen) == g.vertex_count


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.floats(min_value=0, max_value=1),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_inequalities_property(nv, p, seed):
    g = random_simple_graph(nv, p, Stream(seed).rng())
    assert check_graph_inequalities(g).all_passed
