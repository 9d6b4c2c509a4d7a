import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collitest.dist import Distribution, l1_distance, make_bump, make_heavy, make_uniform
from collitest.errors import CapacityError
from collitest.graph import (ComparisonGraph, make_clique, make_clique_union,
                             make_cycle, make_disjoint_cliques, make_matching,
                             make_star)
from collitest.rng import Stream
from collitest import tester
from collitest.tester import (SMALL_BLOCK, TesterSpec, block_collisions,
                              count_collisions, draw_labeling, evaluate,
                              exact_error_probability, expected_collisions,
                              row_collisions, run, threshold,
                              variance_collisions, within_clique_collisions)


def enum_error_oracle(spec, p):
    """Independent pure-python enumeration of the exact error mass."""
    n = p.n
    nv = spec.graph.vertex_count
    edges = [tuple(e) for e in spec.graph.edges.tolist()]
    t = spec.graph.edge_count * (1 + spec.tau * spec.eps**2) / spec.n
    uniform = l1_distance(p, make_uniform(n)) <= 1e-12
    error = 0.0
    for labels in itertools.product(range(1, n + 1), repeat=nv):
        weight = math.prod(p.probs[v - 1] for v in labels)
        z = sum(labels[u] == labels[v] for u, v in edges)
        wrong = z >= t if uniform else z < t
        if wrong:
            error += weight
    return error


def strip_blocks(graph):
    """Same graph, no clique metadata: forces the generic edge counter."""
    return ComparisonGraph(graph.vertex_count, graph.edges.tolist())


class TestCountCollisions:
    def test_all_equal_on_k4(self):
        assert count_collisions(make_clique(4), np.array([2, 2, 2, 2])) == 6

    def test_all_distinct(self):
        assert count_collisions(make_clique(4), np.array([1, 2, 3, 4])) == 0

    def test_triangle_single_pair(self):
        assert count_collisions(make_clique(3), np.array([1, 1, 2])) == 1

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            count_collisions(make_clique(3), np.array([1, 1]))

    def test_fast_paths_agree_with_generic(self):
        gen = Stream(21).rng()
        graphs = [make_clique(5), make_clique(70), make_matching(6),
                  make_disjoint_cliques(4, 7), make_clique_union([5, 0, 3, 1, 2])]
        for g in graphs:
            plain = strip_blocks(g)
            for _ in range(25):
                values = gen.integers(1, 5, size=g.vertex_count)
                assert count_collisions(g, values) == count_collisions(plain, values)


def equal_pairs(values):
    """Independent pure-python count of the equal pairs among `values`."""
    return sum(c * (c - 1) // 2 for c in Counter(values.tolist()).values())


class TestCliqueKernels:
    @pytest.mark.parametrize("values, want", [
        (np.array([], dtype=np.int64), 0),
        (np.array([5]), 0),
        (np.array([0]), 0),
        (np.full(2, 3), 1),
        (np.zeros(3, dtype=np.int64), 3),
        (np.full(1000, 7), 499_500),
    ], ids=["empty", "one-value", "one-zero", "two-equal", "three-zeros",
            "all-equal-1000"])
    def test_within_clique_edge_cases(self, values, want):
        got = within_clique_collisions(values)
        assert type(got) is int and got == want

    def test_within_clique_matches_pair_count(self):
        gen = np.random.default_rng(23)
        for high in (1, 2, 50, 10**6):
            for size in (2, 65, 4450):
                values = gen.integers(0, high, size=size)
                assert within_clique_collisions(values) == equal_pairs(values)

    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(0, 12),
           width=st.one_of(st.sampled_from([0, 1, 2]),
                           st.integers(0, SMALL_BLOCK)),
           high=st.one_of(st.sampled_from([1, 2, 5, 1024, 2**40]),
                          st.integers(1, 2**40)),
           seed=st.integers(0, 2**32))
    def test_row_collisions_match_a_pair_count_per_row(self, rows, width, high,
                                                       seed):
        """From one value (a single chain of hits a row) to 2**40 values (no
        hits), each row's count is its brute-force pair count."""
        values = np.random.default_rng(seed).integers(1, high + 1,
                                                      size=(rows, width))
        got = row_collisions(values)
        assert got.dtype == np.int64 and got.shape == (rows,)
        # ranks keep equality and let the bincount kernel take 2**40 values
        assert got.tolist() == [
            within_clique_collisions(np.unique(r, return_inverse=True)[1])
            for r in values]
        if high == 1:
            assert got.tolist() == [width * (width - 1) // 2] * rows

    @pytest.mark.parametrize("base", [0, 1])
    def test_equal_large_blocks_match_per_block_counts(self, base):
        """Equal blocks above SMALL_BLOCK take the keyed route, dense and
        sparse; each block's count is its lone-clique count."""
        gen = np.random.default_rng(31 + base)
        for blocks in (2, 3, 16, 64):
            for size in (SMALL_BLOCK + 1, 681):
                for high in (2, 1024, 10**6):
                    values = gen.integers(base, base + high, size=blocks * size)
                    # one block of one repeated value
                    b = blocks // 2
                    values[b * size:(b + 1) * size] = values[b * size]
                    got = block_collisions(values, [size] * blocks)
                    parts = values.reshape(blocks, size)
                    assert got.dtype == np.int64
                    assert got.tolist() == [within_clique_collisions(r)
                                            for r in parts]
                    assert got.tolist() == [equal_pairs(r) for r in parts]
                    assert got[b] == size * (size - 1) // 2


class TestThreshold:
    def test_hundred_edges_substitution(self):
        spec = TesterSpec(make_star(100), 0.5, 10, 1.0)  # |E| = 100
        assert threshold(spec) == pytest.approx(15.0)

    def test_tau_zero_collapses(self):
        spec = TesterSpec(make_clique(5), 0.0, 7, 1.0)
        assert threshold(spec) == pytest.approx(10 / 7)

    def test_small_tau_value(self):
        spec = TesterSpec(make_clique(4), 1 / 9, 4, 0.5)
        assert threshold(spec) == pytest.approx(6 * (1 + 0.25 / 9) / 4)
        assert threshold(spec) == pytest.approx(1.5417, abs=5e-5)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1),
           st.floats(min_value=0.01, max_value=1.0))
    def test_monotone_in_tau(self, t1, t2, eps):
        lo, hi = sorted((t1, t2))
        if (hi - lo) * eps * eps < 1e-12:
            return
        g = make_clique(6)
        assert (threshold(TesterSpec(g, lo, 9, eps))
                < threshold(TesterSpec(g, hi, 9, eps)))


class TestSpecValidation:
    def test_rejects_tau_outside_unit(self):
        with pytest.raises(ValueError):
            TesterSpec(make_clique(3), 1.5, 4, 1.0)

    def test_rejects_eps_zero(self):
        with pytest.raises(ValueError):
            TesterSpec(make_clique(3), 0.5, 4, 0.0)

    def test_rejects_edgeless_graph(self):
        with pytest.raises(ValueError):
            TesterSpec(ComparisonGraph(3, []), 0.5, 4, 1.0)


class TestRun:
    def test_point_mass_rejected(self):
        p = Distribution([1.0] + [0.0] * 7)
        spec = TesterSpec(make_clique(6), 0.5, 8, 1.0)
        out = run(spec, p, Stream(3).child(0))
        assert out.z == spec.graph.edge_count
        assert out.decision == "NO"

    def test_trivial_domain_accepts(self):
        spec = TesterSpec(make_clique(5), 0.5, 1, 1.0)
        out = run(spec, make_uniform(1), Stream(3).child(1))
        assert out.z == 10
        assert out.t > 10
        assert out.decision == "YES"

    def test_rejects_domain_mismatch(self):
        spec = TesterSpec(make_clique(5), 0.5, 4, 1.0)
        with pytest.raises(ValueError):
            run(spec, make_uniform(5), Stream(0))

    def test_decision_boundary_is_strict(self):
        spec = TesterSpec(make_clique(4), 0.5, 3, 1.0)
        t = threshold(spec)
        need = math.ceil(t)
        for values in itertools.product(range(1, 4), repeat=4):
            z = count_collisions(spec.graph, np.array(values))
            out = evaluate(spec, np.array(values))
            if z == need:
                assert out.decision == "NO"
            if z == 0:
                assert out.decision == "YES"

    def test_tie_goes_to_no(self):
        # |E| = 2, tau = 1, eps = 1, n = 2 -> T = 2.0; a labeling with Z = 2 ties
        spec = TesterSpec(make_matching(2), 1.0, 2, 1.0)
        out = evaluate(spec, np.array([1, 1, 2, 2]))
        assert out.z == 2 and out.t == 2.0 and out.decision == "NO"

    def test_big_clique_accepts_uniform_mostly(self):
        n, eps = 100, 0.5
        q = math.ceil(100 * math.sqrt(n) / eps**2)
        spec = TesterSpec(make_clique(q), 0.5, n, eps)
        p = make_uniform(n)
        yes = sum(run(spec, p, Stream(41).child(t)).decision == "YES"
                  for t in range(2000))
        assert yes / 2000 >= 0.75

    def test_outcome_fields(self):
        spec = TesterSpec(make_clique(3), 0.5, 4, 1.0)
        out = evaluate(spec, np.array([1, 2, 3]))
        assert (out.z, out.t, out.decision) == (0, 3 * 1.5 / 4, "YES")


def words_from(p, stream, start, count):
    """`count` samples from raw word `start` on of the trial stream."""
    gen = stream.rng()
    gen.bit_generator.advance(start)
    return p.sample(count, gen)


class TestLabelingConvention:
    def test_owned_graph_uses_per_owner_streams(self):
        """Each owner's stream is its own word range of the trial
        generator, in owner order."""
        g = make_disjoint_cliques(3, 2)
        p = make_uniform(9)
        stream = Stream(8).child(4)
        lab = draw_labeling(g, p, stream)
        assert np.array_equal(lab[:3], words_from(p, stream, 0, 3))
        assert np.array_equal(lab[3:], words_from(p, stream, 3, 3))

    def test_unowned_graph_is_owner_zero(self):
        g = make_star(4)
        p = make_uniform(9)
        stream = Stream(8).child(5)
        lab = draw_labeling(g, p, stream)
        assert np.array_equal(lab, p.sample(5, stream.rng()))

    def test_interleaved_owners_match_per_owner_scans(self):
        """Owner ids out of vertex order, with gaps, and a lone vertex."""
        owner = [5, 0, 5, 2, 0, 5, 2, 2, 0, 9]
        edges = [(0, 2), (2, 5), (1, 4), (4, 8), (3, 6), (6, 7)]
        g = ComparisonGraph(10, edges, owner=owner)
        p = make_uniform(7)
        for trial in range(3):
            stream = Stream(31).child(trial)
            want = np.empty(10, dtype=np.int64)
            start = 0
            for oid in np.unique(g.owner):  # owners in id order, one range each
                idx = np.nonzero(g.owner == oid)[0]
                want[idx] = words_from(p, stream, start, idx.size)
                start += idx.size
            got = draw_labeling(g, p, stream)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


class TestMoments:
    def test_expected_uniform(self):
        g = make_star(7)
        assert expected_collisions(g, make_uniform(10)) == pytest.approx(0.7)

    def test_expected_point_mass(self):
        g = make_cycle(5)
        p = Distribution([1.0, 0.0])
        assert expected_collisions(g, p) == pytest.approx(5.0)

    def test_expected_bump_triangle(self):
        assert expected_collisions(make_clique(3), make_bump(4, 0.5)) == pytest.approx(0.9375)

    def test_variance_uniform_collapses(self):
        n = 6
        g = make_clique(5)
        assert variance_collisions(g, make_uniform(n)) == pytest.approx(
            g.edge_count * (n - 1) / n**2)

    def test_variance_matching_drops_dependency_term(self):
        p = make_bump(8, 0.75)
        mu = p.collision_probability()
        g = make_matching(9)
        assert variance_collisions(g, p) == pytest.approx(9 * (mu - mu * mu))

    def test_variance_triangle_bump_matches_moment_oracle(self):
        p = make_bump(4, 0.5)
        mu = sum(x * x for x in p.probs)
        gamma = sum(x**3 for x in p.probs)
        want = 3 * (mu - mu * mu) + 6 * (gamma - mu * mu)
        got = variance_collisions(make_clique(3), p)
        assert got == pytest.approx(want)
        assert got == pytest.approx(0.71484375)

    def test_monte_carlo_mean_and_variance(self):
        g = make_disjoint_cliques(3, 3)
        p = make_heavy(6, 0.5)
        zs = tester.collision_counts_batch(g, p, 60_000, Stream(77).child(0))
        want_mean = expected_collisions(g, p)
        want_var = variance_collisions(g, p)
        assert abs(zs.mean() - want_mean) <= 4 * math.sqrt(want_var / 60_000)
        assert abs(zs.var(ddof=1) - want_var) <= 0.1 * want_var


class TestExactError:
    def test_trivial_domain_never_errs(self):
        spec = TesterSpec(make_clique(3), 0.5, 1, 1.0)
        assert exact_error_probability(spec, make_uniform(1)) == 0.0

    def test_single_edge_coin_flip(self):
        spec = TesterSpec(make_matching(1), 0.5, 2, 1.0)
        assert exact_error_probability(spec, make_uniform(2)) == pytest.approx(0.5)

    def test_matches_pure_python_enumeration(self):
        cases = [
            (TesterSpec(make_clique(3), 0.5, 3, 1.0), make_uniform(3)),
            (TesterSpec(make_clique(3), 0.5, 3, 1.0), make_heavy(3, 1.0)),
            (TesterSpec(make_matching(2), 0.25, 4, 1.0), make_bump(4, 1.0)),
            (TesterSpec(make_star(3), 0.75, 3, 0.5), make_heavy(3, 0.5)),
            (TesterSpec(make_cycle(4), 0.4, 3, 1.0), make_uniform(3)),
        ]
        for spec, p in cases:
            assert exact_error_probability(spec, p) == pytest.approx(
                enum_error_oracle(spec, p), abs=1e-12)

    def test_clique_union_builds_no_edges(self):
        graph = make_clique_union([3, 0, 2])
        copy = ComparisonGraph(graph.vertex_count, make_clique_union([3, 0, 2]).edges)
        for p in (make_uniform(3), make_heavy(3, 1.0)):
            got = exact_error_probability(TesterSpec(graph, 0.5, 3, 1.0), p)
            want = exact_error_probability(TesterSpec(copy, 0.5, 3, 1.0), p)
            assert graph._edges is None
            assert got == want

    def test_k3_uniform_frozen_value(self):
        spec = TesterSpec(make_clique(3), 0.5, 3, 1.0)
        # 27 labelings: Z = 3 on the three constant ones, T = 1.5
        assert exact_error_probability(spec, make_uniform(3)) == pytest.approx(3 / 27)

    def test_capacity_cap(self):
        spec = TesterSpec(make_clique(30), 0.5, 10, 1.0)
        with pytest.raises(CapacityError):
            exact_error_probability(spec, make_uniform(10))

    def test_agrees_with_monte_carlo(self):
        spec = TesterSpec(make_clique(3), 0.5, 3, 1.0)
        for p in (make_uniform(3), make_heavy(3, 1.0)):
            exact = exact_error_probability(spec, p)
            trials = 10_000
            mc = tester.monte_carlo_error(spec, p, trials, Stream(5))
            sigma = math.sqrt(max(exact * (1 - exact), 1e-9) / trials)
            assert abs(mc - exact) <= 3 * sigma
