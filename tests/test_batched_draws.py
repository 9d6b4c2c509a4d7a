"""Batched per-path draws against one generator per path.

`sample_children`, the streaming simulators and `draw_node_samples` draw
many child streams together; every result here is compared bitwise with
the per-path loop it replaces, kept below as the reference.
"""
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collitest
from collitest import congest, dist, models, rng, tester
from collitest.conditions import (plan_asymmetric, plan_centralized,
                                  plan_simultaneous,
                                  plan_simultaneous_streaming, plan_streaming)
from collitest.dist import (Distribution, make_bump, make_heavy, make_uniform,
                            sample_children)
from collitest.graph import (ComparisonGraph, make_clique, make_clique_union,
                             make_star, random_connected_graph)
from collitest.harness import moment_audit
from collitest.models import (ResourceLedger, SimulationRun,
                              simulate_simultaneous_streaming,
                              simulate_streaming)
from collitest.rng import SHORT_ROW_WORDS, Stream, bounded_indices, child_raw
from collitest.tester import (count_collisions, row_collisions,
                              within_clique_collisions)

MASTER_SEEDS = (0, 2**32 - 1, 2**32 + 5, 2**70 + 3)
PARENTS = ((), (4,), (2**32 + 1, 7))
# the last two are drawn from their own generators
INDICES = (0, 1, 5, 2**32 - 1, 2**32, 2**40 + 3)


def families(n):
    out = [make_uniform(n)]
    if n % 2 == 0:
        out.append(make_bump(n, 0.5))
    if n >= 2:
        out.append(make_heavy(n, 0.5))
    return out


# --- the per-path reference loops -------------------------------------------

def reference_streaming(plan, p, stream):
    t = plan.threshold
    peak = (max(plan.clique_sizes) * plan.bits_per_sample
            + models.counter_bit_width(t))
    counter = drawn = 0
    early = False
    for c, size in enumerate(plan.clique_sizes):
        counter += within_clique_collisions(p.sample(size, stream.child(c).rng()))
        drawn += size
        if counter >= t:
            early = c + 1 < len(plan.clique_sizes)
            break
    ledger = ResourceLedger(samples=[drawn], message_bits=[],
                            memory_bits=[peak], early_terminated=early)
    return SimulationRun("YES" if counter < t else "NO", ledger, None,
                         counter, t)


def reference_simultaneous_streaming(plan, p, stream):
    t = plan.threshold
    peak = (max(plan.clique_sizes) * plan.bits_per_sample
            + models.counter_bit_width(t))
    base_bits = models.message_bit_width(t)
    z = [0] * plan.players
    samples = [0] * plan.players
    stopped = [False] * plan.players
    early = False
    for c, size in enumerate(plan.clique_sizes):
        player = plan.clique_players[c]
        if stopped[player]:
            early = True
            continue
        samples[player] += size
        z[player] += within_clique_collisions(p.sample(size, stream.child(c).rng()))
        stopped[player] = z[player] >= t
    decision, messages, total = models._referee(z, t, base_bits)
    ledger = ResourceLedger(samples=samples,
                            message_bits=[m.encoded_bits for m in messages],
                            memory_bits=[peak] * plan.players,
                            early_terminated=early)
    return SimulationRun(decision, ledger, messages, total, t)


def reference_node_samples(net, p, stream):
    return np.array([p.sample(1, stream.child(v).rng())[0]
                     for v in range(net.k)], dtype=np.int64)


def assert_same_run(got, want):
    assert (got.decision, got.z, got.threshold) == (want.decision, want.z,
                                                    want.threshold)
    assert json.dumps(got.ledger.to_json()) == json.dumps(want.ledger.to_json())
    assert got.messages == want.messages


# --- the batched draw -------------------------------------------------------

class TestSampleChildren:
    @pytest.mark.parametrize("n", [1, 2, 3, 1000, 1024, 4097])
    def test_rows_equal_per_path_draws(self, n):
        for p in families(n):
            for count in (0, 1, 2, 19, 20, 21):
                for seed in MASTER_SEEDS:
                    for parent in PARENTS:
                        stream = Stream(seed, parent)
                        got = sample_children(p, stream, INDICES, count)
                        assert got.shape == (len(INDICES), count)
                        for row, i in zip(got, INDICES):
                            want = p.sample(count, stream.child(i).rng())
                            assert row.dtype == want.dtype
                            assert np.array_equal(row, want), (n, count, seed,
                                                               parent, i)

    def test_raw_words_equal_random_raw(self):
        for seed in MASTER_SEEDS + (2**130 + 7,):
            for parent in PARENTS:
                stream = Stream(seed, parent)
                raw = child_raw(stream, [0, 3, 2**32 - 1], 7)
                for row, i in zip(raw, (0, 3, 2**32 - 1)):
                    want = stream.child(i).rng().bit_generator.random_raw(7)
                    assert np.array_equal(row, want)

    def test_raw_words_reject_indices_out_of_range(self):
        with pytest.raises(ValueError):
            child_raw(Stream(1), [2**32], 1)
        with pytest.raises(ValueError):
            child_raw(Stream(1), [-1], 1)

    def test_negative_index_raises_like_the_per_path_generator(self):
        with pytest.raises(ValueError):
            sample_children(make_uniform(8), Stream(1), [-1], 3)

    def test_rejected_rows_fall_back_to_their_generator(self, monkeypatch):
        real = dist.bounded_indices

        def reject_row_one(draws, n):
            idx, accepted = real(draws, n)
            accepted[1, 4] = False
            idx[1] = 0
            return idx, accepted

        monkeypatch.setattr(dist, "bounded_indices", reject_row_one)
        p, stream = make_heavy(1000, 0.5), Stream(5, (2,))
        got = sample_children(p, stream, [0, 1, 2], 9)
        for row, i in zip(got, (0, 1, 2)):
            assert np.array_equal(row, p.sample(9, stream.child(i).rng()))

    def test_bounded_indices_follow_generator_integers(self):
        """n = 2**31 + 1 rejects about half of all draws.

        numpy redraws a rejected draw from the same 32-bit stream, so the
        accepted draws, in order, are exactly what `integers` returns.
        """
        n = 2**31 + 1
        words = np.random.PCG64(7).random_raw(500)
        draws = np.empty(1000, dtype=np.uint32)
        draws[0::2] = words
        draws[1::2] = words >> np.uint64(32)
        idx, accepted = bounded_indices(draws, n)
        assert 0.4 < 1 - accepted.mean() < 0.6
        want = np.random.Generator(np.random.PCG64(7)).integers(
            0, n, size=int(accepted.sum()))
        assert np.array_equal(idx[accepted], want)

    def test_bounded_indices_refuse_ranges_numpy_maps_otherwise(self):
        for n in (1, 2**32):
            with pytest.raises(ValueError):
                bounded_indices(np.zeros(3, dtype=np.uint32), n)


def assert_rows_equal_random_raw(stream, indices, words):
    got = child_raw(stream, indices, words)
    assert got.dtype == np.uint64 and got.shape == (len(indices), words)
    for row, i in zip(got, indices):
        want = stream.child(i).rng().bit_generator.random_raw(words)
        assert np.array_equal(row, want), (stream, i, words)


class TestChildRawKernel:
    """Rows of at most SHORT_ROW_WORDS words come from the vectorised
    PCG64 pass, longer rows from one PCG64 each; both against numpy."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**200),
           path=st.lists(st.one_of(st.integers(0, 2**32 - 1),
                                   st.integers(2**32, 2**64)), max_size=3),
           indices=st.lists(st.one_of(st.sampled_from([0, 2**32 - 1]),
                                      st.integers(0, 2**32 - 1)),
                            min_size=1, max_size=8),
           words=st.one_of(st.integers(0, SHORT_ROW_WORDS + 8),
                           st.sampled_from([SHORT_ROW_WORDS,
                                            SHORT_ROW_WORDS + 1])))
    def test_fuzz_against_random_raw(self, seed, path, indices, words):
        assert_rows_equal_random_raw(Stream(seed, tuple(path)), indices, words)

    @pytest.mark.parametrize("words", [1, SHORT_ROW_WORDS - 1, SHORT_ROW_WORDS,
                                       SHORT_ROW_WORDS + 1])
    def test_both_sides_of_the_size_rule(self, words):
        stream = Stream(2**64 + 9, (3, 2**33))
        assert_rows_equal_random_raw(stream, [0, 1, 77, 2**32 - 1], words)

    def test_empty_indices_and_zero_words(self):
        for words in (0, 2, SHORT_ROW_WORDS + 5):
            out = child_raw(Stream(4), [], words)
            assert out.shape == (0, words) and out.dtype == np.uint64
        out = child_raw(Stream(4, (1,)), [0, 5], 0)
        assert out.shape == (2, 0) and out.dtype == np.uint64

    def test_table_grows_after_a_shorter_call(self, monkeypatch):
        monkeypatch.setattr(rng, "_JUMPS", np.zeros((2, 4, 0), dtype=np.uint64))
        stream = Stream(12, (6,))
        assert_rows_equal_random_raw(stream, [0, 9], 3)
        first = rng._JUMPS.shape[2]
        assert first >= 4
        assert_rows_equal_random_raw(stream, [0, 9, 10], SHORT_ROW_WORDS)
        assert rng._JUMPS.shape[2] > first
        assert_rows_equal_random_raw(stream, [4], 2)

    def test_post_seed_state_pins_numpy_seeding(self):
        """Step 0 of the kernel is the state PCG64 holds after seeding, and
        step 1 minus MULT times step 0 is its increment.  A change in how
        numpy seeds PCG64 fails here, not as drifted random values."""
        stream = Stream(2**70 + 3, (5,))
        indices = np.array([0, 1, 2**32 - 1])
        seeds = rng._child_seeds(stream, indices)
        hi, lo = rng._lcg_states(seeds, 0, 2)
        words = rng._SeedWords()
        for r, i in enumerate(indices):
            want = stream.child(int(i)).rng().bit_generator.state["state"]
            words.words = seeds[r]
            assert np.random.PCG64(words).state["state"] == want
            states = [int(hi[t, r]) << 64 | int(lo[t, r]) for t in (0, 1)]
            inc = (states[1] - rng._PCG_MULT * states[0]) % 2**128
            assert (states[0], inc) == (want["state"], want["inc"]), (
                "numpy's PCG64 seeding no longer matches rng._lcg_states")

    @pytest.mark.parametrize("rows, words", [(2000, SHORT_ROW_WORDS),
                                             (10**4, 2), (200, 300)])
    def test_transient_memory(self, rows, words):
        stream, indices = Stream(3, (1,)), np.arange(rows)
        child_raw(stream, indices[:1], words)  # warm up outside the trace
        tracemalloc.start()
        try:
            out = child_raw(stream, indices, words)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (out.nbytes + rows * 4 * 8)


class TestRowCollisions:
    def test_matches_bincount_per_row(self):
        gen = np.random.default_rng(3)
        for width in (0, 1, 2, 5, 20, 64):
            rows = gen.integers(1, 6, size=(40, width))
            got = row_collisions(rows)
            assert got.dtype == np.int64
            assert got.tolist() == [within_clique_collisions(r) for r in rows]


class TestCollisionCountsBatch:
    def test_large_clique_matches_count_collisions(self):
        g = make_clique(2000)
        p = make_uniform(64)
        stream = Stream(19).child(0)
        zs = tester.collision_counts_batch(g, p, 3, stream)
        values = p.sample(3 * 2000, stream.rng()).reshape(3, 2000)
        assert zs.tolist() == [count_collisions(g, row) for row in values]


# --- the simulators against the per-path loops -----------------------------

def point_mass(n):
    return Distribution([1.0] + [0.0] * (n - 1))


class TestStreamingMatchesPerPathLoop:
    @pytest.mark.parametrize("args", [(64, 1.0, 48), (1024, 0.5, 400),
                                      (256, 0.5, 1200), (1024, 0.5, 4000),
                                      (1024, 0.5, 40000)])
    def test_streaming(self, args):
        plan = plan_streaming(*args)
        n = plan.n
        early = 0
        for p in (make_uniform(n), make_bump(n, 0.5), make_heavy(n, 0.5),
                  point_mass(n)):
            for trial in range(3):
                stream = Stream(41).child(trial)
                got = simulate_streaming(plan, p, stream)
                assert_same_run(got, reference_streaming(plan, p, stream))
                early += got.ledger.early_terminated
        assert early >= 3

    def test_one_large_batch(self):
        plan = plan_streaming(256, 0.5, 10**6)
        assert plan.clique_sizes == (4450,)
        for p in (make_uniform(256), make_heavy(256, 0.5)):
            stream = Stream(6).child(2)
            assert_same_run(simulate_streaming(plan, p, stream),
                            reference_streaming(plan, p, stream))

    def test_mixed_batch_sizes(self):
        base = plan_streaming(64, 1.0, 48)
        sizes = tuple([4, 70, 4, 4, 9] * 20)
        plan = replace(base, clique_sizes=sizes, clique_players=(0,) * len(sizes),
                       m_bits=10_000)
        for p in (make_uniform(64), make_heavy(64, 1.0)):
            for trial in range(4):
                stream = Stream(3).child(trial)
                assert_same_run(simulate_streaming(plan, p, stream),
                                reference_streaming(plan, p, stream))

    def test_chunks_are_capped_by_their_samples(self, monkeypatch):
        """A small first batch does not let 64-sample batches past the cap."""
        monkeypatch.setattr(models, "MAX_CHUNK_SAMPLES", 200)
        chunks = []
        real = models.sample_children

        def record(p, stream, indices, counts):
            chunks.append(np.asarray(counts).tolist())
            return real(p, stream, indices, counts)

        monkeypatch.setattr(models, "sample_children", record)
        base = plan_streaming(64, 1.0, 48)
        sizes = tuple([1] + [64] * 40 + [1, 300, 2])
        plan = replace(base, clique_sizes=sizes, clique_players=(0,) * len(sizes),
                       m_bits=10**6)
        # the wide uniform runs to the end, the heavy input stops early
        for p in (make_uniform(4096), make_heavy(64, 1.0)):
            chunks.clear()
            stream = Stream(4).child(0)
            got = simulate_streaming(plan, p, stream)
            assert_same_run(got, reference_streaming(plan, p, stream))
            assert all(sum(c) <= 200 or len(c) == 1 for c in chunks)
            if not got.ledger.early_terminated:
                assert sum(map(len, chunks)) == len(sizes)
                assert [300] in chunks

    def test_each_player_starts_with_a_first_chunk(self, monkeypatch):
        """Players that stop at once draw at most one first chunk each."""
        drawn = []
        real = models.sample_children

        def record(p, stream, indices, counts):
            drawn.append(len(indices))
            return real(p, stream, indices, counts)

        monkeypatch.setattr(models, "sample_children", record)
        plan = plan_simultaneous_streaming(1024, 0.5, 8, 400)
        p, stream = point_mass(1024), Stream(2).child(0)
        got = simulate_simultaneous_streaming(plan, p, stream)
        assert_same_run(got, reference_simultaneous_streaming(plan, p, stream))
        assert got.ledger.early_terminated
        assert sum(drawn) <= plan.players * models.FIRST_CHUNK

    def test_simultaneous_streaming(self):
        covered = set()
        for args, dists in (((64, 1.0, 2, 48),
                             (make_bump(64, 1.0), make_heavy(64, 0.3))),
                            ((1024, 0.5, 8, 400),
                             (make_uniform(1024), make_heavy(1024, 0.5)))):
            plan = plan_simultaneous_streaming(*args)
            per_player = [sum(plan.clique_sizes[c]
                              for c in plan.cliques_of_player(j))
                          for j in range(plan.players)]
            for p in dists:
                for trial in range(4):
                    stream = Stream(17).child(trial)
                    got = simulate_simultaneous_streaming(plan, p, stream)
                    want = reference_simultaneous_streaming(plan, p, stream)
                    assert_same_run(got, want)
                    full = [a == b for a, b in zip(got.ledger.samples, per_player)]
                    if any(full) and not all(full):
                        covered.add("one stopped, one ran to the end")
        assert covered


class TestNodeSamplesMatchPerPathLoop:
    def test_sixty_node_network(self):
        topology = random_connected_graph(60, np.random.default_rng(5), 0.05)
        net = congest.Network(topology, 16)
        for p in (make_uniform(16), make_heavy(16, 1.0)):
            for trial in range(5):
                stream = Stream(23).child(trial)
                got = congest.draw_node_samples(net, p, stream)
                want = reference_node_samples(net, p, stream)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)


# --- ragged batches: one call, one count per row ----------------------------

# 26 samples take 39 raw words, 27 take 41: the two straddle SHORT_ROW_WORDS
RAGGED_COUNTS = (0, 1, 2, 26, 27, 681, 4450)


def reference_rows(p, stream, indices, counts):
    return np.concatenate([p.sample(c, stream.child(i).rng())
                           for i, c in zip(indices, counts)] or [[]]
                          ).astype(np.int64)


class TestRaggedSampleChildren:
    @pytest.mark.parametrize("n", [1, 2, 3, 1000, 1024])
    def test_mixed_counts_equal_per_path_draws(self, n):
        assert 26 + 13 <= SHORT_ROW_WORDS < 27 + 14
        # unequal counts run one generator per row; MIN_SHORT_ROWS short
        # rows of one count take the vectorised pass of child_raw
        few = list(RAGGED_COUNTS)
        many = few + [26, 1, 0, 2] * (rng.MIN_SHORT_ROWS // 4 + 1)
        equal = [26] * rng.MIN_SHORT_ROWS
        for p in families(n):
            for counts in (few, many, equal):
                for seed, parent in ((0, ()), (2**70 + 3, (2**32 + 1, 7))):
                    stream = Stream(seed, parent)
                    indices = np.arange(len(counts)) * 977 % 2**32
                    indices[-1] = 2**32 - 1
                    got = sample_children(p, stream, indices, counts)
                    want = reference_rows(p, stream, indices, counts)
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert np.array_equal(got, want), (n, len(counts), seed)

    def test_indices_past_32_bits_fall_back_in_a_ragged_call(self):
        p, stream = make_heavy(1000, 0.5), Stream(9, (4,))
        indices, counts = [2**32, 3, 2**40 + 3, 5], [27, 681, 2, 0]
        got = sample_children(p, stream, indices, counts)
        assert np.array_equal(got, reference_rows(p, stream, indices, counts))

    def test_forced_rejection_redraws_only_its_row(self, monkeypatch):
        real = dist.bounded_indices
        counts = [3, 681, 27, 4450]
        hit = []

        def reject_in_row_two(draws, n):
            idx, accepted = real(draws, n)
            accepted[3 + 681 + 5] = False
            idx[3 + 681:3 + 681 + 27] = 0
            hit.append(draws.ndim)
            return idx, accepted

        monkeypatch.setattr(dist, "bounded_indices", reject_in_row_two)
        redrawn = []
        real_rng = Stream.rng

        def count_rng(self):
            redrawn.append(self.path[-1])
            return real_rng(self)

        p, stream = make_heavy(1000, 0.5), Stream(5, (2,))
        indices = [0, 1, 2, 3]
        want = reference_rows(p, stream, indices, counts)
        monkeypatch.setattr(Stream, "rng", count_rng)
        got = sample_children(p, stream, indices, counts)
        assert hit == [1] and redrawn == [2]
        assert np.array_equal(got, want)

    def test_a_lone_row_equals_its_own_generator(self):
        for p in (make_uniform(3), make_heavy(1000, 0.5)):
            stream = Stream(2**70 + 3, (6,))
            for count in (1, 26, 27, 4450):
                want = p.sample(count, stream.child(9).rng())
                got = sample_children(p, stream, [9], [count])
                assert got.dtype == want.dtype and np.array_equal(got, want)
                got = sample_children(p, stream, [9], count)
                assert got.shape == (1, count) and np.array_equal(got[0], want)

    def test_one_count_keeps_the_row_shape(self):
        p, stream = make_uniform(8), Stream(3)
        got = sample_children(p, stream, [0, 4], 27)
        assert got.shape == (2, 27)
        assert np.array_equal(got.ravel(),
                              sample_children(p, stream, [0, 4], [27, 27]))

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            sample_children(make_uniform(8), Stream(1), [0, 1], [3])
        with pytest.raises(ValueError):
            sample_children(make_uniform(8), Stream(1), [0, 1], [3, -1])


# --- the owner-aware labeling and clique simulators -------------------------

def reference_labeling(graph, p, stream):
    """The per-owner loop `draw_labeling` ran before the batched route."""
    values = np.empty(graph.vertex_count, dtype=np.int64)
    if graph.owner is None:
        values[:] = p.sample(graph.vertex_count, stream.child(0).rng())
    else:
        order = np.argsort(graph.owner, kind="stable")
        owners, sizes = np.unique(graph.owner, return_counts=True)
        start = 0
        for oid, size in zip(owners.tolist(), sizes.tolist()):
            values[order[start:start + size]] = p.sample(
                size, stream.child(oid).rng())
            start += size
    return values


class TestLabelingMatchesPerOwnerLoop:
    def test_plans_and_owner_layouts(self):
        graphs = [plan_centralized(64, 1.0).build_graph(),
                  plan_simultaneous(256, 0.5, 5).build_graph(),
                  plan_asymmetric(64, 1.0, (4.0, 2.0, 1.0)).build_graph(),
                  make_clique_union([0, 3, 1, 40, 0, 2] * 8),
                  make_star(6),
                  ComparisonGraph(6, [(0, 5), (1, 3)], owner=[7, 2, 9, 2, 9, 7])]
        for g in graphs:
            for p in (make_uniform(64), make_heavy(64, 0.5)):
                for trial in range(3):
                    stream = Stream(12).child(trial)
                    got = tester.draw_labeling(g, p, stream).values
                    want = reference_labeling(g, p, stream)
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want), (g, trial)

    def test_owner_groups_are_cached_and_ordered(self):
        g = ComparisonGraph(6, [(0, 5), (1, 3)], owner=[7, 2, 9, 2, 9, 7])
        order, owners, sizes = g.owner_groups
        assert order.tolist() == [1, 3, 0, 5, 2, 4]
        assert owners.tolist() == [2, 7, 9] and sizes.tolist() == [2, 2, 2]
        assert g.owner_groups is g.owner_groups
        order, owners, sizes = make_clique_union([2, 0, 3]).owner_groups
        assert order is None
        assert owners.tolist() == [0, 2] and sizes.tolist() == [2, 3]
        order, owners, sizes = make_star(3).owner_groups
        assert order is None and owners.tolist() == [0] and sizes.tolist() == [4]

    def test_no_generator_per_owner(self, monkeypatch):
        def refuse(self):
            raise AssertionError(f"per-path generator built for {self}")

        monkeypatch.setattr(Stream, "rng", refuse)
        p = make_uniform(1024)
        g = plan_simultaneous(1024, 0.5, 16).build_graph()
        tester.draw_labeling(g, p, Stream(1).child(0))
        models.simulate_simultaneous(plan_simultaneous(1024, 0.5, 16), p,
                                     Stream(1).child(0))
        models.simulate_asymmetric(plan_asymmetric(1024, 0.5, (4, 2, 1, 1)),
                                   p, Stream(1).child(0))


# --- the per-block collision kernel -----------------------------------------

class TestBlockCollisions:
    @pytest.mark.parametrize("high, dense", [(4, True), (10**6, False)])
    def test_matches_bincount_per_block(self, high, dense):
        gen = np.random.default_rng(11)
        sides = set()
        for sizes in ([0], [1], [5], [0, 1, 2, 0, 7, 1], [30] * 9,
                      gen.integers(0, 60, size=40).tolist()):
            total = sum(sizes)
            values = gen.integers(1, high + 1, size=total)
            values[::3] = values[0] if total else 0  # force some pairs
            if total:
                span = int(values.max() - values.min()) + 1
                sides.add(len(sizes) * span <= tester.DENSE_KEYS * total)
            got = tester.block_collisions(values, sizes)
            stops = np.cumsum(sizes)
            want = [within_clique_collisions(values[b - s:b])
                    for s, b in zip(sizes, stops)]
            assert got.dtype == np.int64
            assert got.tolist() == want, sizes
        assert dense in sides

    def test_each_form_takes_its_route(self, monkeypatch):
        """A lone block is one bincount, equal small blocks one row sort,
        other blocks the keyed bincount."""
        seen = []

        def spy(name):
            real = getattr(tester, name)

            def record(x):
                seen.append(name)
                return real(x)
            return record

        for name in ("within_clique_collisions", "row_collisions"):
            monkeypatch.setattr(tester, name, spy(name))
        values = np.random.default_rng(5).integers(1, 65, size=11224)
        for sizes, route in (([4450], ["within_clique_collisions"]),
                             ([20] * 409, ["row_collisions"]),
                             ([681] * 16, []), ([5612, 2806, 1403, 1403], [])):
            seen.clear()
            got = tester.block_collisions(values[:sum(sizes)], sizes)
            stops = np.cumsum(sizes)
            assert got.tolist() == [
                within_clique_collisions(values[b - s:b])
                for s, b in zip(sizes, stops)]
            assert seen == route, sizes

    def test_sparse_side_is_taken(self, monkeypatch):
        """Few samples over a wide range never build the bincount bins."""
        def refuse(*args, **kwargs):
            raise AssertionError("bincount over a sparse key range")

        values = np.array([5, 10**9, 5, 3, 3, 3, 10**9], dtype=np.int64)
        monkeypatch.setattr(tester.np, "bincount", refuse)
        got = tester.block_collisions(values, [3, 0, 4])
        assert got.tolist() == [1, 0, 3]


class TestCollisionCountsBatchOnBlocks:
    def test_blocks_equal_the_edge_gather(self):
        for sizes in ([0, 1, 3, 2, 5], [1, 1], [4], [0, 6, 0, 1]):
            g = make_clique_union(sizes)
            edges = ComparisonGraph(g.vertex_count, g.edges)
            for p in (make_uniform(3), make_heavy(5, 0.5)):
                stream = Stream(21).child(0)
                got = tester.collision_counts_batch(g, p, 50, stream)
                want = tester.collision_counts_batch(edges, p, 50, stream)
                assert np.array_equal(got, want), sizes

    def test_audit_of_the_planned_clique_stays_small(self):
        """n=256, eps=0.5 plans a 4450-clique (9.9 M edges).  Its audit
        used to gather the edge array (~396 MB traced); it now draws and
        counts samples only."""
        g = plan_centralized(256, 0.5).build_graph()
        trials = 64
        tracemalloc.start()
        try:
            report = moment_audit(g, make_uniform(256), trials, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g._edges is None
        assert peak <= 64 * trials * g.vertex_count
        assert not report.flagged


# --- flat alias tables: the doubles are never read ---------------------------

ULP_OVER_THIRD = np.nextafter(1 / 3, 1)
ULP_UNDER_THIRD = np.nextafter(1 / 3, 0)


def record_child_draws(monkeypatch):
    """Record the `doubles` argument and doubles length of every call."""
    calls = []
    real = dist.child_draws

    def record(stream, indices, counts, *, doubles=True):
        draws, words = real(stream, indices, counts, doubles=doubles)
        calls.append((doubles, words.size))
        return draws, words

    monkeypatch.setattr(dist, "child_draws", record)
    return calls


class TestFlatTable:
    FLAT = [make_uniform(n) for n in (2, 3, 1000, 1024)] + [
        Distribution([0.2] * 5)]

    def test_every_route_equals_per_path_draws(self, monkeypatch):
        calls = record_child_draws(monkeypatch)
        # limb pass at both ends of its range (80 samples are 40 words
        # once the doubles are dropped), long rows, ragged rows
        layouts = ([20] * rng.MIN_SHORT_ROWS,
                   [80] * rng.MIN_SHORT_ROWS,
                   [81] * rng.MIN_SHORT_ROWS,
                   [681, 4450],
                   list(RAGGED_COUNTS) + [20, 1] * rng.MIN_SHORT_ROWS)
        for p in self.FLAT:
            assert p.flat
            for counts in layouts:
                for seed, parent in ((0, ()), (2**70 + 3, (2**32 + 1, 7))):
                    stream = Stream(seed, parent)
                    indices = np.arange(len(counts)) * 977 % 2**32
                    indices[-1] = 2**32 - 1
                    got = sample_children(p, stream, indices, counts)
                    want = reference_rows(p, stream, indices, counts)
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert np.array_equal(got, want), (p, counts[0], seed)
                    if len(set(counts)) == 1:
                        got = sample_children(p, stream, indices, counts[0])
                        assert got.shape == (len(counts), counts[0])
                        assert np.array_equal(got.ravel(), want)
        assert calls and all(c == (False, 0) for c in calls)

    def test_indices_past_32_bits_fall_back(self):
        p, stream = make_uniform(1000), Stream(9, (4,))
        indices, counts = [2**32, 3, 2**40 + 3, 5], [27, 681, 2, 0]
        got = sample_children(p, stream, indices, counts)
        assert np.array_equal(got, reference_rows(p, stream, indices, counts))

    def test_forced_rejection_redraws_its_row(self, monkeypatch):
        real = dist.bounded_indices

        def reject_row_one(draws, n):
            idx, accepted = real(draws, n)
            accepted[1, 4] = False
            idx[1] = 0
            return idx, accepted

        monkeypatch.setattr(dist, "bounded_indices", reject_row_one)
        p, stream = make_uniform(1000), Stream(5, (2,))
        indices = np.arange(rng.MIN_SHORT_ROWS)
        got = sample_children(p, stream, indices, 9)
        for row, i in zip(got, indices):
            assert np.array_equal(row, p.sample(9, stream.child(i).rng()))

    def test_own_generator_rows_read_no_doubles(self, monkeypatch):
        """A lone row, and a row redrawn after a rejected draw, come from
        their own generator's integers alone, equal to `p.sample`."""
        real = dist.bounded_indices

        def reject_row_one(draws, n):
            idx, accepted = real(draws, n)
            accepted[1, 4] = False
            idx[1] = 0
            return idx, accepted

        stream = Stream(6, (3,))
        indices = np.arange(rng.MIN_SHORT_ROWS)
        for n in (2, 3, 256, 1000):
            p = make_uniform(n)
            lone = {c: p.sample(c, stream.child(5).rng()) for c in (1, 9, 4450)}
            rows = [p.sample(9, stream.child(i).rng()) for i in indices]
            with monkeypatch.context() as m:
                m.setattr(Distribution, "sample", None)  # the doubles' route
                m.setattr(dist, "bounded_indices", reject_row_one)
                for count, want in lone.items():
                    got = sample_children(p, stream, [5], count)
                    assert got.dtype == want.dtype
                    assert np.array_equal(got.ravel(), want), (n, count)
                got = sample_children(p, stream, indices, 9)
            for row, want in zip(got, rows):
                assert np.array_equal(row, want), n

    def test_one_column_below_one_still_reads_doubles(self, monkeypatch):
        """Column 0 accepts 15/16 and aliases to column 3; the rest accept
        all, so only the doubles tell which samples of column 0 move."""
        d = 2.0**-8
        p = Distribution([0.25 - d, 0.25, 0.25, 0.25 + d])
        accept, alias = p._table()
        assert np.count_nonzero(accept < 1.0) == 1 and accept[0] == 1 - 4 * d
        assert not p.flat
        calls = record_child_draws(monkeypatch)
        stream = Stream(3, (1,))
        indices = np.arange(rng.MIN_SHORT_ROWS)
        for counts in ([20] * indices.size, [20, 681] * (indices.size // 2)):
            got = sample_children(p, stream, indices, counts)
            assert np.array_equal(got, reference_rows(p, stream, indices, counts))
            # the same bits read as a flat table give other samples
            flat = sample_children(make_uniform(4), stream, indices, counts)
            assert not np.array_equal(got, flat)
        assert calls == [(True, 20 * indices.size), (False, 0),
                         (True, (20 + 681) * indices.size // 2), (False, 0)]

    def test_flatness_follows_the_built_table(self):
        # unequal probabilities whose table still accepts every column
        tilted = Distribution([ULP_OVER_THIRD, 1 / 3, 1 / 3])
        assert len(set(tilted.probs.tolist())) == 2 and tilted.flat
        # and nearly equal ones whose table does not
        torn = Distribution([ULP_OVER_THIRD, ULP_UNDER_THIRD, 1 / 3])
        assert not torn.flat
        for p in (tilted, torn, make_uniform(7), make_bump(8, 0.5),
                  make_heavy(9, 0.5), point_mass(4)):
            assert p.flat == (p._table()[0].min() >= 1.0)
        stream = Stream(4)
        indices = np.arange(rng.MIN_SHORT_ROWS)
        for p in (tilted, torn):
            got = sample_children(p, stream, indices, 20)
            want = reference_rows(p, stream, indices, [20] * indices.size)
            assert np.array_equal(got.ravel(), want)


# --- streaming plan arrays, built once per plan ------------------------------

def reference_batch_collisions(sizes, batches, p, stream):
    z = np.empty(batches.size, dtype=np.int64)
    for size in np.unique(sizes[batches]):
        same = sizes[batches] == size
        z[same] = row_collisions(
            sample_children(p, stream, batches[same], int(size)))
    return z


def reference_stream_counters(plan, p, stream, t):
    """The chunked loop as it ran with its arrays rebuilt every trial."""
    sizes = np.asarray(plan.clique_sizes, dtype=np.int64)
    players = np.asarray(plan.clique_players, dtype=np.int64)
    counter = np.zeros(plan.players, dtype=np.int64)
    drawn = np.zeros(plan.players, dtype=np.int64)
    early = np.zeros(plan.players, dtype=bool)
    for player in range(plan.players):
        mine = np.flatnonzero(players == player)
        start, rows = 0, models.FIRST_CHUNK
        while start < mine.size:
            batches = mine[start:start + rows]
            fits = np.searchsorted(np.cumsum(sizes[batches]),
                                   models.MAX_CHUNK_SAMPLES, side="right")
            batches = batches[:max(fits, 1)]
            cum = counter[player] + np.cumsum(
                reference_batch_collisions(sizes, batches, p, stream))
            hit = np.flatnonzero(cum >= t)
            used = hit[0] + 1 if hit.size else batches.size
            counter[player] = cum[used - 1]
            drawn[player] += sizes[batches[:used]].sum()
            start, rows = start + used, 2 * rows
            if hit.size:
                early[player] = start < mine.size
                break
    return counter, drawn, early


def reference_chunked_streaming(plan, p, stream):
    t = plan.threshold
    peak = (max(plan.clique_sizes) * plan.bits_per_sample
            + models.counter_bit_width(t))
    counter, drawn, early = reference_stream_counters(plan, p, stream, t)
    ledger = ResourceLedger(samples=[int(drawn[0])], message_bits=[],
                            memory_bits=[peak], early_terminated=bool(early[0]))
    return SimulationRun("YES" if counter[0] < t else "NO", ledger, None,
                         int(counter[0]), t)


def reference_chunked_simultaneous_streaming(plan, p, stream):
    t = plan.threshold
    peak = (max(plan.clique_sizes) * plan.bits_per_sample
            + models.counter_bit_width(t))
    base_bits = models.message_bit_width(t)
    z, samples, early = reference_stream_counters(plan, p, stream, t)
    decision, messages, total = models._referee(z.tolist(), t, base_bits)
    ledger = ResourceLedger(samples=samples.tolist(),
                            message_bits=[m.encoded_bits for m in messages],
                            memory_bits=[peak] * plan.players,
                            early_terminated=bool(early.any()))
    return SimulationRun(decision, ledger, messages, total, t)


class TestPlanArrays:
    def test_arrays_are_read_only_copies_of_the_tuples(self):
        base = plan_simultaneous_streaming(64, 1.0, 2, 48)
        interleaved = replace(base, clique_players=tuple(
            c % 3 for c in range(len(base.clique_sizes))), players=4)
        for plan in (plan_streaming(1024, 0.5, 4000),
                     plan_simultaneous_streaming(1024, 0.5, 8, 400),
                     plan_asymmetric(64, 1.0, (4.0, 2.0, 1.0)), interleaved):
            sizes, cliques = plan.clique_arrays
            assert plan.clique_arrays is plan.clique_arrays
            assert sizes.dtype == np.int64
            assert sizes.tolist() == list(plan.clique_sizes)
            assert len(cliques) == plan.players
            for j, mine in enumerate(cliques):
                assert mine.tolist() == plan.cliques_of_player(j)
            for arr in (sizes,) + cliques:
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[:1] = 0
        assert interleaved.clique_arrays[1][3].size == 0

    def test_streaming_equals_the_rebuilt_loop(self):
        base = plan_streaming(1024, 0.5, 4000)
        ragged = replace(base, clique_sizes=base.clique_sizes[:-1] + (7,))
        early = 0
        for plan in (base, ragged, plan_streaming(1024, 0.5, 400)):
            for p in (make_uniform(1024), make_heavy(1024, 0.5),
                      point_mass(1024)):
                for trial in range(2):
                    stream = Stream(61).child(trial)
                    got = simulate_streaming(plan, p, stream)
                    assert_same_run(got, reference_chunked_streaming(
                        plan, p, stream))
                    early += got.ledger.early_terminated
        assert early >= 3

    def test_simultaneous_streaming_equals_the_rebuilt_loop(self):
        base = plan_simultaneous_streaming(1024, 0.5, 8, 400)
        interleaved = replace(base, clique_players=tuple(
            c % 8 for c in range(len(base.clique_sizes))))
        ragged = replace(base, clique_sizes=base.clique_sizes[:-1] + (7,))
        for plan in (base, interleaved, ragged):
            for p in (make_uniform(1024), make_bump(1024, 0.5),
                      make_heavy(1024, 0.5)):
                stream = Stream(62).child(0)
                assert_same_run(
                    simulate_simultaneous_streaming(plan, p, stream),
                    reference_chunked_simultaneous_streaming(plan, p, stream))


# --- no masked-array import on set-up or trial paths --------------------------

NO_MASKED_ARRAYS = """
import sys
import numpy as np
from collitest import congest, harness
from collitest.graph import random_connected_graph
scenarios = harness.load_scenarios([
    {"id": "s", "model": "streaming", "n": 1024, "eps": 0.5, "m_bits": 400,
     "dist": {"kind": "heavy"}, "trials": 2},
    {"id": "ss", "model": "simultaneous_streaming", "n": 64, "eps": 1.0,
     "k": 2, "m_bits": 48, "dist": {"kind": "uniform"}, "trials": 2}])
harness.run_suite(scenarios, 3)
congest.Network(random_connected_graph(60, np.random.default_rng(5), 0.05), 16)
print("numpy.ma" in sys.modules)
"""


def test_no_masked_array_import():
    """numpy 2.4's plain `np.unique` imports `numpy.ma` (~30 ms) on first
    use; neither a streaming trial nor `Network` set-up may pay that."""
    src = str(Path(collitest.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.split() == ["False"]
