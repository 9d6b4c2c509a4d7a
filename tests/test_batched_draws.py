"""Batched per-path draws against one generator per path.

`sample_children`, the streaming simulators and `draw_node_samples` draw
many child streams together; every result here is compared bitwise with
the per-path loop it replaces, kept below as the reference.
"""
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collitest import congest, dist, models, rng, tester
from collitest.conditions import plan_simultaneous_streaming, plan_streaming
from collitest.dist import (Distribution, make_bump, make_heavy, make_uniform,
                            sample_children)
from collitest.graph import make_clique, random_connected_graph
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
        real = models._batch_collisions

        def record(sizes, batches, p, stream):
            chunks.append(sizes[batches].tolist())
            return real(sizes, batches, p, stream)

        monkeypatch.setattr(models, "_batch_collisions", record)
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
        real = models._batch_collisions

        def record(sizes, batches, p, stream):
            drawn.append(batches.size)
            return real(sizes, batches, p, stream)

        monkeypatch.setattr(models, "_batch_collisions", record)
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
