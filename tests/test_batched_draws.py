"""Word-range draws against one generator per range.

Every sample of a trial owns one raw word of the trial's generator
(seed-path contract v3, see `collitest.rng`).  Every reader draws the
same way: one generator of the trial, at most one forward
``bit_generator.advance`` to a range, then `Distribution.sample`.  The
streaming simulators read a chunk of batches so, `draw_labeling`, the
clique simulators and `draw_node_samples` read all their words in one
call; every result here is compared bitwise with a per-path loop that
reads each clique, batch, owner or node from a fresh generator of the
trial path, advanced to the range's first word.  That loop is kept
below as the reference.
"""
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from itertools import groupby
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collitest
from collitest import congest, models, tester
from collitest.conditions import (_plan, plan_asymmetric, plan_centralized,
                                  plan_simultaneous,
                                  plan_simultaneous_streaming, plan_streaming)
from collitest.dist import Distribution, make_bump, make_heavy, make_uniform
from collitest.graph import (ComparisonGraph, make_clique, make_clique_union,
                             make_star, random_connected_graph)
from collitest.harness import moment_audit
from collitest.models import (Message, ResourceLedger, SimulationRun,
                              simulate_simultaneous_streaming,
                              simulate_streaming)
from collitest.rng import Stream
from collitest.tester import (count_collisions, row_collisions,
                              within_clique_collisions)


# --- the per-path reference loops -------------------------------------------

def word_range(p, stream, start, count):
    """The `count` samples from raw word `start` on of the trial stream,
    read by a generator of their own."""
    gen = stream.rng()
    gen.bit_generator.advance(int(start))
    return p.sample(int(count), gen)


def as_runs(sizes, owners=None):
    """Maximal ``(size, count, owner)`` runs of cliques listed one by one;
    every clique belongs to player 0 unless `owners` is given."""
    pairs = zip(sizes, owners or (0,) * len(sizes))
    return tuple((size, len(list(run)), owner)
                 for (size, owner), run in groupby(pairs))


def cliques(plan):
    """The plan's cliques one by one: their sizes and their owners."""
    return (tuple(size for size, count, _ in plan.runs for _ in range(count)),
            tuple(owner for _, count, owner in plan.runs for _ in range(count)))


def batch_starts(plan):
    sizes, _ = cliques(plan)
    return np.cumsum(sizes) - sizes


def reference_referee(z_per_player, t, base_bits, exponents=None,
                      exponent_bits=0):
    """The referee player by player: one `Message` each, then the sum."""
    messages = []
    total = 0
    saw_sentinel = False
    for i, z_i in enumerate(z_per_player):
        exp = None if exponents is None else exponents[i]
        if z_i >= t:
            messages.append(Message(None, base_bits + exponent_bits, exp))
            saw_sentinel = True
        else:
            messages.append(Message(int(z_i), base_bits + exponent_bits, exp))
            total += int(z_i)
    if saw_sentinel:
        return "NO", messages, None
    return ("YES" if total < t else "NO"), messages, total


def reference_streaming(plan, p, stream):
    t = plan.threshold
    sizes, _ = cliques(plan)
    peak = max(sizes) * plan.bits_per_sample + models.counter_bit_width(t)
    counter = drawn = 0
    early = False
    for c, (size, start) in enumerate(zip(sizes, batch_starts(plan))):
        counter += within_clique_collisions(word_range(p, stream, start, size))
        drawn += size
        if counter >= t:
            early = c + 1 < len(sizes)
            break
    ledger = ResourceLedger(samples=[drawn], message_bits=[],
                            memory_bits=[peak], early_terminated=early)
    return SimulationRun("YES" if counter < t else "NO", ledger, None,
                         counter, t)


def reference_simultaneous_streaming(plan, p, stream):
    t = plan.threshold
    sizes, owners = cliques(plan)
    peak = max(sizes) * plan.bits_per_sample + models.counter_bit_width(t)
    base_bits = models.message_bit_width(t)
    z = [0] * plan.players
    samples = [0] * plan.players
    stopped = [False] * plan.players
    early = False
    for c, (size, start) in enumerate(zip(sizes, batch_starts(plan))):
        player = owners[c]
        if stopped[player]:
            early = True
            continue
        samples[player] += size
        z[player] += within_clique_collisions(word_range(p, stream, start, size))
        stopped[player] = z[player] >= t
    decision, messages, total = reference_referee(z, t, base_bits)
    ledger = ResourceLedger(samples=samples,
                            message_bits=[m.encoded_bits for m in messages],
                            memory_bits=[peak] * plan.players,
                            early_terminated=early)
    return SimpleNamespace(decision=decision, ledger=ledger, messages=messages,
                           z=total, threshold=t)


def reference_node_samples(net, p, stream):
    return np.array([word_range(p, stream, v, 1)[0] for v in range(net.k)],
                    dtype=np.int64)


def assert_same_run(got, want):
    assert (got.decision, got.z, got.threshold) == (want.decision, want.z,
                                                    want.threshold)
    assert json.dumps(got.ledger.to_json()) == json.dumps(want.ledger.to_json())
    assert got.messages == want.messages


# --- reading word ranges forward --------------------------------------------

MASTER_SEEDS = (0, 2**32 - 1, 2**32 + 5, 2**70 + 3)
PARENTS = ((), (4,), (2**32 + 1, 7))
# word offsets at least 21 apart, past 32 bits at the end
OFFSETS = (0, 21, 105, 2**32 - 1, 2**32 + 20, 2**40 + 3)
RAGGED_COUNTS = (0, 1, 2, 26, 27, 681, 4450)


def families(n):
    out = [make_uniform(n)]
    if n % 2 == 0:
        out.append(make_bump(n, 0.5))
    if n >= 2:
        out.append(make_heavy(n, 0.5))
    return out


def reference_rows(p, stream, starts, counts):
    return np.concatenate([word_range(p, stream, s, c)
                           for s, c in zip(starts, counts)] or [[]]
                          ).astype(np.int64)


class RecordingGen:
    """A trial generator that records what it does: `reads` holds the
    word offset and length of every `random_raw` call, `words` a copy of
    the words each call handed out, and `deltas` every advance."""

    def __init__(self, gen):
        self.bit_generator = self
        self._bits = gen.bit_generator
        self.at = 0  # the word read next
        self.words, self.reads, self.deltas = [], [], []

    def advance(self, delta):
        self._bits.advance(delta)
        self.deltas.append(delta)
        self.at += delta

    def random_raw(self, count):
        out = self._bits.random_raw(count)
        self.words.append(out.copy())
        self.reads.append((self.at, count))
        self.at += count
        return out


class RecordingStream:
    """A trial stream whose generators are `RecordingGen`s."""

    def __init__(self, stream):
        self._stream = stream
        self.gens = []

    def rng(self):
        self.gens.append(RecordingGen(self._stream.rng()))
        return self.gens[-1]


def read_forward(p, gen, starts, counts):
    """Ascending disjoint ranges read like streaming chunks: a forward
    advance to a range that does not start where the last one ended,
    then one `Distribution.sample` call; one array a range."""
    rows, at = [], 0
    for start, count in zip(starts, counts):
        if start != at:
            gen.bit_generator.advance(int(start) - at)
        rows.append(p.sample(int(count), gen))
        at = int(start) + int(count)
    return rows


def assert_rows_equal_random_raw(stream, starts, words):
    """Rows of `words` words from `starts` on, read forward from one
    generator: each read starts at its row, its raw words are
    `random_raw` of a generator of the trial path advanced to the row's
    start, and its samples are their map."""
    p = make_heavy(1000, 0.5)
    gen = RecordingGen(stream.rng())
    got = read_forward(p, gen, starts, [words] * len(starts))
    assert gen.reads == [(int(s), words) for s in starts]
    assert all(delta > 0 for delta in gen.deltas)
    for row, start in zip(gen.words, starts):
        assert row.dtype == np.uint64 and row.shape == (words,)
        bits = stream.rng().bit_generator
        bits.advance(int(start))
        assert np.array_equal(row, bits.random_raw(words)), (stream, start,
                                                             words)
    got = np.concatenate(got or [np.empty(0, dtype=np.int64)])
    want = reference_rows(p, stream, starts, [words] * len(starts))
    assert got.dtype == want.dtype and np.array_equal(got, want)


class TestSampleChildren:
    """The children of a trial (its cliques, batches or nodes) own ranges
    of its words, which one generator reads forward."""

    @pytest.mark.parametrize("n", [1, 2, 3, 1000, 1024, 4097])
    def test_rows_equal_per_path_draws(self, n):
        for p in families(n):
            for count in (0, 1, 2, 19, 20, 21):
                for seed in MASTER_SEEDS:
                    for parent in PARENTS:
                        stream = Stream(seed, parent)
                        rows = read_forward(p, stream.rng(), OFFSETS,
                                            [count] * len(OFFSETS))
                        for row, start in zip(rows, OFFSETS):
                            want = word_range(p, stream, start, count)
                            assert row.dtype == want.dtype
                            assert row.shape == (count,)
                            assert np.array_equal(row, want), (n, count, seed,
                                                               parent, start)

    def test_raw_words_equal_random_raw(self):
        for seed in MASTER_SEEDS + (2**130 + 7,):
            for parent in PARENTS:
                assert_rows_equal_random_raw(Stream(seed, parent), OFFSETS, 7)


class TestChildRawKernel:
    """The raw words of a trial: numpy's own `random_raw` of the trial
    generator, with `bit_generator.advance` across the gaps between
    ranges, pinned against numpy."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**200),
           path=st.lists(st.one_of(st.integers(0, 2**32 - 1),
                                   st.integers(2**32, 2**64 - 2)), max_size=3),
           gaps=st.lists(st.one_of(st.integers(0, 50),
                                   st.integers(2**32 - 50, 2**40)),
                         min_size=1, max_size=8),
           words=st.integers(0, 48))
    def test_fuzz_against_random_raw(self, seed, path, gaps, words):
        starts = np.cumsum(np.array(gaps) + words) - words
        assert_rows_equal_random_raw(Stream(seed, tuple(path)), starts, words)

    def test_empty_indices_and_zero_words(self):
        p, stream = make_heavy(1000, 0.5), Stream(4, (1,))
        gen = stream.rng()
        before = gen.bit_generator.state
        out = p.sample(0, gen)
        assert out.shape == (0,) and out.dtype == np.int64
        assert gen.bit_generator.state == before
        # ranges of zero words read nothing; `gen` is left at the last one
        rows = read_forward(p, gen, [0, 5], [0, 0])
        assert [(r.shape, r.dtype) for r in rows] == [((0,), np.int64)] * 2
        want = stream.rng().bit_generator
        want.advance(5)
        assert gen.bit_generator.state == want.state

    def test_post_seed_state_pins_numpy_seeding(self):
        """Trial t's generator is numpy's PCG64 seeded by
        ``SeedSequence(master_seed)`` and jumped ``t + 1`` times, the
        nested path ``prefix + (t,)`` the same from
        ``SeedSequence(master_seed, spawn_key=prefix)``.  A change in how
        numpy seeds or jumps PCG64 fails here, not as drifted random
        values."""
        seed = 2**70 + 3
        master = Stream(seed)
        inc = 0x3f0454be582236bce1ea5386a1a49a19  # one root, one increment
        pinned = {
            0: (0x66d3b59c78e66b84635f99adf53ecaf5, 0x06fcaf53c20f2b3b),
            1: (0x611da0c6a2fc64f0cf6320e0a620948e, 0xa0ef650379f75796),
            2**32 - 1: (0xd8cae40772d48b39dd7c8640e147be20,
                        0xeaf36f637caff75a),
        }
        for t, (state, word) in pinned.items():
            bits = master.child(t).rng().bit_generator
            assert bits.state["state"] == {"state": state, "inc": inc}, (
                "numpy's PCG64 seeding no longer gives the pinned trial state")
            assert int(bits.random_raw()) == word
        for prefix, t in [((), 0), ((), 1), ((), 2**32 - 1), ((2**32 + 1,), 7)]:
            want = np.random.PCG64(
                np.random.SeedSequence(seed, spawn_key=prefix)).jumped(t + 1)
            got = Stream(seed, prefix + (t,)).rng().bit_generator
            assert got.state == want.state
            assert np.array_equal(got.random_raw(4), want.random_raw(4))

    @pytest.mark.parametrize("rows, words", [(2000, 40), (10**4, 2),
                                             (200, 300)])
    def test_transient_memory(self, rows, words):
        """A chunk of `rows` batches of `words` words is one read, which
        holds its output and a few word-sized temporaries of the map."""
        for p in (make_uniform(1024), make_heavy(1000, 0.5)):
            p.sample(1, Stream(3, (1,)).rng())  # warm up outside the trace
            gen = Stream(3, (1,)).rng()
            tracemalloc.start()
            try:
                out = p.sample(rows * words, gen)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.size == rows * words
            assert peak <= 8 * (out.nbytes + rows * 4 * 8), p


# --- collision kernels ------------------------------------------------------

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
        assert plan.runs == ((4450, 1, 0),)
        for p in (make_uniform(256), make_heavy(256, 0.5)):
            stream = Stream(6).child(2)
            assert_same_run(simulate_streaming(plan, p, stream),
                            reference_streaming(plan, p, stream))

    def test_mixed_batch_sizes(self):
        base = plan_streaming(64, 1.0, 48)
        sizes = tuple([4, 70, 4, 4, 9] * 20)
        plan = replace(base, runs=as_runs(sizes), m_bits=10_000)
        for p in (make_uniform(64), make_heavy(64, 1.0)):
            for trial in range(4):
                stream = Stream(3).child(trial)
                assert_same_run(simulate_streaming(plan, p, stream),
                                reference_streaming(plan, p, stream))

    @pytest.mark.parametrize("stop", [1, 96, 100])
    def test_a_counter_that_lands_on_t_stops_at_that_batch(self, stop):
        """A point mass adds C(4, 2) = 6 a batch and T = 6 * `stop`, so the
        counter equals T exactly after batch `stop`: the first batch of the
        first chunk, the last of the second, or inside the third."""
        p = point_mass(48)
        for players in (1, 2):
            # T = |E| (1 + 0.5) / 48 with |E| = 6 * 32 * stop per player
            plan = _plan(48, 1.0, [(4, 32 * stop, j) for j in range(players)],
                         players, tau=0.5, m_bits=10**4)
            assert plan.threshold == 6 * stop * players
            simulate, reference = ((simulate_streaming, reference_streaming)
                                   if players == 1 else
                                   (simulate_simultaneous_streaming,
                                    reference_simultaneous_streaming))
            got = simulate(plan, p, Stream(5).child(0))
            want = reference(plan, p, Stream(5).child(0))
            assert_same_run(got, want)
            if players == 1:
                assert got.ledger.samples == [4 * stop] and got.z == 6 * stop

    def test_chunks_are_capped_by_their_samples(self, monkeypatch):
        """A small first batch does not let 64-sample batches past the cap."""
        monkeypatch.setattr(models, "MAX_CHUNK_SAMPLES", 200)
        chunks = []
        real = models.layout_collisions

        def record(values, blocks):  # one call a chunk, one size a batch
            chunks.append(blocks.sizes.tolist())
            return real(values, blocks)

        monkeypatch.setattr(models, "layout_collisions", record)
        base = plan_streaming(64, 1.0, 48)
        sizes = tuple([1] + [64] * 40 + [1, 300, 2])
        plan = replace(base, runs=as_runs(sizes), m_bits=10**6)
        # the wide uniform runs to the end, the heavy input stops early
        for p in (make_uniform(4096), make_heavy(64, 1.0)):
            chunks.clear()
            stream = Stream(4).child(0)
            got = simulate_streaming(plan, p, stream)
            assert_same_run(got, reference_streaming(plan, p, stream))
            assert chunks
            assert all(sum(c) <= 200 or len(c) == 1 for c in chunks)
            if not got.ledger.early_terminated:
                assert sum(map(len, chunks)) == len(sizes)
                assert [300] in chunks

    def test_each_player_starts_with_a_first_chunk(self, monkeypatch):
        """Players that stop at once draw at most one first chunk each."""
        drawn = []
        real = models.layout_collisions

        def record(values, blocks):  # one call a chunk, one size a batch
            drawn.append(blocks.sizes.size)
            return real(values, blocks)

        monkeypatch.setattr(models, "layout_collisions", record)
        plan = plan_simultaneous_streaming(1024, 0.5, 8, 400)
        p, stream = point_mass(1024), Stream(2).child(0)
        got = simulate_simultaneous_streaming(plan, p, stream)
        assert_same_run(got, reference_simultaneous_streaming(plan, p, stream))
        assert got.ledger.early_terminated
        assert drawn
        assert sum(drawn) <= plan.players * models.FIRST_CHUNK

    def test_chunks_read_forward_only(self):
        """No chunk advances backwards or reads a word twice: every advance
        is forward, the reads are disjoint ascending ranges of whole
        batches, and they hold every sample the ledger counts."""
        base = plan_streaming(64, 1.0, 48)
        mixed = replace(base, runs=as_runs(tuple([4, 70, 4, 4, 9] * 20)),
                        m_bits=10_000)
        stopping = plan_simultaneous_streaming(1024, 0.5, 8, 400)
        for plan, simulate, p, skips in (
                (stopping, simulate_simultaneous_streaming, point_mass(1024),
                 True),
                (mixed, simulate_streaming, make_uniform(64), False),
                (mixed, simulate_streaming, make_heavy(64, 1.0), False)):
            stream = RecordingStream(Stream(3).child(1))
            got = simulate(plan, p, stream)
            assert_same_run(got, simulate(plan, p, Stream(3).child(1)))
            (gen,) = stream.gens
            assert all(delta > 0 for delta in gen.deltas)
            assert bool(gen.deltas) == skips
            bounds = set(np.cumsum((0,) + cliques(plan)[0]).tolist())
            end = 0
            for start, count in gen.reads:
                assert count > 0 and start >= end
                assert {start, start + count} <= bounds
                end = start + count
            assert sum(count for _, count in gen.reads) >= sum(got.ledger.samples)

    def test_simultaneous_streaming(self):
        covered = set()
        for args, dists in (((64, 1.0, 2, 48),
                             (make_bump(64, 1.0), make_heavy(64, 0.3))),
                            ((1024, 0.5, 8, 400),
                             (make_uniform(1024), make_heavy(1024, 0.5)))):
            plan = plan_simultaneous_streaming(*args)
            per_player = [sum(size * count for size, count, owner in plan.runs
                              if owner == j) for j in range(plan.players)]
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


# --- the owner-aware labeling and clique simulators -------------------------

def reference_labeling(graph, p, stream):
    """Each owner's vertices, ascending, read from the words after those
    of the owners with smaller ids, one generator per owner."""
    values = np.empty(graph.vertex_count, dtype=np.int64)
    if graph.owner is None:
        values[:] = word_range(p, stream, 0, graph.vertex_count)
        return values
    start = 0
    for oid in np.unique(graph.owner).tolist():
        mine = np.flatnonzero(graph.owner == oid)
        values[mine] = word_range(p, stream, start, mine.size)
        start += mine.size
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
                    got = tester.draw_labeling(g, p, stream)
                    want = reference_labeling(g, p, stream)
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want), (g, trial)

    def test_owner_groups_are_cached_and_ordered(self):
        g = ComparisonGraph(6, [(0, 5), (1, 3)], owner=[7, 2, 9, 2, 9, 7])
        assert g.owner_order.tolist() == [1, 3, 0, 5, 2, 4]
        assert g.owner_order is g.owner_order
        assert not g.owner_order.flags.writeable
        assert make_clique_union([2, 0, 3]).owner_order is None
        assert make_star(3).owner_order is None

    def test_no_generator_per_owner(self, monkeypatch):
        """A labeling or a clique simulator builds one generator a trial."""
        built = []
        real = Stream.rng

        def count(self):
            built.append(self.path)
            return real(self)

        monkeypatch.setattr(Stream, "rng", count)
        p = make_uniform(1024)
        g = plan_simultaneous(1024, 0.5, 16).build_graph()
        tester.draw_labeling(g, p, Stream(1).child(0))
        models.simulate_simultaneous(plan_simultaneous(1024, 0.5, 16), p,
                                     Stream(1).child(1))
        models.simulate_asymmetric(plan_asymmetric(1024, 0.5, (4, 2, 1, 1)),
                                   p, Stream(1).child(2))
        simulate_simultaneous_streaming(
            plan_simultaneous_streaming(1024, 0.5, 8, 400), p,
            Stream(1).child(3))
        assert built == [(0,), (1,), (2,), (3,)]


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


# --- flat alias tables: the fraction is never read ---------------------------

ULP_OVER_THIRD = np.nextafter(1 / 3, 1)
ULP_UNDER_THIRD = np.nextafter(1 / 3, 0)
class TestFlatTable:
    FLAT = [make_uniform(n) for n in (2, 3, 1000, 1024)] + [
        Distribution([0.2] * 5)]

    def test_every_route_equals_per_path_draws(self):
        """Slices of one call, and one forward read a range, with and
        without gaps between the ranges."""
        for p in self.FLAT:
            assert p.flat
            for counts in ([20] * 32, [681, 4450], list(RAGGED_COUNTS)):
                stream = Stream(2**70 + 3, (2**32 + 1, 7))
                counts = np.array(counts)
                for gap in (0, 5):
                    starts = np.cumsum(counts + gap) - counts
                    want = reference_rows(p, stream, starts, counts)
                    whole = p.sample(int(starts[-1] + counts[-1]), stream.rng())
                    got = np.concatenate([whole[s:s + c]
                                          for s, c in zip(starts, counts)])
                    assert got.dtype == want.dtype and np.array_equal(got, want)
                    rows = read_forward(p, stream.rng(), starts, counts)
                    assert np.array_equal(np.concatenate(rows), want)

    def test_indices_past_32_bits_fall_back(self):
        """On a flat table too, offsets past 32 bits are reached by an
        advance."""
        starts, counts = [3, 2**32, 2**40 + 3, 2**40 + 5], [681, 27, 2, 0]
        for p in self.FLAT:
            stream = Stream(9, (4,))
            got = np.concatenate(read_forward(p, stream.rng(), starts, counts))
            assert np.array_equal(got, reference_rows(p, stream, starts,
                                                      counts))

    def test_one_column_below_one_still_reads_doubles(self):
        """Column 0 accepts 63/64 and aliases to column 3; the rest accept
        all, so only the fraction of each double tells which samples of
        column 0 move."""
        d = 2.0**-8
        p = Distribution([0.25 - d, 0.25, 0.25, 0.25 + d])
        accept, alias = p._table()
        assert np.count_nonzero(accept < 1.0) == 1 and accept[0] == 1 - 4 * d
        assert not p.flat
        stream = Stream(3, (1,))
        counts = [20, 681] * 16
        starts = np.cumsum(counts) - counts
        got = p.sample(sum(counts), stream.rng())
        assert np.array_equal(got, reference_rows(p, stream, starts, counts))
        # the same words read as a flat table give other samples, all of
        # them where column 0 moved to its alias
        flat = make_uniform(4).sample(sum(counts), stream.rng())
        moved = got != flat
        assert moved.any()
        assert set(flat[moved].tolist()) == {1} and set(got[moved].tolist()) == {4}

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
        for p in (tilted, torn):
            starts, counts = np.arange(0, 640, 20), [20] * 32
            got = p.sample(640, stream.rng())
            assert np.array_equal(got, reference_rows(p, stream, starts, counts))


# --- the array referee against the per-player reference ---------------------

def assert_referee_agrees(z, t, base_bits, exponents=None, exponent_bits=0):
    """`models._referee` on an int64 array decides, sums and encodes as
    `reference_referee` does on Python ints; returns the decision."""
    decision, reports, total = models._referee(
        np.array(z, dtype=np.int64), t, base_bits + exponent_bits, exponents)
    want = reference_referee(z, t, base_bits, exponents, exponent_bits)
    assert (decision, reports.messages, total) == want
    assert [type(m.collisions) for m in reports.messages] == [
        type(m.collisions) for m in want[1]]
    assert type(total) is type(want[2])
    return decision


class TestArrayReferee:
    def test_edges_of_the_threshold(self):
        # z equal to an integer t is a sentinel
        assert assert_referee_agrees([3, 5], 5.0, 4) == "NO"
        # around a non-integer t: floor(t) reports, ceil(t) is a sentinel
        assert assert_referee_agrees([5, 0], 5.5, 4) == "YES"
        assert assert_referee_agrees([6, 0], 5.5, 4) == "NO"
        # no sentinel, one sentinel, all sentinels
        assert assert_referee_agrees([1, 2, 0], 9.0, 5) == "YES"
        assert assert_referee_agrees([1, 9, 0], 9.0, 5) == "NO"
        assert assert_referee_agrees([9, 12, 10], 9.0, 5) == "NO"
        # a total equal to t, for an integer t and just above a real one
        assert assert_referee_agrees([2, 3], 5.0, 3) == "NO"
        assert assert_referee_agrees([2, 3], 4.75, 3) == "NO"
        assert assert_referee_agrees([2, 2], 4.25, 3) == "YES"
        # oblivious exponents ride on every message, sentinel or not
        assert assert_referee_agrees([1, 7], 6.0, 3, (5, 6), 2) == "NO"
        assert assert_referee_agrees([1, 2], 6.0, 3, (5, 6), 2) == "YES"

    def test_seeded_counts(self):
        rng = np.random.default_rng(2012)
        decisions = set()
        for _ in range(400):
            players = int(rng.integers(1, 20))
            t = float(rng.integers(1, 40)) + rng.choice([0.0, 0.5, rng.random()])
            z = rng.integers(0, int(t) + 3, players).tolist()
            exponents = (tuple(rng.integers(2, 12, players).tolist())
                         if rng.random() < 0.5 else None)
            decisions.add(assert_referee_agrees(
                z, t, int(rng.integers(1, 30)), exponents,
                0 if exponents is None else 4))
        assert decisions == {"YES", "NO"}

    def test_messages_are_built_when_read(self, monkeypatch):
        built = []

        def record(*args):
            built.append(args)
            return Message(*args)

        monkeypatch.setattr(models, "Message", record)
        plan = plan_simultaneous(64, 1.0, 4)
        run = models.simulate_simultaneous(plan, make_uniform(64),
                                           Stream(1).child(0))
        assert built == []
        assert len(run.messages) == 4 and len(built) == 4


# --- plan runs, and the chunked streaming loop ------------------------------

def reference_batch_collisions(sizes, batches, p, stream):
    starts = np.cumsum(sizes) - sizes
    return np.array([within_clique_collisions(word_range(p, stream, starts[b],
                                                         sizes[b]))
                     for b in batches], dtype=np.int64)


def reference_stream_counters(plan, p, stream, t):
    """The chunked loop as it ran on per-clique arrays, player by player,
    its chunks spanning batches of any size."""
    sizes, players = (np.asarray(a, dtype=np.int64) for a in cliques(plan))
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
    peak = (max(cliques(plan)[0]) * plan.bits_per_sample
            + models.counter_bit_width(t))
    counter, drawn, early = reference_stream_counters(plan, p, stream, t)
    ledger = ResourceLedger(samples=[int(drawn[0])], message_bits=[],
                            memory_bits=[peak], early_terminated=bool(early[0]))
    return SimulationRun("YES" if counter[0] < t else "NO", ledger, None,
                         int(counter[0]), t)


def reference_chunked_simultaneous_streaming(plan, p, stream):
    t = plan.threshold
    peak = (max(cliques(plan)[0]) * plan.bits_per_sample
            + models.counter_bit_width(t))
    base_bits = models.message_bit_width(t)
    z, samples, early = reference_stream_counters(plan, p, stream, t)
    decision, messages, total = reference_referee(z.tolist(), t, base_bits)
    ledger = ResourceLedger(samples=samples.tolist(),
                            message_bits=[m.encoded_bits for m in messages],
                            memory_bits=[peak] * plan.players,
                            early_terminated=bool(early.any()))
    return SimpleNamespace(decision=decision, ledger=ledger, messages=messages,
                           z=total, threshold=t)


class TestPlanArrays:
    def test_runs_are_maximal_and_expand_to_the_cliques(self):
        base = plan_simultaneous_streaming(64, 1.0, 2, 48)
        base_sizes, _ = cliques(base)
        interleaved = replace(base, runs=as_runs(base_sizes, tuple(
            c % 3 for c in range(len(base_sizes)))), players=4)
        for plan in (plan_streaming(1024, 0.5, 4000),
                     plan_simultaneous_streaming(1024, 0.5, 8, 400),
                     plan_asymmetric(64, 1.0, (4.0, 2.0, 1.0)), interleaved):
            assert all(count >= 1 for _, count, _ in plan.runs)
            assert all(a[::2] != b[::2] for a, b in zip(plan.runs, plan.runs[1:]))
            sizes, owners = cliques(plan)
            assert as_runs(sizes, owners) == plan.runs
            assert plan.build_graph().block_sizes.tolist() == list(sizes)
            assert plan.samples_total == sum(sizes)
        assert len(interleaved.runs) == len(cliques(interleaved)[0])

    def test_streaming_equals_the_rebuilt_loop(self):
        base = plan_streaming(1024, 0.5, 4000)
        ragged = replace(base, runs=as_runs(cliques(base)[0][:-1] + (7,)))
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
        sizes, owners = cliques(base)
        interleaved = replace(base, runs=as_runs(sizes, tuple(
            c % 8 for c in range(len(sizes)))))
        ragged = replace(base, runs=as_runs(sizes[:-1] + (7,), owners))
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
