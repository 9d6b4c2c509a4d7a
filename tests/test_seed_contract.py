"""Seed-path contract v3: one generator per trial, built from a cached
root and numpy's golden-ratio jump, and sample j reads word j.

The properties every draw route keeps (see `collitest.rng`):

* path ``prefix + (t,)`` is numpy's
  ``PCG64(SeedSequence(master, spawn_key=prefix)).jumped(t + 1)``, any
  two jumps of one root start more than 2**62 words apart, and the first
  samples of consecutive trials, and words 0 and 1 of a trial, show no
  dependence that ``t * 2**64`` offsets show;
* raw words, and so samples, do not depend on how a word range is split
  into calls, and a forward ``bit_generator.advance`` skips a gap;
* every simulator's samples of clique or batch ``c`` are the slice of
  `tester.draw_labeling` from word ``S_c`` on, on the same trial stream,
  and a streaming chunk is one read from a batch's first word on;
* CONGEST node ``v`` reads word ``v``;
* the order in which trials run changes no byte of the suite output;
* the word-to-sample map stays in [1, n] and is the documented formula.
"""
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collitest
from collitest import congest, models, tester
from collitest.conditions import (plan_asymmetric, plan_centralized,
                                  plan_simultaneous,
                                  plan_simultaneous_streaming, plan_streaming)
from collitest.dist import Distribution, make_bump, make_heavy, make_uniform
from collitest.graph import make_clique_union, random_connected_graph
from collitest.harness import (build_topology, load_scenarios,
                               records_to_jsonl, run_scenario,
                               summaries_to_csv)
from collitest.rng import JUMP, MAX_INDEX, Stream


class Words:
    """A stand-in generator that hands out the given raw words in order."""

    def __init__(self, words):
        self.bit_generator = self
        self.words = np.asarray(words, dtype=np.uint64)

    def random_raw(self, count):
        out, self.words = self.words[:count].copy(), self.words[count:]
        return out


class Recording:
    """A trial stream and its one generator, which records the word
    offset and length of every read in `reads`."""

    def __init__(self, stream):
        self.bit_generator, self.at, self.reads = self, 0, []
        self._bits = stream.rng().bit_generator

    def rng(self):
        return self

    def advance(self, delta):
        self._bits.advance(delta)
        self.at += delta

    def random_raw(self, count):
        self.reads.append((self.at, count))
        self.at += count
        return self._bits.random_raw(count)


def input_for(kind, n):
    if kind == "heavy" and n >= 2:
        return make_heavy(n, 0.5)
    if kind == "bump" and n % 2 == 0:
        return make_bump(n, 0.5)
    return make_uniform(n)


def one_call(p, stream, total):
    return p.sample(total, stream.rng())


# --- the trial generator: a cached root and a golden-ratio jump ------------

def numpy_jumped(master_seed, path):
    """numpy's own generator state for `path`, with no cache."""
    root = np.random.PCG64(np.random.SeedSequence(master_seed,
                                                  spawn_key=path[:-1]))
    return root.jumped(path[-1] + 1).state if path else root.state


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**130),
       path=st.lists(st.integers(0, MAX_INDEX), max_size=3))
def test_a_path_is_numpys_jumped_root(seed, path):
    path, want = tuple(path), numpy_jumped(seed, tuple(path))
    for _ in range(2):  # the second call starts from the cached root
        assert Stream(seed, path).rng().bit_generator.state == want


def test_the_empty_path_is_the_root_at_jump_0():
    want = np.random.PCG64(np.random.SeedSequence(5)).random_raw(3)
    assert np.array_equal(Stream(5).rng().bit_generator.random_raw(3), want)


@pytest.mark.parametrize("path", [(-1,), (MAX_INDEX + 1,), (2**64,),
                                  (MAX_INDEX + 1, 0), (3, -1)])
def test_a_path_index_outside_the_separated_range_raises(path):
    with pytest.raises(ValueError, match="outside"):
        Stream(1, path).rng()


def test_the_largest_index_is_accepted():
    assert (Stream(1, (MAX_INDEX,)).rng().bit_generator.state
            == numpy_jumped(1, (MAX_INDEX,)))


def test_jumps_of_one_root_start_beyond_the_sample_cap():
    """Jumps ``a != b`` in ``[0, 2**64 - 1]`` start ``||(a - b) JUMP||``
    words apart (distance to the nearest multiple of 2**128).  For
    ``0 < d < q'`` that distance is at least the one at ``q``, the last
    convergent denominator of ``JUMP / 2**128`` below ``q'``; with
    ``q < 2**64 <= q'`` it bounds every pair, and it exceeds the 2**62
    samples a plan may draw, by more than 2**1.5."""
    def apart(d):
        r = d * JUMP % 2**128
        return min(r, 2**128 - r)

    denominators = [c.denominator
                    for c in _convergents(Fraction(JUMP, 2**128))]
    q = max(d for d in denominators if d < 2**64)
    q_next = denominators[denominators.index(q) + 1]
    assert q_next >= 2**64 > MAX_INDEX + 1  # every difference d < q'
    assert apart(q) ** 2 >= 2**127  # at least 2**63.5 words apart
    # best approximation: no smaller difference comes closer
    gen = np.random.default_rng(7)
    for d in [1, 2, 3, 2**32, 2**63, 2**64 - 1, *denominators[:60],
              *(int(x) for x in gen.integers(1, 2**63, 200))]:
        if 0 < d < 2**64:
            assert apart(d) >= apart(q)


def _convergents(x):
    """The continued fraction convergents of a rational `x` in [0, 1)."""
    h, h_prev, k, k_prev = 0, 1, 1, 0
    x = 1 / x
    while True:
        a = math.floor(x)
        h, h_prev, k, k_prev = a * h + h_prev, h, a * k + k_prev, k
        yield Fraction(h, k)
        if x == a:
            return
        x = 1 / (x - a)


CHI2_TRIALS, CHI2_SEED, CHI2_BOUND = 2**16, 2012, 400  # 255 degrees of freedom


def _chi2_pairs(first, second):
    """Pearson's chi-squared of the 16 x 16 table of sample pairs against
    independent uniform samples."""
    cells = np.bincount((first - 1) * 16 + (second - 1), minlength=256)
    expected = first.size / 256
    return float(((cells - expected) ** 2).sum() / expected)


def _first_two_samples(gens):
    p = make_uniform(16)
    return np.array([p.sample(2, gen) for gen in gens])


def _offset_by_2_64(seed, t):
    """The rejected alternative: trial t at word ``t * 2**64`` of the root."""
    bits = np.random.PCG64(np.random.SeedSequence(seed))
    bits.advance(t * 2**64)
    return np.random.Generator(bits)


def test_consecutive_trials_and_words_look_independent():
    """Over 2**16 trials, the first samples of trials t and t + 1, and
    samples 0 and 1 of each trial, pass a chi-squared test of the 256
    pairs at a bound fixed in advance (p below 1e-7 on 255 degrees of
    freedom).  Trials at offsets ``t * 2**64`` share their low 64 state
    bits and fail it."""
    master = Stream(CHI2_SEED)
    s = _first_two_samples(master.child(t).rng() for t in range(CHI2_TRIALS))
    assert _chi2_pairs(s[:-1, 0], s[1:, 0]) < CHI2_BOUND
    assert _chi2_pairs(s[:, 0], s[:, 1]) < CHI2_BOUND
    c = _first_two_samples(_offset_by_2_64(CHI2_SEED, t)
                           for t in range(CHI2_TRIALS))
    assert _chi2_pairs(c[:-1, 0], c[1:, 0]) > CHI2_BOUND


def test_a_topology_seed_reads_the_root_not_trial_0():
    """A random topology drawn with seed s and trial 0 under master seed s
    read different words."""
    spec = {"kind": "random_connected", "k": 60, "extra_edge_prob": 0.05,
            "seed": 11}
    graph = build_topology(spec)
    root = random_connected_graph(60, Stream(11).rng(), 0.05)
    trial_0 = random_connected_graph(60, Stream(11).child(0).rng(), 0.05)
    assert np.array_equal(graph.edges, root.edges)
    assert not np.array_equal(graph.edges, trial_0.edges)
    words = [s.rng().bit_generator.random_raw(8)
             for s in (Stream(11), Stream(11).child(0))]
    assert not np.array_equal(*words)


NUMPY_RANDOM_UNLOADED = """
import sys
import collitest.harness
print("numpy.random" in sys.modules)
"""


def test_importing_the_harness_leaves_numpy_random_unloaded():
    """numpy 2.4 imports `numpy.random` lazily; `collitest` leaves it so,
    and the first `Stream.rng` pays for it."""
    src = str(Path(collitest.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", NUMPY_RANDOM_UNLOADED],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.split() == ["False"]


# --- splits and gaps -----------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**70), n=st.sampled_from([1, 2, 3, 64, 1000, 1024]),
       kind=st.sampled_from(["uniform", "heavy", "bump"]),
       total=st.integers(0, 400), cuts=st.lists(st.integers(0, 400), max_size=8))
def test_any_split_of_a_word_range_gives_the_one_call_samples(seed, n, kind,
                                                              total, cuts):
    p, stream = input_for(kind, n), Stream(seed, (5,))
    whole = one_call(p, stream, total)
    bounds = sorted({0, total, *(c % (total + 1) for c in cuts)})
    gen = stream.rng()
    parts = [p.sample(b - a, gen) for a, b in zip(bounds, bounds[1:])]
    got = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    assert got.dtype == whole.dtype and np.array_equal(got, whole)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**70), n=st.sampled_from([2, 3, 1000]),
       kind=st.sampled_from(["uniform", "heavy"]),
       ranges=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                       max_size=10))
def test_ranges_read_across_gaps_equal_slices_of_one_call(seed, n, kind,
                                                          ranges):
    """Each range is (gap before it, length); one generator advances
    forward across each gap and reads the range in one
    `Distribution.sample` call."""
    p, stream = input_for(kind, n), Stream(seed)
    total = sum(gap + count for gap, count in ranges)
    whole = one_call(p, stream, total)
    gen, at = stream.rng(), 0
    for gap, count in ranges:
        if gap:
            gen.bit_generator.advance(gap)
        at += gap
        assert np.array_equal(p.sample(count, gen), whole[at:at + count])
        at += count


def test_ranges_past_32_bits_advance_like_one_generator():
    p, stream = make_heavy(1000, 0.5), Stream(9, (4,))
    starts, counts = [3, 2**32 + 5, 2**40 + 3], [27, 2, 681]
    gen, at, got = stream.rng(), 0, []
    for s, c in zip(starts, counts):
        gen.bit_generator.advance(s - at)
        got.append(p.sample(c, gen))
        at = s + c
    want = []
    for s, c in zip(starts, counts):
        gen = stream.rng()
        gen.bit_generator.advance(s)
        want.append(p.sample(c, gen))
    assert np.array_equal(np.concatenate(got), np.concatenate(want))


# --- simulators against the monolithic labeling ----------------------------------

PLANS = {
    "clique": [plan_centralized(16, 1.0)],
    "disjoint_cliques": [plan_simultaneous(64, 1.0, 4),
                         plan_simultaneous(256, 0.5, 5)],
    "rate_cliques": [plan_asymmetric(64, 1.0, (4.0, 2.0, 1.0))],
    "streaming": [plan_streaming(64, 1.0, 48), plan_streaming(1024, 0.5, 4000)],
    "simultaneous_streaming": [plan_simultaneous_streaming(64, 1.0, 2, 48),
                               plan_simultaneous_streaming(1024, 0.5, 8, 400)],
}
SIMULATORS = {
    "clique": [models.simulate_simultaneous],
    "disjoint_cliques": [models.simulate_simultaneous,
                         lambda plan, p, s: models.simulate_simultaneous(
                             plan, p, s, oblivious=True)],
    "rate_cliques": [models.simulate_simultaneous, models.simulate_asymmetric],
    "streaming": [models.simulate_streaming],
    "simultaneous_streaming": [models.simulate_simultaneous_streaming],
}


@pytest.mark.parametrize("family", sorted(PLANS))
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**64), trial=st.integers(0, 2**20),
       kind=st.sampled_from(["uniform", "heavy", "bump"]), data=st.data())
def test_simulator_samples_are_slices_of_the_labeling(family, seed, trial, kind,
                                                      data):
    plan = data.draw(st.sampled_from(PLANS[family]))
    simulate = data.draw(st.sampled_from(SIMULATORS[family]))
    p, stream = input_for(kind, plan.n), Stream(seed).child(trial)
    recording, counted = Recording(stream), []
    real_count = models.layout_collisions

    def count(values, blocks):  # a streaming chunk, or a trial's cliques
        counted.append((values, tuple(blocks.sizes.tolist())))
        return real_count(values, blocks)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(models, "layout_collisions", count)
        run = simulate(plan, p, recording)
    if family.endswith("streaming"):  # each chunk is its batches' words
        labeling = tester.draw_labeling(plan.build_graph(), p, stream)
        sizes, counts, _ = np.array(plan.runs).T
        bounds = set(np.cumsum(np.repeat(sizes, counts)).tolist()) | {0}
        assert len(recording.reads) == len(counted)
        for (start, length), (values, sizes) in zip(recording.reads, counted):
            assert set((start + np.cumsum((0,) + sizes)).tolist()) <= bounds
            assert length == sum(sizes)
            assert np.array_equal(values, labeling[start:start + length])
        assert sum(n for _, n in recording.reads) >= sum(run.ledger.samples)
    else:  # one call for all cliques, in plan order
        ((values, sizes),) = counted
        assert recording.reads == [(0, sum(sizes))]
        graph = make_clique_union(sizes)
        labeling = tester.draw_labeling(graph, p, stream)
        assert np.array_equal(values, labeling)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**64), trial=st.integers(0, 100),
       kind=st.sampled_from(["uniform", "heavy"]))
def test_congest_node_v_reads_word_v(seed, trial, kind):
    net = congest.Network(random_connected_graph(40, np.random.default_rng(2),
                                                 0.05), 16)
    p, stream = input_for(kind, 16), Stream(seed).child(trial)
    got = congest.draw_node_samples(net, p, stream)
    whole = one_call(p, stream, 64)
    assert np.array_equal(got, whole[:net.k])
    for v in (0, 1, 17, net.k - 1):
        gen = stream.rng()
        gen.bit_generator.advance(v)
        assert got[v] == p.sample(1, gen)[0]


# --- trial order ------------------------------------------------------------------

ORDER_SCENARIOS = load_scenarios([
    {"id": "central", "model": "centralized", "n": 16, "eps": 1.0,
     "dist": {"kind": "bump"}, "trials": 6},
    {"id": "stream", "model": "streaming", "n": 64, "eps": 1.0, "m_bits": 48,
     "dist": {"kind": "heavy"}, "trials": 6},
    {"id": "simstream", "model": "simultaneous_streaming", "n": 64, "eps": 1.0,
     "k": 2, "m_bits": 48, "dist": {"kind": "uniform"}, "trials": 6},
    {"id": "pipelined", "model": "congest_pipelined", "n": 4, "eps": 1.0,
     "topology": {"kind": "path", "k": 150}, "dist": {"kind": "uniform"},
     "trials": 6},
])


def scenario_bytes(scenario, seed, order=None):
    result = run_scenario(scenario, seed, trial_order=order)
    return summaries_to_csv([result.summary]) + records_to_jsonl(result.records)


@pytest.mark.parametrize("scenario", ORDER_SCENARIOS, ids=lambda s: s.scenario_id)
@settings(max_examples=5, deadline=None)
@given(order=st.permutations(range(6)), seed=st.integers(0, 2**32))
def test_trial_order_changes_no_byte(scenario, order, seed):
    assert scenario_bytes(scenario, seed, order) == scenario_bytes(scenario, seed)


# --- the word-to-sample map --------------------------------------------------------

EDGE_WORDS = [0, 1, 2**11 - 1, 2**11, 2**63 - 1, 2**63, 2**64 - 2**11 - 1,
              2**64 - 2**11, 2**64 - 1]


def reference_map(p, word):
    """The documented map, on Python floats (IEEE doubles like numpy's),
    with the clamp to n - 1 it never needs."""
    accept, alias = p._table()
    x = (word >> 11) * (p.n * 2.0**-53)
    idx = min(math.floor(x), p.n - 1)
    if x - idx < accept[idx]:
        return idx + 1
    return int(alias[idx]) + 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 256, 1000, 1024, 2**20, 2**20 + 1])
def test_map_stays_in_the_domain(n):
    words = EDGE_WORDS + np.random.default_rng(n).integers(
        0, 2**64, size=200, dtype=np.uint64).tolist()
    for p in (make_uniform(n), input_for("heavy", n), input_for("bump", n)):
        got = p.sample(len(words), Words(words))
        assert got.dtype == np.int64
        assert got.min() >= 1 and got.max() <= n
        assert got.tolist() == [reference_map(p, w) for w in words]
    # the top word lands on the last value: x stays below n unclamped
    assert make_uniform(n).sample(1, Words([2**64 - 1]))[0] == n


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 2**52))
def test_the_top_grid_point_stays_below_n(n):
    """(2**53 - 1) * n rounds to below n * 2**53 for every n, so
    ``floor(x)`` is at most n - 1 for every word."""
    assert math.floor((2**53 - 1) * (n * 2.0**-53)) <= n - 1


@pytest.mark.parametrize("p", [make_bump(256, 0.5), make_heavy(1024, 0.5)],
                         ids=["bump-256", "heavy-1024"])
def test_power_of_two_columns_split_at_the_ceiled_accept_level(p):
    """For n = 2**k, column i accepts ``w >> 11`` up to
    ``(i << s) + ceil(accept[i] * 2**s) - 1``, s = 53 - k: in every
    column the last accepted and the first rejected word give what the
    float formula gives, whatever the 11 dropped bits."""
    accept, alias = p._table()
    s = 53 - (p.n.bit_length() - 1)
    words, split = [], 0
    for i, a in enumerate(accept.tolist()):
        c = math.ceil(a * 2**s)
        for low, dropped in ((c - 1, 2**11 - 1), (c, 0)):
            if 0 <= low < 2**s:
                words.append((((i << s) + low) << 11) | dropped)
        if 0 < c < 2**s:
            split += 1
            assert reference_map(p, words[-2]) == i + 1
            assert reference_map(p, words[-1]) == int(alias[i]) + 1
    assert split > 0 and not p.flat
    got = p.sample(len(words), Words(words))
    assert got.tolist() == [reference_map(p, w) for w in words]


def test_a_column_below_one_splits_on_the_fraction():
    """Column 0 accepts 1 - 2**-6 and aliases to column 3: a word whose
    fraction lands past the accept level of column 0 gives value 4."""
    d = 2.0**-8
    p = Distribution([0.25 - d, 0.25, 0.25, 0.25 + d])
    accept, alias = p._table()
    assert accept[0] == 1 - 4 * d and alias[0] == 3 and not p.flat
    # idx 0 and frac just below / at the accept level
    below = int((1 - 4 * d) * 2**51 - 1) << 11
    at = int((1 - 4 * d) * 2**51) << 11
    assert p.sample(2, Words([below, at])).tolist() == [1, 4]
    assert make_uniform(4).sample(2, Words([below, at])).tolist() == [1, 1]


def test_a_column_of_odd_n_splits_on_the_float_fraction():
    """n = 3 keeps the float map: column 0 accepts 3/4 and aliases to
    column 2, and ``u = 2**51`` lands exactly on ``x = 3/4``, which is
    rejected (the test is ``frac < accept``)."""
    p = Distribution([0.25, 0.375, 0.375])
    accept, alias = p._table()
    assert accept.tolist() == [0.75, 1.0, 0.875] and alias[0] == 2
    words = [((2**51 - 1) << 11) | (2**11 - 1), 2**51 << 11]
    assert p.sample(2, Words(words)).tolist() == [1, 3]
    assert [reference_map(p, w) for w in words] == [1, 3]
