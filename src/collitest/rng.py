"""Seed-path addressed random streams.

One master seed governs a whole experiment.  Every logical consumer of
randomness addresses its own stream through a path of small integers,
for example ``(trial,)`` for a trial and ``(trial, player)`` for one
player inside that trial.  Distinct paths yield statistically
independent generators, and the mapping from ``(master_seed, path)`` to
the generator state is fixed, so results reproduce no matter in which
order (or on how many workers) the consumers run.

The convention used throughout the package:

* trial ``t`` of a scenario      -> path ``(t,)``
* player / batch / clique ``i``  -> path ``(t, i)``
* network node ``v`` (CONGEST)   -> path ``(t, v)``

Each path should have exactly one consumer, and that consumer must draw
from the generator in a fixed order.

A path's generator is numpy's ``PCG64`` seeded by
``SeedSequence(master_seed, spawn_key=path)``.  Building the
``SeedSequence``, the ``PCG64`` and the ``Generator`` costs ~30
microseconds, which dominates when a consumer draws only a handful of
samples.  The batched routes below serve many sibling paths
``stream.child(i)`` at once, bit for bit equal to their generators:

* `_child_seeds` reproduces numpy's ``SeedSequence`` pool hash for all
  of them in one vectorised pass; the master seed's share of the hash
  is computed once per master seed (`_master_pool`).
* `child_raw` returns the raw words of equal-length rows, so that row
  ``i`` equals ``stream.child(i).rng().bit_generator.random_raw(words)``.
  For rows of at most `SHORT_ROW_WORDS` words it computes PCG64 itself,
  on uint64 limbs over all rows and words at once: PCG64 is the 128-bit
  LCG ``x -> MULT x + inc`` with the XSL-RR output, so the state behind
  raw word j is an affine function of the row's seed words with two
  per-word constants (`_lcg_states`).  Longer rows run one ``PCG64``
  each from their seed words (`_own_rows`), which is faster there.
* `child_draws` returns, for one count per row, the words that
  ``Generator.integers`` and then ``Generator.random`` read, all rows
  concatenated.  At least `MIN_SHORT_ROWS` short rows of one count come
  from `child_raw`'s numpy pass; any other call runs one ``PCG64`` per
  row.

`bounded_indices` maps raw words to ``[0, n)`` the way
``Generator.integers`` does (Lemire's multiply-shift with rejection) and
flags every draw that numpy would reject and redraw.  On top of these,
`dist.sample_children` reproduces ``p.sample(count, stream.child(i).rng())``
for every row; it falls back to the per-path generator for a row with a
rejected draw, for an index that is negative or needs more than one
32-bit word, and for domains of 2**32 or more elements.
"""
from __future__ import annotations

import functools

import numpy as np

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
# numpy's SeedSequence constants (pool of four 32-bit words)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# numpy's PCG64 multiplier (PCG's default 128-bit LCG multiplier)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# `child_raw` computes rows of at most this many raw words in one numpy
# pass over all rows and words, and longer rows with one PCG64 each.
# Measured (2-core VM, loop time over vectorised time, seed words
# included): 128 rows 1.75 at 32 words, 1.60 at 40, 1.46 at 48, 1.26
# at 64; 400 rows 2.51 / 1.53 / 1.23 / 0.94; 2000 rows 1.57 at 32, 0.91
# at 48.  Below about 32 rows the pass is the slower one, by up to
# ~60 us a call (8 rows: 0.5 at every length).
SHORT_ROW_WORDS = 40
# `child_draws` takes the pass only for at least this many rows, all of
# one count: the pass costs some 60-100 us whatever its size, as much as
# ~30 per-row generators (measured on the same VM at 5, 20 and 40
# words).  No benchmark workload falls below it: every streaming chunk
# and CONGEST network (280-800 nodes) draws 32 or more equal short rows
# a call; dense_cliques rows are all long.  Unequal short rows (only
# labelings of graphs with many small unequal owner groups) run one
# generator each, 2-3 us a row.
MIN_SHORT_ROWS = 32


class Stream:
    """A reproducible RNG stream identified by ``(master_seed, path)``."""

    __slots__ = ("master_seed", "path")

    def __init__(self, master_seed: int, path: tuple[int, ...] = ()):
        self.master_seed = int(master_seed)
        self.path = tuple(int(p) for p in path)

    def child(self, *indices: int) -> "Stream":
        """Stream addressed by this path extended with `indices`."""
        return Stream(self.master_seed, self.path + indices)

    def rng(self) -> np.random.Generator:
        """A fresh generator for this path.

        Calling twice returns generators in the same initial state, so a
        path must not be shared by two independent consumers.
        """
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(seq))

    def label(self) -> tuple[int, ...]:
        """Provenance tuple ``(master_seed, *path)`` for trial records."""
        return (self.master_seed,) + self.path

    def __repr__(self) -> str:
        return f"Stream(master_seed={self.master_seed}, path={self.path})"


def _uint32_words(x: int) -> list[int]:
    """`x` as little-endian 32-bit words, as SeedSequence splits it."""
    if x < 0:
        raise ValueError("expected non-negative integer")
    return [(x >> s) & _M32 for s in range(0, max(x.bit_length(), 1), 32)]


@functools.lru_cache(maxsize=64)
def _hash_constants(first: int, mult: int, count: int) -> np.ndarray:
    """`first` and the `count` hash constants after it, as a read-only
    (count + 1, 1) uint32 column."""
    out = [first]
    for _ in range(count):
        out.append(out[-1] * mult & _M32)
    out = np.array(out, dtype=np.uint32)[:, None]
    out.flags.writeable = False
    return out


# generate_state's hash constants, one pair per 32-bit output word
_STATE_HASH = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)


def _hashmix(value: int, const: int) -> tuple[int, int]:
    """SeedSequence's hashmix of one word, and the next hash constant."""
    value ^= const
    const = const * _MULT_A & _M32
    value = value * const & _M32
    return value ^ value >> 16, const


def _mix(x: int, y: int) -> int:
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return r ^ r >> 16


def _fold(pool: list[int], const: int, words) -> int:
    """Mix entropy `words` past the first four into `pool`, in place;
    returns the hash constant it ends at."""
    for word in words:
        for dst in range(_POOL):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    return const


@functools.lru_cache(maxsize=64)
def _master_pool(master_seed: int) -> tuple[tuple[int, ...], int]:
    """The SeedSequence pool after folding in the words of `master_seed`,
    padded to four, and the hash constant the fold ends at.

    Every path under one master seed starts from this state, so it is
    computed once per master seed.
    """
    run = _uint32_words(master_seed)
    entropy = run + [0] * (_POOL - len(run))
    const = _INIT_A
    pool = []
    for word in entropy[:_POOL]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    const = _fold(pool, const, entropy[_POOL:])
    return tuple(pool), const


def _child_seeds(stream: Stream, indices: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=path + (i,)).generate_state(4, uint64)``
    for every ``i`` in `indices` (each below 2**32), as the rows of an
    (N, 4) array.

    With a spawn key the entropy is the master seed padded to at least
    four words, then the key's words.  Everything but the last word is
    the same for all children: the master seed's words come folded from
    `_master_pool`, the path's words are folded here, and only the last
    word's mixing runs vectorised over the children.
    """
    pool, const = _master_pool(stream.master_seed)
    pool = list(pool)
    const = _fold(pool, const, [w for p in stream.path for w in _uint32_words(p)])
    # the last word: one hashmix per pool word, with successive constants
    pre = _hash_constants(const, _MULT_A, _POOL)
    h = (indices.astype(np.uint32) ^ pre[:-1]) * pre[1:]
    h ^= h >> 16
    h *= np.uint32(_MIX_MULT_R)
    pool = np.array([[_MIX_MULT_L * x & _M32] for x in pool], dtype=np.uint32)
    np.subtract(pool, h, out=h)
    h ^= h >> 16
    # generate_state cycles the pool through the second hash, and pairs
    # the 32-bit words into little-endian uint64 words
    state = ((h ^ _STATE_HASH[:-1].reshape(2, _POOL, 1))
             * _STATE_HASH[1:].reshape(2, _POOL, 1))
    words = np.empty((indices.size, 2, _POOL), dtype=np.uint32)
    np.bitwise_xor(state, state >> 16, out=words.transpose(1, 2, 0))
    return words.reshape(-1, 2 * _POOL).view("<u8").astype(np.uint64, copy=False)


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """Hands a bit generator seed words that were computed beforehand.

    ``PCG64`` asks for ``generate_state(4, np.uint64)``; `words` must
    hold exactly those four words.
    """

    words = None

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


# Step t of the jump table holds (A_t, C_t) = (MULT**(t+1),
# sum(MULT**i for i <= t+1)) mod 2**128, so that t steps past PCG64's
# seeding the state is A_t initstate + C_t inc.  Each constant is stored
# as its low word, high word and the low word's two 32-bit halves.  The
# table grows on demand and is only ever replaced by a longer copy.
_JUMPS = np.zeros((2, 4, 0), dtype=np.uint64)


def _jump_table(stop: int) -> np.ndarray:
    """Steps 0 .. stop-1 of the (2, 4, steps) jump table."""
    global _JUMPS
    if _JUMPS.shape[2] < stop:
        a = c = 1
        steps = []
        for _ in range(max(stop, 2 * _JUMPS.shape[2])):
            a = a * _PCG_MULT & _M128
            c = c + a & _M128
            steps.append((a, c))
        lo = np.array([[a & _M64, c & _M64] for a, c in steps], dtype=np.uint64)
        hi = np.array([[a >> 64, c >> 64] for a, c in steps], dtype=np.uint64)
        _JUMPS = np.stack([lo.T, hi.T, lo.T & _M32, lo.T >> 32], axis=1)
    return _JUMPS[:, :, :stop]


def _add_product(hi, lo, a, x_hi, x_lo, t1, t2) -> None:
    """``(hi, lo) += a * x`` mod 2**128 on uint64 limbs, in place.

    `a` is a (4, W, 1) slice of the jump table, one 128-bit constant per
    step; ``x = (x_hi, x_lo)`` holds one 128-bit value per row (N,).
    `t1` and `t2` are (W, N) work arrays.  numpy multiplies uint64 modulo
    2**64, so the high word of the low words' product is assembled from
    their 32-bit halves.
    """
    a_lo, a_hi, a0, a1 = a
    x0, x1 = x_lo & _M32, x_lo >> 32
    np.multiply(a_lo, x_lo, out=t1)
    lo += t1
    hi += lo < t1
    np.multiply(a_hi, x_lo, out=t1)
    hi += t1
    np.multiply(a_lo, x_hi, out=t1)
    hi += t1
    np.multiply(a1, x0, out=t1)
    np.multiply(a0, x0, out=t2)
    t2 >>= 32
    t1 += t2
    np.bitwise_and(t1, _M32, out=t2)
    t1 >>= 32
    hi += t1
    np.multiply(a0, x1, out=t1)
    t2 += t1
    t2 >>= 32
    hi += t2
    np.multiply(a1, x1, out=t1)
    hi += t1


def _lcg_states(seeds: np.ndarray, start: int, stop: int):
    """PCG64 states of every seed row, steps start .. stop-1 past seeding.

    Step t is ``A_t initstate + C_t inc`` (see `_JUMPS` and `child_raw`):
    step 0 is the state a fresh ``PCG64`` holds, and raw word j is the
    output of step j + 1.  Returns the high and low uint64 words, each
    (stop - start, N).
    """
    table = _jump_table(stop)[:, :, start:stop, None]
    shape = (stop - start, seeds.shape[0])
    hi, lo = np.zeros(shape, np.uint64), np.zeros(shape, np.uint64)
    t1, t2 = np.empty(shape, np.uint64), np.empty(shape, np.uint64)
    w0, w1, w2, w3 = seeds.T
    _add_product(hi, lo, table[0], w0, w1, t1, t2)
    _add_product(hi, lo, table[1], w2 << 1 | w3 >> 63, w3 << 1 | 1, t1, t2)
    return hi, lo


def _xsl_rr(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's output ``rotr64(hi ^ lo, hi >> 58)`` of (W, N) states, as
    an (N, W) array; overwrites `hi` and `lo`."""
    lo ^= hi
    hi >>= 58
    right = np.right_shift(lo, hi)
    np.negative(hi, out=hi)
    hi &= 63
    lo <<= hi
    out = np.empty(lo.shape[::-1], dtype=np.uint64)
    np.bitwise_or(right, lo, out=out.T)
    return out


def _own_rows(seeds: np.ndarray, words):
    """Raw words of each seed row, ``words[r]`` of them for row ``r``,
    from one ``PCG64`` each, built from the row's seed words without a
    ``SeedSequence`` or ``Generator`` of its own."""
    seed = _SeedWords()
    for row, count in zip(seeds, words):
        seed.words = row
        yield np.random.PCG64(seed).random_raw(count)


def child_raw(stream: Stream, indices, words: int) -> np.ndarray:
    """Raw PCG64 output of many children.

    Row ``r`` of the (len(indices), words) uint64 result equals
    ``stream.child(indices[r]).rng().bit_generator.random_raw(words)``.
    Every index must lie in [0, 2**32).  The seed words of all children
    come from one vectorised pass (`_child_seeds`).

    Rows of at most `SHORT_ROW_WORDS` words are then computed in one
    numpy pass.  ``PCG64`` seeds its state from the words w0..w3 as
    ``state = 0; step; state += initstate; step`` with initstate
    ``w0:w1``, ``inc = 2 (w2:w3) + 1`` and ``step: state = MULT state +
    inc``, and steps once more before each output.  So the state behind
    raw word j is ``x_j = A initstate + C inc`` mod 2**128 with the
    per-word constants ``A = MULT**(j+2)`` and ``C = sum(MULT**i for i
    <= j+2)`` (the jump table `_JUMPS`): two 128-bit products on uint64
    limbs per word, then the XSL-RR output ``rotr64(hi ^ lo, hi >> 58)``.
    That costs about 60 ns a word, against ~2-3 us a row plus ~1 ns a
    word for one ``PCG64`` per row, so longer rows take the per-row
    generator (`_own_rows`).  The two break even near 45-60 words at
    128-400 rows, and near 45 at 2000 rows.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and (indices.min() < 0 or indices.max() > _M32):
        raise ValueError("child indices must lie in [0, 2**32)")
    seeds = _child_seeds(stream, indices)
    if words <= SHORT_ROW_WORDS:
        return _xsl_rr(*_lcg_states(seeds, 1, words + 1))
    out = np.empty((indices.size, words), dtype=np.uint64)
    for r, raw in enumerate(_own_rows(seeds, [words] * indices.size)):
        out[r] = raw
    return out


def child_draws(stream: Stream, indices: np.ndarray,
                counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What ``Generator.integers(0, n, count)`` and then
    ``Generator.random(count)`` read from the raw words of many children,
    ``counts[r]`` of each for child ``indices[r]``.

    Returns the rows concatenated: the uint32 draws of the integers (two
    per raw word, low half first) and the raw words of the doubles (one
    each), so that row ``r`` spans ``ceil(counts[r] / 2) + counts[r]``
    words of ``stream.child(indices[r]).rng().bit_generator.random_raw``.
    `indices` and `counts` are int64 arrays of equal length, every index
    in [0, 2**32) and every count >= 0 (`dist.sample_children` checks).
    At least `MIN_SHORT_ROWS` rows of one count of at most
    `SHORT_ROW_WORDS` words take the numpy pass of `child_raw`; any
    other call runs one ``PCG64`` per row (`_own_rows`).
    """
    halves = (counts + 1) >> 1
    words = halves + counts
    if (indices.size >= MIN_SHORT_ROWS and words.max() <= SHORT_ROW_WORDS
            and counts.min() == counts.max()):
        count, half = int(counts[0]), int(halves[0])
        raw = child_raw(stream, indices, half + count)
        pairs = raw.astype("<u8", copy=False).view("<u4")
        return pairs[:, :count].ravel(), raw[:, half:].ravel()
    stop = counts.cumsum()
    draws = np.empty(int(stop[-1]) if stop.size else 0, dtype=np.uint32)
    doubles = np.empty(draws.size, dtype=np.uint64)
    rows = _own_rows(_child_seeds(stream, indices), words.tolist())
    for raw, count, half, end in zip(rows, counts.tolist(), halves.tolist(),
                                     stop.tolist()):
        pairs = raw[:half].astype("<u8", copy=False).view("<u4")
        draws[end - count:end] = pairs[:count]
        doubles[end - count:end] = raw[half:]
    return draws, doubles


def bounded_indices(draws: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Map uint32 `draws` to [0, n) as ``Generator.integers(0, n)`` does.

    That is Lemire's method for 2 <= n < 2**32: ``(draw * n) >> 32``,
    rejecting a draw whose low product word falls below
    ``(2**32 - n) % n`` (never, when n is a power of two).  Returns the
    int64 indices and a mask of the accepted draws; where a draw is
    rejected numpy would draw again, so the index there (and every later
    draw of that stream) is not numpy's.
    """
    if not 2 <= n <= _M32:
        raise ValueError("bounded_indices needs 2 <= n < 2**32")
    product = np.multiply(draws, np.uint64(n), dtype=np.uint64)
    floor = (2**32 - n) % n
    if floor:
        accepted = product & np.uint64(_M32) >= np.uint64(floor)
    else:
        accepted = np.ones(product.shape, dtype=bool)
    product >>= np.uint64(32)
    return product.view(np.int64), accepted
