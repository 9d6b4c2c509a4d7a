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
``SeedSequence``, the ``PCG64`` and the ``Generator`` costs tens of
microseconds, which dominates when a consumer draws only a handful of
samples.  `child_raw` therefore serves many sibling paths
``stream.child(i)`` at once, so that row ``i`` equals
``stream.child(i).rng().bit_generator.random_raw(words)`` bit for bit:

* it reproduces numpy's ``SeedSequence`` pool hash for all of them in
  one vectorised pass (`_child_seeds`);
* for rows of at most `SHORT_ROW_WORDS` words it computes PCG64 itself,
  on uint64 limbs over all rows and words at once: PCG64 is the 128-bit
  LCG ``x -> MULT x + inc`` with the XSL-RR output, so the state behind
  raw word j is an affine function of the row's seed words with two
  per-word constants (`_lcg_states`);
* longer rows run one ``PCG64`` each from their seed words, which is
  faster there.

`bounded_indices` maps raw words to ``[0, n)`` the way
``Generator.integers`` does (Lemire's multiply-shift with rejection) and
flags every draw that numpy would reject and redraw.  On top of these,
`dist.sample_children` reproduces ``p.sample(count, stream.child(i).rng())``
for every row; it falls back to the per-path generator for a row with a
rejected draw, for an index that is negative or needs more than one
32-bit word, and for domains of 2**32 or more elements.
"""
from __future__ import annotations

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


def _hash_constants(first: int, mult: int, count: int) -> np.ndarray:
    """`first` and the `count` hash constants after it, as uint32."""
    out = [first]
    for _ in range(count):
        out.append(out[-1] * mult & _M32)
    return np.array(out, dtype=np.uint32)


# generate_state's hash constants, one pair per 32-bit output word
_STATE_HASH = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)[:, None]


def _child_seeds(stream: Stream, indices: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=path + (i,)).generate_state(4, uint64)``
    for every ``i`` in `indices` (each below 2**32), as the rows of an
    (N, 4) array.

    With a spawn key the entropy is the master seed padded to at least
    four words, then the key's words.  Everything but the last word is
    the same for all children, so the pool is folded once and only the
    last word's mixing runs vectorised.
    """
    run = _uint32_words(stream.master_seed)
    entropy = run + [0] * (_POOL - len(run))
    for p in stream.path:
        entropy += _uint32_words(p)
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * _MULT_A & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x, y):
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    # the last word: one hashmix per pool word, with successive constants
    pre = _hash_constants(const, _MULT_A, _POOL)[:, None]
    h = (indices.astype(np.uint32) ^ pre[:-1]) * pre[1:]
    h ^= h >> 16
    pool = np.array([_MIX_MULT_L * x & _M32 for x in pool], dtype=np.uint32)
    pool = pool[:, None] - np.uint32(_MIX_MULT_R) * h
    pool ^= pool >> 16
    # generate_state cycles the pool through the second hash, and pairs
    # the 32-bit words into little-endian uint64 words
    state = np.concatenate([pool, pool])
    state ^= _STATE_HASH[:-1]
    state *= _STATE_HASH[1:]
    words = np.empty((indices.size, 2 * _POOL), dtype=np.uint32)
    np.bitwise_xor(state, state >> 16, out=words.T)
    return words.view("<u8").astype(np.uint64, copy=False)


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
    generator (built from the seed words, without a ``SeedSequence`` or
    ``Generator`` of its own).  The two break even near 45-60 words at
    128-400 rows, and near 45 at 2000 rows.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and (indices.min() < 0 or indices.max() > _M32):
        raise ValueError("child indices must lie in [0, 2**32)")
    seeds = _child_seeds(stream, indices)
    if words <= SHORT_ROW_WORDS:
        return _xsl_rr(*_lcg_states(seeds, 1, words + 1))
    out = np.empty((indices.size, words), dtype=np.uint64)
    seed = _SeedWords()
    for r in range(indices.size):
        seed.words = seeds[r]
        out[r] = np.random.PCG64(seed).random_raw(words)
    return out


def bounded_indices(draws: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Map uint32 `draws` to [0, n) as ``Generator.integers(0, n)`` does.

    That is Lemire's method for 2 <= n < 2**32: ``(draw * n) >> 32``,
    rejecting a draw whose low product word falls below
    ``(2**32 - n) % n``.  Returns the int64 indices and a mask of the
    accepted draws; where a draw is rejected numpy would draw again, so
    the index there (and every later draw of that stream) is not numpy's.
    """
    if not 2 <= n <= _M32:
        raise ValueError("bounded_indices needs 2 <= n < 2**32")
    product = draws.astype(np.uint64) * np.uint64(n)
    accepted = product & np.uint64(_M32) >= np.uint64((2**32 - n) % n)
    return (product >> np.uint64(32)).astype(np.int64), accepted
