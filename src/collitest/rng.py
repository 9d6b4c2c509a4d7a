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
``stream.child(i)`` at once: it reproduces numpy's ``SeedSequence`` pool
hash for all of them in one vectorised pass, then runs one ``PCG64`` per
path from those seed words, so row ``i`` equals
``stream.child(i).rng().bit_generator.random_raw(words)`` bit for bit.
`bounded_indices` maps those words to ``[0, n)`` the way
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
# numpy's SeedSequence constants (pool of four 32-bit words)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


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
    pre = [const]
    for _ in range(_POOL):
        pre.append(pre[-1] * _MULT_A & _M32)
    pre = np.array(pre, dtype=np.uint32)[:, None]
    h = (indices.astype(np.uint32) ^ pre[:-1]) * pre[1:]
    h ^= h >> 16
    pool = np.array([_MIX_MULT_L * x & _M32 for x in pool], dtype=np.uint32)
    pool = pool[:, None] - np.uint32(_MIX_MULT_R) * h
    pool ^= pool >> 16
    # generate_state cycles the pool through the second hash
    post = [_INIT_B]
    for _ in range(2 * _POOL):
        post.append(post[-1] * _MULT_B & _M32)
    post = np.array(post, dtype=np.uint32)[:, None]
    state = (np.concatenate([pool, pool]) ^ post[:-1]) * post[1:]
    state ^= state >> 16
    state = state.astype(np.uint64)
    return np.ascontiguousarray((state[0::2] | state[1::2] << np.uint64(32)).T)


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """Hands a bit generator seed words that were computed beforehand.

    ``PCG64`` asks for ``generate_state(4, np.uint64)``; `words` must
    hold exactly those four words.
    """

    words = None

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def child_raw(stream: Stream, indices, words: int) -> np.ndarray:
    """Raw PCG64 output of many children.

    Row ``r`` of the (len(indices), words) uint64 result equals
    ``stream.child(indices[r]).rng().bit_generator.random_raw(words)``.
    Every index must lie in [0, 2**32).  The seed words of all children
    come from one vectorised pass; each child then runs its own
    ``PCG64``, without a ``SeedSequence`` or ``Generator`` of its own.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and (indices.min() < 0 or indices.max() > _M32):
        raise ValueError("child indices must lie in [0, 2**32)")
    seeds = _child_seeds(stream, indices)
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
