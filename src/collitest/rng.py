"""Seed-path addressed random streams: seed-path contract v3.

One master seed governs a whole experiment.  A consumer of randomness
addresses its stream through a path of small integers; trial ``t`` of a
scenario is path ``(t,)``.  The mapping from ``(master_seed, path)`` to
the generator state is fixed, so results reproduce no matter in which
order (or on how many workers) the trials run.

Root and jump.  A path ``prefix + (t,)`` lives on the *root* of
``prefix``: numpy's ``PCG64`` seeded by the 4 words of
``SeedSequence(master_seed, spawn_key=prefix)``, which are computed once
per ``(master_seed, prefix)`` and cached.  The path's generator
(`Stream.rng`) is a fresh ``PCG64`` on those words, advanced by
``(t + 1) * JUMP mod 2**128`` steps, where ``JUMP`` is the step of
numpy's ``PCG64.jumped`` (``2**128`` over the golden ratio, rounded up
to odd).  So it equals
``PCG64(SeedSequence(master_seed, spawn_key=prefix)).jumped(t + 1)``
word for word, at a third of the cost of building a ``SeedSequence`` a
trial.  The empty path is the root itself, at jump 0.  A trial builds
one generator and addresses its raw 64-bit words by position: sample
``j`` of the trial is read from raw word ``j``.

* For a planned graph, ``j`` counts the vertices in owner (clique)
  order, so clique ``c`` starts at word ``S_c``, the sum of the clique
  sizes before it.  A batch of a streaming plan is such a clique.
* CONGEST node ``v`` reads word ``v``.

A consumer reads its range with ``bit_generator.random_raw`` and skips
to it with ``bit_generator.advance``, PCG's O(log) jump-ahead
(O'Neill 2014); the pair makes the trial stream a counter-addressed
stream in the sense of Salmon et al. (SC 2011).  Raw words do not
depend on how a range is split into calls, so the monolithic tester
(all |V| words in one call), the clique simulators (one call a trial),
a streaming player (an advance to its first batch, then one call a
chunk) and the CONGEST nodes see the same samples by construction.

Separation.  The paths ``prefix + (t,)`` start at words
``(t + 1) * JUMP mod 2**128`` of one PCG64 cycle of ``2**128`` words.
Two of them, ``t + 1 = a`` and ``b``, start ``||(a - b) * JUMP||`` words
apart, the distance to the nearest multiple of ``2**128``.  By the best
approximation property of continued fractions, for ``0 < d < q'`` that
distance is at least the one at ``q``, where ``q`` and ``q'`` are
consecutive convergent denominators of ``JUMP / 2**128``.  The last
``q`` below ``2**64`` is about ``2**62.7`` and the next is above
``2**64``, so any two jumps of ``0 .. 2**64 - 1`` (the root included)
start at least ``2**63.5`` words apart, more than the ``2**62``
samples `conditions._plan` allows a trial.  `Stream.rng` therefore
refuses a path index outside ``[0, 2**64 - 2]``.

Why not ``t * 2**64``.  Advancing by a multiple of ``2**64`` steps leaves
the low 64 bits of the 128-bit LCG state equal in every trial, and the
high bits form an arithmetic progression in ``t``.  PCG64's output
folds the two halves, so the first words of consecutive trials are
visibly dependent: over 2**16 trials the 16 x 16 table of their first
samples on {1, .., 16} gives a chi-squared of about 3200 on 255 degrees
of freedom, against about 210 with the golden-ratio jump, which moves
every state bit.

Word to sample.  `dist.Distribution.sample` maps each word ``w`` to one
value of {1, .., n}, with no rejection, so that no draw can shift the
samples after it:

* ``x = (w >> 11) * (n * 2**-53)`` and ``idx = floor(x)``;
* on a flat alias table the sample is ``idx + 1``;
* otherwise, with ``frac = x - idx`` (exact), it is ``idx + 1`` if
  ``frac < accept[idx]`` and ``alias[idx] + 1`` if not.

``idx`` needs no clamp to ``n - 1``: the largest product,
``(2**53 - 1) * n``, lies ``n`` below ``n * 2**53``, more than half an
ulp there, so it never rounds up to it.  The top 53 bits of ``w`` are a
uniform ``u`` on the grid ``k * 2**-53``, and ``idx`` is
``floor(u * n)``.  Each index receives ``2**53 / n`` grid points up to
one, and the rounding of the product moves each boundary by at most one
more, so an index's probability is within ``2 * 2**-53`` of ``1/n``: a
relative bias of at most ``n * 2**-52`` per value, below ``2.5e-10`` for
every n up to 2**20.  ``frac`` is resolved to
``2**-(53 - ceil(log2 n))``, which is the resolution of the accept test.

For ``n = 2**k`` with ``1 <= k <= 52`` the map is computed in integers,
with the same result for every word.  With ``u = w >> 11`` and
``s = 53 - k``, ``x = u * 2**-s`` is exact (a 53-bit integer scaled by a
power of two), so ``idx = u >> s``, which is ``w >> (64 - k)``, and
``frac = (u - (idx << s)) * 2**-s``, also exact.  ``accept[i] * 2**s``
is exact too, and for an integer ``m``, ``m < a`` iff ``m < ceil(a)``,
so ``frac < accept[idx]`` iff ``u < lim[idx]`` with the int64 table
``lim[i] = (i << s) + ceil(accept[i] * 2**s)``.  For other n (and
n = 1) the float product rounds, so the float map is kept there.
Lemire's bounded integers would be exact but reject some draws; keeping
later samples in place would then need a side stream keyed by (trial,
sample) for the redraws, a second generator for a bias far below what
any test here can see.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

JUMP = 0x9e3779b97f4a7c15f39cc0605cedc835  # the step of numpy's PCG64.jumped
MAX_INDEX = 2**64 - 2  # the largest path index with a proven separation


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
        """A fresh generator for this path: the root of ``path[:-1]``
        advanced by ``(path[-1] + 1) * JUMP`` steps, or the root itself
        for the empty path.

        Calling twice returns generators in the same initial state.  One
        path is shared by the disjoint word ranges of its consumers (the
        cliques, batches or nodes of one trial), each reading only its
        own words; two consumers must never read the same word.
        """
        path = self.path
        bits = np.random.PCG64(_root(self.master_seed, path[:-1]))
        if path:
            bits.advance(_index(path[-1]) * JUMP % 2**128)
        return np.random.Generator(bits)

    def label(self) -> tuple[int, ...]:
        """Provenance tuple ``(master_seed, *path)`` for trial records."""
        return (self.master_seed,) + self.path

    def __repr__(self) -> str:
        return f"Stream(master_seed={self.master_seed}, path={self.path})"


def _index(i: int) -> int:
    """``i + 1``, the jump count of path index `i`, if `i` is in range."""
    if not 0 <= i <= MAX_INDEX:
        raise ValueError(f"path index {i} is outside [0, 2**64 - 2]")
    return i + 1


class _Root:
    """The cached seed words of one root, handed to ``PCG64`` through
    numpy's ``ISeedSequence`` interface."""

    __slots__ = ("seq", "words")

    def __init__(self, seq: np.random.SeedSequence):
        self.seq = seq
        self.words = seq.generate_state(4, np.uint64)
        self.words.flags.writeable = False  # one array for every caller

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words == 4 and dtype is np.uint64:  # what PCG64 asks for
            return self.words
        return self.seq.generate_state(n_words, dtype)


@lru_cache(maxsize=1024)
def _root(master_seed: int, prefix: tuple[int, ...]) -> _Root:
    """The root of `prefix` under `master_seed`, built once.

    Registering `_Root` here, not at import, keeps ``numpy.random`` out
    of ``import collitest``.
    """
    np.random.bit_generator.ISeedSequence.register(_Root)
    for i in prefix:
        _index(i)
    return _Root(np.random.SeedSequence(master_seed, spawn_key=prefix))
