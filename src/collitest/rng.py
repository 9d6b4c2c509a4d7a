"""Seed-path addressed random streams: seed-path contract v2.

One master seed governs a whole experiment.  A consumer of randomness
addresses its stream through a path of small integers; trial ``t`` of a
scenario is path ``(t,)``.  The mapping from ``(master_seed, path)`` to
the generator state is fixed, so results reproduce no matter in which
order (or on how many workers) the trials run.

A path's generator (`Stream.rng`) is numpy's ``PCG64`` seeded by
``SeedSequence(master_seed, spawn_key=path)``.  A trial builds one, and
addresses its raw 64-bit words by position: sample ``j`` of the trial
is read from raw word ``j``.

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

import numpy as np


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

        Calling twice returns generators in the same initial state.  One
        path is shared by the disjoint word ranges of its consumers (the
        cliques, batches or nodes of one trial), each reading only its
        own words; two consumers must never read the same word.
        """
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(seq))

    def label(self) -> tuple[int, ...]:
        """Provenance tuple ``(master_seed, *path)`` for trial records."""
        return (self.master_seed,) + self.path

    def __repr__(self) -> str:
        return f"Stream(master_seed={self.master_seed}, path={self.path})"
