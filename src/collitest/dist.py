"""Discrete distributions over the 1-based domain {1, .., n}.

Construction validates and renormalizes a float64 probability vector.
Sampling goes through a Walker alias table: O(n) setup per distribution,
O(1) per draw afterwards, vectorized over numpy generators.
`sample_children` draws the samples of many sibling streams at once,
one count per stream, bitwise equal to drawing each from its own
generator; every labeling and simulator draws through it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import Stream, bounded_indices, child_draws

SUM_TOLERANCE = 1e-12


def _build_alias_table(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker/Vose alias construction; returns (accept, alias) arrays."""
    n = probs.size
    accept = np.ones(n, dtype=np.float64)
    alias = np.arange(n, dtype=np.int64)
    scaled = (probs * n).copy()
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    while small and large:
        lo = small.pop()
        hi = large.pop()
        accept[lo] = scaled[lo]
        alias[lo] = hi
        scaled[hi] -= 1.0 - scaled[lo]
        (small if scaled[hi] < 1.0 else large).append(hi)
    # whatever remains is numerically 1; accept stays 1 and alias self-points
    return accept, alias


class Distribution:
    """Immutable probability vector over {1, .., n}.

    Entries must be non-negative and sum to one within ``SUM_TOLERANCE``;
    the stored vector is the input divided by its exact float sum.
    Instances are safe to share across threads; sampling takes an explicit
    generator so there is no hidden shared state.
    """

    __slots__ = ("probs", "_accept", "_alias")

    def __init__(self, probs) -> None:
        arr = np.array(probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("probs must be a non-empty 1-d vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("probs must be finite")
        if np.any(arr < 0.0):
            raise ValueError("probs must be non-negative")
        total = float(arr.sum())
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise ValueError(
                f"probs sum to {total!r}; expected 1 within {SUM_TOLERANCE}"
            )
        arr /= total
        arr.flags.writeable = False
        self.probs = arr
        self._accept = None
        self._alias = None

    @property
    def n(self) -> int:
        return int(self.probs.size)

    def collision_probability(self) -> float:
        """mu = sum_i p_i^2, the chance two independent samples are equal."""
        return float(np.dot(self.probs, self.probs))

    def three_way_collision_probability(self) -> float:
        """gamma = sum_i p_i^3, the chance three independent samples are equal."""
        return float(np.sum(self.probs**3))

    def sample(self, count: int, gen: np.random.Generator) -> np.ndarray:
        """Draw `count` i.i.d. 1-based values using the supplied generator."""
        if count < 0:
            raise ValueError("count must be >= 0")
        idx = gen.integers(0, self.n, size=count)
        return self._lookup(idx, gen.random(count))

    def _lookup(self, idx: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Alias-table values (1-based) for uniform indices and uniforms."""
        if self._accept is None:
            # idempotent lazy build; concurrent builders compute identical tables
            self._accept, self._alias = _build_alias_table(self.probs)
        return np.where(u < self._accept[idx], idx, self._alias[idx]) + 1

    def to_json(self) -> dict:
        return {"n": self.n, "probs": [float(p) for p in self.probs]}

    @classmethod
    def from_json(cls, obj: dict) -> "Distribution":
        dist = cls(obj["probs"])
        if dist.n != int(obj["n"]):
            raise ValueError("n does not match the length of probs")
        return dist

    def __repr__(self) -> str:
        return f"Distribution(n={self.n})"


def sample_children(p: Distribution, stream: Stream, indices,
                    counts) -> np.ndarray:
    """Samples of many child streams, drawn together.

    `counts` is one sample count for all rows or one per row.  Row ``r``
    is bitwise equal to ``p.sample(counts[r], stream.child(indices[r]).rng())``;
    the result is the (len(indices), counts) int64 array of the rows for
    one count, and the rows concatenated for one count per row.

    ``p.sample(count, gen)`` draws ``count`` bounded integers and then
    ``count`` doubles (``(w >> 11) * 2**-53`` of one raw word each).  Here
    `child_draws` reads the raw words of all rows, and the bounded map,
    the double map and the alias lookup each run once over all samples
    of the call.  A row whose integers numpy would redraw (see
    `bounded_indices`), a negative index or one of 2**32 or more, and
    every row when ``n >= 2**32``, are drawn from their own generator
    instead.  For ``n == 1`` every sample is 1 whatever the bits, as
    with `Distribution.sample`.

    A call costs some 15-25 us for the seed words and ~40 us of other
    fixed numpy work, then per row either ~90 ns per sample (at least
    `rng.MIN_SHORT_ROWS` rows of one count of up to 26 samples, computed
    by numpy limb arithmetic) or ~2-3 us plus ~5 ns per sample (one
    ``PCG64`` per row), and ~5 ns per sample for the maps.  One
    generator per row costs ~30 us before its first sample, so the call
    wins from about four rows on (0.75x the per-path time at 4 rows of
    600-1200 samples, 0.4x at 16) and loses on one or two (1.4-2x at one
    row of 3 to 4450 samples, 1.2x at two).  A call of a single row
    therefore draws it from its own generator.
    """
    indices = np.asarray(indices, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    shape = None
    if counts.ndim == 0:
        shape = (indices.size, int(counts))
        counts = counts.repeat(indices.size)
    if counts.shape != indices.shape:
        raise ValueError("give one count, or one count per index")
    if counts.size and counts.min() < 0:
        raise ValueError("count must be >= 0")
    stop = counts.cumsum()
    total = int(stop[-1]) if stop.size else 0
    if p.n == 1 or total == 0:
        out = np.ones(total, dtype=np.int64)
        return out if shape is None else out.reshape(shape)
    if indices.size == 1:  # a lone row: its own generator is faster
        out = p.sample(total, stream.child(int(indices[0])).rng())
        return out if shape is None else out.reshape(shape)
    # rows the batched draw cannot reproduce come from their own generator
    own = (indices < 0) | (indices >= 2**32) | (p.n >= 2**32)
    rows = (~own).nonzero()[0]
    draws, words = child_draws(stream, indices[rows], counts[rows])
    # with one count for all rows the draws keep their (rows, count) shape
    grid = (-1,) if shape is None else (-1, shape[1])
    idx, accepted = bounded_indices(draws.reshape(grid), p.n)
    words >>= np.uint64(11)
    values = p._lookup(idx, (words * 2.0**-53).reshape(grid)).ravel()
    if rows.size == indices.size:
        out = values
    else:
        out = np.empty(total, dtype=np.int64)
        out[(~own).repeat(counts)] = values
    if not accepted.all():  # numpy would redraw there: redraw the row
        rejected = (~accepted.ravel()).nonzero()[0]
        own[rows[counts[rows].cumsum().searchsorted(rejected, side="right")]] = True
    for r in own.nonzero()[0].tolist():
        out[stop[r] - counts[r]:stop[r]] = p.sample(
            int(counts[r]), stream.child(int(indices[r])).rng())
    return out if shape is None else out.reshape(shape)


def make_uniform(n: int) -> Distribution:
    """The uniform distribution over {1, .., n}."""
    if n < 1:
        raise ValueError("domain size must be >= 1")
    return Distribution(np.full(n, 1.0 / n))


def make_bump(n: int, eps: float) -> Distribution:
    """A two-level distribution at L1 distance exactly `eps` from uniform.

    The first n/2 elements carry (1+eps)/n each, the last n/2 carry
    (1-eps)/n each, so mu = (1+eps^2)/n exactly.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError("bump family needs an even domain size >= 2")
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    probs = np.empty(n)
    probs[: n // 2] = (1.0 + eps) / n
    probs[n // 2 :] = (1.0 - eps) / n
    return Distribution(probs)


def make_heavy(n: int, eps: float) -> Distribution:
    """One element of mass 1/n + eps/2, the rest rescaled uniformly.

    L1 distance to uniform is exactly `eps`.
    """
    if n < 2:
        raise ValueError("heavy family needs a domain size >= 2")
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    probs = np.full(n, (1.0 - 1.0 / n - eps / 2.0) / (n - 1))
    probs[0] = 1.0 / n + eps / 2.0
    if probs[1] < 0.0:
        raise ValueError("eps too large for this domain size")
    return Distribution(probs)


def l1_distance(p: Distribution, q: Distribution) -> float:
    """sum_i |p_i - q_i|; lies in [0, 2]."""
    if p.n != q.n:
        raise ValueError("distributions live on different domain sizes")
    return float(np.abs(p.probs - q.probs).sum())


@dataclass(frozen=True, eq=False)
class SampleLabeling:
    """I.i.d. samples attached to comparison-graph vertices.

    `values` holds one 1-based domain element per vertex; `seed_path`
    records which stream produced them.
    """

    values: np.ndarray
    seed_path: tuple[int, ...]

    def __len__(self) -> int:
        return int(self.values.size)


def sample_labeling(p: Distribution, vertex_count: int, stream: Stream) -> SampleLabeling:
    """Label `vertex_count` vertices with i.i.d. samples from one stream."""
    values = p.sample(vertex_count, stream.rng())
    return SampleLabeling(values=values, seed_path=stream.label())
