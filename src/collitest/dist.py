"""Discrete distributions over the 1-based domain {1, .., n}.

Construction validates and renormalizes a float64 probability vector.
Sampling goes through a Walker alias table: O(n) setup per distribution,
O(1) per draw afterwards, vectorized over numpy generators.
`sample_children` draws the samples of many sibling streams at once,
bitwise equal to drawing each from its own generator.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import Stream, bounded_indices, child_raw

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
                    count: int) -> np.ndarray:
    """`count` samples from each child stream, drawn together.

    Row ``r`` of the (len(indices), count) int64 result is bitwise equal
    to ``p.sample(count, stream.child(indices[r]).rng())``.  That call
    draws ``count`` bounded integers (two per raw 64-bit word, low half
    first) and then ``count`` doubles (one word each, ``(w >> 11) *
    2**-53``); here the raw words of every child come from `child_raw`
    and are mapped the same way.  A row whose integers numpy would
    redraw (see `bounded_indices`), a negative index or one of 2**32 or
    more, and every row when ``n >= 2**32``, are drawn from their own
    generator instead.  For ``n == 1`` every sample is 1 whatever the
    bits, as with `Distribution.sample`.

    Worth it for many children with few samples each.  A call costs
    about 50 us for the seed words, then per child either ~90 ns per
    sample (rows of up to `rng.SHORT_ROW_WORDS` raw words, that is up to
    26 samples, computed by numpy limb arithmetic) or ~2-3 us plus ~1.5 ns
    per sample (longer rows, one ``PCG64`` each); one generator per
    child costs tens of microseconds before its first sample.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    indices = np.asarray(indices, dtype=np.int64)
    out = np.empty((indices.size, count), dtype=np.int64)
    if p.n == 1 or count == 0:
        out[:] = 1
        return out
    batched = (indices >= 0) & (indices < 2**32) & (p.n < 2**32)
    if batched.any():
        halves = (count + 1) // 2
        raw = child_raw(stream, indices[batched], halves + count)
        draws = np.empty((raw.shape[0], 2 * halves), dtype=np.uint32)
        draws[:, 0::2] = raw[:, :halves]  # keeps the low 32 bits
        draws[:, 1::2] = raw[:, :halves] >> np.uint64(32)
        idx, accepted = bounded_indices(draws[:, :count], p.n)
        u = (raw[:, halves:] >> np.uint64(11)) * 2.0**-53
        out[batched] = p._lookup(idx, u)
        batched[batched] = accepted.all(axis=1)  # redraw rows with a rejection
    for r in np.flatnonzero(~batched):
        out[r] = p.sample(count, stream.child(int(indices[r])).rng())
    return out


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
