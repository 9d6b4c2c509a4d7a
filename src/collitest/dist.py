"""Discrete distributions over the 1-based domain {1, .., n}.

Construction validates and renormalizes a float64 probability vector.
Sampling goes through a Walker alias table: O(n) setup per distribution,
then one raw generator word per sample, mapped to its value without
rejection (`Distribution.sample`; the map and its bias are in `rng`).
A sample therefore owns a fixed word of its trial's stream.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import Stream

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

    __slots__ = ("probs", "_accept", "_alias", "_flat", "_shift", "_lim")

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
        self._flat = None
        self._lim = None
        # 53 - k for n = 2**k with 1 <= k <= 52, where `sample` maps in
        # integers (see `rng`); 0 for every other n
        k = arr.size.bit_length() - 1
        self._shift = 53 - k if arr.size == 1 << k and 1 <= k <= 52 else 0

    @property
    def n(self) -> int:
        return int(self.probs.size)

    @property
    def flat(self) -> bool:
        """Whether the alias table accepts every column, so that a sample
        is its index plus one whatever its fraction, and `sample` skips
        the accept test.

        Read from the built table (``accept.min() >= 1``), never from
        `probs`; true for every `make_uniform` and any constant vector.
        """
        self._table()
        return self._flat

    def collision_probability(self) -> float:
        """mu = sum_i p_i^2, the chance two independent samples are equal."""
        return float(np.dot(self.probs, self.probs))

    def three_way_collision_probability(self) -> float:
        """gamma = sum_i p_i^3, the chance three independent samples are equal."""
        return float(np.sum(self.probs**3))

    def sample(self, count: int, gen: np.random.Generator) -> np.ndarray:
        """Draw `count` i.i.d. 1-based values from the next `count` raw
        words of `gen`, one word each, by the map `rng` describes."""
        if count < 0:
            raise ValueError("count must be >= 0")
        words = gen.bit_generator.random_raw(count)
        accept, alias = self._table()
        shift = self._shift
        # n = 2**k maps in integers, other n by the float product (`rng`)
        if shift and self._flat:
            words >>= np.uint64(11 + shift)
            idx = words.view(np.int64)
        elif shift:
            words >>= np.uint64(11)
            w = words.view(np.int64)
            idx = w >> shift
            rej = np.flatnonzero(w >= self._lim.take(idx))
        else:
            words >>= np.uint64(11)
            x = words.view(np.int64) * (self.n * 2.0**-53)
            idx = x.astype(np.int64)  # below n for every word, see `rng`
            if not self._flat:
                x -= idx
                rej = np.flatnonzero(x >= accept.take(idx))
        if not self._flat:
            # gather `alias` only where the accept test failed
            idx[rej] = alias.take(idx[rej])
        idx += 1
        return idx

    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """The (accept, alias) arrays, built on first use.

        A non-flat table of n = 2**k also gets the int64 limits
        ``lim[i] = (i << s) + ceil(accept[i] * 2**s)``, ``s = 53 - k``:
        word ``w >> 11`` in column ``i`` is accepted iff it is below
        ``lim[i]`` (see `rng`).
        """
        if self._accept is None:
            # idempotent lazy build; concurrent builders compute identical
            # tables, and `_accept` is set last so that it marks the
            # alias, flat and limit fields as built
            accept, self._alias = _build_alias_table(self.probs)
            self._flat = bool(accept.min() >= 1.0)
            if self._shift and not self._flat:
                s = self._shift
                self._lim = ((np.arange(self.n, dtype=np.int64) << s)
                             + np.ceil(accept * 2.0**s).astype(np.int64))
            self._accept = accept
        return self._accept, self._alias

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
