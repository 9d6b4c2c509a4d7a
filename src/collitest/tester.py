"""The collision tester: count equal-sample edges, compare to a threshold.

A tester is a pair (G, tau).  It labels the vertices of G with i.i.d.
samples, counts the collisions Z (edges whose endpoints received equal
samples), and answers YES exactly when Z < T where

    T = |E| * (1 + tau * eps^2) / n .

Ties go to NO.  The first two moments of Z have closed forms in the
distribution's collision probabilities mu and gamma:

    E[Z]   = |E| * mu
    Var[Z] = |E| * (mu - mu^2) + c(G) * (gamma - mu^2)

with c(G) the directed two-path count of G.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import (Distribution, SampleLabeling, l1_distance, make_uniform,
                   sample_children)
from .errors import CapacityError
from .graph import ComparisonGraph
from .rng import Stream

ENUMERATION_CAP = 10_000_000
# equal blocks up to this size are counted row-wise by `row_collisions`
SMALL_BLOCK = 64
# `block_collisions` takes one bincount over its keys while there are at
# most this many keys per sample, and sorts the samples into runs beyond.
# Measured (2-core VM): bincount 2-4x faster at 1.5-4 keys per sample,
# even near 16, sort-runs 2-4x faster at 40-100; its bins take at most
# this many int64 words per sample.
DENSE_KEYS = 8
# elements per gathered edge-endpoint matrix in `collision_counts_batch`
GATHER_ELEMENTS = 4_000_000
_UNIFORM_TOL = 1e-12


@dataclass(frozen=True)
class TesterSpec:
    """A collision tester: comparison graph, threshold parameter, problem size."""

    graph: ComparisonGraph
    tau: float
    n: int
    eps: float

    def __post_init__(self):
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must lie in [0, 1]")
        if not 0.0 < self.eps <= 1.0:
            raise ValueError("eps must lie in (0, 1]")
        if self.n < 1:
            raise ValueError("domain size must be >= 1")
        if self.graph.edge_count < 1:
            raise ValueError("the comparison graph needs at least one edge")


@dataclass(frozen=True)
class TestOutcome:
    z: int
    t: float
    decision: str  # "YES" | "NO"

    def to_json(self) -> dict:
        return {"z": self.z, "t": self.t, "decision": self.decision}


def threshold(spec: TesterSpec) -> float:
    """T = |E| (1 + tau eps^2) / n, kept as a real (never rounded)."""
    return spec.graph.edge_count * (1.0 + spec.tau * spec.eps**2) / spec.n


def within_clique_collisions(values: np.ndarray) -> int:
    """Number of equal pairs among `values` (all pairs compared)."""
    if values.size < 2:
        return 0
    counts = np.bincount(values)
    return int(np.sum(counts * (counts - 1)) // 2)


def row_collisions(rows: np.ndarray) -> np.ndarray:
    """Equal pairs within each row of a 2-d array, as int64 per row.

    Sorts each row; an element equal to the ``j`` elements before it in
    its run closes ``j`` pairs.
    """
    rows = np.sort(rows, axis=1)
    pos = np.arange(1, rows.shape[1])
    run_start = np.maximum.accumulate(
        np.where(rows[:, 1:] != rows[:, :-1], pos, 0), axis=1)
    return (pos - run_start).sum(axis=1, dtype=np.int64)


def block_collisions(values: np.ndarray, sizes) -> np.ndarray:
    """Equal pairs within each block of `values`, as int64 per block.

    Block ``b`` is the next ``sizes[b]`` values.  Value ``v`` of block
    ``b`` is keyed ``v - min + b * span``, with ``span`` the range of the
    values, so equal keys are equal values of one block and a block's Z
    is ``sum c (c - 1) / 2`` over its key counts ``c``.  The counts come
    from one bincount while there are at most `DENSE_KEYS` keys per
    sample, and from runs of the sorted keys otherwise.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if values.size == 0:
        return np.zeros(sizes.size, dtype=np.int64)
    low = values.min()
    span = int(values.max() - low) + 1
    keys = np.subtract(values, low, dtype=np.int64)
    keys += np.repeat(np.arange(sizes.size) * span, sizes)
    if sizes.size * span <= DENSE_KEYS * values.size:
        counts = np.bincount(keys, minlength=sizes.size * span)
        counts = counts.reshape(sizes.size, span)
        # sum c (c - 1) = sum c^2 - size
        return (np.einsum("ij,ij->i", counts, counts) - sizes) // 2
    keys.sort()
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    run = np.diff(np.append(first, keys.size))
    pairs = np.concatenate(([0], np.cumsum(run * (run - 1) // 2)))
    # runs come in block order; block b's pairs end after its last run
    ends = np.searchsorted(keys[first] // span, np.arange(sizes.size),
                           side="right")
    return np.diff(pairs[ends], prepend=0)


def _block_collisions(values: np.ndarray, blocks) -> int:
    sizes = {b - a for a, b in blocks}
    if len(sizes) == 1:
        size = sizes.pop()
        if size < 2:
            return 0
        if len(blocks) == 1:
            return within_clique_collisions(values)
        if size <= SMALL_BLOCK:
            return int(row_collisions(values.reshape(len(blocks), size)).sum())
    return int(block_collisions(values, [b - a for a, b in blocks]).sum())


def count_collisions(graph: ComparisonGraph, labeling) -> int:
    """Z: number of comparison edges whose endpoint samples are equal."""
    values = labeling.values if isinstance(labeling, SampleLabeling) else np.asarray(labeling)
    if values.size != graph.vertex_count:
        raise ValueError(
            f"labeling has {values.size} values for {graph.vertex_count} vertices")
    if graph.edge_count == 0:
        return 0
    if graph.clique_blocks is not None:
        return _block_collisions(values, graph.clique_blocks)
    e = graph.edges
    return int(np.count_nonzero(values[e[:, 0]] == values[e[:, 1]]))


def draw_labeling(graph: ComparisonGraph, p: Distribution, stream: Stream) -> SampleLabeling:
    """Owner-aware labeling: owner i's vertices come from stream.child(i).

    An unowned graph is treated as a single owner 0.  Within an owner,
    samples fill its vertices in ascending vertex order.  A partitioned
    simulator that draws owner i's samples from the same child stream
    therefore reproduces this labeling bitwise; the simulators call the
    same `dist.sample_children`, one row per owner.
    """
    order, owners, sizes = graph.owner_groups
    values = sample_children(p, stream, owners, sizes)
    if order is not None:
        values, grouped = np.empty_like(values), values
        values[order] = grouped
    return SampleLabeling(values=values, seed_path=stream.label())


def evaluate(spec: TesterSpec, labeling) -> TestOutcome:
    """Decide from an existing labeling: YES iff Z < T (ties to NO)."""
    z = count_collisions(spec.graph, labeling)
    t = threshold(spec)
    return TestOutcome(z=z, t=t, decision="YES" if z < t else "NO")


def run(spec: TesterSpec, p: Distribution, stream: Stream) -> TestOutcome:
    """Draw |V| samples from `p` and decide; deterministic per stream."""
    if p.n != spec.n:
        raise ValueError("distribution domain does not match the tester")
    return evaluate(spec, draw_labeling(spec.graph, p, stream))


def expected_collisions(graph: ComparisonGraph, p: Distribution) -> float:
    """E[Z] = |E| mu."""
    return graph.edge_count * p.collision_probability()


def variance_collisions(graph: ComparisonGraph, p: Distribution) -> float:
    """Var[Z] = |E| (mu - mu^2) + c(G) (gamma - mu^2), c(G) directed."""
    mu = p.collision_probability()
    gamma = p.three_way_collision_probability()
    return (graph.edge_count * (mu - mu * mu)
            + graph.two_path_count * (gamma - mu * mu))


def collision_counts_batch(graph: ComparisonGraph, p: Distribution,
                           trials: int, stream: Stream) -> np.ndarray:
    """Z for `trials` independent labelings, drawn as one batched matrix.

    Used by moment audits, where only the distribution of Z matters; the
    whole batch comes from this single stream rather than per-trial
    sub-streams.  Trials are drawn in chunks of about `GATHER_ELEMENTS`
    samples.  A clique-union graph counts each chunk's blocks with one
    `block_collisions` call and never builds its edges; any other
    graph's edges are compared in slices of about `GATHER_ELEMENTS`
    endpoint pairs, so the gathered matrices stay the same size whatever
    |E|.
    """
    gen = stream.rng()
    nv = graph.vertex_count
    blocks = graph.clique_blocks
    if blocks is not None:
        sizes = np.diff(np.array(blocks, dtype=np.int64).reshape(-1, 2)).ravel()
    else:
        e = graph.edges
    out = np.empty(trials, dtype=np.int64)
    chunk = max(1, min(trials, GATHER_ELEMENTS // max(nv, 1)))
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        values = p.sample(m * nv, gen).reshape(m, nv)
        if blocks is not None:
            z = block_collisions(values.ravel(), np.tile(sizes, m))
            z = z.reshape(m, sizes.size).sum(axis=1)
        else:
            step = max(1, GATHER_ELEMENTS // m)
            z = np.zeros(m, dtype=np.int64)
            for a in range(0, len(e), step):
                part = e[a:a + step]
                z += np.count_nonzero(
                    values[:, part[:, 0]] == values[:, part[:, 1]], axis=1)
        out[done:done + m] = z
        done += m
    return out


def exact_error_probability(spec: TesterSpec, p: Distribution,
                            cap: int = ENUMERATION_CAP) -> float:
    """Exact error mass of the tester against `p`, by full enumeration.

    Sums the probability of every one of the n^|V| labelings on which
    the decision is wrong: NO when `p` is uniform, YES otherwise (any
    non-uniform `p` is treated as a far instance).  Requires
    n^|V| <= cap.
    """
    if p.n != spec.n:
        raise ValueError("distribution domain does not match the tester")
    nv = spec.graph.vertex_count
    n = p.n
    total = n**nv
    if total > cap:
        raise CapacityError(
            f"state space {n}^{nv} = {total} exceeds the enumeration cap {cap}")
    uniform = l1_distance(p, make_uniform(n)) <= _UNIFORM_TOL
    t = threshold(spec)
    e = spec.graph.edges
    powers = [n**j for j in range(nv)]
    error = 0.0
    chunk = 1 << 18
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        labels = np.empty((idx.size, nv), dtype=np.int64)
        for j in range(nv):
            labels[:, j] = (idx // powers[j]) % n
        z = np.zeros(idx.size, dtype=np.int64)
        for u, v in e:
            z += labels[:, u] == labels[:, v]
        wrong = (z >= t) if uniform else (z < t)
        if uniform:
            error += float(np.count_nonzero(wrong)) / total
        else:
            weights = np.prod(p.probs[labels], axis=1)
            error += float(weights[wrong].sum())
    return error


def monte_carlo_error(spec: TesterSpec, p: Distribution, trials: int,
                      stream: Stream) -> float:
    """Empirical error frequency over per-trial streams."""
    uniform = l1_distance(p, make_uniform(p.n)) <= _UNIFORM_TOL
    wrong = 0
    for trial in range(trials):
        outcome = run(spec, p, stream.child(trial))
        bad = outcome.decision == "NO" if uniform else outcome.decision == "YES"
        wrong += bad
    return wrong / trials

