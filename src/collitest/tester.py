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

Z has one counting route per graph form, for one labeling or a batch of
them: a disjoint union of cliques goes through `block_collisions`
(never building its edges), any other graph through one gather of its
edges' endpoint samples (`_collisions`).  The monolithic tester, the
moment audit, the exact enumeration and the CONGEST local path all
count Z this way.  The clique simulators count the same blocks through
a `BlockLayout` built once per plan, and the streaming simulators
through one built once per trial for each chunk shape; these key on
the domain instead of each call's values.  `block_collisions` builds
one without a domain per call, and all are counted by
`layout_collisions`, so one rule chooses every block count's route.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conditions import collision_threshold
from .dist import Distribution, SampleLabeling, l1_distance, make_uniform
from .errors import CapacityError
from .graph import ComparisonGraph
from .rng import Stream

ENUMERATION_CAP = 10_000_000
# Equal blocks up to this size are counted by sorting each row
# (`row_collisions`).  Measured (2-core VM), 409 blocks of 20 samples
# from 1024 values: 42 us sorting rows (28 us of it the sort), 150 us
# sorting keyed runs and 320 us by one bincount, on a layout with the
# domain.
SMALL_BLOCK = 64
# Keyed blocks are counted by one bincount while there are at most this
# many keys per sample, and by sorting the samples into runs beyond.
# Measured (2-core VM): bincount 2-4x faster at 1.5-4 keys per sample,
# even near 16, sort-runs 2-4x faster at 40-100; its bins take at most
# this many int64 words per sample.  A `BlockLayout` with a domain
# {1..n} keys on it and fixes its route once, when it is built; without
# one (`block_collisions`) it keys on the range of each call's values,
# so the route can change from call to call.
DENSE_KEYS = 8
# samples per chunk drawn by `collision_counts_batch`, and elements per
# edge-endpoint matrix gathered for a batch of labelings in `_collisions`
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
    return collision_threshold(spec.graph.edge_count, spec.tau, spec.n, spec.eps)


def within_clique_collisions(values: np.ndarray) -> int:
    """Number of equal pairs among `values` (all pairs compared)."""
    if values.size < 2:
        return 0
    counts = np.bincount(values)
    # sum c (c - 1) = sum c^2 - size
    return int((counts @ counts - values.size) // 2)


def row_collisions(rows: np.ndarray) -> np.ndarray:
    """Equal pairs within each row of a 2-d array, as int64 per row.

    Sorts each row, then works on the hits alone: the places where a
    sorted value equals the one before it in its row.  Hit ``j`` of a
    chain of consecutive hits closes ``j`` pairs, so a run of ``L``
    equal values gives C(L, 2); each row sums its hits' depths.  After
    the sort every step scales with the hits, not the elements.
    """
    r, m = rows.shape
    if m < 2:
        return np.zeros(r, dtype=np.int64)
    flat = np.sort(rows, axis=1).ravel()
    eq = flat[1:] == flat[:-1]
    eq[m - 1::m] = False  # no pair crosses a row
    hits = np.flatnonzero(eq)
    pos = np.arange(1, hits.size + 1)
    # hits - pos is constant along a chain and rises from one to the next
    chain = hits - pos
    depth = pos - np.searchsorted(chain, chain)
    return np.bincount(hits // m, depth, minlength=r).astype(np.int64)


def block_collisions(values: np.ndarray, sizes) -> np.ndarray:
    """Equal pairs within each block of `values`, as int64 per block.

    Block ``b`` is the next ``sizes[b]`` values.  Counted by
    `layout_collisions` on a `BlockLayout` with no fixed domain, whose
    keyed routes key on the range of these values.
    """
    if values.size == 0:
        return np.zeros(len(sizes), dtype=np.int64)
    return layout_collisions(values, BlockLayout(sizes))


class BlockLayout:
    """Blocks of fixed sizes, with the route that counts them: a lone
    block by `within_clique_collisions`, equal blocks of at most
    `SMALL_BLOCK` by `row_collisions`, else by keys (see
    `layout_collisions`), with one bincount while
    ``blocks * n <= DENSE_KEYS * samples`` and sorted runs beyond.

    With a domain {1..n} the keyed routes key value ``v`` of block ``b``
    as ``v - 1 + b * n`` by adding `offsets` (``b * n - 1`` per sample,
    at most one int64 per sample), so the route is fixed when the layout
    is built and a count needs no per-call min, max or repeat.  With
    ``n=None`` a keyed count takes ``n`` from the range of its values.
    """

    __slots__ = ("sizes", "n", "total", "route", "offsets")

    def __init__(self, sizes, n: int | None = None) -> None:
        sizes = np.asarray(sizes, dtype=np.int64)
        self.sizes, self.n, self.offsets = sizes, n, None
        size = int(sizes[0])
        if sizes.size == 1:
            self.route, self.total = "lone", size
        elif size <= SMALL_BLOCK and (sizes == size).all():
            self.route, self.total = "rows", sizes.size * size
        else:
            self.total = int(sizes.sum())
            if n is None:
                self.route = "keyed"
            else:
                self.route = ("bincount"
                              if sizes.size * n <= DENSE_KEYS * self.total
                              else "runs")
                self.offsets = np.repeat(np.arange(sizes.size) * n - 1, sizes)


def layout_collisions(values: np.ndarray, blocks: BlockLayout) -> np.ndarray:
    """Equal pairs within each block of `blocks`, as int64 per block, for
    `blocks.total` values (in {1..n} when `blocks` has a domain); `values`
    is left as it is.

    On the keyed routes equal keys are equal values of one block, so a
    block's Z is ``sum c (c - 1) / 2`` over its key counts ``c``.
    """
    if blocks.route == "lone":
        return np.array([within_clique_collisions(values)])
    if blocks.route == "rows":
        return row_collisions(values.reshape(blocks.sizes.size, -1))
    if blocks.route == "keyed":  # the domain is this call's range, shifted to 1
        keys = np.subtract(values, int(values.min()) - 1, dtype=np.int64)
        blocks = BlockLayout(blocks.sizes, int(keys.max()))
        keys += blocks.offsets
    else:
        keys = values + blocks.offsets
    sizes, n = blocks.sizes, blocks.n
    if blocks.route == "bincount":
        counts = np.bincount(keys, minlength=sizes.size * n)
        counts = counts.reshape(sizes.size, n)
        # sum c (c - 1) = sum c^2 - size
        return (np.einsum("ij,ij->i", counts, counts) - sizes) // 2
    keys.sort()
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    run = np.diff(np.append(first, keys.size))
    pairs = np.concatenate(([0], np.cumsum(run * (run - 1) // 2)))
    # runs come in block order; block b's pairs end after its last run
    ends = np.searchsorted(keys[first] // n, np.arange(sizes.size),
                           side="right")
    return np.diff(pairs[ends], prepend=0)


def _collisions(graph: ComparisonGraph, values: np.ndarray):
    """Z of one labeling, or an int64 Z per row of an (m, |V|) batch.

    A block graph is counted by `block_collisions`, with every row's
    blocks in one call, and never builds its edges.  Other graphs gather
    the endpoint samples of their edges: one labeling in one gather,
    a batch in slices of about `GATHER_ELEMENTS` endpoint pairs, so the
    gathered matrices stay the same size whatever |E|.
    """
    sizes = graph.block_sizes
    if sizes is not None:
        if values.ndim == 1:
            z = block_collisions(values, sizes)
            # a lone clique skips the ~2 us of a numpy reduction
            return int(z[0] if z.size == 1 else z.sum())
        z = block_collisions(values.ravel(), np.tile(sizes, len(values)))
        return z.reshape(len(values), sizes.size).sum(axis=1)
    e = graph.edges
    if values.ndim == 1:
        return int(np.count_nonzero(values[e[:, 0]] == values[e[:, 1]]))
    step = max(1, GATHER_ELEMENTS // len(values))
    z = np.zeros(len(values), dtype=np.int64)
    for a in range(0, len(e), step):
        part = e[a:a + step]
        z += np.count_nonzero(values[:, part[:, 0]] == values[:, part[:, 1]],
                              axis=1)
    return z


def count_collisions(graph: ComparisonGraph, labeling) -> int:
    """Z: number of comparison edges whose endpoint samples are equal."""
    values = labeling.values if isinstance(labeling, SampleLabeling) else np.asarray(labeling)
    if values.size != graph.vertex_count:
        raise ValueError(
            f"labeling has {values.size} values for {graph.vertex_count} vertices")
    return _collisions(graph, values)


def draw_labeling(graph: ComparisonGraph, p: Distribution, stream: Stream) -> SampleLabeling:
    """Owner-aware labeling: the trial stream's samples in owner order.

    One generator reads all |V| words in one call; sample ``j`` (raw
    word ``j``, see `rng`) goes to the ``j``-th vertex of
    `ComparisonGraph.owner_order`: owner by owner, smallest id first,
    each owner's vertices in ascending order.  A planned graph's owners
    are its cliques in vertex order, so clique ``c`` reads the words
    from ``S_c`` on, the clique sizes before it summed, and a simulator
    that reads those words sees this labeling bitwise.
    """
    values = p.sample(graph.vertex_count, stream.rng())
    order = graph.owner_order
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
    samples, each counted by one `_collisions` call.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    gen = stream.rng()
    nv = graph.vertex_count
    out = np.empty(trials, dtype=np.int64)
    chunk = max(1, min(trials, GATHER_ELEMENTS // max(nv, 1)))
    for done in range(0, trials, chunk):
        m = min(chunk, trials - done)
        values = p.sample(m * nv, gen).reshape(m, nv)
        out[done:done + m] = _collisions(graph, values)
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
    powers = [n**j for j in range(nv)]
    error = 0.0
    chunk = 1 << 18
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        labels = np.empty((idx.size, nv), dtype=np.int64)
        for j in range(nv):
            labels[:, j] = (idx // powers[j]) % n
        z = _collisions(spec.graph, labels)
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

