"""Resource-accounted simulators for partitioned and streaming testers.

Each simulator executes a planned tester under its model's constraints
and accounts for every resource: samples drawn per player, message bits
sent, peak memory bits, sampling time.  Constraint violations raise
`ModelViolationError`; a completed run always has an empty violation
list.

Decision equivalence: a trial builds one generator from its stream,
and clique or batch ``c`` reads the raw words from ``S_c`` on, the
sizes of the cliques before it summed (see `rng`).  `tester.draw_labeling`
reads the same words for the same vertices, so a simulator run and
`tester.run` on the identical trial stream see bitwise-identical
labelings.  The only allowed divergence is early termination in the
streaming models, which can only ever turn into a NO that the
monolithic tester also reaches.

The simultaneous and asymmetric simulators build everything that
depends only on the plan once, as its `TrialLayout` (`Plan.layout`, or
`Plan.oblivious_layout`): the clique sizes and their counting route
(`tester.BlockLayout`), the clique-to-player fold (none when clique
``b`` is player ``b``), the samples per player, the threshold and the
message bits, with the oblivious exponents and the asymmetric schedule
checked on the way.  A trial then only reads all cliques in one
`Distribution.sample` call, counts them with one
`tester.layout_collisions` call, folds the counts onto their players
and lets the referee decide from the int64 count per player
(`_referee`); a run builds its `Message` list only when it is read.  The
streaming simulators walk the plan's runs of equal batches (`Plan.runs`)
once, a chunk at a time.  A chunk is one word range, read forward: an
advance to the chunk's first batch, then one read, and one
`tester.layout_collisions` call counts it on the `BlockLayout` of its
shape (batch size, batches), built once per trial, so no per-batch
array of the plan is ever built.  A chunk may run past the batch at
which the player's counter reaches T; those samples are drawn and
discarded, which no other batch can notice since each owns its own
words.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .conditions import Plan, clique_union_stats, collision_threshold
from .dist import Distribution
from .encoding import counter_bit_width, message_bit_width
from .errors import ModelViolationError
from .rng import Stream
from .tester import BlockLayout, layout_collisions
# no longer called here; perfbench's tracer wraps the name in this module
from .tester import within_clique_collisions  # noqa: F401

# The streaming simulators draw each player's batches in chunks of one
# run: FIRST_CHUNK batches, then twice as many each time, and never more
# than MAX_CHUNK_SAMPLES samples (but at least one batch) in a chunk.  On
# a planned layout (one run per player) a player that stops early has
# drawn at most FIRST_CHUNK batches more than twice the ones it used, and
# a chunk's arrays stay near a megabyte.
FIRST_CHUNK = 32
MAX_CHUNK_SAMPLES = 1 << 13


@dataclass(frozen=True)
class Message:
    """One player's report to the referee.

    Either a literal collision count strictly below the threshold, or
    the overflow sentinel standing for "at least T".  In oblivious mode
    the message also carries the player's sample count as a power-of-two
    exponent.
    """

    collisions: int | None  # None <=> overflow sentinel
    encoded_bits: int
    sample_count_exponent: int | None = None

    @property
    def is_sentinel(self) -> bool:
        return self.collisions is None


@dataclass
class ResourceLedger:
    """What a run actually consumed, player by player."""

    samples: list[int]
    message_bits: list[int]
    memory_bits: list[int]
    sampling_time: float | None = None
    early_terminated: bool = False
    violations: list[str] = field(default_factory=list)

    @property
    def total_samples(self) -> int:
        return sum(self.samples)

    def to_json(self) -> dict:
        return {"samples": self.samples, "message_bits": self.message_bits,
                "memory_bits": self.memory_bits,
                "sampling_time": self.sampling_time,
                "early_terminated": self.early_terminated,
                "violations": self.violations}


@dataclass(frozen=True, eq=False)
class Reports:
    """The players' int64 collision counts as the referee receives them;
    `messages` encodes them, `bits` bits each, when it is read."""

    z: np.ndarray
    threshold: float
    bits: int
    exponents: tuple[int, ...] | None = None

    @property
    def messages(self) -> list[Message]:
        exponents = self.exponents or (None,) * len(self.z)
        return [Message(None if z >= self.threshold else z, self.bits, e)
                for z, e in zip(self.z.tolist(), exponents)]


@dataclass(frozen=True)
class SimulationRun:
    decision: str  # "YES" | "NO"
    ledger: ResourceLedger
    reports: Reports | None  # None for a single player without a referee
    z: int | None  # referee's collision total; None when a sentinel arrived
    threshold: float

    @property
    def messages(self) -> list[Message] | None:
        return None if self.reports is None else self.reports.messages


def _referee(z: np.ndarray, t: float, bits: int, exponents=None):
    """YES exactly when no count in `z` is a sentinel (at least t) and
    their total is below t; the total is None when a sentinel arrived."""
    reports = Reports(z, t, bits, exponents)
    total = int(z.sum())
    if total < t:  # counts are non-negative, so none reached t
        return "YES", reports, total
    return "NO", reports, None if (z >= t).any() else total


@dataclass(frozen=True, eq=False)
class TrialLayout:
    """The part of a simultaneous trial that depends only on its plan.

    `blocks` are the cliques in plan order; `owners` maps clique to
    player, or is None when clique ``b`` is player ``b``.  `samples` is
    each player's sample count, `bits` the bits of every message, and
    `exponents` the oblivious players' sample-count exponents.
    """

    blocks: BlockLayout
    owners: np.ndarray | None
    samples: tuple[int, ...]
    threshold: float
    bits: int
    exponents: tuple[int, ...] | None = None


def trial_layout(plan: Plan, oblivious: bool = False) -> TrialLayout:
    """Build `plan`'s `TrialLayout`; `Plan.layout` and
    `Plan.oblivious_layout` call this once per plan and keep the result.

    A rate plan whose cliques are not ``floor(rate * time)`` samples
    raises `ModelViolationError` (schedule drift).  In oblivious mode
    every player's sample count is rounded up to a power of two, the
    threshold is taken on the rounded cliques, and the referee must
    recover their edge count from the exponents alone, one per player in
    player order, so a plan where a player holds no clique or several
    raises ValueError.
    """
    if plan.rates is not None:
        for (size, _, _), rate in zip(plan.runs, plan.rates):
            scheduled = int(math.floor(rate * plan.sampling_time))
            if scheduled != size:
                raise ModelViolationError(
                    f"schedule drift: rate {rate} over time "
                    f"{plan.sampling_time} yields {scheduled} samples, "
                    f"plan says {size}")
    sizes, counts, owners = np.array(plan.runs, dtype=np.int64).T
    owner = np.repeat(owners, counts)
    exponents = None
    exponent_bits = 0
    if oblivious:
        if plan.family != "disjoint_cliques":
            raise ValueError("oblivious mode applies to equal-clique plans")
        # a message's one exponent stands for one clique, so each player
        # must hold exactly one (and every run is then one clique)
        if not np.array_equal(np.sort(owner), np.arange(plan.players)):
            raise ValueError("oblivious mode needs one clique per player")
        clique_exponents = [math.ceil(math.log2(s)) for s in sizes.tolist()]
        exponents = tuple(e for _, e in sorted(zip(owners.tolist(),
                                                   clique_exponents)))
        sizes = np.left_shift(1, clique_exponents)
        max_exp = max(exponents)
        exponent_bits = math.ceil(math.log2(max_exp)) if max_exp > 1 else 0
        # one clique of 2**e samples per exponent e: the referee's |E|
        edge_count, _ = clique_union_stats(sizes.tolist())
        t = collision_threshold(edge_count, plan.tau, plan.n, plan.eps)
    else:
        t = plan.threshold
    if np.array_equal(owner, np.arange(plan.players)):
        owner = None
    samples = np.zeros(plan.players, dtype=np.int64)
    np.add.at(samples, owners, sizes * counts)
    return TrialLayout(BlockLayout(np.repeat(sizes, counts), plan.n), owner,
                       tuple(samples.tolist()), t,
                       message_bit_width(t) + exponent_bits, exponents)


def simulate_simultaneous(plan: Plan, p: Distribution, stream: Stream,
                          *, oblivious: bool = False) -> SimulationRun:
    """k players each test their own clique and send one short message.

    Cross-player comparisons are impossible by construction: every
    comparison happens inside a clique and each clique belongs to one
    player.  With `oblivious=True` every player rounds her sample count
    up to a power of two and transmits the exponent; the referee then
    reconstructs the comparison count from the messages alone instead of
    reading it from shared configuration.
    """
    if plan.family not in ("clique", "disjoint_cliques", "rate_cliques"):
        raise ValueError(f"not a simultaneous-style plan: {plan.family}")
    if p.n != plan.n:  # the layout keys samples on the plan's domain
        raise ValueError("distribution domain does not match the plan")
    layout = plan.oblivious_layout if oblivious else plan.layout
    blocks = layout.blocks
    z = layout_collisions(p.sample(blocks.total, stream.rng()), blocks)
    if layout.owners is not None:
        z, per_clique = np.zeros(plan.players, dtype=np.int64), z
        np.add.at(z, layout.owners, per_clique)
    t = layout.threshold
    decision, reports, total = _referee(z, t, layout.bits, layout.exponents)
    ledger = ResourceLedger(
        samples=list(layout.samples),
        message_bits=[layout.bits] * plan.players,
        memory_bits=[0] * plan.players,
    )
    return SimulationRun(decision, ledger, reports, total, t)


def simulate_asymmetric(plan: Plan, p: Distribution, stream: Stream) -> SimulationRun:
    """Rate-proportional sampling: player i draws floor(R_i t) samples."""
    if plan.family != "rate_cliques" or plan.rates is None:
        raise ValueError("not an asymmetric-rate plan")
    run = simulate_simultaneous(plan, p, stream)
    run.ledger.sampling_time = plan.sampling_time
    return run


def _streaming_fields(plan: Plan):
    if plan.m_bits is None or plan.bits_per_sample is None:
        raise ValueError("plan carries no memory budget")
    t = plan.threshold
    batch_bits = max(size for size, _, _ in plan.runs) * plan.bits_per_sample
    peak = batch_bits + counter_bit_width(t)
    if peak > plan.m_bits:
        raise ModelViolationError(
            f"peak memory {peak} bits exceeds the budget of {plan.m_bits}")
    return t, peak


def _stream_counters(plan: Plan, p: Distribution, stream: Stream, t: float):
    """Every player streams its batches in order until its counter reaches t.

    The runs are walked once in plan order, each in chunks of at most
    `rows` batches of that run, `rows` doubling per chunk of its player.
    Each chunk shape's `BlockLayout` is built once per trial.  The
    counts only grow, so the batch at which a counter reaches t is looked
    up only in the chunk whose total crosses it.  Returns per player the
    counter, the samples drawn and whether it stopped with batches left.
    """
    gen = stream.rng()
    at = word = 0  # the word `gen` reads next; the end of the runs so far
    counter, drawn = [0] * plan.players, [0] * plan.players
    early = [False] * plan.players
    rows = [FIRST_CHUNK] * plan.players
    layouts: dict[tuple[int, int], BlockLayout] = {}
    for size, count, owner in plan.runs:
        first, word = word, word + size * count
        while first < word:
            if counter[owner] >= t:  # stopped before this batch
                early[owner] = True
                break
            batches = min(rows[owner], (word - first) // size,
                          max(MAX_CHUNK_SAMPLES // size, 1))
            if first != at:  # a stopped player's batches lie between
                gen.bit_generator.advance(first - at)
            values = p.sample(size * batches, gen)
            at = first + size * batches
            blocks = layouts.get((size, batches))
            if blocks is None:
                blocks = layouts[size, batches] = BlockLayout(
                    np.full(batches, size), p.n)
            z = layout_collisions(values, blocks)
            total = counter[owner] + int(z.sum())
            used = batches
            if total >= t:  # the first batch whose running count reaches t
                cum = counter[owner] + np.cumsum(z)
                used = int(np.searchsorted(cum, t)) + 1
                total = int(cum[used - 1])
            counter[owner] = total
            drawn[owner] += size * used
            first, rows[owner] = first + size * used, 2 * rows[owner]
    return counter, drawn, early


def simulate_streaming(plan: Plan, p: Distribution, stream: Stream) -> SimulationRun:
    """One-pass batched stream with a saturating global collision counter.

    Each batch of m' samples is stored, compared within itself, added to
    the counter and discarded.  Once the counter reaches T the run stops
    and rejects; the monolithic tester on the full labeling agrees,
    since its Z can only be larger.
    """
    if plan.family not in ("batched_cliques", "clique") or plan.players != 1:
        raise ValueError(f"not a single-player streaming plan: {plan.family}")
    t, peak = _streaming_fields(plan)
    (counter,), drawn, (early,) = _stream_counters(plan, p, stream, t)
    decision = "YES" if counter < t else "NO"
    ledger = ResourceLedger(samples=drawn, message_bits=[],
                            memory_bits=[peak], early_terminated=early)
    return SimulationRun(decision, ledger, None, counter, t)


def simulate_simultaneous_streaming(plan: Plan, p: Distribution,
                                    stream: Stream) -> SimulationRun:
    """k players, each streaming her batches, then one message each.

    A player whose counter reaches T stops her stream and sends the
    sentinel; otherwise she sends her exact count.
    """
    if plan.family not in ("batched_cliques", "disjoint_cliques"):
        raise ValueError(f"not a streaming-simultaneous plan: {plan.family}")
    t, peak = _streaming_fields(plan)
    base_bits = message_bit_width(t)
    if base_bits > plan.m_bits / 2:
        raise ModelViolationError(
            f"message needs {base_bits} bits; half the memory is {plan.m_bits / 2:g}")
    z_per_player, samples, early = _stream_counters(plan, p, stream, t)
    decision, reports, total = _referee(np.array(z_per_player, dtype=np.int64),
                                        t, base_bits)
    ledger = ResourceLedger(
        samples=samples,
        message_bits=[base_bits] * plan.players,
        memory_bits=[peak] * plan.players,
        early_terminated=any(early),
    )
    return SimulationRun(decision, ledger, reports, total, t)
