"""Resource-accounted simulators for partitioned and streaming testers.

Each simulator executes a planned tester under its model's constraints
and accounts for every resource: samples drawn per player, message bits
sent, peak memory bits, sampling time.  Constraint violations raise
`ModelViolationError`; a completed run always has an empty violation
list.

Decision equivalence: player/batch `c` draws its samples from
``stream.child(c)``, the same sub-stream the monolithic tester uses for
owner `c` of the plan's graph, so a simulator run and `tester.run` on
the identical trial stream see bitwise-identical labelings.  The only
allowed divergence is early termination in the streaming models, which
can only ever turn into a NO that the monolithic tester also reaches.

Every simulator draws through `dist.sample_children`, the function
`tester.draw_labeling` uses, which is bitwise equal to one
``stream.child(c).rng()`` per clique or batch.  The simultaneous and
asymmetric simulators draw all cliques of a trial in one call and count
them with one `tester.block_collisions` call.  The streaming simulators
draw each player's batches a chunk at a time and count a chunk with one
`row_collisions` call per batch size.  Short batches (up to 26 samples,
when a call has at least `rng.MIN_SHORT_ROWS` of them) are drawn by
numpy arithmetic over the whole chunk, others by one ``PCG64`` each
(see `rng.child_draws`).  A chunk may run past the batch at which the
player's counter reaches T; those batches are drawn and discarded,
which no other batch can notice since each has its own path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .conditions import Plan, clique_union_stats
from .dist import Distribution, sample_children
from .encoding import counter_bit_width, message_bit_width
from .errors import ModelViolationError
from .rng import Stream
from .tester import block_collisions, row_collisions
# no longer called here; perfbench's tracer wraps the name in this module
from .tester import within_clique_collisions  # noqa: F401

# The streaming simulators draw each player's batches in chunks:
# FIRST_CHUNK batches, then twice as many each time, and never more than
# MAX_CHUNK_SAMPLES samples (but at least one batch) in a chunk.  A player
# that stops early has drawn at most FIRST_CHUNK batches more than twice
# the ones it used, and a chunk's arrays stay near a megabyte.
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


@dataclass(frozen=True)
class SimulationRun:
    decision: str  # "YES" | "NO"
    ledger: ResourceLedger
    messages: list[Message] | None
    z: int | None  # referee's collision total; None when a sentinel arrived
    threshold: float


def _rounded_pow2(x: int) -> int:
    if x < 1:
        raise ValueError("cannot round a non-positive sample count")
    return 1 << math.ceil(math.log2(x))


def _clique_collisions(plan_sizes, p: Distribution, stream: Stream):
    """Per-clique Z, clique ``c`` drawn from ``stream.child(c)``."""
    values = sample_children(p, stream, np.arange(len(plan_sizes)), plan_sizes)
    return block_collisions(values, plan_sizes).tolist()


def _referee(z_per_player, t: float, base_bits: int, exponents=None,
             exponent_bits: int = 0):
    """Encode per-player messages and decide like the referee would."""
    messages = []
    total = 0
    saw_sentinel = False
    for i, z_i in enumerate(z_per_player):
        exp = None if exponents is None else exponents[i]
        if z_i >= t:
            messages.append(Message(None, base_bits + exponent_bits, exp))
            saw_sentinel = True
        else:
            messages.append(Message(int(z_i), base_bits + exponent_bits, exp))
            total += int(z_i)
    if saw_sentinel:
        return "NO", messages, None
    return ("YES" if total < t else "NO"), messages, total


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
    sizes = plan.clique_sizes
    exponents = None
    exponent_bits = 0
    if oblivious:
        if plan.family != "disjoint_cliques":
            raise ValueError("oblivious mode applies to equal-clique plans")
        exponents = tuple(math.ceil(math.log2(s)) for s in sizes)
        sizes = tuple(1 << e for e in exponents)
        max_exp = max(exponents)
        exponent_bits = math.ceil(math.log2(max_exp)) if max_exp > 1 else 0
    edge_count, _ = clique_union_stats(sizes)
    t = edge_count * (1.0 + plan.tau * plan.eps**2) / plan.n
    if oblivious:
        # the referee must be able to recover |E| from the exponents alone
        recovered = sum((1 << e) * ((1 << e) - 1) // 2 for e in exponents)
        if recovered != edge_count:
            raise ModelViolationError("referee reconstruction mismatch")
    base_bits = message_bit_width(t)

    per_clique = _clique_collisions(sizes, p, stream)
    z_per_player = [0] * plan.players
    samples = [0] * plan.players
    for c, player in enumerate(plan.clique_players):
        z_per_player[player] += per_clique[c]
        samples[player] += sizes[c]
    decision, messages, total = _referee(z_per_player, t, base_bits,
                                         exponents, exponent_bits)
    ledger = ResourceLedger(
        samples=samples,
        message_bits=[m.encoded_bits for m in messages],
        memory_bits=[0] * plan.players,
    )
    return SimulationRun(decision, ledger, messages, total, t)


def simulate_asymmetric(plan: Plan, p: Distribution, stream: Stream) -> SimulationRun:
    """Rate-proportional sampling: player i draws floor(R_i t) samples."""
    if plan.family != "rate_cliques" or plan.rates is None:
        raise ValueError("not an asymmetric-rate plan")
    for size, rate in zip(plan.clique_sizes, plan.rates):
        scheduled = int(math.floor(rate * plan.sampling_time))
        if scheduled != size:
            raise ModelViolationError(
                f"schedule drift: rate {rate} over time {plan.sampling_time} "
                f"yields {scheduled} samples, plan says {size}")
    run = simulate_simultaneous(plan, p, stream)
    run.ledger.sampling_time = plan.sampling_time
    return run


def _streaming_fields(plan: Plan):
    if plan.m_bits is None or plan.bits_per_sample is None:
        raise ValueError("plan carries no memory budget")
    t = plan.threshold
    batch_bits = max(plan.clique_sizes) * plan.bits_per_sample
    peak = batch_bits + counter_bit_width(t)
    if peak > plan.m_bits:
        raise ModelViolationError(
            f"peak memory {peak} bits exceeds the budget of {plan.m_bits}")
    return t, peak


def _batch_collisions(sizes: np.ndarray, batches: np.ndarray,
                      p: Distribution, stream: Stream) -> np.ndarray:
    """Z of each batch, batch ``c`` drawn from ``stream.child(c)``."""
    z = np.empty(batches.size, dtype=np.int64)
    for size in np.unique(sizes[batches]):
        same = sizes[batches] == size
        z[same] = row_collisions(
            sample_children(p, stream, batches[same], int(size)))
    return z


def _stream_counters(plan: Plan, p: Distribution, stream: Stream, t: float):
    """Every player streams its batches in order until its counter reaches t.

    Returns per player the counter, the samples drawn and whether it
    stopped with batches left.
    """
    sizes = np.asarray(plan.clique_sizes, dtype=np.int64)
    players = np.asarray(plan.clique_players, dtype=np.int64)
    counter = np.zeros(plan.players, dtype=np.int64)
    drawn = np.zeros(plan.players, dtype=np.int64)
    early = np.zeros(plan.players, dtype=bool)
    for player in range(plan.players):
        mine = np.flatnonzero(players == player)
        start, rows = 0, FIRST_CHUNK
        while start < mine.size:
            batches = mine[start:start + rows]
            fits = np.searchsorted(np.cumsum(sizes[batches]),
                                   MAX_CHUNK_SAMPLES, side="right")
            batches = batches[:max(fits, 1)]
            cum = counter[player] + np.cumsum(
                _batch_collisions(sizes, batches, p, stream))
            hit = np.flatnonzero(cum >= t)
            used = hit[0] + 1 if hit.size else batches.size
            counter[player] = cum[used - 1]
            drawn[player] += sizes[batches[:used]].sum()
            start, rows = start + used, 2 * rows
            if hit.size:
                early[player] = start < mine.size
                break
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
    counter, drawn, early = _stream_counters(plan, p, stream, t)
    counter = int(counter[0])
    decision = "YES" if counter < t else "NO"
    ledger = ResourceLedger(samples=[int(drawn[0])], message_bits=[],
                            memory_bits=[peak], early_terminated=bool(early[0]))
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
    decision, messages, total = _referee(z_per_player.tolist(), t, base_bits)
    ledger = ResourceLedger(
        samples=samples.tolist(),
        message_bits=[m.encoded_bits for m in messages],
        memory_bits=[peak] * plan.players,
        early_terminated=bool(early.any()),
    )
    return SimulationRun(decision, ledger, messages, total, t)
