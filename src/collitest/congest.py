"""Round-accurate synchronous network simulator with per-edge bit metering.

The network is a connected simple graph over k nodes with identifiers
0..k-1.  A round lets every node push up to `channel_bits` bits over
each incident edge *per direction*.  `BitMeter.send` is the one checked
charge: it takes one message or arrays of them, optionally spread over
several rounds, and raises as soon as the running total of any
(round, directed edge) exceeds the channel.  Every node holds exactly
one sample from the input distribution: node ``v`` reads raw word ``v``
of the trial's stream, so `draw_node_samples` is one generator and one
`Distribution.sample` call of k words.

Schedules are computed on arrays over the CSR adjacency that `Network`
keeps, never by a Python loop over edges: a tree layer pass or a whole
pipelining schedule is one `send` call, and the BFS flood one call per
block of rounds.  `Network` checks connectivity by min-label hooking
and pointer jumping; its `diameter` is computed on first read, by a
bit-parallel BFS from every node.

A local or pipelined run splits into a `Schedule` and a trial.  Which
message crosses which edge in which round depends only on the network,
the BFS tree and the bundle plan, so the schedule (rounds, message
widths and, for bundles, the assignment) is built once per (net, tree,
plan), by the first run, and charged to that run's meter; later runs
given `schedule=run.schedule` charge nothing and cost a node draw plus
a collision count.  A schedule's assignment is shared by all its runs
and must not be mutated.

Protocols:

* `build_bfs_tree` floods (root-candidate, depth) pairs until quiescent.
  This is max propagation: after round r a node holds the largest id
  within r hops and its distance to it, so the max-id node wins, every
  node learns its true BFS depth, and the flood takes one round more
  than that node's eccentricity.
* `detect_topology` aggregates the degree sums |E| = sum(d)/2 and
  c = sum(d (d-1)) up the tree, certifies the topology itself as a
  comparison graph at the root when some tau certifies it
  (`conditions.certifying_tau`), and floods the answer.
* `local_collision_protocol` (certified topologies): one round in which
  every node sends its sample to each higher-id neighbor, local counts,
  one convergecast, decision at the root.
* `pipelined_bundle_protocol` (any topology with enough nodes): counts
  subtree sizes and pipelines leftover samples upward so whole bundles of
  s samples gather at single nodes.  The bundles are the players of a
  simultaneous `Plan` (family `disjoint_cliques`, one s-clique each),
  and the models referee decides from their collision counts.
* `combined_protocol` runs detection and picks whichever path applies;
  it returns the `CongestRun` of that path, with the detection attached
  and the tree and detection rounds added.
* `graph_power_detection` certifies the distance-<=t power of the
  topology, flagging nodes whose t-ball is too large to exchange within
  the documented round cap.  It returns a `DetectionResult` like plain
  detection, with `congestion_ok` set.

Round budgets are asserted against the documented constants below; the
reference texts only promise orders of magnitude, so the concrete
constants are a choice of this implementation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from . import tester
from .conditions import (COARSE_TAU_GRID, Plan, _feasible_tau, _plan,
                         _stats_pass, certify_stats, certifying_tau,
                         collision_threshold, equal_cliques_stats)
from .dist import Distribution
from .encoding import sample_bit_width
from .models import Message, Reports, _referee
from .errors import (CapacityError, InvalidNetworkError,
                     ModelViolationError, ProtocolRefusedError)
from .graph import ComparisonGraph
from .rng import Stream

CHANNEL_COEFF = 8        # channel_bits = ceil(8 (log2 n + log2 k)) per direction
C_BFS = 2                # tree build finishes within C_BFS * D + C0 rounds
C_DET = 4                # detection within C_DET * D + C0
C_SUM = 2                # local path within 1 + C_SUM * D + C0
C_PIPE = 8               # pipelined path or combined fallback within C_PIPE (D + s) + C0
C_POW = 8                # power-t detection within C_POW * t * D + C0 when balls fit
C0 = 10
BALL_ROUND_CAP = 4       # a t-ball is "too large" if it cannot be sent in this many rounds
REACH_WORDS = 1 << 20    # bit-parallel BFS: uint64 words per block (see _reach_levels)
FLOOD_BLOCK = 1 << 14    # BFS flood: about this many messages per charged block of rounds


class Network:
    """Connected topology plus the per-round channel budget.

    The adjacency is kept once, in CSR form: v's neighbours, ascending,
    are `indices[indptr[v]:indptr[v + 1]]`.
    """

    def __init__(self, topology: ComparisonGraph, n: int):
        if topology.vertex_count < 1:
            raise InvalidNetworkError("a network needs at least one node")
        # `BitMeter` keys a message as u*k + v + offset*k*k: int64-exact
        # for k below 2**21 (and offsets below 2**21)
        if topology.vertex_count >= 1 << 21:
            raise InvalidNetworkError("a network needs fewer than 2**21 nodes")
        if n < 1:
            raise ValueError("domain size must be >= 1")
        self.topology = topology
        self.n = int(n)
        k = self.k = topology.vertex_count
        e = topology.edges.astype(np.int64)
        keys = np.concatenate((e[:, 0] * k + e[:, 1], e[:, 1] * k + e[:, 0]))
        keys.sort()
        self.indptr = np.concatenate(([0], np.cumsum(topology.degrees)))
        self.indices = keys % k
        if not _connected(self.indptr, self.indices):
            raise InvalidNetworkError("the topology is disconnected")
        self.channel_bits = math.ceil(
            CHANNEL_COEFF * (math.log2(max(self.n, 1)) + math.log2(max(self.k, 1))))
        self.id_bits = sample_bit_width(self.k)

    @cached_property
    def diameter(self) -> int:
        """Largest eccentricity, computed on first read; no run path reads
        it.  It grows about as k^3 on a k-node path (2-core VM): 0.64 s,
        7.0 s and 56 s at 1600, 3200 and 6400 nodes."""
        return max(h for h, _ in _reach_levels(self))

    def out_edges(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(tails, heads) of every directed edge leaving `nodes`: grouped by
        tail in the order given, heads ascending within a tail."""
        starts = self.indptr[nodes]
        counts = self.indptr[nodes + 1] - starts
        tails = np.repeat(nodes, counts)
        shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        return tails, self.indices[np.arange(tails.size) + shift]


def _connected(indptr: np.ndarray, indices: np.ndarray) -> bool:
    """Whether the CSR graph is connected, by min-label hook and shortcut.

    Every label is a node of its own component, and a label that labels
    itself is a root.  Each pass hooks every root to the smallest label
    across its component's edges, then jumps pointers until every node
    labels its root.  At the fixpoint every edge joins equal labels, so
    the graph is connected when all labels are equal (to node 0).
    """
    label = np.arange(indptr.size - 1)
    tails = np.repeat(label, np.diff(indptr))
    while True:
        low, high = label[indices], label[tails]
        hook = low < high
        if not hook.any():
            return not label.any()
        np.minimum.at(label, high[hook], low[hook])
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def _reach_levels(net: Network, hops: int | None = None):
    """Bit-parallel BFS from every node of `net` at once.

    Sources are packed 64 to a uint64 word and run in blocks of words,
    so that a block's reach bits (k rows) and its neighbour gather (2|E|
    rows) hold at most REACH_WORDS words, or one word per row when 2|E|
    alone is more.  For each block, yields (h, reach) for h = 0, 1, ...:
    bit s of reach[v] is set when v is within h hops of the block's
    source s.  Without `hops` a block stops at the last h that reached
    a new node; with it, every block yields h = 0..hops.  `reach` is
    updated in place once the consumer asks for the next level.
    """
    k = net.k
    indptr, indices = net.indptr, net.indices
    words = -(-k // 64)
    width = max(1, min(words, REACH_WORDS // max(k, indices.size)))
    for w0 in range(0, words, width):
        w1 = min(words, w0 + width)
        sources = np.arange(64 * w0, min(k, 64 * w1))
        reach = np.zeros((k, w1 - w0), dtype=np.uint64)
        reach[sources, sources // 64 - w0] = np.left_shift(
            np.uint64(1), (sources % 64).astype(np.uint64))
        yield 0, reach
        frontier, h = reach, 0
        while hops is None or h < hops:
            grown = (np.bitwise_or.reduceat(frontier[indices], indptr[:-1], axis=0)
                     & ~reach) if indices.size else np.zeros_like(reach)
            if hops is None and not grown.any():
                break
            reach |= grown
            frontier, h = grown, h + 1
            yield h, reach


class BitMeter:
    """Counts rounds and bits per directed edge per round.

    `send(u, v, bits, offset)` is the one checked charge.  `u` and `v`
    are one tail and head or equal-length arrays of them; `bits` and
    `offset` broadcast against them.  A message with offset j travels j
    rounds after the current one, so one call can charge a multi-round
    schedule; the meter opens every round the offsets reach, and the
    last of them becomes the current round.  Each message adds to the
    running total of its (round, directed edge), across calls too, and a
    total over the per-direction channel budget raises before the call
    charges anything.  `send_bulk` is `send` without offsets.
    """

    def __init__(self, net: Network, record_transcript: bool = False):
        self.net = net
        self.rounds = 0
        self.record = record_transcript
        self.transcript: list[list] = []
        # directed edges charged in the current round (u * k + v, sorted)
        # and their running totals
        self._edges = self._totals = np.zeros(0, dtype=np.int64)
        self.max_edge_bits = 0

    def begin_round(self) -> None:
        self.rounds += 1
        self._edges = self._totals = np.zeros(0, dtype=np.int64)
        if self.record:
            self.transcript.append([])

    def send(self, u, v, bits, offset=0) -> None:
        u = np.asarray(u, dtype=np.int64).ravel()
        v = np.asarray(v, dtype=np.int64).ravel()
        if u.shape != v.shape:
            raise ValueError("tails and heads must have the same length")
        bits = np.broadcast_to(np.asarray(bits, dtype=np.int64), u.shape)
        offset = np.broadcast_to(np.asarray(offset, dtype=np.int64), u.shape)
        if not u.size:
            return
        last = int(offset.max())
        if offset.min() < 0:
            raise ValueError("round offsets must be >= 0")
        k = self.net.k
        if min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= k:
            raise ValueError(f"node ids must lie in 0..{k - 1}")
        span = k * k
        keys = u * k
        keys += v
        if last:
            keys += offset * span
        totals = bits
        if self._edges.size:  # earlier charges of the current round
            keys = np.concatenate((self._edges, keys))
            totals = np.concatenate((self._totals, bits))
        if not np.all(keys[1:] > keys[:-1]):
            keys, where = np.unique(keys, return_inverse=True)
            totals = np.bincount(where, weights=totals).astype(np.int64)
        most = int(totals.max())
        if most > self.net.channel_bits:
            first = int(np.argmax(totals > self.net.channel_bits))
            ahead, edge = divmod(int(keys[first]), span)
            raise ModelViolationError(
                f"round {self.rounds + ahead}: edge {edge // k}->{edge % k} "
                f"carries {int(totals[first])} bits, channel allows "
                f"{self.net.channel_bits}")
        self.max_edge_bits = max(self.max_edge_bits, most)
        if last:  # keep the totals of the round that is now current
            cut = np.searchsorted(keys, last * span)
            keys, totals = keys[cut:] - last * span, totals[cut:]
        self._edges, self._totals = keys, totals
        if self.record:
            rows = np.column_stack((u, v, bits))
            if last:
                order = np.argsort(offset, kind="stable")
                ends = np.cumsum(np.bincount(offset, minlength=last + 1))
                rows = np.split(rows[order], ends[:-1])
            else:
                rows = [rows]
            self.transcript[-1].extend(rows[0].tolist())
            self.transcript.extend(r.tolist() for r in rows[1:])
        self.rounds += last

    def send_bulk(self, us: np.ndarray, vs: np.ndarray, bits: int) -> None:
        self.send(us, vs, bits)


@dataclass
class BfsTree:
    root: int
    parent: np.ndarray   # parent[v], -1 at the root
    depth: np.ndarray
    children: list[list[int]]
    preorder: list[int]  # depth-first order, children visited by ascending id
    rounds: int


def _charge_rounds(meter: BitMeter, block: list, bits: int) -> None:
    """Charge consecutive rounds of (tails, heads) messages in one `send`,
    the first of them into the current round."""
    if len(block) == 1:
        meter.send(*block[0], bits)
        return
    tails, heads = (np.concatenate(x) for x in zip(*block))
    sizes = [t.size for t, _ in block]
    meter.send(tails, heads, bits, np.repeat(np.arange(len(block)), sizes))


def build_bfs_tree(net: Network, meter: BitMeter | None = None) -> BfsTree:
    """Leader election and BFS in one flood, until globally quiescent.

    Every node repeatedly offers (best root id seen, its depth under that
    root); larger root ids win, then smaller depths, then smaller sender
    ids pick the parent.  That is max propagation: after round r, node v
    holds the largest id within r hops and its distance to it, and v
    sends in round r + 1 iff that id grew in round r (every node sends
    in round 1).  A neighbour that did not send holds an id v already
    knows, so only the senders' ids matter.  Hence the largest id k - 1
    wins, a node's depth is the round of its last change, its distance
    to k - 1, and its parent is its smallest-id neighbour one layer up;
    the flood takes ecc(k - 1) + 1 rounds, and in the last one no node
    changes.

    A round costs one `out_edges` of its senders, one `np.maximum.at`
    over their messages and an O(k) copy and compare; no round passes
    over all 2|E| directed edges (only the parent pass at the end does,
    once).  The rounds are charged in blocks of about FLOOD_BLOCK
    messages, one `begin_round` and one `send` (`_charge_rounds`) each,
    so a long flood never holds all its messages at once.
    """
    k = net.k
    if k == 1:
        return BfsTree(root=0, parent=np.array([-1]), depth=np.array([0]),
                       children=[[]], preorder=[0], rounds=0)
    meter = meter or BitMeter(net)
    msg_bits = 2 * net.id_bits  # root candidate + depth
    top = np.arange(k)  # largest id heard of
    depth = np.zeros(k, dtype=np.int64)
    changed = np.arange(k)
    block: list[tuple[np.ndarray, np.ndarray]] = []
    held = rounds = 0
    while changed.size:
        if not block:  # before building messages: frees the meter's last round
            meter.begin_round()
        rounds += 1
        tails, heads = net.out_edges(changed)
        block.append((tails, heads))
        held += tails.size
        heard = top.copy()
        np.maximum.at(heard, heads, top[tails])
        changed = np.flatnonzero(heard != top)
        top = heard
        depth[changed] = rounds
        if held >= FLOOD_BLOCK or not changed.size:
            _charge_rounds(meter, block, msg_bits)
            block, held = [], 0
    # a node's lowest (depth, id) neighbour is one layer up, except at the root
    key = depth[net.indices]
    key *= k
    key += net.indices
    parent = np.minimum.reduceat(key, net.indptr[:-1]) % k
    parent[k - 1] = -1
    root = k - 1
    children: list[list[int]] = [[] for _ in range(k)]
    for v, par in enumerate(parent.tolist()):
        if par >= 0:
            children[par].append(v)
    preorder = []
    stack = [root]
    while stack:
        v = stack.pop()
        preorder.append(v)
        stack.extend(reversed(children[v]))
    return BfsTree(root=root, parent=parent, depth=depth,
                   children=children, preorder=preorder, rounds=rounds)


def _tree_rounds(tree: BfsTree, meter: BitMeter, bits_per_message: int,
                 toward_root: bool) -> int:
    """Charge one message per tree edge, one depth layer per round: child to
    parent deepest layer first (convergecast), or parent to child top first.
    One `send` charges every layer."""
    child = np.flatnonzero(tree.depth > 0)
    if not child.size:
        return 0
    depths, layer = np.unique(tree.depth[child], return_inverse=True)
    if toward_root:
        layer = depths.size - 1 - layer
    order = np.argsort(layer, kind="stable")
    child, layer = child[order], layer[order]
    parent = tree.parent[child]
    meter.begin_round()
    if toward_root:
        meter.send(child, parent, bits_per_message, layer)
    else:
        meter.send(parent, child, bits_per_message, layer)
    return depths.size


@dataclass
class DetectionResult:
    """A topology (or its power) certified at the root; `report` is None
    unless certified, and `congestion_ok` is None for plain detection."""

    certified: bool
    tau_star: float | None
    edge_count: int
    two_path_count: int
    rounds: int
    tree: BfsTree
    report: object | None = None
    congestion_ok: bool | None = None


def _certify_at_root(tree: BfsTree, meter: BitMeter, degrees: np.ndarray,
                     n: int, eps: float) -> DetectionResult:
    """Sum |E| and c(G) from node degrees up the tree, certify at the root
    by `certifying_tau` and flood the verdict down: a certified bit and a
    `COARSE_TAU_GRID` index or "exact"."""
    k = degrees.size
    degree_sum = int(degrees.sum())
    assert degree_sum % 2 == 0
    edge_count = degree_sum // 2
    two_path = int(np.sum(degrees * (degrees - 1)))
    up_bits = sample_bit_width(k * k + 1) + sample_bit_width(k**3 + 1)
    rounds = _tree_rounds(tree, meter, up_bits, toward_root=True)
    tau_star = certifying_tau(edge_count, two_path, n, eps)
    down_bits = 1 + sample_bit_width(len(COARSE_TAU_GRID) + 2)
    rounds += _tree_rounds(tree, meter, down_bits, toward_root=False)
    certified = tau_star is not None
    report = (certify_stats(edge_count, two_path, tau_star, n, eps)
              if certified else None)
    return DetectionResult(certified=certified, tau_star=tau_star,
                           edge_count=edge_count, two_path_count=two_path,
                           rounds=rounds, tree=tree, report=report)


def detect_topology(net: Network, n: int, eps: float, tree: BfsTree | None = None,
                    meter: BitMeter | None = None) -> DetectionResult:
    """Aggregate |E| and c(G) of the topology up the tree; certify at the root.

    Node degrees are local knowledge; two subtree sums travel in one
    message (both fit in O(log k) bits since |E| <= k^2 and c <= k^3).
    The topology is certified when some tau certifies it: the root takes
    `certifying_tau` and floods the verdict back down.  Rounds exclude
    the tree build, which is a reusable prerequisite.
    """
    meter = meter or BitMeter(net)
    tree = tree or build_bfs_tree(net, BitMeter(net))
    return _certify_at_root(tree, meter, net.topology.degrees, n, eps)


def draw_node_samples(net: Network, p: Distribution, stream: Stream) -> np.ndarray:
    """One sample per node, node v from raw word v of the trial stream."""
    return p.sample(net.k, stream.rng())


@dataclass(frozen=True, eq=False)
class Schedule:
    """The sample-independent part of a local or pipelined run.

    Which message crosses which edge in which round depends only on the
    network, the tree and the bundle plan; only the collision count
    depends on the samples.  A protocol called without a schedule builds
    one and charges it to its meter; called with one, it charges nothing
    and only draws, counts and decides (`_run`).  `bits` holds the
    message width of each phase.  A pipelined schedule also holds the
    simultaneous `Plan` whose players are the bundles, the
    `BundleAssignment` and `bundles`, the (ell, s) array of each
    bundle's node ids; its assignment is shared by every run of the
    schedule and must not be mutated.
    """

    path: str  # "local" | "pipelined"
    net: Network
    tree: BfsTree
    n: int
    eps: float
    tau: float
    threshold: float
    rounds_breakdown: dict
    bits: dict
    plan: Plan | None = None
    assignment: BundleAssignment | None = None
    bundles: np.ndarray | None = None

    @property
    def rounds(self) -> int:
        return sum(self.rounds_breakdown.values())

    def check(self, meter, path: str, net: Network, tree, n: int, eps: float,
              tau: float | None = None, plan: Plan | None = None) -> None:
        """Raise ValueError unless this schedule serves a `path` run with
        these arguments; a run given a schedule charges no meter."""
        if meter is not None:
            raise ValueError("a run given a schedule charges no meter")
        if (path != self.path or net is not self.net
                or (tree is not None and tree is not self.tree)
                or (n, eps) != (self.n, self.eps)
                or (tau is not None and tau != self.tau)
                or (plan is not None and plan != self.plan)):
            raise ValueError(
                "the schedule was built for another network, tree or plan")


@dataclass
class CongestRun:
    """One trial of a local, pipelined or combined run.

    The threshold, path, plan and assignment are read from `schedule`.
    `reports` (the bundles' messages) is None on the local path, and
    `detection` is set only by `combined_protocol`, whose `rounds` and
    `rounds_breakdown` also count the tree build and the detection.
    """

    decision: str
    rounds: int
    z: int | None  # None when a bundle sent the sentinel
    values: np.ndarray
    rounds_breakdown: dict
    schedule: Schedule
    reports: Reports | None = None
    detection: DetectionResult | None = None

    @property
    def messages(self) -> list[Message] | None:
        return None if self.reports is None else self.reports.messages


def _run(schedule: Schedule, p: Distribution, stream: Stream) -> CongestRun:
    """Draw one sample per node, count and decide.  The local path
    compares Z of the topology with T; on the pipelined path each bundle
    counts its own clique and the models referee decides."""
    values = draw_node_samples(schedule.net, p, stream)
    t = schedule.threshold
    if schedule.plan is None:
        z = tester.count_collisions(schedule.net.topology, values)
        decision, reports = ("YES" if z < t else "NO"), None
    else:
        decision, reports, z = _referee(
            tester.row_collisions(values[schedule.bundles]), t,
            schedule.bits["message"])
    return CongestRun(decision=decision, rounds=schedule.rounds, z=z,
                      values=values,
                      rounds_breakdown=dict(schedule.rounds_breakdown),
                      schedule=schedule, reports=reports)


def _local_schedule(net: Network, n: int, eps: float, tau_star: float,
                    tree: BfsTree | None, meter: BitMeter | None) -> Schedule:
    topo = net.topology
    if not _stats_pass(topo.edge_count, topo.two_path_count, tau_star, n, eps):
        raise ProtocolRefusedError(
            "the topology is not certified at this tau; detection must pass first")
    meter = meter or BitMeter(net)
    tree = tree or build_bfs_tree(net, BitMeter(net))
    bits = {"exchange": sample_bit_width(n),
            "sum": sample_bit_width(topo.edge_count + 1)}
    e = topo.edges
    meter.begin_round()
    meter.send(e[:, 0], e[:, 1], bits["exchange"])
    sum_rounds = _tree_rounds(tree, meter, bits["sum"], toward_root=True)
    return Schedule(path="local", net=net, tree=tree, n=n, eps=eps,
                    tau=tau_star,
                    threshold=collision_threshold(topo.edge_count, tau_star, n, eps),
                    rounds_breakdown={"exchange": 1, "sum": sum_rounds},
                    bits=bits)


def local_collision_protocol(net: Network, n: int, eps: float, tau_star: float,
                             p: Distribution, stream: Stream,
                             tree: BfsTree | None = None,
                             meter: BitMeter | None = None,
                             schedule: Schedule | None = None) -> CongestRun:
    """O(D)-round test on a certified topology.

    One round of sample exchange along the id orientation (each edge is
    counted exactly once, at its higher endpoint), then a convergecast
    of partial collision counts; the root compares against the threshold
    of the topology-as-comparison-graph.  The count the convergecast
    sums is Z of the topology, taken by `tester.count_collisions`.
    """
    if schedule is None:
        schedule = _local_schedule(net, n, eps, tau_star, tree, meter)
    else:
        schedule.check(meter, "local", net, tree, n, eps, tau=tau_star)
    return _run(schedule, p, stream)


# ---------------------------------------------------------------------------
# bundle pipelining


def choose_bundle_plan(n: int, eps: float, k: int) -> Plan:
    """Smallest certified bundle size s >= 3 with ell = floor(k/s) bundles.

    Rounds grow with s, so the smallest certified s wins; tau is solved
    exactly per s.  The bundles are the ell players of a simultaneous
    plan, one s-clique each.  Raises CapacityError when no (s, tau) fits
    within k samples.
    """
    for s in range(3, k + 1):
        ell = k // s
        if ell < 1:
            break
        tau = _feasible_tau(*equal_cliques_stats(s, ell), n, eps)
        if tau is not None:
            return _plan(n, eps, [(s, 1, j) for j in range(ell)], ell,
                         tau=tau, referee=True)
    raise CapacityError(
        f"{k} single-sample nodes cannot host a certified bundle tester "
        f"for n={n}, eps={eps}")


@dataclass
class BundleAssignment:
    """Deterministic sample-to-bundle map derived from the tree.

    Samples are ranked by the preorder walk of the tree (children by
    ascending id).  Every node bundles the lowest-ranked samples
    available to it (its own plus whatever its children forwarded) and
    forwards the remaining ranks to its parent.
    """

    bundles: list[list[int]]        # node ids, grouped per bundle
    bundle_holder: list[int]        # node that simulates each bundle
    forward: list[list[int]]        # ranks each node sends to its parent
    leftover: list[int]             # node ids never bundled (at the root)
    rank_of: np.ndarray
    node_of_rank: list[int]


def bundle_assignment(tree: BfsTree, s: int) -> BundleAssignment:
    """The `BundleAssignment` of `tree` for bundles of `s` samples.

    Nodes are visited in reverse preorder, so children come before
    their parent.  A node's available ranks need no sort: its own rank
    comes first, then what each child forwarded, children by ascending
    id (their preorder ranks ascend).  Bundles are listed deepest holder
    first, then by holder id, as a layer-by-layer pass would form them.
    """
    k = len(tree.preorder)
    node_of_rank = list(tree.preorder)
    rank_of = np.empty(k, dtype=np.int64)
    rank_of[node_of_rank] = np.arange(k)
    forward: list[list[int]] = [[] for _ in range(k)]
    kept: dict[int, list[int]] = {}
    for r in range(k - 1, -1, -1):
        v = node_of_rank[r]
        avail = [r]
        for c in tree.children[v]:
            avail += forward[c]
        cut = len(avail) - len(avail) % s
        forward[v] = avail[cut:]
        if cut:
            kept[v] = avail[:cut]
    depth = tree.depth.tolist()
    bundles: list[list[int]] = []
    holder: list[int] = []
    for v in sorted(kept, key=lambda v: (-depth[v], v)):
        nodes = [node_of_rank[r] for r in kept[v]]
        for j in range(0, len(nodes), s):
            bundles.append(nodes[j:j + s])
            holder.append(v)
    leftover = [node_of_rank[r] for r in forward[tree.root]]
    return BundleAssignment(bundles=bundles, bundle_holder=holder,
                            forward=forward, leftover=leftover,
                            rank_of=rank_of, node_of_rank=node_of_rank)


def _pipeline_rounds(net: Network, tree: BfsTree, assignment: BundleAssignment,
                     meter: BitMeter) -> int:
    """Simulate the remainder convergecast with per-edge FIFO pipelining.

    Each round, every node other than the root sends its parent the
    lowest-ranked samples (at most as many as one message fits) that it
    holds and still has to forward; a sample that arrives can move on in
    the next round.  The schedule is simulated on arrays of (node, rank)
    items and charged in one `send`.
    """
    sample_bits = sample_bit_width(net.n)
    per_round = max(1, net.channel_bits // sample_bits)
    parent = np.asarray(tree.parent)
    node = np.repeat(np.arange(net.k), [len(f) for f in assignment.forward])
    rank = np.fromiter(chain.from_iterable(assignment.forward), dtype=np.int64,
                       count=node.size)
    keep = parent[node] >= 0  # the root keeps what reaches it
    node, rank = node[keep], rank[keep]
    order = np.lexsort((rank, node))
    node, rank = node[order], rank[order]
    # the item each one becomes at the parent; -1 where the parent bundles it
    span = int(rank.max(initial=0)) + 1
    keys = node * span + rank
    up_keys = parent[node] * span + rank
    up = np.minimum(np.searchsorted(keys, up_keys), max(keys.size - 1, 0))
    up = np.where(keys[up] == up_keys, up, -1)
    live = rank == np.asarray(assignment.rank_of)[node]  # held and not yet sent
    sent = np.zeros(node.size, dtype=bool)
    senders, counts = [], []
    left = node.size
    while left:
        ready = np.flatnonzero(live)
        if not ready.size:
            raise ModelViolationError("pipeline stalled; assignment is inconsistent")
        holder = node[ready]
        first = np.ones(ready.size, dtype=bool)
        np.not_equal(holder[1:], holder[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        sizes = np.diff(np.append(starts, ready.size))
        if sizes.max() > per_round:  # each holder sends its lowest ranks
            place = np.arange(ready.size) - np.repeat(starts, sizes)
            ready = ready[place < per_round]
            sizes = np.minimum(sizes, per_round)
        live[ready] = False
        sent[ready] = True
        left -= ready.size
        arrive = up[ready]
        arrive = arrive[arrive >= 0]
        live[arrive] = ~sent[arrive]  # movable from the next round on
        senders.append(holder[starts])
        counts.append(sizes)
    if senders:
        meter.begin_round()
        tails = np.concatenate(senders)
        meter.send(tails, parent[tails], np.concatenate(counts) * sample_bits,
                   np.repeat(np.arange(len(senders)), [s.size for s in senders]))
    return len(senders)


def _pipelined_schedule(net: Network, n: int, eps: float,
                        tree: BfsTree | None, plan: Plan | None,
                        meter: BitMeter | None) -> Schedule:
    plan = plan or choose_bundle_plan(n, eps, net.k)
    meter = meter or BitMeter(net)
    tree = tree or build_bfs_tree(net, BitMeter(net))
    s, ell = plan.runs[0][0], plan.players
    assignment = bundle_assignment(tree, s)
    if len(assignment.bundles) != ell:
        raise ModelViolationError("bundle count does not match the plan")
    bits = {"count": sample_bit_width(net.k + 1),
            "message": plan.resources.message_bits,
            "answer": 1 + sample_bit_width(plan.edge_count + 1)}
    count_rounds = _tree_rounds(tree, meter, bits["count"], toward_root=True)
    pipe_rounds = _pipeline_rounds(net, tree, assignment, meter)
    answer_rounds = _tree_rounds(tree, meter, bits["answer"], toward_root=True)
    bundles = np.array(assignment.bundles, dtype=np.int64).reshape(ell, s)
    return Schedule(path="pipelined", net=net, tree=tree, n=n, eps=eps,
                    tau=plan.tau, threshold=plan.threshold,
                    rounds_breakdown={"count": count_rounds, "pipeline": pipe_rounds,
                                      "answers": answer_rounds},
                    bits=bits, plan=plan, assignment=assignment,
                    bundles=bundles)


def pipelined_bundle_protocol(net: Network, n: int, eps: float,
                              p: Distribution, stream: Stream,
                              tree: BfsTree | None = None,
                              plan: Plan | None = None,
                              meter: BitMeter | None = None,
                              schedule: Schedule | None = None) -> CongestRun:
    """Gather samples into bundles of s, run virtual players, aggregate.

    Phases: count subtree sizes, pipeline remainders upward, let each
    bundle play its clique of the simultaneous plan where it gathered,
    and convergecast (partial collision sum, sentinel flag) to the root
    acting as referee.  A tree built here, as everywhere, is not counted.
    A given `schedule` supplies the tree (when `tree` is None) and the
    plan (when `plan` is None).
    """
    if schedule is None:
        schedule = _pipelined_schedule(net, n, eps, tree, plan, meter)
    else:
        schedule.check(meter, "pipelined", net, tree, n, eps, plan=plan)
    return _run(schedule, p, stream)


def combined_protocol(net: Network, n: int, eps: float, p: Distribution,
                      stream: Stream, detection: DetectionResult | None = None,
                      schedule: Schedule | None = None) -> CongestRun:
    """Detect first, then test locally in O(D) rounds or fall back to bundles.

    Detection and the schedule of the chosen path are sample-independent
    functions of the topology, so a caller running many trials may pass
    a cached `detection` and an earlier run's `schedule` (the fallback
    then takes its bundle plan from the schedule); their rounds (and the
    tree build) are charged to every trial either way.  Without a
    detection, one is run on the schedule's tree when a schedule is
    given.
    """
    if detection is None:
        detection = detect_topology(net, n, eps, tree=getattr(schedule, "tree", None))
    tree = detection.tree
    if detection.certified:
        run = local_collision_protocol(net, n, eps, detection.tau_star, p,
                                       stream, tree=tree, schedule=schedule)
    else:
        run = pipelined_bundle_protocol(net, n, eps, p, stream, tree=tree,
                                        schedule=schedule)
    run.rounds += tree.rounds + detection.rounds
    run.rounds_breakdown.update(tree=tree.rounds, detect=detection.rounds)
    run.detection = detection
    return run


def graph_power_detection(net: Network, n: int, eps: float, t: int,
                          tree: BfsTree | None = None,
                          meter: BitMeter | None = None) -> DetectionResult:
    """Certify the distance-<=t power of the topology as a comparison graph.

    Nodes exchange their known balls hop by hop (a ball of b ids costs
    ceil(b * id_bits / channel) rounds per edge); any node whose ball
    needs more than BALL_ROUND_CAP rounds is flagged as a local
    congestion risk.  Degrees in the power graph are ball sizes minus
    one; their sums are aggregated and certified like plain detection.
    Ball sizes are popcounts of the bit-parallel BFS that also gives the
    diameter, and each hop round is charged in one `send`.
    """
    if t < 1:
        raise ValueError("power must be >= 1")
    meter = meter or BitMeter(net)
    tree = tree or build_bfs_tree(net, BitMeter(net))
    k = net.k
    ball_sizes = np.zeros((t + 1, k), dtype=np.int64)
    for h, reach in _reach_levels(net, t):
        ball_sizes[h] += np.bitwise_count(reach).sum(axis=1, dtype=np.int64)
    tails, heads = net.out_edges(np.arange(k))
    linked = net.topology.degrees > 0
    rounds = 0
    congestion_ok = True
    for h in range(t):
        bits_per_node = ball_sizes[h] * net.id_bits
        need = -(-bits_per_node[linked] // net.channel_bits)
        hop_rounds = int(need.max(initial=1))
        if np.any(need > BALL_ROUND_CAP):
            congestion_ok = False
        bits = bits_per_node[tails]
        for r in range(hop_rounds):
            meter.begin_round()
            remaining = bits - r * net.channel_bits
            live = remaining > 0
            meter.send(tails[live], heads[live],
                       np.minimum(net.channel_bits, remaining[live]))
        rounds += hop_rounds
    detection = _certify_at_root(tree, meter, ball_sizes[t] - 1, n, eps)
    detection.rounds += rounds
    detection.congestion_ok = congestion_ok
    return detection
