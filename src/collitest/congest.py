"""Round-accurate synchronous network simulator with per-edge bit metering.

The network is a connected simple graph over k nodes with identifiers
0..k-1.  A round lets every node push up to `channel_bits` bits over
each incident edge *per direction*.  `BitMeter.send` is the one checked
charge: it takes one message or arrays of them, optionally spread over
several rounds, and raises as soon as the running total of any
(round, directed edge) exceeds the channel.  Every node holds exactly
one sample from the input distribution, drawn from stream
``(trial, node)``; `draw_node_samples` draws all nodes' samples in one
`dist.sample_children` call, bitwise equal to one generator per node.
Two raw words per node are short rows for `rng.child_draws`, so a
network of at least `rng.MIN_SHORT_ROWS` nodes builds no generator: a
500-node draw takes about 0.2 ms.  Smaller networks run one ``PCG64``
per node, from seed words computed for all nodes at once.

Schedules are computed on arrays over the CSR adjacency that `Network`
keeps, never by a Python loop over edges: a tree layer pass or a whole
pipelining schedule is one `send` call, and the BFS flood one call per
round.  `Network` checks connectivity with one BFS; its `diameter` is
computed on first read, by a bit-parallel BFS from every node.

Protocols:

* `build_bfs_tree` floods (root-candidate, depth) pairs until quiescent;
  the max-id node wins and every node learns its true BFS depth.
* `detect_topology` aggregates the degree sums |E| = sum(d)/2 and
  c = sum(d (d-1)) up the tree, certifies the topology itself as a
  comparison graph over a tau grid at the root, and floods the answer.
* `local_collision_protocol` (certified topologies): one round in which
  every node sends its sample to each higher-id neighbor, local counts,
  one convergecast, decision at the root.
* `pipelined_bundle_protocol` (any topology with enough nodes): counts
  subtree sizes, pipelines leftover samples upward so whole bundles of s
  samples gather at single nodes, lets each bundle act as one virtual
  player of the simultaneous tester, and aggregates their messages.
* `combined_protocol` runs detection and picks whichever path applies.
* `graph_power_detection` certifies the distance-<=t power of the
  topology, flagging nodes whose t-ball is too large to exchange within
  the documented round cap.

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

from .conditions import (COARSE_TAU_GRID, _feasible_tau, _stats_pass,
                         certify_stats, equal_cliques_stats,
                         first_certified_tau)
from .dist import Distribution, sample_children
from .encoding import message_bit_width, sample_bit_width
from .models import Message
from .errors import (CapacityError, InvalidNetworkError,
                     ModelViolationError, ProtocolRefusedError)
from .graph import ComparisonGraph
from .rng import Stream
from .tester import row_collisions

CHANNEL_COEFF = 8        # channel_bits = ceil(8 (log2 n + log2 k)) per direction
C_BFS = 2                # tree build finishes within C_BFS * D + C0 rounds
C_DET = 4                # detection within C_DET * D + C0
C_SUM = 2                # local path within 1 + C_SUM * D + C0
C_PIPE = 8               # pipelined path (incl. detection) within C_PIPE (D + s) + C0
C_POW = 8                # power-t detection within C_POW * t * D + C0 when balls fit
C0 = 10
BALL_ROUND_CAP = 4       # a t-ball is "too large" if it cannot be sent in this many rounds
REACH_WORDS = 1 << 20    # bit-parallel BFS: uint64 words per block (see _reach_levels)


class Network:
    """Connected topology plus the per-round channel budget.

    The adjacency is kept twice: `adjacency[v]` is v's sorted neighbour
    array, and `indptr`/`indices` are the same lists as one CSR array.
    """

    def __init__(self, topology: ComparisonGraph, n: int):
        if topology.vertex_count < 1:
            raise InvalidNetworkError("a network needs at least one node")
        if n < 1:
            raise ValueError("domain size must be >= 1")
        self.topology = topology
        self.n = int(n)
        self.k = topology.vertex_count
        self.adjacency = topology.adjacency()
        self.indptr = np.concatenate(([0], np.cumsum(topology.degrees)))
        self.indices = np.concatenate(self.adjacency)
        seen = np.zeros(self.k, dtype=bool)
        seen[0] = True
        frontier = np.zeros(1, dtype=np.int64)
        while frontier.size:
            _, heads = self.out_edges(frontier)
            frontier = np.unique(heads[~seen[heads]])
            seen[frontier] = True
        if not seen.all():
            raise InvalidNetworkError("the topology is disconnected")
        self.channel_bits = math.ceil(
            CHANNEL_COEFF * (math.log2(max(self.n, 1)) + math.log2(max(self.k, 1))))
        self.id_bits = sample_bit_width(self.k)

    @cached_property
    def diameter(self) -> int:
        """Largest eccentricity, computed on first read."""
        return max(h for h, _ in _reach_levels(self))

    def out_edges(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(tails, heads) of every directed edge leaving `nodes`: grouped by
        tail in the order given, heads ascending within a tail."""
        starts = self.indptr[nodes]
        counts = self.indptr[nodes + 1] - starts
        tails = np.repeat(nodes, counts)
        shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        return tails, self.indices[np.arange(tails.size) + shift]


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
        keys = u * k + v
        if last:
            keys += offset * span
        totals = bits
        if self._edges.size:  # earlier charges of the current round
            keys = np.concatenate((self._edges, keys))
            totals = np.concatenate((self._totals, bits))
        if not np.all(keys[1:] > keys[:-1]):
            keys, where = np.unique(keys, return_inverse=True)
            totals = np.bincount(where, weights=totals).astype(np.int64)
        over = np.flatnonzero(totals > self.net.channel_bits)
        if over.size:
            key, total = int(keys[over[0]]), int(totals[over[0]])
            ahead, edge = divmod(key, span)
            raise ModelViolationError(
                f"round {self.rounds + ahead}: edge {edge // k}->{edge % k} "
                f"carries {total} bits, channel allows {self.net.channel_bits}")
        self.max_edge_bits = max(self.max_edge_bits, int(totals.max()))
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

    def to_json(self) -> list:
        return [{"round": i + 1, "sends": sends}
                for i, sends in enumerate(self.transcript)]


@dataclass
class BfsTree:
    root: int
    parent: np.ndarray   # parent[v], -1 at the root
    depth: np.ndarray
    children: list[list[int]]
    preorder: list[int]  # depth-first order, children visited by ascending id
    rounds: int

    @property
    def depth_max(self) -> int:
        return int(self.depth.max()) if len(self.depth) else 0


def build_bfs_tree(net: Network, meter: BitMeter | None = None) -> BfsTree:
    """Leader election and BFS in one flood, until globally quiescent.

    Every node repeatedly offers (best root id seen, its depth under that
    root); larger root ids win, then smaller depths, then smaller sender
    ids pick the parent deterministically.  Each round, the nodes whose
    state changed send one message per incident edge, charged in one
    `send`.
    """
    k = net.k
    if k == 1:
        return BfsTree(root=0, parent=np.array([-1]), depth=np.array([0]),
                       children=[[]], preorder=[0], rounds=0)
    meter = meter or BitMeter(net)
    msg_bits = 2 * net.id_bits  # root candidate + depth
    root_of = np.arange(k)
    depth = np.zeros(k, dtype=np.int64)
    parent = np.full(k, -1, dtype=np.int64)
    changed = np.arange(k)
    rounds = 0
    while changed.size:
        meter.begin_round()
        rounds += 1
        senders, heads = net.out_edges(changed)
        meter.send(senders, heads, msg_bits)
        # (root r, depth d) ranks as (k - 1 - r) * (k + 1) + d, smaller is
        # better (depths stay <= k); an offer through v adds 1 to v's rank,
        # and v's id breaks ties (rank * k + v is exact for k < 2**21)
        rank = (k - 1 - root_of) * (k + 1) + depth
        best = np.full(k, np.iinfo(np.int64).max)
        np.minimum.at(best, heads, ((rank + 1) * k + np.arange(k))[senders])
        changed = np.flatnonzero(best < rank * k)
        sender = best[changed] % k
        root_of[changed], depth[changed] = root_of[sender], depth[sender] + 1
        parent[changed] = sender
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
    certified: bool
    tau_star: float | None
    edge_count: int
    two_path_count: int
    rounds: int
    tree: BfsTree
    report: object | None = None

    def to_json(self) -> dict:
        return {"certified": self.certified, "tau_star": self.tau_star,
                "edge_count": self.edge_count,
                "two_path_count": self.two_path_count, "rounds": self.rounds}


def detect_topology(net: Network, n: int, eps: float, tau_grid=None,
                    tree: BfsTree | None = None,
                    meter: BitMeter | None = None) -> DetectionResult:
    """Aggregate |E| and c(G) of the topology up the tree; certify at the root.

    Node degrees are local knowledge; two subtree sums travel in one
    message (both fit in O(log k) bits since |E| <= k^2 and c <= k^3).
    The first tau in the grid whose certificate passes wins and the
    verdict is flooded back down.  Rounds exclude the tree build, which
    is a reusable prerequisite.
    """
    tau_grid = tuple(tau_grid) if tau_grid is not None else COARSE_TAU_GRID
    meter = meter or BitMeter(net)
    tree = tree or build_bfs_tree(net, BitMeter(net))
    k = net.k
    degrees = net.topology.degrees
    degree_sum = int(degrees.sum())
    two_path = int(np.sum(degrees * (degrees - 1)))
    assert degree_sum % 2 == 0
    edge_count = degree_sum // 2
    up_bits = (sample_bit_width(k * k + 1) + sample_bit_width(k**3 + 1))
    rounds = _tree_rounds(tree, meter, up_bits, toward_root=True)
    tau_star = first_certified_tau(edge_count, two_path, tau_grid, n, eps)
    certified = tau_star is not None
    report = (certify_stats(edge_count, two_path, tau_star, n, eps)
              if certified else None)
    down_bits = 1 + sample_bit_width(len(tau_grid) + 1)
    rounds += _tree_rounds(tree, meter, down_bits, toward_root=False)
    return DetectionResult(certified=certified, tau_star=tau_star,
                           edge_count=edge_count, two_path_count=two_path,
                           rounds=rounds, tree=tree, report=report)


def draw_node_samples(net: Network, p: Distribution, stream: Stream) -> np.ndarray:
    """One sample per node, node v from stream.child(v)."""
    return sample_children(p, stream, np.arange(net.k), 1)[:, 0]


@dataclass
class LocalRun:
    decision: str
    rounds: int
    z: int
    threshold: float
    values: np.ndarray
    rounds_breakdown: dict


def local_collision_protocol(net: Network, n: int, eps: float, tau_star: float,
                             p: Distribution, stream: Stream,
                             tree: BfsTree | None = None,
                             meter: BitMeter | None = None) -> LocalRun:
    """O(D)-round test on a certified topology.

    One round of sample exchange along the id orientation (each edge is
    counted exactly once, at its higher endpoint), then a convergecast
    of partial collision counts; the root compares against the threshold
    of the topology-as-comparison-graph.
    """
    topo = net.topology
    if not _stats_pass(topo.edge_count, topo.two_path_count, tau_star, n, eps):
        raise ProtocolRefusedError(
            "the topology is not certified at this tau; detection must pass first")
    meter = meter or BitMeter(net)
    tree = tree or build_bfs_tree(net, BitMeter(net))
    values = draw_node_samples(net, p, stream)
    e = topo.edges
    meter.begin_round()
    meter.send(e[:, 0], e[:, 1], sample_bit_width(n))
    colliding = values[e[:, 0]] == values[e[:, 1]]
    z_local = np.bincount(e[:, 1][colliding], minlength=net.k)
    sum_rounds = _tree_rounds(tree, meter, sample_bit_width(topo.edge_count + 1),
                              toward_root=True)
    z = int(z_local.sum())
    t = topo.edge_count * (1.0 + tau_star * eps**2) / n
    return LocalRun(decision="YES" if z < t else "NO", rounds=1 + sum_rounds,
                    z=z, threshold=t, values=values,
                    rounds_breakdown={"exchange": 1, "sum": sum_rounds})


# ---------------------------------------------------------------------------
# bundle pipelining


@dataclass(frozen=True)
class BundlePlan:
    """Bundle size s, bundle count ell and tau for the virtual tester."""

    s: int
    ell: int
    tau: float
    edge_count: int
    two_path_count: int
    n: int
    eps: float

    @property
    def threshold(self) -> float:
        return self.edge_count * (1.0 + self.tau * self.eps**2) / self.n


def choose_bundle_plan(n: int, eps: float, k: int) -> BundlePlan:
    """Smallest certified bundle size s >= 3 with ell = floor(k/s) bundles.

    Rounds grow with s, so the smallest certified s wins; tau is solved
    exactly per s.  Raises CapacityError when no (s, tau) fits within k
    samples.
    """
    for s in range(3, k + 1):
        ell = k // s
        if ell < 1:
            break
        edge_count, two_path = equal_cliques_stats(s, ell)
        tau = _feasible_tau(edge_count, two_path, n, eps)
        if tau is not None:
            return BundlePlan(s=s, ell=ell, tau=tau, edge_count=edge_count,
                              two_path_count=two_path, n=n, eps=eps)
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


@dataclass
class PipelinedRun:
    decision: str
    rounds: int
    plan: BundlePlan
    z: int | None
    threshold: float
    assignment: BundleAssignment
    values: np.ndarray
    rounds_breakdown: dict
    messages: list | None = None


def pipelined_bundle_protocol(net: Network, n: int, eps: float,
                              p: Distribution, stream: Stream,
                              tree: BfsTree | None = None,
                              plan: BundlePlan | None = None,
                              meter: BitMeter | None = None) -> PipelinedRun:
    """Gather samples into bundles of s, run virtual players, aggregate.

    Phases: (build tree if needed), count subtree sizes, pipeline
    remainders upward, simulate one virtual simultaneous player per
    bundle where it gathered, and convergecast (partial collision sum,
    sentinel flag) to the root acting as referee.
    """
    plan = plan or choose_bundle_plan(n, eps, net.k)
    meter = meter or BitMeter(net)
    tree_rounds = 0
    if tree is None:
        tree = build_bfs_tree(net, meter)
        tree_rounds = tree.rounds
    values = draw_node_samples(net, p, stream)
    assignment = bundle_assignment(tree, plan.s)
    if len(assignment.bundles) != plan.ell:
        raise ModelViolationError("bundle count does not match the plan")

    count_rounds = _tree_rounds(tree, meter, sample_bit_width(net.k + 1),
                                toward_root=True)
    pipe_rounds = _pipeline_rounds(net, tree, assignment, meter)

    t = plan.threshold
    base_bits = message_bit_width(t)
    z_bundles = row_collisions(values[np.array(assignment.bundles)]).tolist()
    messages = [Message(None if z_j >= t else z_j, base_bits) for z_j in z_bundles]
    saw_sentinel = any(m.is_sentinel for m in messages)
    total = sum(z_bundles)
    answer_bits = 1 + sample_bit_width(plan.edge_count + 1)
    answer_rounds = _tree_rounds(tree, meter, answer_bits, toward_root=True)
    if saw_sentinel:
        decision, z_out = "NO", None
    else:
        decision, z_out = ("YES" if total < t else "NO"), total
    rounds = tree_rounds + count_rounds + pipe_rounds + answer_rounds
    return PipelinedRun(
        decision=decision, rounds=rounds, plan=plan, z=z_out, threshold=t,
        assignment=assignment, values=values,
        rounds_breakdown={"tree": tree_rounds, "count": count_rounds,
                          "pipeline": pipe_rounds, "answers": answer_rounds},
        messages=messages)


@dataclass
class CombinedRun:
    decision: str
    rounds: int
    path: str  # "local" | "pipelined"
    detection: DetectionResult
    rounds_breakdown: dict
    local: LocalRun | None = None
    pipelined: PipelinedRun | None = None


def combined_protocol(net: Network, n: int, eps: float, p: Distribution,
                      stream: Stream, tau_grid=None,
                      detection: DetectionResult | None = None) -> CombinedRun:
    """Detect first, then test locally in O(D) rounds or fall back to bundles.

    Detection is a sample-independent function of the topology, so a
    caller running many trials may pass a cached `detection`; its rounds
    (and the tree build) are charged to every trial either way.
    """
    if detection is None:
        tree = build_bfs_tree(net, BitMeter(net))
        detection = detect_topology(net, n, eps, tau_grid, tree=tree)
    tree = detection.tree
    base_rounds = tree.rounds + detection.rounds
    if detection.certified:
        run = local_collision_protocol(net, n, eps, detection.tau_star, p,
                                       stream, tree=tree)
        path, local, pipelined = "local", run, None
    else:
        run = pipelined_bundle_protocol(net, n, eps, p, stream, tree=tree)
        path, local, pipelined = "pipelined", None, run
    # the pipelined run was handed the tree, so its own "tree" entry is 0
    breakdown = {**run.rounds_breakdown, "tree": tree.rounds,
                 "detect": detection.rounds}
    return CombinedRun(decision=run.decision, rounds=base_rounds + run.rounds,
                       path=path, detection=detection,
                       rounds_breakdown=breakdown, local=local,
                       pipelined=pipelined)


@dataclass
class PowerDetectionResult:
    certified: bool
    tau_star: float | None
    congestion_ok: bool
    edge_count: int
    two_path_count: int
    rounds: int

    def to_json(self) -> dict:
        return {"certified": self.certified, "tau_star": self.tau_star,
                "congestion_ok": self.congestion_ok,
                "edge_count": self.edge_count,
                "two_path_count": self.two_path_count, "rounds": self.rounds}


def graph_power_detection(net: Network, n: int, eps: float, t: int,
                          tau_grid=None, tree: BfsTree | None = None,
                          meter: BitMeter | None = None) -> PowerDetectionResult:
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
    tau_grid = tuple(tau_grid) if tau_grid is not None else COARSE_TAU_GRID
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
    power_degrees = ball_sizes[t] - 1
    degree_sum = int(power_degrees.sum())
    assert degree_sum % 2 == 0
    edge_count = degree_sum // 2
    two_path = int(np.sum(power_degrees * (power_degrees - 1)))
    up_bits = sample_bit_width(k * k + 1) + sample_bit_width(k**3 + 1)
    rounds += _tree_rounds(tree, meter, up_bits, toward_root=True)
    tau_star = first_certified_tau(edge_count, two_path, tau_grid, n, eps)
    rounds += _tree_rounds(tree, meter, 1 + sample_bit_width(len(tau_grid) + 1),
                           toward_root=False)
    return PowerDetectionResult(certified=tau_star is not None,
                                tau_star=tau_star,
                                congestion_ok=congestion_ok,
                                edge_count=edge_count,
                                two_path_count=two_path, rounds=rounds)
