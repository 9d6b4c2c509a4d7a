"""Round-accurate synchronous network simulator with per-edge bit metering.

The network is a connected simple graph over k nodes with identifiers
0..k-1.  A round lets every node push up to `channel_bits` bits over
each incident edge *per direction*; the meter raises on any overrun.
Every node holds exactly one sample from the input distribution, drawn
from stream ``(trial, node)``; `draw_node_samples` draws all nodes'
samples in one `dist.sample_children` call, bitwise equal to one
generator per node.

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
from .tester import within_clique_collisions

CHANNEL_COEFF = 8        # channel_bits = ceil(8 (log2 n + log2 k)) per direction
C_BFS = 2                # tree build finishes within C_BFS * D + C0 rounds
C_DET = 4                # detection within C_DET * D + C0
C_SUM = 2                # local path within 1 + C_SUM * D + C0
C_PIPE = 8               # pipelined path (incl. detection) within C_PIPE (D + s) + C0
C_POW = 8                # power-t detection within C_POW * t * D + C0 when balls fit
C0 = 10
BALL_ROUND_CAP = 4       # a t-ball is "too large" if it cannot be sent in this many rounds


class Network:
    """Connected topology plus the per-round channel budget."""

    def __init__(self, topology: ComparisonGraph, n: int):
        if topology.vertex_count < 1:
            raise InvalidNetworkError("a network needs at least one node")
        if n < 1:
            raise ValueError("domain size must be >= 1")
        self.topology = topology
        self.n = int(n)
        self.k = topology.vertex_count
        self.adjacency = topology.adjacency()
        dist = _all_pairs_distances(topology)
        if np.any(dist < 0):
            raise InvalidNetworkError("the topology is disconnected")
        self.diameter = int(dist.max()) if self.k > 1 else 0
        self.channel_bits = math.ceil(
            CHANNEL_COEFF * (math.log2(max(self.n, 1)) + math.log2(max(self.k, 1))))
        self.id_bits = sample_bit_width(self.k)


def _all_pairs_distances(topology: ComparisonGraph) -> np.ndarray:
    k = topology.vertex_count
    dist = np.full((k, k), -1, dtype=np.int32)
    np.fill_diagonal(dist, 0)
    if k == 1:
        return dist
    adj = np.zeros((k, k), dtype=np.float32)
    e = topology.edges
    adj[e[:, 0], e[:, 1]] = 1.0
    adj[e[:, 1], e[:, 0]] = 1.0
    frontier = np.eye(k, dtype=bool)
    visited = frontier.copy()
    d = 0
    while frontier.any():
        d += 1
        nxt = (frontier.astype(np.float32) @ adj) > 0
        nxt &= ~visited
        dist[nxt] = d
        visited |= nxt
        frontier = nxt
    return dist


class BitMeter:
    """Counts rounds and bits per directed edge per round.

    `send` charges one directed edge; `send_bulk` charges many distinct
    directed edges the same amount at once (the caller guarantees
    distinctness, which holds for the one-shot exchange pattern).  Any
    overrun of the per-direction channel budget raises immediately.
    """

    def __init__(self, net: Network, record_transcript: bool = False):
        self.net = net
        self.rounds = 0
        self.record = record_transcript
        self.transcript: list[list] = []
        self._this_round: dict[tuple[int, int], int] = {}
        self.max_edge_bits = 0

    def begin_round(self) -> None:
        self.rounds += 1
        self._this_round = {}
        if self.record:
            self.transcript.append([])

    def send(self, u: int, v: int, bits: int) -> None:
        bits = int(bits)
        total = self._this_round.get((u, v), 0) + bits
        if total > self.net.channel_bits:
            raise ModelViolationError(
                f"round {self.rounds}: edge {u}->{v} carries {total} bits, "
                f"channel allows {self.net.channel_bits}")
        self._this_round[(u, v)] = total
        self.max_edge_bits = max(self.max_edge_bits, total)
        if self.record:
            self.transcript[-1].append([int(u), int(v), bits])

    def send_bulk(self, us: np.ndarray, vs: np.ndarray, bits: int) -> None:
        bits = int(bits)
        if bits > self.net.channel_bits:
            raise ModelViolationError(
                f"round {self.rounds}: bulk message of {bits} bits exceeds "
                f"channel {self.net.channel_bits}")
        self.max_edge_bits = max(self.max_edge_bits, bits)
        if self.record:
            self.transcript[-1].extend(
                [int(u), int(v), bits] for u, v in zip(us, vs))

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
    ids pick the parent deterministically.
    """
    k = net.k
    if k == 1:
        return BfsTree(root=0, parent=np.array([-1]), depth=np.array([0]),
                       children=[[]], preorder=[0], rounds=0)
    meter = meter or BitMeter(net)
    msg_bits = 2 * net.id_bits  # root candidate + depth
    root_of = list(range(k))
    depth = [0] * k
    parent = [-1] * k
    changed = list(range(k))
    rounds = 0
    while changed:
        meter.begin_round()
        rounds += 1
        offers: dict[int, tuple] = {}
        for v in changed:
            for u in net.adjacency[v]:
                meter.send(v, int(u), msg_bits)
                offer = (root_of[v], depth[v] + 1, v)
                best = offers.get(int(u))
                if (best is None or offer[0] > best[0]
                        or (offer[0] == best[0] and offer[1] < best[1])
                        or (offer[0] == best[0] and offer[1] == best[1]
                            and offer[2] < best[2])):
                    offers[int(u)] = offer
        changed = []
        for u in sorted(offers):
            r, d, sender = offers[u]
            if r > root_of[u] or (r == root_of[u] and d < depth[u]):
                root_of[u], depth[u], parent[u] = r, d, sender
                changed.append(u)
    root = k - 1
    children: list[list[int]] = [[] for _ in range(k)]
    for v, par in enumerate(parent):
        if par >= 0:
            children[par].append(v)
    for c in children:
        c.sort()
    preorder = []
    stack = [root]
    while stack:
        v = stack.pop()
        preorder.append(v)
        stack.extend(reversed(children[v]))
    return BfsTree(root=root, parent=np.array(parent), depth=np.array(depth),
                   children=children, preorder=preorder, rounds=rounds)


def _by_depth_descending(tree: BfsTree) -> list[list[int]]:
    """Node lists per convergecast round: deepest layer first."""
    layers: dict[int, list[int]] = {}
    for v, d in enumerate(tree.depth):
        layers.setdefault(int(d), []).append(v)
    return [layers[d] for d in sorted(layers, reverse=True) if d > 0]


def _convergecast(net: Network, tree: BfsTree, meter: BitMeter,
                  bits_per_message: int) -> int:
    """Charge one up-tree message per non-root node, deepest layer first."""
    layers = _by_depth_descending(tree)
    for layer in layers:
        meter.begin_round()
        for v in layer:
            meter.send(v, int(tree.parent[v]), bits_per_message)
    return len(layers)


def _broadcast(net: Network, tree: BfsTree, meter: BitMeter,
               bits_per_message: int) -> int:
    layers = _by_depth_descending(tree)
    for layer in reversed(layers):
        meter.begin_round()
        for v in layer:
            meter.send(int(tree.parent[v]), v, bits_per_message)
    return len(layers)


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
    rounds = _convergecast(net, tree, meter, up_bits)
    tau_star = first_certified_tau(edge_count, two_path, tau_grid, n, eps)
    certified = tau_star is not None
    report = (certify_stats(edge_count, two_path, tau_star, n, eps)
              if certified else None)
    down_bits = 1 + sample_bit_width(len(tau_grid) + 1)
    rounds += _broadcast(net, tree, meter, down_bits)
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
    meter.send_bulk(e[:, 0], e[:, 1], sample_bit_width(n))
    colliding = values[e[:, 0]] == values[e[:, 1]]
    z_local = np.bincount(e[:, 1][colliding], minlength=net.k)
    rounds = 1
    rounds += _convergecast(net, tree, meter,
                            sample_bit_width(topo.edge_count + 1))
    z = int(z_local.sum())
    t = topo.edge_count * (1.0 + tau_star * eps**2) / n
    return LocalRun(decision="YES" if z < t else "NO", rounds=rounds, z=z,
                    threshold=t, values=values)


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
    k = len(tree.preorder)
    rank_of = np.empty(k, dtype=np.int64)
    for r, v in enumerate(tree.preorder):
        rank_of[v] = r
    node_of_rank = list(tree.preorder)
    order = sorted(range(k), key=lambda v: -int(tree.depth[v]))
    forward: list[list[int]] = [[] for _ in range(k)]
    bundles: list[list[int]] = []
    holder: list[int] = []
    for v in order:
        avail = [int(rank_of[v])]
        for c in tree.children[v]:
            avail.extend(forward[c])
        avail.sort()
        keep = (len(avail) // s) * s
        for j in range(0, keep, s):
            bundles.append([node_of_rank[r] for r in avail[j:j + s]])
            holder.append(v)
        forward[v] = avail[keep:]
    leftover = [node_of_rank[r] for r in forward[tree.root]]
    return BundleAssignment(bundles=bundles, bundle_holder=holder,
                            forward=forward, leftover=leftover,
                            rank_of=rank_of, node_of_rank=node_of_rank)


def _pipeline_rounds(net: Network, tree: BfsTree, assignment: BundleAssignment,
                     meter: BitMeter) -> int:
    """Simulate the remainder convergecast with per-edge FIFO pipelining."""
    sample_bits = sample_bit_width(net.n)
    per_round = max(1, net.channel_bits // sample_bits)
    to_forward = [set(f) for f in assignment.forward]
    pending = [sorted(f) for f in assignment.forward]
    have = [{int(assignment.rank_of[v])} for v in range(net.k)]
    delivered = [len(f) == 0 for f in assignment.forward]
    rounds = 0
    while not all(delivered):
        meter.begin_round()
        rounds += 1
        arrivals: list[tuple[int, int]] = []
        moved = False
        for v in range(net.k):
            if delivered[v] or int(tree.parent[v]) < 0:
                delivered[v] = True
                continue
            ready = [r for r in pending[v] if r in have[v]][:per_round]
            if ready:
                meter.send(v, int(tree.parent[v]), len(ready) * sample_bits)
                for r in ready:
                    arrivals.append((int(tree.parent[v]), r))
                    pending[v].remove(r)
                moved = True
            if not pending[v]:
                delivered[v] = True
        for u, r in arrivals:
            have[u].add(r)
        if not moved:
            raise ModelViolationError("pipeline stalled; assignment is inconsistent")
    return rounds


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

    count_rounds = _convergecast(net, tree, meter, sample_bit_width(net.k + 1))
    pipe_rounds = _pipeline_rounds(net, tree, assignment, meter)

    t = plan.threshold
    base_bits = message_bit_width(t)
    z_bundles = []
    messages = []
    for members in assignment.bundles:
        z_j = within_clique_collisions(values[np.array(members, dtype=np.int64)])
        z_bundles.append(z_j)
        messages.append(Message(None if z_j >= t else z_j, base_bits))
    saw_sentinel = any(m.is_sentinel for m in messages)
    total = sum(z_bundles)
    answer_bits = 1 + sample_bit_width(plan.edge_count + 1)
    answer_rounds = _convergecast(net, tree, meter, answer_bits)
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
        return CombinedRun(decision=run.decision,
                           rounds=base_rounds + run.rounds, path="local",
                           detection=detection, local=run)
    run = pipelined_bundle_protocol(net, n, eps, p, stream, tree=tree)
    return CombinedRun(decision=run.decision, rounds=base_rounds + run.rounds,
                       path="pipelined", detection=detection, pipelined=run)


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
    """
    if t < 1:
        raise ValueError("power must be >= 1")
    tau_grid = tuple(tau_grid) if tau_grid is not None else COARSE_TAU_GRID
    meter = meter or BitMeter(net)
    tree = tree or build_bfs_tree(net, BitMeter(net))
    k = net.k
    adj = np.zeros((k, k), dtype=bool)
    e = net.topology.edges
    adj[e[:, 0], e[:, 1]] = True
    adj[e[:, 1], e[:, 0]] = True
    reach = np.eye(k, dtype=bool)
    rounds = 0
    congestion_ok = True
    for _ in range(t):
        ball_sizes = reach.sum(axis=1)
        bits_per_node = ball_sizes * net.id_bits
        hop_rounds = 1
        for v in range(k):
            if not net.adjacency[v].size:
                continue
            need = max(1, math.ceil(bits_per_node[v] / net.channel_bits))
            hop_rounds = max(hop_rounds, int(need))
            if need > BALL_ROUND_CAP:
                congestion_ok = False
        for r in range(hop_rounds):
            meter.begin_round()
            for v in range(k):
                remaining = int(bits_per_node[v]) - r * net.channel_bits
                if remaining <= 0:
                    continue
                chunk = min(net.channel_bits, remaining)
                for u in net.adjacency[v]:
                    meter.send(v, int(u), chunk)
        rounds += hop_rounds
        reach = reach | (reach.astype(np.float32) @ adj.astype(np.float32) > 0)
    power_degrees = reach.sum(axis=1).astype(np.int64) - 1
    degree_sum = int(power_degrees.sum())
    assert degree_sum % 2 == 0
    edge_count = degree_sum // 2
    two_path = int(np.sum(power_degrees * (power_degrees - 1)))
    up_bits = sample_bit_width(k * k + 1) + sample_bit_width(k**3 + 1)
    rounds += _convergecast(net, tree, meter, up_bits)
    tau_star = first_certified_tau(edge_count, two_path, tau_grid, n, eps)
    rounds += _broadcast(net, tree, meter, 1 + sample_bit_width(len(tau_grid) + 1))
    return PowerDetectionResult(certified=tau_star is not None,
                                tau_star=tau_star,
                                congestion_ok=congestion_ok,
                                edge_count=edge_count,
                                two_path_count=two_path, rounds=rounds)
