"""The array schedules of `congest` against per-message reference loops.

The oracles below compute the BFS flood, the tree layer passes, the
pipelining schedule and the power-detection hops one edge and one node
at a time, and charge one message per call into `ListMeter`, which only
records.  The array versions charge a recording `BitMeter`, so the
channel check runs on them too.
"""
import math
import tracemalloc

import numpy as np
import pytest

from collitest import congest as cg
from collitest.conditions import (COARSE_TAU_GRID, _feasible_tau, _plan,
                                  _stats_pass, plan_centralized)
from collitest.dist import make_bump, make_uniform
from collitest.encoding import sample_bit_width
from collitest.errors import (CapacityError, InvalidNetworkError,
                              ModelViolationError)
from collitest.graph import (ComparisonGraph, make_clique, make_clique_union,
                             make_cycle, make_path, make_star,
                             random_connected_graph)
from collitest.rng import Stream
from collitest.tester import count_collisions


class ListMeter:
    """Records what a per-message oracle sends, one list per round."""

    def __init__(self):
        self.transcript = []

    def begin_round(self):
        self.transcript.append([])

    def send(self, u, v, bits):
        self.transcript[-1].append([int(u), int(v), int(bits)])


def oracle_bfs_tree(net, meter):
    k = net.k
    adjacency = net.topology.adjacency()
    msg_bits = 2 * net.id_bits
    root_of = list(range(k))
    depth = [0] * k
    parent = [-1] * k
    changed = list(range(k))
    rounds = 0
    while changed:
        meter.begin_round()
        rounds += 1
        offers = {}
        for v in changed:
            for u in adjacency[v]:
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
    children = [[] for _ in range(k)]
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
    return cg.BfsTree(root=root, parent=np.array(parent), depth=np.array(depth),
                      children=children, preorder=preorder, rounds=rounds)


def oracle_tree_rounds(tree, meter, bits_per_message, toward_root):
    layers = {}
    for v, d in enumerate(tree.depth):
        if d > 0:
            layers.setdefault(int(d), []).append(v)
    for d in sorted(layers, reverse=toward_root):
        meter.begin_round()
        for v in layers[d]:
            parent = int(tree.parent[v])
            if toward_root:
                meter.send(v, parent, bits_per_message)
            else:
                meter.send(parent, v, bits_per_message)
    return len(layers)


def oracle_pipeline_rounds(net, tree, assignment, meter):
    sample_bits = sample_bit_width(net.n)
    per_round = max(1, net.channel_bits // sample_bits)
    pending = [sorted(f) for f in assignment.forward]
    have = [{int(assignment.rank_of[v])} for v in range(net.k)]
    delivered = [len(f) == 0 for f in assignment.forward]
    rounds = 0
    while not all(delivered):
        meter.begin_round()
        rounds += 1
        arrivals = []
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


def oracle_bundle_assignment(tree, s):
    """The node-by-node loop that `bundle_assignment` replaced."""
    k = len(tree.preorder)
    rank_of = np.empty(k, dtype=np.int64)
    for r, v in enumerate(tree.preorder):
        rank_of[v] = r
    node_of_rank = list(tree.preorder)
    order = sorted(range(k), key=lambda v: -int(tree.depth[v]))
    forward = [[] for _ in range(k)]
    bundles, holder = [], []
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
    return cg.BundleAssignment(bundles=bundles, bundle_holder=holder,
                               forward=forward, leftover=leftover,
                               rank_of=rank_of, node_of_rank=node_of_rank)


def oracle_power_detection(net, n, eps, t, tree, meter):
    """(certified, tau_star, congestion_ok, edge_count, two_path, rounds)."""
    k = net.k
    adjacency = net.topology.adjacency()
    adj = np.zeros((k, k), dtype=bool)
    e = net.topology.edges
    adj[e[:, 0], e[:, 1]] = True
    adj[e[:, 1], e[:, 0]] = True
    reach = np.eye(k, dtype=bool)
    rounds = 0
    congestion_ok = True
    for _ in range(t):
        bits_per_node = reach.sum(axis=1) * net.id_bits
        hop_rounds = 1
        for v in range(k):
            if not adjacency[v].size:
                continue
            need = max(1, math.ceil(bits_per_node[v] / net.channel_bits))
            hop_rounds = max(hop_rounds, int(need))
            if need > cg.BALL_ROUND_CAP:
                congestion_ok = False
        for r in range(hop_rounds):
            meter.begin_round()
            for v in range(k):
                remaining = int(bits_per_node[v]) - r * net.channel_bits
                if remaining <= 0:
                    continue
                chunk = min(net.channel_bits, remaining)
                for u in adjacency[v]:
                    meter.send(v, int(u), chunk)
        rounds += hop_rounds
        reach = reach | (reach.astype(np.float32) @ adj.astype(np.float32) > 0)
    power_degrees = reach.sum(axis=1).astype(np.int64) - 1
    edge_count = int(power_degrees.sum()) // 2
    two_path = int(np.sum(power_degrees * (power_degrees - 1)))
    up_bits = sample_bit_width(k * k + 1) + sample_bit_width(k**3 + 1)
    rounds += oracle_tree_rounds(tree, meter, up_bits, toward_root=True)
    tau_star = next((tau for tau in COARSE_TAU_GRID
                     if _stats_pass(edge_count, two_path, tau, n, eps)),
                    None)
    if tau_star is None:
        tau_star = _feasible_tau(edge_count, two_path, n, eps)
    # the verdict: a certified bit and a grid index or "exact"
    rounds += oracle_tree_rounds(
        tree, meter, 1 + sample_bit_width(len(COARSE_TAU_GRID) + 2),
        toward_root=False)
    return (tau_star is not None, tau_star, congestion_ok, edge_count,
            two_path, rounds)


def oracle_distances(topology, source):
    adjacency = topology.adjacency()
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adjacency[u]:
                if int(v) not in dist:
                    dist[int(v)] = dist[u] + 1
                    nxt.append(int(v))
        frontier = nxt
    return dist


def _random(k, seed, prob):
    return random_connected_graph(k, Stream(seed).rng(), extra_edge_prob=prob)


CORPUS = {
    "path12": lambda: make_path(12),
    "path150": lambda: make_path(150),
    "path300": lambda: make_path(300),
    "cycle200": lambda: make_cycle(200),
    "clique9": lambda: make_clique(9),
    "clique60": lambda: make_clique(60),
    "clique280": lambda: make_clique(280),
    "star150": lambda: make_star(149),
    "random30": lambda: _random(30, 1, 0.2),
    "random120": lambda: _random(120, 2, 0.05),
    "random250": lambda: _random(250, 3, 0.01),
    "random400": lambda: _random(400, 4, 0.01),
}
SETTINGS = [(4, 1.0), (16, 1.0), (16, 0.9)]


@pytest.fixture(scope="module")
def topologies():
    return {name: build() for name, build in CORPUS.items()}


def assert_same_tree(tree, ref):
    assert tree.root == ref.root
    assert tree.parent.tolist() == ref.parent.tolist()
    assert tree.depth.tolist() == ref.depth.tolist()
    assert tree.parent.dtype == ref.parent.dtype
    assert tree.depth.dtype == ref.depth.dtype
    assert tree.children == ref.children
    assert tree.preorder == ref.preorder
    assert tree.rounds == ref.rounds


@pytest.mark.parametrize("n, eps", SETTINGS)
@pytest.mark.parametrize("name", list(CORPUS))
def test_schedules_match_per_message_oracles(topologies, name, n, eps):
    net = cg.Network(topologies[name], n)

    meter, ref_meter = cg.BitMeter(net, record_transcript=True), ListMeter()
    tree = cg.build_bfs_tree(net, meter)
    assert_same_tree(tree, oracle_bfs_tree(net, ref_meter))
    assert meter.transcript == ref_meter.transcript
    assert meter.rounds == tree.rounds

    for toward_root in (True, False):
        meter, ref_meter = cg.BitMeter(net, record_transcript=True), ListMeter()
        bits = sample_bit_width(net.k + 1)
        rounds = cg._tree_rounds(tree, meter, bits, toward_root)
        assert rounds == oracle_tree_rounds(tree, ref_meter, bits, toward_root)
        assert meter.transcript == ref_meter.transcript
        assert meter.rounds == rounds

    try:
        s = cg.choose_bundle_plan(n, eps, net.k).runs[0][0]
    except CapacityError:
        s = 3
    assignment = cg.bundle_assignment(tree, s)
    meter, ref_meter = cg.BitMeter(net, record_transcript=True), ListMeter()
    rounds = cg._pipeline_rounds(net, tree, assignment, meter)
    assert rounds == oracle_pipeline_rounds(net, tree, assignment, ref_meter)
    assert meter.transcript == ref_meter.transcript
    assert meter.rounds == rounds


def assert_same_assignment(got, want):
    for field in ("bundles", "bundle_holder", "forward", "leftover",
                  "node_of_rank"):
        a, b = getattr(got, field), getattr(want, field)
        assert a == b, field
        flat = a if field in ("bundle_holder", "leftover",
                              "node_of_rank") else [x for row in a for x in row]
        assert type(a) is list and all(type(x) is int for x in flat), field
    assert all(type(row) is list for row in got.bundles + got.forward)
    assert got.rank_of.dtype == want.rank_of.dtype
    assert got.rank_of.tolist() == want.rank_of.tolist()


@pytest.mark.parametrize("name", list(CORPUS) + ["tree200", "tree500", "one"])
def test_bundle_assignment_matches_node_loop(topologies, name):
    extra = {"tree200": lambda: _random(200, 5, 0.0),
             "tree500": lambda: _random(500, 6, 0.0),
             "one": lambda: make_clique_union([1])}
    topology = topologies[name] if name in CORPUS else extra[name]()
    tree = cg.build_bfs_tree(cg.Network(topology, 16))
    k = len(tree.preorder)
    for s in (1, 2, 3, 7, k):
        assert_same_assignment(cg.bundle_assignment(tree, s),
                               oracle_bundle_assignment(tree, s))


@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("name", ["path150", "cycle200", "clique60", "star150",
                                  "random30", "random120"])
def test_power_detection_matches_oracle(topologies, name, t):
    net = cg.Network(topologies[name], 16)
    tree = cg.build_bfs_tree(net)
    meter, ref_meter = cg.BitMeter(net, record_transcript=True), ListMeter()
    pw = cg.graph_power_detection(net, 16, 1.0, t, tree=tree, meter=meter)
    got = (pw.certified, pw.tau_star, pw.congestion_ok, pw.edge_count,
           pw.two_path_count, pw.rounds)
    assert got == oracle_power_detection(net, 16, 1.0, t, tree, ref_meter)
    assert meter.transcript == ref_meter.transcript


@pytest.mark.parametrize("t", [1, 2])
def test_power_detection_on_one_node(t):
    net = cg.Network(make_clique_union([1]), 16)
    tree = cg.build_bfs_tree(net)
    meter, ref_meter = cg.BitMeter(net, record_transcript=True), ListMeter()
    pw = cg.graph_power_detection(net, 16, 1.0, t, tree=tree, meter=meter)
    got = (pw.certified, pw.tau_star, pw.congestion_ok, pw.edge_count,
           pw.two_path_count, pw.rounds)
    assert got == oracle_power_detection(net, 16, 1.0, t, tree, ref_meter)
    assert meter.transcript == ref_meter.transcript == [[]] * t
    assert net.diameter == 0


def test_forward_rank_that_never_arrives_stalls():
    net = cg.Network(make_path(9), 4)
    tree = cg.build_bfs_tree(net)
    assignment = cg.bundle_assignment(tree, 3)
    sender = next(v for v in range(net.k)
                  if tree.parent[v] >= 0 and assignment.forward[v])
    # a rank held by no node below the sender
    stranger = int(assignment.rank_of[tree.root])
    assignment.forward[sender] = sorted(assignment.forward[sender] + [stranger])
    with pytest.raises(ModelViolationError, match="pipeline stalled"):
        cg._pipeline_rounds(net, tree, assignment, cg.BitMeter(net))


def test_long_path_diameter():
    assert cg.Network(make_path(1600), 4).diameter == 1599


def test_diameter_matches_per_source_bfs():
    gen = Stream(83).rng()
    for _ in range(25):
        k = int(gen.integers(1, 90))
        topo = random_connected_graph(k, gen,
                                      extra_edge_prob=float(gen.random()) * 0.2)
        expected = max(max(oracle_distances(topo, s).values()) for s in range(k))
        assert cg.Network(topo, 8).diameter == expected


def test_disconnected_topologies_raise():
    with pytest.raises(InvalidNetworkError):
        cg.Network(ComparisonGraph(5, [(0, 1), (1, 2), (2, 3)]), 4)
    with pytest.raises(InvalidNetworkError):
        cg.Network(ComparisonGraph(130, [(v, v + 1) for v in range(128)]), 4)


def test_networks_of_2_21_nodes_raise():
    """`BitMeter` keys a message as u*k + v + offset*k*k, exact in int64
    only below 2**21 nodes; a larger topology is refused before its
    adjacency is built."""
    with pytest.raises(InvalidNetworkError, match=r"2\*\*21"):
        cg.Network(ComparisonGraph(1 << 21, [(0, 1)]), 4)


def _permuted(topology, gen):
    """`topology` with its node ids shuffled by `gen`."""
    perm = gen.permutation(topology.vertex_count)
    return ComparisonGraph(topology.vertex_count, perm[topology.edges])


def _random_permuted(seed):
    gen = Stream(seed).rng()
    k = int(gen.integers(2, 160))
    topology = random_connected_graph(
        k, gen, extra_edge_prob=float(gen.choice([0.0, 0.01, 0.05, 0.2])))
    return _permuted(topology, gen)


def _precharge(meter, gen):
    """Charge a few random messages, two rounds deep, so that the meter
    holds earlier rounds and running totals in its current round."""
    tails, heads = meter.net.out_edges(np.arange(meter.net.k))
    pick = gen.integers(0, tails.size, size=12)
    meter.begin_round()
    meter.send(tails[pick], heads[pick], 3, gen.integers(0, 3, size=12))
    meter.send(tails[pick[:4]], heads[pick[:4]], 5)


def assert_same_meter(got, want):
    assert got.rounds == want.rounds
    assert got.max_edge_bits == want.max_edge_bits
    assert got.transcript == want.transcript
    assert got._edges.tolist() == want._edges.tolist()
    assert got._totals.tolist() == want._totals.tolist()


@pytest.mark.parametrize("block", [None, 300])
@pytest.mark.parametrize("precharged", [False, True])
@pytest.mark.parametrize("seed", range(8))
def test_flood_matches_oracle_on_permuted_topologies(monkeypatch, seed,
                                                     precharged, block):
    """The flood against the per-message oracle, charged into a second
    `BitMeter`, on random topologies whose max id sits anywhere; with a
    meter that already holds charges the flood must start a new round
    and leave the earlier ones alone.  With blocks of 300 messages a
    flood charges several blocks, of one round or of several."""
    if block is not None:
        monkeypatch.setattr(cg, "FLOOD_BLOCK", block)
    net = cg.Network(_random_permuted(seed), 16)
    meter = cg.BitMeter(net, record_transcript=True)
    ref_meter = cg.BitMeter(net, record_transcript=True)
    if precharged:
        _precharge(meter, Stream(seed, (1,)).rng())
        _precharge(ref_meter, Stream(seed, (1,)).rng())
    tree = cg.build_bfs_tree(net, meter)
    ref = oracle_bfs_tree(net, ref_meter)
    assert_same_tree(tree, ref)
    assert_same_meter(meter, ref_meter)
    # a later charge adds to the flood's last round
    tails, heads = net.out_edges(np.array([tree.root]))
    meter.send(tails, heads, 1)
    ref_meter.send(tails, heads, 1)
    assert_same_meter(meter, ref_meter)

    if not precharged:
        return
    plan = bundle_plan_or_threes(16, 1.0, net.k)
    meter = cg.BitMeter(net, record_transcript=True)
    ref_meter = cg.BitMeter(net, record_transcript=True)
    _precharge(meter, Stream(seed, (2,)).rng())
    _precharge(ref_meter, Stream(seed, (2,)).rng())
    tree = cg.build_bfs_tree(net, meter)
    schedule = cg._pipelined_schedule(net, 16, 1.0, tree, plan, meter)
    ref = oracle_bfs_tree(net, ref_meter)
    ref_schedule = cg._pipelined_schedule(net, 16, 1.0, ref, plan, ref_meter)
    assert_same_tree(schedule.tree, ref)
    assert schedule.rounds_breakdown == ref_schedule.rounds_breakdown
    assert "tree" not in schedule.rounds_breakdown
    assert_same_meter(meter, ref_meter)


def oracle_components(topology):
    """Connected components by a plain BFS from every unseen node."""
    adjacency = topology.adjacency()
    seen = [False] * topology.vertex_count
    components = 0
    for source in range(topology.vertex_count):
        if seen[source]:
            continue
        components += 1
        seen[source] = True
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adjacency[u].tolist():
                    if not seen[v]:
                        seen[v] = True
                        nxt.append(v)
            frontier = nxt
    return components


@pytest.mark.parametrize("seed", range(40))
def test_connectivity_matches_bfs_oracle(seed):
    """One to four components (single nodes among them), ids shuffled."""
    gen = Stream(seed, (3,)).rng()
    parts, k = [], 0
    for _ in range(int(gen.integers(1, 5))):
        size = int(gen.choice([1, 2, int(gen.integers(3, 60))]))
        part = random_connected_graph(
            size, gen, extra_edge_prob=float(gen.choice([0.0, 0.05, 0.3])))
        parts.append(part.edges.astype(np.int64) + k)
        k += size
    topology = _permuted(ComparisonGraph(k, np.concatenate(parts)), gen)
    if oracle_components(topology) == 1:
        net = cg.Network(topology, 4)
        assert net.indices.tolist() == np.concatenate(
            topology.adjacency()).tolist()
    else:
        with pytest.raises(InvalidNetworkError,
                           match="^the topology is disconnected$"):
            cg.Network(topology, 4)


def test_connectivity_of_one_node_and_isolated_nodes():
    assert cg.Network(make_clique_union([1]), 4).k == 1
    for k in (2, 3, 65):
        with pytest.raises(InvalidNetworkError, match="disconnected"):
            cg.Network(ComparisonGraph(k, []), 4)
    with pytest.raises(InvalidNetworkError, match="disconnected"):
        cg.Network(ComparisonGraph(6, [(0, 5), (5, 1), (1, 3), (3, 2)]), 4)


def test_flood_memory_on_a_long_path():
    """About 4 M messages over 2000 rounds, charged in blocks of about
    FLOOD_BLOCK messages: charging them at once would hold all of them."""
    net = cg.Network(make_path(2000), 16)
    tracemalloc.start()
    try:
        tree = cg.build_bfs_tree(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tree.rounds == 2000
    assert peak < 4e6


def test_flood_memory_on_a_dense_clique():
    tracemalloc.start()
    try:
        cg.build_bfs_tree(cg.Network(make_clique(280), 16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# --- schedules: built once, reused by every later trial ----------------------

REUSE_TREES = {"tree200": lambda: _random(200, 5, 0.0),
               "tree500": lambda: _random(500, 6, 0.0)}


def bundle_plan_or_threes(n, eps, k):
    """The protocol's own plan, or bundles of three where none certifies."""
    try:
        return cg.choose_bundle_plan(n, eps, k)
    except CapacityError:
        return _plan(n, eps, [(3, 1, j) for j in range(k // 3)], k // 3,
                     tau=0.5, referee=True)


def assert_same_run(got, want):
    for field in ("decision", "z", "rounds", "rounds_breakdown"):
        assert getattr(got, field) == getattr(want, field), field
    assert got.values.dtype == want.values.dtype
    assert np.array_equal(got.values, want.values)


@pytest.mark.parametrize("n, eps", SETTINGS)
@pytest.mark.parametrize("name", list(CORPUS) + list(REUSE_TREES))
def test_reused_schedules_match_fresh_runs(topologies, name, n, eps):
    topology = (topologies[name] if name in CORPUS else REUSE_TREES[name]())
    net = cg.Network(topology, n)
    tree = cg.build_bfs_tree(net)
    p = make_bump(n, eps) if n % 2 == 0 else make_uniform(n)
    stream = Stream(91, (n,))

    plan = bundle_plan_or_threes(n, eps, net.k)
    schedule = None
    for trial in range(5):
        fresh = cg.pipelined_bundle_protocol(net, n, eps, p, stream.child(trial),
                                             tree=tree, plan=plan)
        schedule = schedule or fresh.schedule
        reused = cg.pipelined_bundle_protocol(
            net, n, eps, p, stream.child(trial), tree=tree, plan=plan,
            schedule=schedule)
        assert_same_run(reused, fresh)
        assert reused.messages == fresh.messages
        assert reused.schedule.plan == fresh.schedule.plan == plan
        assert_same_assignment(reused.schedule.assignment,
                               fresh.schedule.assignment)
        assert reused.schedule is schedule

    detection = cg.detect_topology(net, n, eps, tree=tree)
    if not detection.certified:
        try:
            cg.choose_bundle_plan(n, eps, net.k)
        except CapacityError:
            return  # the combined fallback has no plan to run with
    schedule = None
    for trial in range(5):
        fresh = cg.combined_protocol(net, n, eps, p, stream.child(trial),
                                     detection=detection)
        reused = cg.combined_protocol(net, n, eps, p, stream.child(trial),
                                      detection=detection,
                                      schedule=schedule or fresh.schedule)
        schedule = reused.schedule
        assert reused.schedule.path == fresh.schedule.path == (
            "local" if detection.certified else "pipelined")
        assert_same_run(reused, fresh)
        if not detection.certified:
            assert reused.messages == fresh.messages
            assert_same_assignment(reused.schedule.assignment,
                                   fresh.schedule.assignment)


def per_node_z(net, values):
    """Z as the local path used to count it: the samples of each edge meet
    at its higher endpoint, which counts its own collisions."""
    e = net.topology.edges
    colliding = values[e[:, 0]] == values[e[:, 1]]
    return int(np.bincount(e[:, 1][colliding], minlength=net.k).sum())


@pytest.mark.parametrize("name", ["clique9", "clique280", "path300",
                                  "random120", "random400"])
def test_local_z_equals_the_per_node_count(topologies, name):
    net = cg.Network(topologies[name], 4)
    for trial in range(5):
        values = cg.draw_node_samples(net, make_uniform(4), Stream(92).child(trial))
        assert count_collisions(net.topology, values) == per_node_z(net, values)
    # and on a certified topology, through the protocol
    q = plan_centralized(4, 1.0).runs[0][0]
    net = cg.Network(make_clique(q), 4)
    tau = _feasible_tau(net.topology.edge_count, net.topology.two_path_count,
                        4, 1.0)
    for trial in range(5):
        run = cg.local_collision_protocol(net, 4, 1.0, tau, make_uniform(4),
                                          Stream(93).child(trial))
        assert run.z == per_node_z(net, run.values)


def test_schedules_refuse_a_meter_and_foreign_arguments():
    net = cg.Network(make_path(30), 4)
    tree = cg.build_bfs_tree(net)
    p, stream = make_uniform(4), Stream(94).child(0)
    plan = bundle_plan_or_threes(4, 1.0, net.k)
    piped = cg.pipelined_bundle_protocol(net, 4, 1.0, p, stream, tree=tree,
                                         plan=plan).schedule
    other_plan = _plan(4, 1.0, [(5, 1, j) for j in range(6)], 6, tau=0.5,
                       referee=True)
    twin = cg.Network(make_path(30), 4)
    q = plan_centralized(4, 1.0).runs[0][0]
    clique = cg.Network(make_clique(q), 4)
    tau = _feasible_tau(clique.topology.edge_count,
                        clique.topology.two_path_count, 4, 1.0)
    local = cg.local_collision_protocol(clique, 4, 1.0, tau, p, stream).schedule

    with pytest.raises(ValueError, match="no meter"):
        cg.pipelined_bundle_protocol(net, 4, 1.0, p, stream, tree=tree,
                                     meter=cg.BitMeter(net), schedule=piped)
    with pytest.raises(ValueError, match="no meter"):
        cg.local_collision_protocol(clique, 4, 1.0, tau, p, stream,
                                    meter=cg.BitMeter(clique), schedule=local)
    foreign = [
        lambda: cg.pipelined_bundle_protocol(twin, 4, 1.0, p, stream,
                                             schedule=piped),
        lambda: cg.pipelined_bundle_protocol(
            net, 4, 1.0, p, stream, tree=cg.build_bfs_tree(net),
            schedule=piped),
        lambda: cg.pipelined_bundle_protocol(net, 4, 1.0, p, stream, tree=tree,
                                             plan=other_plan, schedule=piped),
        lambda: cg.pipelined_bundle_protocol(net, 16, 1.0, make_uniform(16),
                                             stream, schedule=piped),
        lambda: cg.pipelined_bundle_protocol(clique, 4, 1.0, p, stream,
                                             schedule=local),
        lambda: cg.local_collision_protocol(clique, 4, 1.0, tau / 2, p, stream,
                                            schedule=local),
        lambda: cg.local_collision_protocol(net, 4, 1.0, tau, p, stream,
                                            schedule=piped),
    ]
    for call in foreign:
        with pytest.raises(ValueError, match="another network, tree or plan"):
            call()
    # the schedule's own tree and plan serve a run that names neither
    run = cg.pipelined_bundle_protocol(net, 4, 1.0, p, stream, schedule=piped)
    assert run.schedule.plan is plan and run.schedule is piped
