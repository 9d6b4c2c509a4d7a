import numpy as np
import pytest

from collitest import congest as cg
from collitest.conditions import (Plan, _feasible_tau, _plan, certify_stats,
                                  plan_centralized)
from collitest.dist import Distribution, make_bump, make_uniform
from collitest.errors import (CapacityError, InvalidNetworkError,
                              ModelViolationError, ProtocolRefusedError)
from collitest.graph import (ComparisonGraph, graph_power, make_clique,
                             make_clique_union, make_cycle, make_path,
                             make_star, random_connected_graph)
from collitest.harness import Scenario, run_scenario
from collitest.rng import Stream
from collitest import tester


def bfs_distances_oracle(topology, source):
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


class TestNetwork:
    def test_rejects_disconnected(self):
        with pytest.raises(InvalidNetworkError):
            cg.Network(ComparisonGraph(4, [(0, 1), (2, 3)]), 4)

    def test_diameter_recomputed(self):
        assert cg.Network(make_path(7), 4).diameter == 6
        assert cg.Network(make_clique(5), 4).diameter == 1
        assert cg.Network(make_cycle(10), 4).diameter == 5
        assert cg.Network(make_clique_union([1]), 4).diameter == 0

    def test_channel_budget_formula(self):
        net = cg.Network(make_clique(8), 16)
        assert net.channel_bits == int(np.ceil(8 * (np.log2(16) + np.log2(8))))


class TestBitMeter:
    def test_overrun_raises(self):
        net = cg.Network(make_path(2), 1)  # channel = 8 * (0 + 1) = 8 bits
        meter = cg.BitMeter(net)
        meter.begin_round()
        meter.send(0, 1, 5)
        with pytest.raises(ModelViolationError):
            meter.send(0, 1, 5)

    def test_directions_are_independent(self):
        net = cg.Network(make_path(2), 1)
        meter = cg.BitMeter(net)
        meter.begin_round()
        meter.send(0, 1, 8)
        meter.send(1, 0, 8)

    def test_bulk_charge_counts_toward_the_edge_total(self):
        net = cg.Network(make_path(2), 1)
        meter = cg.BitMeter(net)
        meter.begin_round()
        meter.send_bulk(np.array([0]), np.array([1]), 8)
        with pytest.raises(ModelViolationError):
            meter.send(0, 1, 8)

    def test_bulk_charge_with_a_repeated_edge_raises(self):
        net = cg.Network(make_path(2), 1)
        meter = cg.BitMeter(net)
        meter.begin_round()
        with pytest.raises(ModelViolationError):
            meter.send_bulk(np.array([0, 0]), np.array([1, 1]), 8)

    def test_offsets_open_later_rounds(self):
        net = cg.Network(make_path(3), 1)  # channel = 8 * (0 + log2 3) -> 13 bits
        meter = cg.BitMeter(net, record_transcript=True)
        meter.begin_round()
        meter.send([0, 1, 2], [1, 2, 1], [3, 4, 5], offset=[0, 2, 2])
        assert meter.rounds == 3
        assert [r["sends"] for r in meter.to_json()] == [
            [[0, 1, 3]], [], [[1, 2, 4], [2, 1, 5]]]
        meter.send(1, 2, net.channel_bits - 4)  # the current round is now 3
        with pytest.raises(ModelViolationError, match="round 3: edge 1->2"):
            meter.send(1, 2, 1)
        meter.begin_round()
        meter.send(1, 2, net.channel_bits)

    def test_transcript_records_sends(self):
        net = cg.Network(make_path(3), 4)
        meter = cg.BitMeter(net, record_transcript=True)
        meter.begin_round()
        meter.send(0, 1, 3)
        meter.begin_round()
        meter.send(1, 2, 4)
        log = meter.to_json()
        assert log[0]["sends"] == [[0, 1, 3]]
        assert log[1]["round"] == 2


class TestBfsTree:
    def test_path_rooted_at_far_end(self):
        net = cg.Network(make_path(5), 4)
        tree = cg.build_bfs_tree(net)
        assert tree.root == 4
        assert tree.depth.tolist() == [4, 3, 2, 1, 0]
        assert tree.rounds <= cg.C_BFS * net.diameter + cg.C0

    def test_clique_is_flat(self):
        net = cg.Network(make_clique(5), 4)
        tree = cg.build_bfs_tree(net)
        assert tree.root == 4
        assert sorted(tree.depth.tolist()) == [0, 1, 1, 1, 1]

    def test_single_node(self):
        tree = cg.build_bfs_tree(cg.Network(make_clique_union([1]), 4))
        assert tree.rounds == 0
        assert tree.preorder == [0]

    def test_depths_match_direct_bfs_on_random_corpus(self):
        gen = Stream(71).rng()
        for _ in range(25):
            k = int(gen.integers(2, 25))
            topo = random_connected_graph(k, gen)
            net = cg.Network(topo, 8)
            tree = cg.build_bfs_tree(net)
            oracle = bfs_distances_oracle(topo, k - 1)
            assert tree.root == k - 1
            assert [oracle[v] for v in range(k)] == tree.depth.tolist()
            assert tree.rounds <= cg.C_BFS * net.diameter + cg.C0
            for v in range(k):
                if v != tree.root:
                    assert tree.depth[v] == tree.depth[tree.parent[v]] + 1

    def test_preorder_is_depth_first(self):
        net = cg.Network(make_path(6), 4)
        tree = cg.build_bfs_tree(net)
        assert tree.preorder == [5, 4, 3, 2, 1, 0]


class TestDetection:
    def test_star_refuses_at_desk_scale(self):
        net = cg.Network(make_star(40), 16)
        det = cg.detect_topology(net, 16, 1.0)
        assert not det.certified
        assert det.tau_star is None

    def test_clique_certifies_when_large_enough(self):
        plan = plan_centralized(4, 1.0)
        k = plan.runs[0][0]
        net = cg.Network(make_clique(k), 4)
        det = cg.detect_topology(net, 4, 1.0)
        assert det.certified

    def test_aggregates_match_direct_computation(self):
        gen = Stream(29).rng()
        for _ in range(100):
            k = int(gen.integers(2, 30))
            topo = random_connected_graph(k, gen)
            net = cg.Network(topo, 16)
            tree = cg.build_bfs_tree(net)
            det = cg.detect_topology(net, 16, 1.0, tree=tree)
            assert det.edge_count == topo.edge_count
            assert det.two_path_count == topo.two_path_count
            assert det.rounds <= cg.C_DET * net.diameter + cg.C0

    def test_single_node_has_nothing_to_certify(self):
        net = cg.Network(make_clique_union([1]), 4)
        det = cg.detect_topology(net, 4, 1.0)
        assert not det.certified


class TestLocalProtocol:
    def setup_method(self):
        plan = plan_centralized(4, 1.0)
        self.k = plan.runs[0][0]
        self.net = cg.Network(make_clique(self.k), 4)
        self.tree = cg.build_bfs_tree(self.net)
        self.det = cg.detect_topology(self.net, 4, 1.0, tree=self.tree)
        assert self.det.certified

    def test_decision_matches_topology_tester(self):
        p = make_uniform(4)
        for trial in range(10):
            run = cg.local_collision_protocol(
                self.net, 4, 1.0, self.det.tau_star, p,
                Stream(3).child(trial), tree=self.tree)
            spec = tester.TesterSpec(self.net.topology, self.det.tau_star, 4, 1.0)
            mono = tester.evaluate(spec, run.values)
            assert run.z == mono.z
            assert run.decision == mono.decision

    def test_orientation_counts_each_edge_once(self):
        run = cg.local_collision_protocol(
            self.net, 4, 1.0, self.det.tau_star, make_uniform(4),
            Stream(4).child(0), tree=self.tree)
        values = run.values
        e = self.net.topology.edges
        direct = int(np.count_nonzero(values[e[:, 0]] == values[e[:, 1]]))
        higher = sum(
            int(np.count_nonzero((values[self.net.adjacency[v]] == values[v])
                                 & (self.net.adjacency[v] > v)))
            for v in range(self.net.k))
        assert run.z == direct == higher

    def test_point_mass_rejected(self):
        p = Distribution([1.0, 0.0, 0.0, 0.0])
        run = cg.local_collision_protocol(
            self.net, 4, 1.0, self.det.tau_star, p, Stream(5).child(0),
            tree=self.tree)
        assert run.decision == "NO"

    def test_round_budget(self):
        meter = cg.BitMeter(self.net)
        run = cg.local_collision_protocol(
            self.net, 4, 1.0, self.det.tau_star, make_uniform(4),
            Stream(6).child(0), tree=self.tree, meter=meter)
        assert run.rounds <= 1 + cg.C_SUM * self.net.diameter + cg.C0
        assert meter.rounds == run.rounds

    def test_rounds_do_not_depend_on_domain_size(self):
        # same topology, two domain sizes that both certify
        plan = plan_centralized(2, 1.0)
        net = cg.Network(make_clique(max(self.k, plan.runs[0][0])), 4)
        tree = cg.build_bfs_tree(net)
        rounds = []
        for n in (2, 4):
            det = cg.detect_topology(net, n, 1.0)
            assert det.certified
            run = cg.local_collision_protocol(
                net, n, 1.0, det.tau_star, make_uniform(n),
                Stream(7).child(0), tree=tree)
            rounds.append(run.rounds)
        assert rounds[0] == rounds[1]

    def test_uncertified_topology_refused(self):
        net = cg.Network(make_star(10), 16)
        with pytest.raises(ProtocolRefusedError):
            cg.local_collision_protocol(net, 16, 1.0, 0.5, make_uniform(16),
                                        Stream(0).child(0))


class TestBundleAssignment:
    def test_partition_shape(self):
        gen = Stream(17).rng()
        for _ in range(20):
            k = int(gen.integers(4, 40))
            net = cg.Network(random_connected_graph(k, gen), 4)
            tree = cg.build_bfs_tree(net)
            s = int(gen.integers(2, 6))
            assignment = cg.bundle_assignment(tree, s)
            assert len(assignment.bundles) == k // s
            assert all(len(b) == s for b in assignment.bundles)
            bundled = [v for b in assignment.bundles for v in b]
            assert len(bundled) == len(set(bundled))
            assert len(assignment.leftover) == k - s * (k // s)
            assert set(bundled) | set(assignment.leftover) == set(range(k))

    def test_holder_owns_its_bundle_subtree(self):
        net = cg.Network(make_path(20), 4)
        tree = cg.build_bfs_tree(net)
        assignment = cg.bundle_assignment(tree, 3)
        for members, holder in zip(assignment.bundles, assignment.bundle_holder):
            for v in members:
                # walk up from v; must meet the holder
                node = v
                while node != holder and tree.parent[node] >= 0:
                    node = int(tree.parent[node])
                assert node == holder

    def test_deterministic(self):
        net = cg.Network(make_cycle(15), 4)
        tree = cg.build_bfs_tree(net)
        a = cg.bundle_assignment(tree, 4)
        b = cg.bundle_assignment(tree, 4)
        assert a.bundles == b.bundles and a.bundle_holder == b.bundle_holder


# (n, eps, k) -> (s, ell, tau.hex(), threshold.hex()) of `choose_bundle_plan`
# on the grid n in {2, 4, 16, 64}, eps in {0.5, 0.9, 1.0}, k in {20, 150,
# 300, 800}; every other problem of the grid raises CapacityError
BUNDLE_PLAN_PINS = {
    (2, 0.5, 800): (4, 200, "0x1.58c81066187e8p-2", "0x1.4540a7337a4b4p+9"),
    (2, 0.9, 150): (3, 50, "0x1.5980add4c5d26p-2", "0x1.7dfd49403df1bp+6"),
    (2, 0.9, 300): (3, 100, "0x1.8a44c2bd7e520p-2", "0x1.898fd13677b9fp+7"),
    (2, 0.9, 800): (3, 266, "0x1.b7d0725c991c6p-2", "0x1.0ce7f21b6e209p+9"),
    (2, 1.0, 150): (3, 50, "0x1.5d03b3b8b1e5ep-2", "0x1.924015a71c1e6p+6"),
    (2, 1.0, 300): (3, 100, "0x1.8cc07749d0ea6p-2", "0x1.a03c62f2a034bp+7"),
    (2, 1.0, 800): (3, 266, "0x1.b95638fe70630p-2", "0x1.1d7bac5a92255p+9"),
    (4, 0.5, 800): (14, 57, "0x1.cf71319856bdep-3", "0x1.5687113ff0d2cp+10"),
    (4, 0.9, 300): (3, 100, "0x1.6e05e626374fcp-2", "0x1.82dbe65d91a03p+6"),
    (4, 0.9, 800): (3, 266, "0x1.a67eebc4a03adp-2", "0x1.0a2c4d356014ap+8"),
    (4, 1.0, 150): (3, 50, "0x1.58c81066187e7p-2", "0x1.91029ccde92d1p+5"),
    (4, 1.0, 300): (3, 100, "0x1.89c237dc651f4p-2", "0x1.9f5be65d91a02p+6"),
    (4, 1.0, 800): (3, 266, "0x1.b78067eea0819p-2", "0x1.1d20243f9d854p+8"),
    (16, 0.9, 800): (4, 200, "0x1.6e05e626374fcp-2", "0x1.82dbe65d91a03p+6"),
    (16, 1.0, 300): (75, 4, "0x1.44799a4ac10ecp-4", "0x1.765a844f00a57p+9"),
    (16, 1.0, 800): (3, 266, "0x1.6f00cfdd41032p-2", "0x1.0f00487f3b0a7p+6"),
    (64, 0.9, 800): (80, 10, "0x1.d2aff87af0652p-4", "0x1.0da8ae4a047f8p+9"),
    (64, 1.0, 800): (14, 57, "0x1.cf71319856bdep-3", "0x1.8d8c44ffc34b1p+6"),
}


class TestPipelined:
    def test_bundle_choices_are_pinned(self):
        # s and ell come back from the exact statistics of ell s-cliques,
        # |E| = ell s (s-1) / 2 and c = ell s (s-1) (s-2), so the pin reads
        # nothing but the plan's statistics, tau and threshold
        seen = {}
        for n in (2, 4, 16, 64):
            for eps in (0.5, 0.9, 1.0):
                for k in (20, 150, 300, 800):
                    try:
                        plan = cg.choose_bundle_plan(n, eps, k)
                    except CapacityError as err:
                        assert str(err) == (
                            f"{k} single-sample nodes cannot host a certified "
                            f"bundle tester for n={n}, eps={eps}")
                        continue
                    s = plan.two_path_count // (2 * plan.edge_count) + 2
                    ell = 2 * plan.edge_count // (s * (s - 1))
                    seen[n, eps, k] = (s, ell, plan.tau.hex(),
                                       plan.threshold.hex())
        assert seen == BUNDLE_PLAN_PINS

    def test_bundle_plans_are_certified_simultaneous_plans(self):
        for n, eps, k in BUNDLE_PLAN_PINS:
            plan = cg.choose_bundle_plan(n, eps, k)
            assert plan.report.overall
            assert plan.family == "disjoint_cliques"
            assert [count for _, count, _ in plan.runs] == [1] * plan.players
            assert Plan.from_json(plan.to_json()) == plan
        for n, k in ((4, 150), (2, 300)):
            net = cg.Network(make_path(k), n)
            run = cg.pipelined_bundle_protocol(net, n, 1.0, make_uniform(n),
                                               Stream(22).child(0))
            assert run.schedule.plan == cg.choose_bundle_plan(n, 1.0, k)
            assert (run.schedule.bits["message"]
                    == run.schedule.plan.resources.message_bits)
            assert all(m.encoded_bits == run.schedule.plan.resources.message_bits
                       for m in run.messages)

    def test_path_topology_end_to_end(self):
        net = cg.Network(make_path(150), 4)
        tree = cg.build_bfs_tree(net)
        plan = cg.choose_bundle_plan(4, 1.0, 150)
        s, ell = plan.runs[0][0], plan.players
        assert s == 3
        p = make_uniform(4)
        for trial in range(30):
            meter = cg.BitMeter(net)
            run = cg.pipelined_bundle_protocol(net, 4, 1.0, p,
                                               Stream(21).child(trial),
                                               tree=tree, meter=meter)
            graph = make_clique_union([s] * ell)
            order = [v for bundle in run.schedule.assignment.bundles for v in bundle]
            spec = tester.TesterSpec(graph, plan.tau, 4, 1.0)
            mono = tester.evaluate(spec, run.values[np.array(order)])
            assert run.decision == mono.decision
            if run.z is not None:
                assert run.z == mono.z
            assert (tree.rounds + run.rounds
                    <= cg.C_PIPE * (net.diameter + s) + cg.C0)

    def test_a_tree_built_by_the_run_is_not_counted(self):
        net = cg.Network(make_path(150), 4)
        given = cg.pipelined_bundle_protocol(net, 4, 1.0, make_bump(4, 1.0),
                                             Stream(23).child(0),
                                             tree=cg.build_bfs_tree(net))
        built = cg.pipelined_bundle_protocol(net, 4, 1.0, make_bump(4, 1.0),
                                             Stream(23).child(0))
        assert given.rounds_breakdown == built.rounds_breakdown
        assert "tree" not in built.rounds_breakdown
        assert ((given.rounds, given.decision, given.z)
                == (built.rounds, built.decision, built.z))

    def test_bundle_size_rejected_below_three(self):
        with pytest.raises(CapacityError):
            cg.choose_bundle_plan(256, 1.0, 20)

    def test_insufficient_nodes_surface_as_capacity_error(self):
        net = cg.Network(make_path(20), 256)
        with pytest.raises(CapacityError):
            cg.pipelined_bundle_protocol(net, 256, 1.0, make_uniform(256),
                                         Stream(0).child(0))

    def test_hand_traceable_two_bundles(self):
        # a path of 8 with bundles of 4: two bundles, rounds within budget
        net = cg.Network(make_path(8), 2)
        tree = cg.build_bfs_tree(net)
        plan = _plan(2, 1.0, [(4, 1, 0), (4, 1, 1)], 2, tau=0.5,
                     referee=True)
        run = cg.pipelined_bundle_protocol(net, 2, 1.0, make_uniform(2),
                                           Stream(9).child(0), tree=tree,
                                           plan=plan)
        assert len(run.schedule.assignment.bundles) == 2
        assert run.rounds + tree.rounds <= cg.C_PIPE * (7 + 4) + cg.C0


class TestCombined:
    def test_certified_clique_takes_local_path(self):
        plan = plan_centralized(4, 1.0)
        net = cg.Network(make_clique(plan.runs[0][0]), 4)
        run = cg.combined_protocol(net, 4, 1.0, make_uniform(4),
                                   Stream(12).child(0))
        assert run.schedule.path == "local"

    def test_star_falls_back_to_pipelining(self):
        net = cg.Network(make_star(149), 4)
        run = cg.combined_protocol(net, 4, 1.0, make_uniform(4),
                                   Stream(13).child(0))
        assert run.schedule.path == "pipelined"
        assert not run.detection.certified

    def test_path_falls_back_to_pipelining(self):
        # path(144) is the longest path that no tau certifies at n=4, eps=1
        net = cg.Network(make_path(144), 4)
        detection = None
        for trial in range(5):
            run = cg.combined_protocol(net, 4, 1.0, make_uniform(4),
                                       Stream(14).child(trial),
                                       detection=detection)
            detection = run.detection
            assert run.schedule.path == "pipelined"
            s = run.schedule.plan.runs[0][0]
            assert s == 3
            assert run.rounds <= cg.C_PIPE * (net.diameter + s) + cg.C0
        assert not detection.certified
        assert cg.detect_topology(cg.Network(make_path(145), 4), 4,
                                  1.0).certified

    def test_path_certified_off_the_grid_agrees_with_the_scenario_runner(self):
        """path(150) at n=4, eps=1 certifies only between grid points; a
        direct combined run and a scenario run take the same local path
        at the same tau and in the same rounds."""
        net = cg.Network(make_path(150), 4)
        det = cg.detect_topology(net, 4, 1.0, tree=cg.build_bfs_tree(net))
        tau = _feasible_tau(149, 296, 4, 1.0)
        assert det.certified and det.tau_star == tau
        assert tau not in cg.COARSE_TAU_GRID
        run = cg.combined_protocol(net, 4, 1.0, make_uniform(4),
                                   Stream(18).child(0))
        result = run_scenario(Scenario(
            "path150", "congest_combined", 4, 1.0, {"kind": "uniform"}, 2,
            topology={"kind": "path", "k": 150}), 18)
        assert (run.schedule.path, run.schedule.tau) == ("local", tau)
        assert (result.summary.family, result.summary.tau) == ("topology", tau)
        assert [r.rounds for r in result.records] == [run.rounds] * 2 == [598] * 2

    def test_local_path_is_cheaper_when_both_apply(self):
        plan = plan_centralized(4, 1.0)
        net = cg.Network(make_clique(plan.runs[0][0]), 4)
        tree = cg.build_bfs_tree(net)
        det = cg.detect_topology(net, 4, 1.0, tree=tree)
        local = cg.local_collision_protocol(net, 4, 1.0, det.tau_star,
                                            make_uniform(4),
                                            Stream(15).child(0), tree=tree)
        piped = cg.pipelined_bundle_protocol(net, 4, 1.0, make_uniform(4),
                                             Stream(15).child(0), tree=tree)
        assert local.rounds <= piped.rounds

    def test_combined_run_is_the_chosen_paths_run(self):
        """The combined run draws, counts and decides as the path it took,
        run directly on the detection's tree, does."""
        plan = plan_centralized(4, 1.0)
        p = make_uniform(4)
        for net in (cg.Network(make_clique(plan.runs[0][0]), 4),
                    cg.Network(make_star(149), 4)):
            det = cg.detect_topology(net, 4, 1.0, tree=cg.build_bfs_tree(net))
            for trial in range(3):
                run = cg.combined_protocol(net, 4, 1.0, p,
                                           Stream(17).child(trial),
                                           detection=det)
                if det.certified:
                    alone = cg.local_collision_protocol(
                        net, 4, 1.0, det.tau_star, p, Stream(17).child(trial),
                        tree=det.tree)
                else:
                    alone = cg.pipelined_bundle_protocol(
                        net, 4, 1.0, p, Stream(17).child(trial), tree=det.tree)
                assert run.detection is det
                assert run.schedule.path == alone.schedule.path
                assert (run.decision, run.z) == (alone.decision, alone.z)
                assert np.array_equal(run.values, alone.values)
                assert run.messages == alone.messages


class TestRoundsBreakdown:
    @staticmethod
    def combined_runs():
        """A combined run on each path: a certified clique and a star."""
        plan = plan_centralized(4, 1.0)
        clique = cg.Network(make_clique(plan.runs[0][0]), 4)
        local = cg.combined_protocol(clique, 4, 1.0, make_uniform(4),
                                     Stream(16).child(0))
        star = cg.Network(make_star(149), 4)
        piped = cg.combined_protocol(star, 4, 1.0, make_uniform(4),
                                     Stream(16).child(1))
        return local, piped

    def test_breakdowns_sum_to_rounds(self):
        local, piped = self.combined_runs()
        assert (local.schedule.path, piped.schedule.path) == ("local",
                                                              "pipelined")
        assert local.schedule.rounds_breakdown == {
            "exchange": 1, "sum": local.schedule.rounds - 1}
        assert set(local.rounds_breakdown) == {"tree", "detect", "exchange", "sum"}
        assert set(piped.rounds_breakdown) == {"tree", "detect", "count",
                                               "pipeline", "answers"}
        for run in (local, piped, local.schedule, piped.schedule):
            assert sum(run.rounds_breakdown.values()) == run.rounds
        assert piped.rounds_breakdown["tree"] == piped.detection.tree.rounds > 0

    def test_combined_rounds_add_tree_and_detection(self):
        for run in self.combined_runs():
            assert run.rounds == (run.schedule.rounds + run.detection.tree.rounds
                                  + run.detection.rounds)
            assert run.detection.tree is run.schedule.tree


class TestRoundReplay:
    def test_meter_rounds_match_reported_rounds(self):
        net = cg.Network(make_path(30), 4)
        tree_meter = cg.BitMeter(net)
        tree = cg.build_bfs_tree(net, tree_meter)
        assert tree_meter.rounds == tree.rounds
        det_meter = cg.BitMeter(net)
        det = cg.detect_topology(net, 4, 1.0, tree=tree, meter=det_meter)
        assert det_meter.rounds == det.rounds
        pipe_meter = cg.BitMeter(net, record_transcript=True)
        run = cg.pipelined_bundle_protocol(net, 4, 1.0, make_uniform(4),
                                           Stream(61).child(0), tree=tree,
                                           plan=_plan(
                                               4, 1.0,
                                               [(3, 1, j) for j in range(10)],
                                               10, tau=0.5, referee=True),
                                           meter=pipe_meter)
        assert pipe_meter.rounds == run.rounds
        # transcript replay: per-edge totals never exceed the channel
        for entry in pipe_meter.to_json():
            per_edge = {}
            for u, v, bits in entry["sends"]:
                per_edge[(u, v)] = per_edge.get((u, v), 0) + bits
            assert all(b <= net.channel_bits for b in per_edge.values())


class TestGraphPowerDetection:
    def test_returns_a_detection_result_on_its_tree(self):
        plan = plan_centralized(4, 1.0)
        # the star's square is the clique that the centralized plan certifies
        net = cg.Network(make_star(plan.runs[0][0] - 1), 4)
        tree = cg.build_bfs_tree(net)
        for t, certified in ((1, False), (2, True)):
            pw = cg.graph_power_detection(net, 4, 1.0, t, tree=tree)
            assert isinstance(pw, cg.DetectionResult)
            assert pw.tree is tree
            assert pw.certified is certified
            if certified:
                assert pw.report == certify_stats(
                    pw.edge_count, pw.two_path_count, pw.tau_star, 4, 1.0)
            else:
                assert pw.report is None
        built = cg.graph_power_detection(net, 4, 1.0, 2)
        assert built.tree.root == net.k - 1

    def test_only_power_detection_sets_congestion(self):
        net = cg.Network(make_cycle(12), 16)
        assert cg.detect_topology(net, 16, 1.0).congestion_ok is None
        assert cg.graph_power_detection(net, 16, 1.0, 1).congestion_ok is True

    def test_power_one_agrees_with_detection(self):
        net = cg.Network(make_cycle(12), 16)
        det = cg.detect_topology(net, 16, 1.0)
        pw = cg.graph_power_detection(net, 16, 1.0, 1)
        assert (pw.edge_count, pw.two_path_count) == (det.edge_count,
                                                      det.two_path_count)
        assert pw.certified == det.certified

    def test_stats_match_power_oracle_on_cycle20(self):
        net = cg.Network(make_cycle(20), 4)
        for t in (2, 3):
            pw = cg.graph_power_detection(net, 4, 1.0, t)
            oracle = graph_power(net.topology, t)
            assert pw.edge_count == oracle.edge_count
            assert pw.two_path_count == oracle.two_path_count

    def test_diameter_bounded_topology_powers_to_clique(self):
        gen = Stream(33).rng()
        topo = random_connected_graph(10, gen, extra_edge_prob=0.4)
        net = cg.Network(topo, 4)
        t = net.diameter
        pw = cg.graph_power_detection(net, 4, 1.0, max(t, 1))
        k = net.k
        assert pw.edge_count == k * (k - 1) // 2
        assert pw.two_path_count == k * (k - 1) * (k - 2)

    def test_round_budget_when_balls_fit(self):
        net = cg.Network(make_cycle(20), 4)
        for t in (1, 2, 3):
            pw = cg.graph_power_detection(net, 4, 1.0, t)
            assert pw.congestion_ok
            assert pw.rounds <= cg.C_POW * t * net.diameter + cg.C0

    def test_congestion_flagged_on_dense_topology(self):
        net = cg.Network(make_clique(60), 2)
        pw = cg.graph_power_detection(net, 2, 1.0, 2)
        assert not pw.congestion_ok
