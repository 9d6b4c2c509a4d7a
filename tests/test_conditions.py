import math

import pytest

from collitest.conditions import (COARSE_TAU_GRID, Plan,
                                  certify_disjoint_cliques, certify_graph,
                                  certify_stats, clique_union_stats,
                                  conjectured_floor,
                                  cycle_plus_hub_counterexample,
                                  equal_cliques_stats, first_certified_tau,
                                  minimal_clique_count,
                                  minimal_clique_size, plan_asymmetric,
                                  plan_centralized, plan_simultaneous,
                                  plan_simultaneous_streaming, plan_streaming)
from collitest.conditions import (_feasible_tau, _smallest_feasible,
                                  _streaming_memory_fields)
from collitest.encoding import message_bit_width
from collitest.errors import CapacityError
from collitest.graph import make_clique, make_matching, make_star


class TestCertify:
    def test_matching_with_exact_budget(self):
        # 576 independent edges, n=16, eps=1, tau=1/3: both edge budgets sit
        # exactly at 576 and the two-path condition is vacuous
        rep = certify_graph(make_matching(576), 1 / 3, 16, 1.0)
        assert rep.cond1.required == pytest.approx(576.0)
        assert rep.cond2.required == pytest.approx(576.0)
        assert rep.cond3.actual == 0.0
        assert rep.overall

    def test_one_less_edge_fails(self):
        rep = certify_graph(make_matching(575), 1 / 3, 16, 1.0)
        assert not rep.overall

    def test_star_fails_dependency_condition_everywhere(self):
        star = make_star(10_000)
        for tau in COARSE_TAU_GRID:
            rep = certify_graph(star, tau, 16, 1.0)
            assert not rep.cond3.passed
            assert not rep.overall

    def test_big_clique_sits_in_the_factor_six_band(self):
        # q = 100 sqrt(n)/eps^2 at tau = 1/2 passes both edge budgets; the
        # dependency condition fails under the directed two-path count but
        # clears once the count is divided by 6 (the undirected convention
        # behind the historical constant)
        n, eps = 100, 0.5
        q = math.ceil(100 * math.sqrt(n) / eps**2)
        g = make_clique(q)
        rep = certify_graph(g, 0.5, n, eps)
        assert rep.cond1.passed and rep.cond2.passed
        assert not rep.cond3.passed
        assert rep.cond3.actual <= 6 * rep.cond3.required
        undirected = certify_stats(g.edge_count, g.two_path_count // 6,
                                   0.5, n, eps)
        assert undirected.overall

    def test_rejects_tau_endpoints(self):
        for tau in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                certify_graph(make_clique(3), tau, 4, 1.0)

    def test_overall_is_conjunction(self):
        rep = certify_graph(make_clique(10), 0.5, 4, 1.0)
        assert rep.overall == (rep.cond1.passed and rep.cond2.passed
                               and rep.cond3.passed)

    def test_report_json(self):
        rep = certify_graph(make_clique(10), 0.5, 4, 1.0)
        obj = rep.to_json()
        assert obj["overall"] == rep.overall
        assert obj["cond3"]["sense"] == "<="


class TestDisjointCliques:
    def test_single_clique_of_35_meets_the_closed_form_exactly(self):
        rep = certify_disjoint_cliques(35, 1, 1 / 9, 1, 1.0)
        assert 35 * math.sqrt(1) == 35.0  # q sqrt(ell) sits at 35 sqrt(n)/eps^2
        assert rep.closed_form.overall

    def test_small_cliques_many_copies(self):
        # q = 3, ell = (35 sqrt(n) / (3 eps^2))^2 with n = 9, eps = 1
        ell = math.ceil((35 * 3 / 3) ** 2)
        rep = certify_disjoint_cliques(3, ell, 1 / 9, 9, 1.0)
        assert rep.closed_form.overall

    def test_single_copy_matches_centralized_substitution(self):
        rep = certify_disjoint_cliques(40, 1, 0.25, 4, 1.0)
        root = math.sqrt(4) / 1.0
        assert rep.closed_form.cond1.required == pytest.approx(math.sqrt(12) * root / 0.25)
        assert rep.closed_form.cond2.required == pytest.approx(math.sqrt(48) * root / 0.75)

    def test_rejects_tiny_cliques(self):
        with pytest.raises(ValueError):
            certify_disjoint_cliques(2, 5, 0.5, 4, 1.0)

    def test_directed_closed_form_implies_direct_certificate(self):
        for q in (3, 5, 9, 20):
            for ell in (1, 4, 25, 100):
                for n in (1, 16, 100):
                    for tau in (0.1, 1 / 3, 0.6):
                        rep = certify_disjoint_cliques(q, ell, tau, n, 1.0)
                        if rep.closed_form_directed.overall:
                            assert rep.direct.overall, (q, ell, n, tau)

    def test_directed_coefficient_is_six_times_the_historical_one(self):
        rep = certify_disjoint_cliques(5, 2, 0.3, 16, 1.0)
        assert rep.closed_form_directed.cond3.required == pytest.approx(
            6 * rep.closed_form.cond3.required)


class TestPlanCentralized:
    def test_beats_the_historical_constant(self):
        plan = plan_centralized(100, 0.5)
        assert plan.clique_sizes[0] <= math.ceil(100 * 10 / 0.25)
        assert plan.report.overall
        assert certify_graph(plan.build_graph(), plan.tau, 100, 0.5).overall

    def test_tau_sits_below_half(self):
        for n, eps in [(16, 1.0), (64, 0.5), (100, 1.0), (256, 0.5)]:
            assert plan_centralized(n, eps).tau < 0.5

    def test_trivial_domain(self):
        plan = plan_centralized(1, 1.0)
        assert plan.report.overall
        assert plan.clique_sizes[0] >= 2

    def test_result_is_minimal(self):
        plan = plan_centralized(16, 1.0)
        q = plan.clique_sizes[0]
        # no smaller clique passes for any tau (exact feasibility interval)
        for smaller in range(2, q):
            assert _feasible_tau(*equal_cliques_stats(smaller, 1), 16, 1.0) is None

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            plan_centralized(0, 1.0)
        with pytest.raises(ValueError):
            plan_centralized(4, 0.0)


class TestPlanSimultaneous:
    def test_single_player_reduces_to_centralized(self):
        one = plan_simultaneous(64, 1.0, 1)
        central = plan_centralized(64, 1.0)
        assert one.clique_sizes == central.clique_sizes
        assert one.tau == central.tau

    def test_players_shrink_per_player_load(self):
        q_by_k = [plan_simultaneous(100, 0.5, k).clique_sizes[0]
                  for k in (1, 4, 16, 64)]
        assert q_by_k == sorted(q_by_k, reverse=True)

    def test_footnote_value_bounds_planner_when_it_certifies(self):
        # at tau = 1/3 conditions 1-2 alone give q' = ceil(sqrt(108 n / k)/eps^2);
        # with many players the dependency condition is slack and that value
        # certifies under the directed count, so the planner can only improve
        n, eps, k = 100, 0.5, 256
        footnote = math.ceil(math.sqrt(108 * n / k) / eps**2)
        assert certify_stats(*equal_cliques_stats(footnote, k), 1 / 3, n, eps).overall
        assert plan_simultaneous(n, eps, k).clique_sizes[0] <= footnote

    def test_footnote_value_not_certified_for_few_players(self):
        # with k = 16 the directed dependency condition rejects the footnote
        # value; the planner must exceed it (the documented factor-6 gap)
        n, eps, k = 100, 0.5, 16
        footnote = math.ceil(math.sqrt(108 * n / k) / eps**2)
        assert not certify_stats(*equal_cliques_stats(footnote, k), 1 / 3, n, eps).overall
        plan = plan_simultaneous(n, eps, k)
        assert plan.report.overall
        assert plan.clique_sizes[0] > footnote

    def test_message_width_formula(self):
        plan = plan_simultaneous(64, 1.0, 4)
        assert plan.resources.message_bits == math.ceil(
            math.log2(math.ceil(plan.threshold) + 2))

    def test_self_certifies_on_instantiated_graph(self):
        plan = plan_simultaneous(64, 1.0, 4)
        assert certify_graph(plan.build_graph(), plan.tau, 64, 1.0).overall


class TestPlanAsymmetric:
    def test_one_active_player_reduces_to_centralized(self):
        plan = plan_asymmetric(64, 1.0, (1.0, 0.0, 0.0))
        central = plan_centralized(64, 1.0)
        assert plan.clique_sizes[0] == central.clique_sizes[0]
        assert plan.clique_sizes[1:] == (0, 0)
        assert plan.sampling_time * 1.0 == pytest.approx(plan.clique_sizes[0])

    def test_equal_rates_split_evenly(self):
        plan = plan_asymmetric(64, 1.0, (1.0, 1.0, 1.0, 1.0))
        assert len(set(plan.clique_sizes)) == 1
        assert plan.report.overall

    def test_two_to_one_rates(self):
        plan = plan_asymmetric(64, 1.0, (2.0, 1.0))
        q1, q2 = plan.clique_sizes
        assert q1 == int(2 * plan.sampling_time)
        assert q2 == int(plan.sampling_time)
        assert plan.report.overall
        assert certify_graph(plan.build_graph(), plan.tau, 64, 1.0).overall

    def test_minimal_over_breakpoints_at_plan_tau(self):
        plan = plan_asymmetric(64, 1.0, (2.0, 1.0))
        # every earlier schedule breakpoint fails at the plan's own tau
        breakpoints = sorted({j / 2 for j in range(1, int(plan.sampling_time * 2))})
        for t in breakpoints:
            if t >= plan.sampling_time:
                continue
            sizes = [int(2 * t), int(t)]
            edge_count, two_paths = clique_union_stats(sizes)
            if edge_count < 1:
                continue
            assert not certify_stats(edge_count, two_paths, plan.tau, 64, 1.0).overall

    def test_time_monotone_in_rates(self):
        slow = plan_asymmetric(64, 1.0, (1.0, 1.0))
        fast = plan_asymmetric(64, 1.0, (2.0, 2.0))
        more = plan_asymmetric(64, 1.0, (1.0, 1.0, 1.0))
        assert fast.sampling_time <= slow.sampling_time
        assert more.sampling_time <= slow.sampling_time

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            plan_asymmetric(16, 1.0, (0.0, 0.0))
        with pytest.raises(ValueError):
            plan_asymmetric(16, 1.0, (1.0, -2.0))


class TestPlanStreaming:
    def test_huge_memory_returns_centralized_plan(self):
        central = plan_centralized(16, 1.0)
        bits_needed = central.clique_sizes[0] * 2 * 4  # m' >= q at 4 bits/sample
        plan = plan_streaming(16, 1.0, bits_needed)
        assert plan.family == "clique"
        assert plan.clique_sizes == central.clique_sizes
        assert plan.m_prime >= central.clique_sizes[0]
        assert plan.resources.memory_bits <= bits_needed

    def test_tiny_memory_rejected(self):
        with pytest.raises(CapacityError, match="m'"):
            plan_streaming(256, 1.0, 2 * 8 * 2)  # m' = 2

    def test_batched_plan_shape_and_certificate(self):
        plan = plan_streaming(256, 1.0, 64)
        assert plan.m_prime == 4
        assert plan.bits_per_sample == 8
        assert set(plan.clique_sizes) == {4}
        assert plan.report.overall
        assert plan.resources.memory_bits <= 64
        assert message_bit_width(plan.threshold) <= 32

    def test_batch_count_is_minimal(self):
        plan = plan_streaming(256, 1.0, 64)
        ell = len(plan.clique_sizes)
        for smaller in range(max(1, ell - 40), ell):
            assert _feasible_tau(*equal_cliques_stats(4, smaller), 256, 1.0) is None

    def test_within_historical_sample_bound(self):
        # the historical closed form promises 3000 n log(n) / (m eps^4) samples
        for n, m_bits in [(256, 64), (256, 128), (64, 48)]:
            plan = plan_streaming(n, 1.0, m_bits)
            assert plan.samples_total <= 3000 * n * math.log2(n) / m_bits

    def test_memory_monotone_on_grid(self):
        totals = [plan_streaming(256, 1.0, m).samples_total
                  for m in (64, 96, 128, 192, 256)]
        assert totals == sorted(totals, reverse=True)


class TestPlanSimultaneousStreaming:
    def test_single_player_matches_streaming(self):
        a = plan_simultaneous_streaming(256, 1.0, 1, 64)
        b = plan_streaming(256, 1.0, 64)
        assert a.clique_sizes == b.clique_sizes
        assert a.tau == b.tau

    def test_huge_memory_matches_simultaneous(self):
        sim = plan_simultaneous(64, 1.0, 4)
        m_bits = sim.clique_sizes[0] * 2 * 6
        plan = plan_simultaneous_streaming(64, 1.0, 4, m_bits)
        assert plan.family == "disjoint_cliques"
        assert plan.clique_sizes == sim.clique_sizes

    def test_players_split_batches(self):
        k = 4
        plan = plan_simultaneous_streaming(256, 1.0, k, 64)
        single = plan_streaming(256, 1.0, 64)
        assert plan.players == k
        batches = len(plan.clique_sizes) // k
        assert batches == math.ceil(len(single.clique_sizes) / k)
        per_player = plan.resources.samples_per_player
        assert per_player == 4 * batches
        # symmetric split: within one batch of the even split
        assert math.ceil(single.samples_total / k) <= per_player
        assert per_player < math.ceil(single.samples_total / k) + plan.m_prime
        assert plan.report.overall

    def test_self_certifies(self):
        plan = plan_simultaneous_streaming(256, 1.0, 4, 64)
        assert certify_graph(plan.build_graph(), plan.tau, 256, 1.0).overall

    @pytest.mark.parametrize("n, eps, k, m_bits",
                             [(256, 1.0, 4, 64), (1024, 0.5, 8, 400)])
    def test_fewest_batches(self, n, eps, k, m_bits):
        plan = plan_simultaneous_streaming(n, eps, k, m_bits)
        batches = len(plan.clique_sizes) // k
        assert batches > 1 and plan.report.overall
        # one batch fewer per player certifies for no tau at all
        fewer = equal_cliques_stats(plan.m_prime, (batches - 1) * k)
        assert _feasible_tau(*fewer, n, eps) is None


class TestSearchHelpers:
    def test_minimal_clique_size_boundary(self):
        q = minimal_clique_size(16, 1.0, 1 / 3, 1)
        assert certify_stats(*equal_cliques_stats(q, 1), 1 / 3, 16, 1.0).overall
        assert not certify_stats(*equal_cliques_stats(q - 1, 1), 1 / 3, 16, 1.0).overall

    def test_minimal_clique_count_boundary(self):
        ell = minimal_clique_count(64, 1.0, 1 / 3, 4)
        assert certify_stats(*equal_cliques_stats(4, ell), 1 / 3, 64, 1.0).overall
        assert not certify_stats(*equal_cliques_stats(4, ell - 1), 1 / 3, 64, 1.0).overall

    def test_matching_sized_plans_allowed(self):
        # enough players make two-sample cliques certifiable
        assert minimal_clique_size(1, 1.0, 0.2, 10_000) == 2

    def test_exact_count_far_past_any_grid(self):
        # plan_streaming(10**5, 0.1, 102) stores m' = 3 samples per batch; a
        # tau sampled near 1 made its search give up, the exact one does not
        assert _streaming_memory_fields(10**5, 102) == (17, 3)

        def stats(ell):
            return equal_cliques_stats(3, ell)

        ell, tau = _smallest_feasible(stats, 1, "clique count", 10**5, 0.1)
        assert ell == 12_000_000_000 < 2**40
        assert certify_stats(*stats(ell), tau, 10**5, 0.1).overall
        assert _feasible_tau(*stats(ell - 1), 10**5, 0.1) is None

    def test_first_certified_tau_follows_the_grid_order(self):
        edges, paths = equal_cliques_stats(1000, 1)
        passing = [t for t in COARSE_TAU_GRID
                   if certify_stats(edges, paths, t, 16, 1.0).overall]
        assert len(passing) > 1
        assert first_certified_tau(edges, paths, COARSE_TAU_GRID, 16,
                                   1.0) == passing[0]
        assert first_certified_tau(edges, paths, COARSE_TAU_GRID[::-1], 16,
                                   1.0) == passing[-1]

    def test_first_certified_tau_none(self):
        assert first_certified_tau(0, 0, COARSE_TAU_GRID, 16, 1.0) is None
        assert first_certified_tau(*equal_cliques_stats(5, 1),
                                   COARSE_TAU_GRID, 16, 1.0) is None


class TestConjecturedFloors:
    def test_centralized_example(self):
        assert conjectured_floor("centralized", 16, 1.0, edge_floor=512).value == 32.0

    def test_streaming_example_matches_rearrangement(self):
        floor = conjectured_floor("streaming", 16, 1.0, m_prime=10, edge_floor=1000)
        assert floor.value == pytest.approx(1000 / 10)

    def test_single_player_simultaneous_equals_centralized(self):
        a = conjectured_floor("simultaneous", 64, 0.5, k=1)
        b = conjectured_floor("centralized", 64, 0.5)
        assert a.value == b.value

    def test_default_edge_floor(self):
        floor = conjectured_floor("centralized", 64, 0.5)
        assert floor.edge_floor == pytest.approx(64 / 0.5**4)
        assert floor.assumes_conjecture

    def test_floors_stay_below_planner_outputs(self):
        for n in (16, 64):
            for eps in (0.5, 1.0):
                central = plan_centralized(n, eps)
                assert (conjectured_floor("centralized", n, eps).value
                        <= central.samples_total)
                for k in (2, 8):
                    sim = plan_simultaneous(n, eps, k)
                    assert (conjectured_floor("simultaneous", n, eps, k=k).value
                            <= sim.resources.samples_per_player)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            conjectured_floor("quantum", 4, 1.0)


class TestCounterexample:
    def test_reference_instance(self):
        result = cycle_plus_hub_counterexample(16, 1.0, 40.0)
        cyc, aug = result.cycle, result.augmented
        assert cyc.two_path_count == 2 * cyc.edge_count
        assert result.cycle_report.overall
        assert aug.edge_count == 2 * aug.vertex_count - 3
        assert result.augmented_ratio >= 1 / 12
        assert result.augmented_fails_everywhere

    def test_cycle_tau_is_the_first_certified_grid_tau(self):
        result = cycle_plus_hub_counterexample(16, 1.0, 40.0)
        cyc = result.cycle
        for tau in COARSE_TAU_GRID:
            if tau == result.cycle_tau:
                break
            assert not certify_graph(cyc, tau, 16, 1.0).overall
        assert result.cycle_report.tau == result.cycle_tau

    def test_small_b_is_reported(self):
        with pytest.raises(CapacityError, match="too small"):
            cycle_plus_hub_counterexample(16, 1.0, 1.0)

    def test_bound_never_reaches_one_twelfth(self):
        # (1-tau)^2 eps^2 / (16 sqrt(n)) <= 1/16 < 1/12 for every tau and n
        result = cycle_plus_hub_counterexample(16, 1.0, 40.0)
        for rep in result.augmented_reports.values():
            assert rep.cond3.required < 1 / 12


class TestPlanJson:
    def test_roundtrip_recertifies(self):
        for plan in (plan_centralized(16, 1.0),
                     plan_simultaneous(64, 1.0, 4),
                     plan_asymmetric(16, 1.0, (2.0, 1.0)),
                     plan_streaming(64, 1.0, 48)):
            loaded = Plan.from_json(plan.to_json())
            assert loaded.clique_sizes == plan.clique_sizes
            assert loaded.tau == plan.tau
            assert loaded.report.overall
            assert loaded.threshold == pytest.approx(plan.threshold)
