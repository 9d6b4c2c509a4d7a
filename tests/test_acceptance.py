"""Acceptance suite: the nine package-level criteria.

Each test prints one PASS/FAIL line (visible under ``pytest -s``) and
pins its tolerances inline.  Everything here is seeded; nothing depends
on wall-clock identity except the two explicit runtime budgets.
"""
import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from collitest import congest as cg
from collitest import tester
from collitest.conditions import (COARSE_TAU_GRID, _feasible_tau,
                                  certify_disjoint_cliques, certify_stats,
                                  conjectured_floor,
                                  cycle_plus_hub_counterexample,
                                  equal_cliques_stats, plan_asymmetric,
                                  plan_centralized, plan_simultaneous,
                                  plan_simultaneous_streaming, plan_streaming)
from collitest.dist import make_bump, make_heavy, make_uniform
from collitest.errors import ProtocolRefusedError
from collitest.graph import (check_graph_inequalities, make_bipartite,
                             make_clique, make_cycle, make_disjoint_cliques,
                             make_matching, make_path, make_star,
                             random_connected_graph, random_simple_graph)
from collitest.harness import Scenario, moment_audit, run_scenario
from collitest.models import (simulate_asymmetric, simulate_simultaneous,
                              simulate_simultaneous_streaming,
                              simulate_streaming)
from collitest.rng import Stream


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num}] FAIL: {description}")
        raise
    print(f"\n[criterion {num}] PASS: {description}")


def test_criterion_1_moment_exactness():
    """Monte Carlo mean/variance of Z vs the closed forms, 10^5 trials/pair."""
    trials = 10**5
    pairs = [
        (make_clique(5), make_uniform(10)),
        (make_clique(5), make_bump(10, 0.5)),
        (make_clique(6), make_heavy(8, 1.0)),
        (make_matching(4), make_uniform(6)),
        (make_matching(5), make_bump(4, 1.0)),
        (make_matching(3), make_heavy(6, 0.5)),
        (make_star(6), make_uniform(5)),
        (make_star(10), make_bump(10, 0.5)),
        (make_star(4), make_heavy(12, 1.0)),
        (make_cycle(7), make_uniform(9)),
        (make_cycle(6), make_heavy(4, 0.5)),
        (make_cycle(5), make_bump(8, 1.0)),
        (make_disjoint_cliques(3, 3), make_uniform(12)),
        (make_disjoint_cliques(4, 2), make_bump(6, 0.5)),
        (make_disjoint_cliques(3, 2), make_heavy(5, 1.0)),
    ]
    assert len(pairs) >= 12
    with criterion(1, f"moments exact on {len(pairs)} (graph, dist) pairs"):
        start = time.perf_counter()
        variance_checked = 0
        for idx, (graph, p) in enumerate(pairs):
            report = moment_audit(graph, p, trials, seed=1000 + idx)
            mean_tol = 4 * math.sqrt(report.formula_variance / trials)
            assert abs(report.mean_z - report.expected_z) <= mean_tol, (idx, report)
            if report.formula_variance >= 0.01:
                variance_checked += 1
                assert report.variance_rel_err <= 0.10, (idx, report)
        assert variance_checked >= 12
        elapsed = time.perf_counter() - start
        assert elapsed <= 120.0, f"runtime {elapsed:.1f}s exceeds the 2-minute budget"


def _enumerate_error(spec, p):
    """Independent pure-python enumeration oracle."""
    n = p.n
    edges = [tuple(e) for e in spec.graph.edges.tolist()]
    t = tester.threshold(spec)
    uniform = np.allclose(p.probs, 1 / n, atol=1e-12)
    error = 0.0
    for labels in itertools.product(range(1, n + 1), repeat=spec.graph.vertex_count):
        weight = math.prod(p.probs[v - 1] for v in labels)
        z = sum(labels[u] == labels[v] for u, v in edges)
        if (z >= t) if uniform else (z < t):
            error += weight
    return error


def test_criterion_2_enumeration_oracle():
    """Exact error mass vs independent enumeration and Monte Carlo."""
    cases = [
        (tester.TesterSpec(make_clique(3), 0.5, 3, 1.0), make_uniform(3)),
        (tester.TesterSpec(make_clique(3), 0.5, 3, 1.0), make_heavy(3, 1.0)),
        (tester.TesterSpec(make_matching(2), 0.5, 4, 1.0), make_uniform(4)),
        (tester.TesterSpec(make_matching(2), 0.5, 4, 1.0), make_bump(4, 1.0)),
        (tester.TesterSpec(make_star(3), 0.3, 3, 1.0), make_heavy(3, 1.0)),
        (tester.TesterSpec(make_cycle(4), 0.6, 3, 0.5), make_uniform(3)),
        (tester.TesterSpec(make_clique(4), 0.4, 4, 1.0), make_bump(4, 1.0)),
    ]
    with criterion(2, f"enumeration oracle equals brute force and MC on {len(cases)} cases"):
        mc_trials = 10**4
        for idx, (spec, p) in enumerate(cases):
            state_space = p.n ** spec.graph.vertex_count
            assert state_space <= 10**5
            exact = tester.exact_error_probability(spec, p)
            assert exact == pytest.approx(_enumerate_error(spec, p), abs=1e-12)
            mc = tester.monte_carlo_error(spec, p, mc_trials, Stream(2000 + idx))
            sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / mc_trials)
            assert abs(mc - exact) <= 3 * sigma, (idx, exact, mc)


def test_criterion_3_end_to_end_error_rates():
    """Planned centralized testers hit the guaranteed error rates."""
    with criterion(3, "centralized plans: YES >= 0.70 uniform, <= 0.30 far, 2000 trials"):
        start = time.perf_counter()
        trials = 2000
        for n in (64, 100, 256):
            for eps in (0.5, 1.0):
                for kind, bound_low in (("uniform", True), ("bump", False),
                                        ("heavy", False)):
                    sc = Scenario(
                        scenario_id=f"{kind}-{n}-{eps}", model="centralized",
                        n=n, eps=eps, dist={"kind": kind}, trials=trials)
                    result = run_scenario(sc, master_seed=300 + n)
                    if bound_low:
                        assert result.summary.yes_rate >= 0.70, sc.scenario_id
                    else:
                        assert result.summary.yes_rate <= 0.30, sc.scenario_id
        elapsed = time.perf_counter() - start
        assert elapsed <= 600.0, f"runtime {elapsed:.1f}s exceeds the 10-minute budget"


def test_criterion_4_clique_family_constant():
    """Closed-form clique-family certificates vs the exact directed check."""
    grid = [(q, ell, n, eps)
            for q in (3, 5, 9, 16, 35, 70, 104, 360)
            for ell in (1, 4, 16, 64, 256)
            for n in (1, 16, 100)
            for eps in (0.5, 1.0)]
    rows = []
    satisfied = 0
    with criterion(4, "factor-6 band confines every closed-form/direct disagreement"):
        for q, ell, n, eps in grid:
            cor3 = q * math.sqrt(ell) >= 35 * math.sqrt(n) / eps**2
            if not cor3:
                continue
            satisfied += 1
            edge_count, two_path = equal_cliques_stats(q, ell)
            rederived_any = False
            direct_at_rederived = True
            for tau in COARSE_TAU_GRID:
                rep = certify_disjoint_cliques(q, ell, tau, n, eps)
                if rep.closed_form_directed.overall:
                    rederived_any = True
                    direct_at_rederived &= rep.direct.overall
            direct_any = _feasible_tau(edge_count, two_path, n, eps) is not None
            undirected_any = _feasible_tau(edge_count, two_path // 6, n,
                                           eps) is not None
            rows.append((q, ell, n, eps, cor3, rederived_any, direct_any,
                         undirected_any))
            # the re-derived closed form is sufficient for the direct check
            assert direct_at_rederived, (q, ell, n, eps)
            if rederived_any:
                assert direct_any
            # any disagreement is the two-path convention and nothing else
            if not direct_any:
                assert undirected_any, (q, ell, n, eps)
        assert satisfied >= 50
        header = f"{'q':>4} {'ell':>4} {'n':>4} {'eps':>4} {'cor3':>5} {'rederived':>9} {'direct':>6} {'undirected':>10}"
        print("\n" + header)
        for row in rows:
            print(f"{row[0]:>4} {row[1]:>4} {row[2]:>4} {row[3]:>4} "
                  f"{str(row[4]):>5} {str(row[5]):>9} {str(row[6]):>6} {str(row[7]):>10}")


def _dist_for_trial(n, eps, trial):
    return (make_uniform(n), make_bump(n, eps), make_heavy(n, eps))[trial % 3]


def test_criterion_5_model_simulators():
    """200 seeded runs per model: decision equivalence and exact ledgers."""
    n, eps, runs = 64, 1.0, 200
    bits = 6  # ceil(log2(64))
    with criterion(5, "simulators match the monolithic tester and their budgets"):
        # simultaneous, k in {4, 16}
        for k in (4, 16):
            plan = plan_simultaneous(n, eps, k)
            spec = tester.TesterSpec(plan.build_graph(), plan.tau, n, eps)
            width = math.ceil(math.log2(math.ceil(plan.threshold) + 2))
            for trial in range(runs):
                p = _dist_for_trial(n, eps, trial)
                stream = Stream(500 + k).child(trial)
                sim = simulate_simultaneous(plan, p, stream)
                mono = tester.run(spec, p, stream)
                assert sim.decision == mono.decision
                assert sim.ledger.message_bits == [width] * k
                assert sim.ledger.samples == [size * count for size, count, _
                                              in plan.runs]

        # asymmetric, R in {(1,1,1,1), (4,2,1)}
        for rates in ((1.0, 1.0, 1.0, 1.0), (4.0, 2.0, 1.0)):
            plan = plan_asymmetric(n, eps, rates)
            spec = tester.TesterSpec(plan.build_graph(), plan.tau, n, eps)
            width = math.ceil(math.log2(math.ceil(plan.threshold) + 2))
            for trial in range(runs):
                p = _dist_for_trial(n, eps, trial)
                stream = Stream(600 + len(rates)).child(trial)
                sim = simulate_asymmetric(plan, p, stream)
                mono = tester.run(spec, p, stream)
                assert sim.decision == mono.decision
                assert sim.ledger.sampling_time == plan.sampling_time
                assert max(sim.ledger.message_bits) == width

        # streaming, m' in {4, 8}
        for m_prime, m_bits in ((4, 4 * 2 * bits), (8, 8 * 2 * bits)):
            plan = plan_streaming(n, eps, m_bits)
            assert plan.m_prime == m_prime
            spec = tester.TesterSpec(plan.build_graph(), plan.tau, n, eps)
            for trial in range(runs):
                p = _dist_for_trial(n, eps, trial)
                stream = Stream(700 + m_prime).child(trial)
                sim = simulate_streaming(plan, p, stream)
                mono = tester.run(spec, p, stream)
                if sim.ledger.early_terminated:
                    assert sim.decision == "NO" == mono.decision
                else:
                    assert sim.decision == mono.decision
                assert max(sim.ledger.memory_bits) <= m_bits

        # combined: memory-constrained simultaneous, k in {2, 4}
        for k, m_bits in ((2, 48), (4, 96)):
            plan = plan_simultaneous_streaming(n, eps, k, m_bits)
            spec = tester.TesterSpec(plan.build_graph(), plan.tau, n, eps)
            width = math.ceil(math.log2(math.ceil(plan.threshold) + 2))
            for trial in range(runs):
                p = _dist_for_trial(n, eps, trial)
                stream = Stream(800 + k).child(trial)
                sim = simulate_simultaneous_streaming(plan, p, stream)
                mono = tester.run(spec, p, stream)
                if sim.ledger.early_terminated:
                    assert sim.decision == "NO" == mono.decision
                else:
                    assert sim.decision == mono.decision
                assert sim.ledger.message_bits == [width] * k
                assert max(sim.ledger.memory_bits) <= m_bits


def test_criterion_6_graph_inequalities():
    """Lemma-style inequalities on 500 random graphs; brute-force c(G)."""
    with criterion(6, "inequalities on 500 random + named graphs; c(G) brute force"):
        gen = Stream(4242).rng()
        named = [make_clique(4), make_clique(7), make_matching(5),
                 make_star(6), make_cycle(8), make_disjoint_cliques(3, 4),
                 make_bipartite(3, 4), make_path(9)]
        small = list(named)
        for _ in range(500):
            nv = int(gen.integers(1, 51))
            g = random_simple_graph(nv, float(gen.random()), gen)
            assert check_graph_inequalities(g).all_passed
            if nv <= 12:
                small.append(g)
        for g in named:
            assert check_graph_inequalities(g).all_passed
        assert len(small) > 50
        for g in small:
            if g.vertex_count > 12:
                continue
            edges = [tuple(e) for e in g.edges.tolist()]
            brute = sum(
                1 for e1, e2 in itertools.permutations(edges, 2)
                if len(set(e1) & set(e2)) == 1)
            assert brute == g.two_path_count


def test_criterion_7_congest():
    """Local O(D) path on certified cliques; pipelined fallback on paths."""
    with criterion(7, "CONGEST: certified local path, pipelined fallback, exact aggregates"):
        # certified clique: round budget, bit meter, criterion-3 error rates
        n, eps = 16, 1.0
        k = plan_centralized(n, eps).runs[0][0]
        net = cg.Network(make_clique(k), n)
        tree = cg.build_bfs_tree(net)
        det = cg.detect_topology(net, n, eps, tree=tree)
        assert det.certified
        trials = 2000
        for p, low_side in ((make_uniform(n), True), (make_bump(n, eps), False)):
            yes = 0
            for trial in range(trials):
                meter = cg.BitMeter(net)
                run = cg.local_collision_protocol(
                    net, n, eps, det.tau_star, p,
                    Stream(900 if low_side else 901).child(trial),
                    tree=tree, meter=meter)
                yes += run.decision == "YES"
                assert run.rounds <= 1 + cg.C_SUM * net.diameter + cg.C0
                assert meter.max_edge_bits <= net.channel_bits
            rate = yes / trials
            assert rate >= 0.70 if low_side else rate <= 0.30, (low_side, rate)

        # path(150) certifies only at a tau between grid points; path(144),
        # the longest path no tau certifies: local refuses, combined falls back
        assert cg.detect_topology(cg.Network(make_path(150), 4), 4,
                                  1.0).tau_star == _feasible_tau(149, 296, 4, 1.0)
        path_net = cg.Network(make_path(144), 4)
        path_det = cg.detect_topology(path_net, 4, 1.0)
        assert not path_det.certified
        with pytest.raises(ProtocolRefusedError):
            cg.local_collision_protocol(path_net, 4, 1.0, 0.5, make_uniform(4),
                                        Stream(0).child(0),
                                        tree=path_det.tree)
        for trial in range(5):
            run = cg.combined_protocol(path_net, 4, 1.0, make_uniform(4),
                                       Stream(902).child(trial),
                                       detection=path_det)
            assert run.schedule.path == "pipelined"
            s = run.schedule.plan.runs[0][0]
            assert run.rounds <= cg.C_PIPE * (path_net.diameter + s) + cg.C0

        # a path where no tau whatsoever certifies the topology (|E| = 399
        # misses both edge budgets) yet bundles of 4 carry enough comparisons
        long_net = cg.Network(make_path(400), 16)
        assert _feasible_tau(long_net.topology.edge_count,
                             long_net.topology.two_path_count, 16, 1.0) is None
        long_run = cg.combined_protocol(long_net, 16, 1.0, make_uniform(16),
                                        Stream(903).child(0))
        assert long_run.schedule.path == "pipelined"
        long_s = long_run.schedule.plan.runs[0][0]
        assert long_run.rounds <= cg.C_PIPE * (
            long_net.diameter + long_s) + cg.C0

        # aggregation exactness on 100 random connected topologies
        gen = Stream(905).rng()
        for _ in range(100):
            topo = random_connected_graph(int(gen.integers(2, 30)), gen)
            subnet = cg.Network(topo, 16)
            d = cg.detect_topology(subnet, 16, 1.0)
            assert d.edge_count == topo.edge_count
            assert d.two_path_count == topo.two_path_count


def test_criterion_8_counterexample():
    """The certified cycle vs its hub-augmented supergraph."""
    with criterion(8, "cycle certifies; hub-augmented supergraph fails condition 3"):
        result = cycle_plus_hub_counterexample(16, 1.0, 40.0)
        assert result.cycle_report.overall
        assert result.cycle_tau in COARSE_TAU_GRID
        for tau, rep in result.augmented_reports.items():
            assert not rep.cond3.passed, tau
        assert result.augmented_ratio >= 1 / 12


def test_criterion_9_lower_bound_consistency():
    """Conjectured floors never exceed planner outputs; Claim-11 rearrangement."""
    with criterion(9, "conditional floors vs planner grid; streaming floor exact"):
        for n in (16, 64, 256):
            for eps in (0.5, 1.0):
                central = plan_centralized(n, eps)
                assert (conjectured_floor("centralized", n, eps).value
                        <= central.samples_total)
                for k in (1, 4, 16):
                    sim = plan_simultaneous(n, eps, k)
                    assert (conjectured_floor("simultaneous", n, eps, k=k).value
                            <= sim.resources.samples_per_player)
                for rates in ((1.0, 1.0, 1.0, 1.0), (4.0, 2.0, 1.0), (1.0, 0.0)):
                    asym = plan_asymmetric(n, eps, rates)
                    assert (conjectured_floor("asymmetric", n, eps,
                                              rates=rates).value
                            <= asym.sampling_time)
        bits = {16: 4, 64: 6, 256: 8}
        for n in (64, 256):
            for eps in (1.0,):
                for m_prime in (4, 8, 16):
                    m_bits = m_prime * 2 * bits[n]
                    stream_plan = plan_streaming(n, eps, m_bits)
                    floor = conjectured_floor("streaming", n, eps,
                                              m_prime=m_prime)
                    assert floor.value <= stream_plan.samples_total
                    # Claim-11 rearrangement, exactly
                    assert floor.value == (n / eps**4) / m_prime
                    for k in (2, 4):
                        combo = plan_simultaneous_streaming(n, eps, k, m_bits)
                        cfloor = conjectured_floor(
                            "simultaneous_streaming", n, eps, k=k,
                            m_prime=m_prime)
                        assert cfloor.value <= combo.resources.samples_per_player
