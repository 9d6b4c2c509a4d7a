import math
from dataclasses import replace

import pytest

from collitest.conditions import (clique_union_stats, plan_asymmetric,
                                  plan_centralized, plan_simultaneous,
                                  plan_simultaneous_streaming, plan_streaming)
from collitest.dist import Distribution, make_bump, make_heavy, make_uniform
from collitest.encoding import counter_bit_width, message_bit_width
from collitest.errors import ModelViolationError
from collitest.models import (simulate_asymmetric, simulate_simultaneous,
                              simulate_simultaneous_streaming,
                              simulate_streaming)
from collitest.rng import Stream
from collitest.tester import within_clique_collisions
from collitest import models, tester
from test_batched_draws import cliques


def monolithic(plan, p, stream):
    spec = tester.TesterSpec(plan.build_graph(), plan.tau, plan.n, plan.eps)
    return tester.run(spec, p, stream)


def point_mass(n):
    return Distribution([1.0] + [0.0] * (n - 1))


class TestSimultaneous:
    def test_matches_monolithic_tester_bitwise(self):
        plan = plan_simultaneous(64, 1.0, 4)
        for p in (make_uniform(64), make_bump(64, 1.0)):
            for trial in range(30):
                stream = Stream(101).child(trial)
                sim = simulate_simultaneous(plan, p, stream)
                mono = monolithic(plan, p, stream)
                assert sim.decision == mono.decision
                if sim.z is not None:
                    assert sim.z == mono.z

    def test_single_player_reduces_to_plain_run(self):
        plan = plan_simultaneous(16, 1.0, 1)
        for trial in range(10):
            stream = Stream(7).child(trial)
            sim = simulate_simultaneous(plan, make_uniform(16), stream)
            mono = monolithic(plan, make_uniform(16), stream)
            assert sim.decision == mono.decision
            if sim.z is None:  # the one player sent the sentinel
                assert sim.messages[0].is_sentinel and mono.z >= mono.t
            else:
                assert sim.z == mono.z

    def test_point_mass_triggers_sentinels(self):
        plan = plan_simultaneous(64, 1.0, 4)
        sim = simulate_simultaneous(plan, point_mass(64), Stream(0).child(0))
        assert sim.decision == "NO"
        assert all(m.is_sentinel for m in sim.messages)
        assert sim.z is None

    def test_message_width_is_the_documented_formula(self):
        plan = plan_simultaneous(64, 1.0, 4)
        sim = simulate_simultaneous(plan, make_uniform(64), Stream(1).child(0))
        want = math.ceil(math.log2(math.ceil(plan.threshold) + 2))
        assert sim.ledger.message_bits == [want] * 4

    def test_literal_messages_sit_below_threshold(self):
        plan = plan_simultaneous(64, 1.0, 4)
        for trial in range(20):
            sim = simulate_simultaneous(plan, make_bump(64, 1.0),
                                        Stream(3).child(trial))
            for msg in sim.messages:
                if not msg.is_sentinel:
                    assert msg.collisions < sim.threshold

    def test_samples_match_plan_exactly(self):
        plan = plan_simultaneous(64, 1.0, 4)
        sim = simulate_simultaneous(plan, make_uniform(64), Stream(2).child(0))
        assert sim.ledger.samples == [size * count for size, count, _ in plan.runs]
        assert not sim.ledger.violations

    def test_rejects_streaming_plans(self):
        plan = plan_streaming(64, 1.0, 48)
        with pytest.raises(ValueError):
            simulate_simultaneous(plan, make_uniform(64), Stream(0))


class TestObliviousMode:
    def test_rounded_counts_and_exponents(self):
        plan = plan_simultaneous(64, 1.0, 4)
        sim = simulate_simultaneous(plan, make_uniform(64), Stream(5).child(0),
                                    oblivious=True)
        q = plan.runs[0][0]
        rounded = 1 << math.ceil(math.log2(q))
        assert sim.ledger.samples == [rounded] * 4
        assert all(m.sample_count_exponent == math.ceil(math.log2(q))
                   for m in sim.messages)

    def test_decision_matches_monolithic_on_rounded_graph(self):
        plan = plan_simultaneous(64, 1.0, 4)
        q = plan.runs[0][0]
        rounded = 1 << math.ceil(math.log2(q))
        rounded_plan = replace(
            plan, runs=tuple((rounded, 1, j) for j in range(4)),
            edge_count=4 * rounded * (rounded - 1) // 2,
            two_path_count=4 * rounded * (rounded - 1) * (rounded - 2))
        for p in (make_uniform(64), make_bump(64, 1.0)):
            for trial in range(20):
                stream = Stream(31).child(trial)
                sim = simulate_simultaneous(plan, p, stream, oblivious=True)
                mono = monolithic(rounded_plan, p, stream)
                assert sim.decision == mono.decision

    def test_extra_bits_within_log_log_budget(self):
        plan = plan_simultaneous(64, 1.0, 4)
        obl = simulate_simultaneous(plan, make_uniform(64), Stream(5).child(1),
                                    oblivious=True)
        # bits beyond the collision payload carry the sample-count exponent
        extra = obl.ledger.message_bits[0] - message_bit_width(obl.threshold)
        max_samples = max(obl.ledger.samples)
        assert 0 <= extra <= math.ceil(math.log2(math.log2(max_samples)))

    def test_sample_cost_at_most_doubles(self):
        plan = plan_simultaneous(100, 0.5, 8)
        obl = simulate_simultaneous(plan, make_uniform(100), Stream(6).child(0),
                                    oblivious=True)
        assert max(obl.ledger.samples) < 2 * plan.runs[0][0]


class TestAsymmetric:
    def test_matches_monolithic(self):
        plan = plan_asymmetric(64, 1.0, (4.0, 2.0, 1.0))
        for p in (make_uniform(64), make_bump(64, 1.0)):
            for trial in range(20):
                stream = Stream(13).child(trial)
                sim = simulate_asymmetric(plan, p, stream)
                mono = monolithic(plan, p, stream)
                assert sim.decision == mono.decision

    def test_zero_rate_player_sends_zero_count(self):
        plan = plan_asymmetric(16, 1.0, (1.0, 0.0))
        sim = simulate_asymmetric(plan, make_uniform(16), Stream(4).child(0))
        assert sim.ledger.samples[1] == 0
        assert sim.messages[1].collisions == 0

    def test_ledger_time_and_schedule(self):
        plan = plan_asymmetric(64, 1.0, (2.0, 1.0))
        sim = simulate_asymmetric(plan, make_uniform(64), Stream(4).child(1))
        assert sim.ledger.sampling_time == plan.sampling_time
        assert sim.ledger.samples == [int(r * plan.sampling_time)
                                      for r in plan.rates]

    def test_equal_rates_draw_equal_counts(self):
        plan = plan_asymmetric(64, 1.0, (1.0, 1.0, 1.0, 1.0))
        sim = simulate_asymmetric(plan, make_uniform(64), Stream(4).child(2))
        assert len(set(sim.ledger.samples)) == 1

    def test_schedule_drift_raises(self):
        plan = plan_asymmetric(16, 1.0, (2.0, 1.0))
        broken = replace(plan, runs=((plan.runs[0][0] + 1, 1, 0),
                                     (plan.runs[1][0], 1, 1)))
        with pytest.raises(ModelViolationError):
            simulate_asymmetric(broken, make_uniform(16), Stream(0))


class TestStreaming:
    def test_matches_monolithic_with_early_stop_exception(self):
        plan = plan_streaming(64, 1.0, 48)
        for p in (make_uniform(64), make_bump(64, 1.0)):
            for trial in range(20):
                stream = Stream(23).child(trial)
                sim = simulate_streaming(plan, p, stream)
                mono = monolithic(plan, p, stream)
                if sim.ledger.early_terminated:
                    assert sim.decision == "NO" == mono.decision
                else:
                    assert sim.decision == mono.decision

    def test_point_mass_terminates_early(self):
        plan = plan_streaming(64, 1.0, 48)
        sim = simulate_streaming(plan, point_mass(64), Stream(2).child(0))
        assert sim.decision == "NO"
        assert sim.ledger.early_terminated
        assert sim.ledger.total_samples < plan.samples_total
        mono = monolithic(plan, point_mass(64), Stream(2).child(0))
        assert mono.decision == "NO"

    def test_single_batch_acts_centralized(self):
        central = plan_centralized(16, 1.0)
        m_bits = central.runs[0][0] * 2 * 4
        plan = plan_streaming(16, 1.0, m_bits)
        for trial in range(10):
            stream = Stream(9).child(trial)
            sim = simulate_streaming(plan, make_uniform(16), stream)
            mono = monolithic(plan, make_uniform(16), stream)
            assert (sim.decision, sim.z) == (mono.decision, mono.z)

    def test_peak_memory_formula_and_budget(self):
        plan = plan_streaming(64, 1.0, 48)
        sim = simulate_streaming(plan, make_uniform(64), Stream(8).child(0))
        want = plan.m_prime * plan.bits_per_sample + counter_bit_width(plan.threshold)
        assert sim.ledger.memory_bits == [want]
        assert want <= 48

    def test_budget_overrun_raises(self):
        plan = plan_streaming(64, 1.0, 48)
        broken = replace(plan, m_bits=20)
        with pytest.raises(ModelViolationError):
            simulate_streaming(broken, make_uniform(64), Stream(0))


class TestSimultaneousStreaming:
    def test_matches_monolithic(self):
        plan = plan_simultaneous_streaming(64, 1.0, 2, 48)
        for p in (make_uniform(64), make_bump(64, 1.0)):
            for trial in range(20):
                stream = Stream(37).child(trial)
                sim = simulate_simultaneous_streaming(plan, p, stream)
                mono = monolithic(plan, p, stream)
                if sim.ledger.early_terminated:
                    assert sim.decision == "NO" == mono.decision
                else:
                    assert sim.decision == mono.decision

    def test_single_player_equals_streaming(self):
        splan = plan_streaming(64, 1.0, 48)
        cplan = plan_simultaneous_streaming(64, 1.0, 1, 48)
        assert cplan.runs == splan.runs
        for trial in range(15):
            a = simulate_streaming(splan, make_bump(64, 1.0), Stream(6).child(trial))
            b = simulate_simultaneous_streaming(cplan, make_bump(64, 1.0),
                                                Stream(6).child(trial))
            assert a.decision == b.decision

    def test_both_budgets_in_ledger(self):
        plan = plan_simultaneous_streaming(64, 1.0, 2, 48)
        sim = simulate_simultaneous_streaming(plan, make_uniform(64),
                                              Stream(11).child(0))
        assert sim.ledger.message_bits == [message_bit_width(plan.threshold)] * 2
        assert all(m <= 48 for m in sim.ledger.memory_bits)

    def test_big_memory_matches_simultaneous_semantics(self):
        sim_plan = plan_simultaneous(64, 1.0, 4)
        m_bits = sim_plan.runs[0][0] * 2 * 6
        plan = plan_simultaneous_streaming(64, 1.0, 4, m_bits)
        for trial in range(10):
            stream = Stream(3).child(trial)
            a = simulate_simultaneous_streaming(plan, make_uniform(64), stream)
            b = simulate_simultaneous(sim_plan, make_uniform(64), stream)
            assert a.decision == b.decision


class TestEmpiricalError:
    def test_simultaneous_error_rates(self):
        plan = plan_simultaneous(64, 1.0, 4)
        trials = 2000
        yes_uniform = sum(
            simulate_simultaneous(plan, make_uniform(64), Stream(55).child(t)).decision == "YES"
            for t in range(trials))
        assert yes_uniform / trials >= 0.70
        yes_bump = sum(
            simulate_simultaneous(plan, make_bump(64, 1.0), Stream(56).child(t)).decision == "YES"
            for t in range(trials))
        assert yes_bump / trials <= 0.30


# --- the clique draws against the per-clique loop ---------------------------

def reference_player_counts(plan, p, stream, sizes):
    """Z per player, clique c read from its own generator of the trial
    path, advanced past the cliques before it."""
    z = [0] * plan.players
    start = 0
    for size, owner in zip(sizes, cliques(plan)[1]):
        gen = stream.rng()
        gen.bit_generator.advance(start)
        z[owner] += within_clique_collisions(p.sample(size, gen))
        start += size
    return z


def assert_referee_saw(run, z):
    t = run.threshold
    assert [m.collisions for m in run.messages] == [
        zi if zi < t else None for zi in z]
    total = None if max(z) >= t else sum(z)
    assert run.z == total
    assert run.decision == ("YES" if total is not None and total < t else "NO")


class TestCliqueSimulatorsMatchPerCliqueLoop:
    @pytest.mark.parametrize("oblivious", [False, True])
    def test_simultaneous(self, oblivious):
        for plan in (plan_simultaneous(64, 1.0, 4),
                     plan_simultaneous(1024, 0.5, 16),
                     plan_simultaneous(256, 0.5, 40)):
            n = plan.n
            sizes, _ = cliques(plan)
            if oblivious:
                sizes = tuple(1 << math.ceil(math.log2(s)) for s in sizes)
            for p in (make_uniform(n), make_bump(n, 0.5), make_heavy(n, 0.5),
                      point_mass(n)):
                for trial in range(3):
                    stream = Stream(8).child(trial)
                    run = simulate_simultaneous(plan, p, stream,
                                                oblivious=oblivious)
                    assert_referee_saw(run, reference_player_counts(
                        plan, p, stream, sizes))

    def test_asymmetric(self):
        for plan in (plan_asymmetric(64, 1.0, (4.0, 2.0, 1.0)),
                     plan_asymmetric(1024, 0.5, (4, 2, 1, 1)),
                     plan_asymmetric(16, 1.0, (1.0, 0.0))):
            n = plan.n
            for p in (make_uniform(n), make_heavy(n, 0.5)):
                for trial in range(3):
                    stream = Stream(9).child(trial)
                    run = simulate_asymmetric(plan, p, stream)
                    assert_referee_saw(run, reference_player_counts(
                        plan, p, stream, cliques(plan)[0]))


class TestPlanStatsServeTheSimulator:
    """Non-oblivious simultaneous runs read |E| and T from the plan instead
    of recounting the cliques; the two agree, T bitwise."""

    PLANS = [plan_centralized(n, eps) for n, eps in ((16, 1.0), (64, 1.0),
                                                    (256, 0.5))] + [
        plan_simultaneous(n, eps, k) for n, eps, k in
        ((64, 1.0, 4), (1024, 0.5, 16), (256, 0.5, 40), (100, 0.5, 8))] + [
        plan_asymmetric(n, eps, rates) for n, eps, rates in
        ((64, 1.0, (4.0, 2.0, 1.0)), (1024, 0.5, (4, 2, 1, 1)),
         (16, 1.0, (1.0, 0.0)))]

    def test_plan_stats_equal_a_recount(self):
        families = set()
        for plan in self.PLANS:
            edge_count, _ = clique_union_stats(cliques(plan)[0])
            t = edge_count * (1.0 + plan.tau * plan.eps**2) / plan.n
            assert plan.edge_count == edge_count
            assert plan.threshold.hex() == t.hex()
            families.add(plan.family)
        assert families == {"clique", "disjoint_cliques", "rate_cliques"}

    def test_only_oblivious_runs_recount(self, monkeypatch):
        recounts = []
        real = models.clique_union_stats

        def record(sizes):
            recounts.append(tuple(sizes))
            return real(sizes)

        monkeypatch.setattr(models, "clique_union_stats", record)
        p = make_uniform(64)
        for plan in self.PLANS[:5]:
            run = simulate_simultaneous(plan, make_uniform(plan.n), Stream(3))
            assert run.threshold == plan.threshold
        assert recounts == []
        plan = plan_simultaneous(64, 1.0, 4)
        simulate_simultaneous(plan, p, Stream(3), oblivious=True)
        assert len(recounts) == 1
