"""The simultaneous simulators' per-plan layout (`Plan.layout`).

A trial of `simulate_simultaneous` reads everything that depends only
on its plan from a `TrialLayout` built once per plan.  These tests pin
that the layout changes nothing a trial produces, whatever counting
route its blocks take, and that it is plan state, never output.
"""
from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collitest import models
from collitest.conditions import (Plan, _plan, collision_threshold,
                                  plan_asymmetric, plan_simultaneous,
                                  plan_streaming)
from collitest.dist import Distribution, make_heavy, make_uniform
from collitest.encoding import message_bit_width
from collitest.errors import ModelViolationError
from collitest.harness import load_scenarios, run_scenario
from collitest.rng import Stream
from collitest.tester import SMALL_BLOCK, within_clique_collisions
from test_batched_draws import reference_referee


def point_mass(n):
    return Distribution([1.0] + [0.0] * (n - 1))


@st.composite
def clique_plans(draw, route):
    """(plan, oblivious): cliques whose count takes `route` (any route
    for "oblivious"), their owners a shuffle of the players or drawn so
    that some players hold several cliques, out of order, and some none."""
    tau = 0.5
    if route == "oblivious":
        n = draw(st.sampled_from([16, 100, 1024]))
        sizes = draw(st.lists(st.integers(1, 80), min_size=1, max_size=5))
        sizes[0] = max(sizes[0], 2)  # a plan needs an edge
    elif route == "lone":
        n = draw(st.sampled_from([16, 100, 1024]))
        sizes = [draw(st.integers(2, 300))]
    elif route == "rows":
        n = draw(st.sampled_from([16, 100, 1024]))
        sizes = [draw(st.integers(2, SMALL_BLOCK))] * draw(st.integers(2, 6))
    elif route == "bincount":  # 2 samples a block keep k * n <= 8 * samples
        n = draw(st.sampled_from([12, 16]))
        sizes = draw(st.lists(st.integers(2, 100), min_size=2, max_size=6))
        sizes[-1] = sizes[0] + 1
    else:  # at most 22 samples a block keep k * n > 8 * samples
        n = draw(st.sampled_from([1000, 1024]))
        sizes = draw(st.lists(st.integers(0, 20), min_size=2, max_size=6))
        sizes[-1] = sizes[0] + 2
    players = draw(st.integers(len(sizes), len(sizes) + 2))
    owners = draw(st.one_of(
        st.permutations(range(players)).map(lambda perm: perm[:len(sizes)]),
        st.lists(st.integers(0, players - 1), min_size=len(sizes),
                 max_size=len(sizes))))
    oblivious = route == "oblivious"
    referee = oblivious or players > 1 or draw(st.booleans())
    groups = [(size, 1, owner) for size, owner in zip(sizes, owners)]
    return (_plan(n, 1.0, groups, players, tau=tau, referee=referee),
            oblivious)


def reference_trial(plan, p, stream, oblivious):
    """Per-player Z, samples, bits and the referee's verdict, with every
    clique counted on its own by `within_clique_collisions`."""
    sizes = [size for size, count, _ in plan.runs for _ in range(count)]
    owners = [owner for _, count, owner in plan.runs for _ in range(count)]
    t, exponents, extra = plan.threshold, None, 0
    if oblivious:  # one clique per player, sent as its exponent
        exponents = [0] * plan.players
        for size, owner in zip(sizes, owners):
            exponents[owner] = math.ceil(math.log2(size))
        sizes = [1 << exponents[owner] for owner in owners]
        edges = sum(s * (s - 1) // 2 for s in sizes)
        t = collision_threshold(edges, plan.tau, plan.n, plan.eps)
        extra = math.ceil(math.log2(max(exponents))) if max(exponents) > 1 else 0
    values = p.sample(sum(sizes), stream.rng())
    z, samples, start = [0] * plan.players, [0] * plan.players, 0
    for size, owner in zip(sizes, owners):
        z[owner] += within_clique_collisions(values[start:start + size])
        samples[owner] += size
        start += size
    return z, samples, t, message_bit_width(t), exponents, extra


ROUTES = ("lone", "rows", "bincount", "runs", "oblivious")


@pytest.mark.parametrize("route", ROUTES)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**64), trial=st.integers(0, 2**20))
def test_layout_trial_equals_the_per_clique_count(route, data, seed, trial):
    plan, oblivious = data.draw(clique_plans(route))
    owners = [owner for _, count, owner in plan.runs for _ in range(count)]
    if oblivious and sorted(owners) != list(range(plan.players)):
        # a player's one exponent cannot stand for no clique or several
        with pytest.raises(ValueError, match="one clique per player"):
            models.simulate_simultaneous(plan, make_uniform(plan.n),
                                         Stream(seed), oblivious=True)
        return
    layout = plan.oblivious_layout if oblivious else plan.layout
    if not oblivious:
        assert layout.blocks.route == route
    kind = data.draw(st.sampled_from(["uniform", "heavy", "point"]))
    p = {"uniform": make_uniform, "heavy": lambda n: make_heavy(n, 0.5),
         "point": point_mass}[kind](plan.n)
    stream = Stream(seed).child(trial)
    run = models.simulate_simultaneous(plan, p, stream, oblivious=oblivious)
    z, samples, t, bits, exponents, extra = reference_trial(plan, p, stream,
                                                            oblivious)
    decision, messages, total = reference_referee(z, t, bits, exponents, extra)
    assert run.reports.z.tolist() == z
    assert run.ledger.samples == samples
    assert run.ledger.message_bits == [bits + extra] * plan.players
    assert run.threshold == t
    assert (run.decision, run.messages, run.z) == (decision, messages, total)


class TestLayoutIsPlanState:
    def test_built_once_per_plan(self):
        plan = plan_simultaneous(64, 1.0, 4)
        assert "layout" not in vars(plan)
        assert plan.layout is plan.layout
        assert plan.oblivious_layout is plan.oblivious_layout
        assert plan.layout is not plan.oblivious_layout

    @pytest.mark.parametrize("model, params", [
        ("simultaneous", {"k": 4}), ("asymmetric", {"rates": [2, 1, 1]})])
    def test_a_scenario_builds_it_once(self, monkeypatch, model, params):
        built = []
        real = models.trial_layout

        def spy(plan, oblivious=False):
            built.append(oblivious)
            return real(plan, oblivious)

        monkeypatch.setattr(models, "trial_layout", spy)
        (scenario,) = load_scenarios({
            "id": "x", "model": model, "n": 64, "eps": 1.0,
            "dist": {"kind": "uniform"}, "trials": 10, **params})
        result = run_scenario(scenario, 3)
        assert len(result.records) == 10
        assert built == [False]

    def test_equality_and_json_do_not_see_it(self):
        plan, twin = plan_simultaneous(64, 1.0, 4), plan_simultaneous(64, 1.0, 4)
        before = plan.to_json()
        plan.layout, plan.oblivious_layout  # noqa: B018
        assert plan == twin and hash(plan) == hash(twin)
        assert repr(plan) == repr(twin)
        assert plan.to_json() == before == twin.to_json()
        back = Plan.from_json(plan.to_json())
        assert back == plan and "layout" not in vars(back)

    def test_a_drifted_plan_raises_on_every_simulation(self):
        plan = plan_asymmetric(16, 1.0, (2.0, 1.0))
        broken = replace(plan, runs=((plan.runs[0][0] + 1, 1, 0), plan.runs[1]))
        for _ in range(2):
            with pytest.raises(ModelViolationError, match="schedule drift"):
                models.simulate_asymmetric(broken, make_uniform(16), Stream(0))
        assert "layout" not in vars(broken)

    def test_a_streaming_plan_never_builds_one(self):
        """6e9 batches: the streaming trial and a refused simultaneous call
        build no layout, so no array sized by the plan's samples appears."""
        plan = plan_streaming(10**5, 0.1, 136)
        assert plan.runs == ((4, 6_000_000_000, 0),)
        p = point_mass(10**5)
        p.sample(1, Stream(0).rng())  # the alias table, outside the trace
        tracemalloc.start()
        try:
            run = models.simulate_streaming(plan, p, Stream(0).child(0))
            with pytest.raises(ValueError, match="simultaneous-style"):
                models.simulate_simultaneous(plan, p, Stream(0).child(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert run.decision == "NO" and run.ledger.early_terminated
        assert "layout" not in vars(plan)
        assert "oblivious_layout" not in vars(plan)
        assert peak < 1 << 20

    def test_owner_fold_only_where_a_clique_is_not_its_player(self):
        assert plan_simultaneous(64, 1.0, 4).layout.owners is None
        assert plan_asymmetric(64, 1.0, (2, 1, 1)).layout.owners is None
        plan = _plan(64, 1.0, [(5, 1, 2), (7, 1, 0), (5, 1, 2)], 4,
                     tau=0.5, referee=True)
        assert plan.layout.owners.tolist() == [2, 0, 2]
        assert plan.layout.samples == (7, 0, 10, 0)

    def test_oblivious_exponents_follow_their_players(self):
        """Clique 0 is player 1's, clique 1 player 0's: each message pairs
        a player's count with the exponent of that player's own clique."""
        plan = _plan(64, 1.0, [(5, 1, 1), (9, 1, 0)], 2, tau=0.5, referee=True)
        layout = plan.oblivious_layout
        assert layout.samples == (16, 8)
        assert layout.exponents == (4, 3)
        run = models.simulate_simultaneous(plan, point_mass(64), Stream(0),
                                           oblivious=True)
        assert run.reports.z.tolist() == [120, 28]
        assert [m.sample_count_exponent for m in run.messages] == [4, 3]

    @pytest.mark.parametrize("groups, players", [
        ([(5, 2, 0), (9, 1, 1)], 3),  # a player with two cliques, one with none
        ([(5, 1, 0), (9, 1, 0)], 2),
        ([(5, 1, 0), (9, 1, 2)], 3)])
    def test_oblivious_needs_one_clique_per_player(self, groups, players):
        plan = _plan(64, 1.0, groups, players, tau=0.5, referee=True)
        with pytest.raises(ValueError, match="one clique per player"):
            models.simulate_simultaneous(plan, make_uniform(64), Stream(0),
                                         oblivious=True)
        assert plan.layout.samples  # the plain layout still runs

    def test_cached_offsets_hold_one_trial_of_samples(self):
        plan = plan_asymmetric(1024, 0.5, (4, 2, 1, 1))
        blocks = plan.layout.blocks
        assert blocks.route == "bincount"
        assert blocks.offsets.dtype == np.int64
        assert blocks.offsets.size == blocks.total == plan.samples_total

    @pytest.mark.parametrize("simulate", [
        lambda p: models.simulate_simultaneous(plan_simultaneous(64, 1.0, 4),
                                               p, Stream(0)),
        lambda p: models.simulate_simultaneous(plan_simultaneous(64, 1.0, 4),
                                               p, Stream(0), oblivious=True),
        lambda p: models.simulate_asymmetric(plan_asymmetric(64, 1.0, (2, 1)),
                                             p, Stream(0)),
    ], ids=["simultaneous", "oblivious", "asymmetric"])
    def test_a_distribution_off_the_plans_domain_is_refused(self, simulate):
        """Values above n would key into the next clique's range."""
        with pytest.raises(ValueError, match="domain does not match the plan"):
            simulate(make_uniform(128))
