"""Tests of the benchmark's tracer.  Run: python3 -m pytest perfbench -q"""
from __future__ import annotations

import sys
import time
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import child  # noqa: E402
from child import cg, conditions, dist, harness, models, rng, tester  # noqa: E402
from tracer import Tracer  # noqa: E402

OWNERS = (harness, conditions, conditions.Plan, rng.Stream,
          dist.Distribution, tester, models, cg, cg.Network, cg.BitMeter)

SMALL = {"master_seed": 5, "scenarios": [
    {"id": "central", "model": "centralized", "n": 16, "eps": 1.0,
     "dist": {"kind": "uniform"}, "trials": 5},
    {"id": "asym", "model": "asymmetric", "n": 16, "eps": 1.0,
     "rates": [2, 1], "dist": {"kind": "bump"}, "trials": 3},
    {"id": "stream", "model": "streaming", "n": 64, "eps": 1.0, "m_bits": 48,
     "dist": {"kind": "heavy"}, "trials": 3},
    {"id": "pipe", "model": "congest_pipelined", "n": 4, "eps": 1.0,
     "topology": {"kind": "path", "k": 150}, "dist": {"kind": "uniform"},
     "trials": 2},
]}


def _snapshot():
    return [dict(vars(owner)) for owner in OWNERS]


def _replaced(before):
    return [(owner, name) for owner, attrs in zip(OWNERS, before)
            for name, value in attrs.items() if vars(owner)[name] is not value]


def test_restore_puts_every_original_back():
    before = _snapshot()
    with Tracer() as tr:
        child.instrument(tr)
        assert len(_replaced(before)) > 20
    assert _replaced(before) == []
    assert _snapshot() == before


def test_restore_after_an_exception_inside_the_run():
    before = _snapshot()
    with pytest.raises(RuntimeError):
        with Tracer() as tr:
            child.instrument(tr)
            raise RuntimeError("boom")
    assert _replaced(before) == []


def test_spans_nest_and_self_time_excludes_children():
    ns = types.SimpleNamespace()
    ns.inner = lambda: sum(range(1000))
    ns.outer = lambda: ns.inner() + ns.inner()
    ns.fails = lambda: 1 / 0
    with Tracer() as tr:
        tr.wrap(ns, "inner", "inner")
        tr.wrap(ns, "outer", "outer",
                lambda counters, args, kwargs, result:
                counters.__setitem__("outer_result", result))
        tr.wrap(ns, "fails", "fails")
        ns.outer()
        with pytest.raises(ZeroDivisionError):
            ns.fails()
    ids, parent, start, end = tr.spans()
    assert [tr.names[i] for i in ids] == ["outer", "inner", "inner", "fails"]
    assert parent.tolist() == [-1, 0, 0, -1]
    assert tr.counters == {"outer_result": 2 * sum(range(1000))}
    totals = tr.totals()
    calls, incl, own = totals["outer"]
    assert calls == 1
    assert own == pytest.approx(incl - totals["inner"][1])
    assert (end >= start).all()


def test_self_times_over_a_run_never_exceed_its_wall_time():
    with Tracer() as tr:
        child.instrument(tr)
        t0 = time.perf_counter()
        runs = child.run_scenarios(SMALL)
        wall_s = time.perf_counter() - t0
    own = tr.self_times()
    assert own.sum() <= wall_s
    assert (own >= -1e-9).all()
    assert all(error is None for _, _, error in runs)
    layers, tail_pct = child.layer_metrics(tr, runs)
    assert 0 < tail_pct <= 100
    assert layers["harness.trials"] == 13
    assert layers["models.simulate_calls"] == 6
    assert layers["graph.edges_built"] > 0
    assert layers["congest.meter_sends"] > 0


def test_traced_run_matches_untraced_csv():
    plain = child.run_pass("wall", SMALL)
    traced = child.run_pass("traced", SMALL)
    assert [r["csv"] for r in traced["scenarios"]] == \
        [r["csv"] for r in plain["scenarios"]]


def test_untraced_pass_splits_set_up_from_trials():
    before = _snapshot()
    plain = child.run_pass("wall", SMALL)
    assert _replaced(before) == []
    assert 0 < plain["setup_in_s"] < plain["wall_s"]
    assert plain["scenarios"][-1]["family"] == "bundled"
