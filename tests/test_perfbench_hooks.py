"""The benchmark's tracer hooks still find every name they wrap.

`perfbench/child.py` wraps functions by the name their callers resolve,
and `Tracer.wrap` reads ``vars(owner)[attr]``, so renaming or dropping a
wrapped name (say `congest.draw_node_samples` or `Stream.rng`) breaks
the traced benchmark.  Installing and restoring the hooks here makes
that fail in the unit tests instead.
"""
import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from collitest import harness, models, rng
from collitest.conditions import plan_centralized, plan_streaming
from collitest.dist import make_uniform

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _all_models(trials=2):
    """One small scenario of each of the eight harness models."""
    q = plan_centralized(4, 1.0).runs[0][0]
    base = {"n": 16, "eps": 1.0, "dist": {"kind": "uniform"}, "trials": trials}
    scenarios = [
        {"model": "centralized"}, {"model": "simultaneous", "k": 3},
        {"model": "asymmetric", "rates": [2, 1]},
        {"model": "streaming", "n": 64, "m_bits": 48},
        {"model": "simultaneous_streaming", "n": 64, "k": 2, "m_bits": 48},
        {"model": "congest_local", "n": 4,
         "topology": {"kind": "clique", "k": q}},
        {"model": "congest_pipelined", "n": 4,
         "topology": {"kind": "path", "k": 150}},
        {"model": "congest_combined", "n": 4,
         "topology": {"kind": "star", "k": 150}},
    ]
    return [{**base, **s} for s in scenarios]


@pytest.fixture
def perfbench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("tracer", "child"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module("child"), importlib.import_module("tracer")


def test_instrument_installs_and_restores(perfbench_modules):
    child, tracer = perfbench_modules
    originals = {(owner, attr): vars(owner)[attr]
                 for owner, attr in ((harness, "run_scenario"),
                                     (models, "simulate_streaming"),
                                     (rng.Stream, "rng"))}
    tr = tracer.Tracer()
    try:
        child.instrument(tr)
        for owner, attr in originals:
            assert vars(owner)[attr] is not originals[owner, attr]
        plan = plan_streaming(64, 1.0, 48)
        models.simulate_streaming(plan, make_uniform(64), rng.Stream(1).child(0))
        assert tr.totals()["models.simulate"][0] == 1
    finally:
        tr.restore()
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original


def test_trials_are_direct_children_of_their_run(perfbench_modules):
    """`setup_before_trials` and the trial percentiles read the trial
    spans directly under `harness.run_scenario`: one per trial for every
    model, with any other trial span nested inside one of them."""
    child, tracer = perfbench_modules
    scenarios = _all_models()
    with tracer.Tracer() as tr:
        child.mark_trials(tr)
        for s in harness.load_scenarios(scenarios):
            harness.run_scenario(s, 3)
    ids, parent, _, _ = tr.spans()
    nid = {name: i for i, name in enumerate(tr.names)}
    runs = np.flatnonzero(ids == nid["harness.run_scenario"])
    is_trial = np.isin(ids, [nid[name] for name in child.TRIAL_SPANS])
    direct = is_trial & np.isin(parent, runs)
    assert runs.size == len(scenarios)
    assert [np.count_nonzero(direct & (parent == run)) for run in runs] == [
        2] * len(scenarios)
    assert np.all(direct[parent[is_trial & ~direct]])


def test_a_streaming_trial_counts_one_generator_and_its_samples(
        perfbench_modules):
    """Every draw goes through `Stream.rng` and `Distribution.sample`, so
    the traced counters see a streaming trial's one generator and every
    sample it read."""
    child, tracer = perfbench_modules
    plan = plan_streaming(1024, 0.5, 400)
    with tracer.Tracer() as tr:
        child.instrument(tr)
        run = models.simulate_streaming(plan, make_uniform(1024),
                                        rng.Stream(1).child(0))
    totals = tr.totals()
    assert not run.ledger.early_terminated
    assert totals["rng.generator"][0] == 1
    assert totals["dist.sample"][0] >= 1
    assert tr.counters["dist.samples_drawn"] == plan.samples_total


def test_setup_pass_runs_every_model(perfbench_modules):
    """The set-up pass calls the planners, `Plan.build_graph` and the
    CONGEST set-up (`Network`, `build_bfs_tree`, `detect_topology`,
    `choose_bundle_plan`) by name, outside `run_scenario`; it must still
    time all eight models."""
    child, _ = perfbench_modules
    scenarios = _all_models(trials=1)
    assert {s["model"] for s in scenarios} == set(harness.MODELS)
    out = child.run_pass("setup", {"master_seed": 3, "scenarios": scenarios})
    assert math.isfinite(out["setup_s"]) and out["setup_s"] > 0
