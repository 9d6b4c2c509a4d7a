"""The benchmark's tracer hooks still find every name they wrap.

`perfbench/child.py` wraps functions by the name their callers resolve,
and `Tracer.wrap` reads ``vars(owner)[attr]``, so renaming or dropping a
wrapped name (say `congest.draw_node_samples` or `Stream.rng`) breaks
the traced benchmark.  Installing and restoring the hooks here makes
that fail in the unit tests instead.
"""
import importlib
import sys
from pathlib import Path

import pytest

from collitest import harness, models, rng
from collitest.conditions import plan_streaming
from collitest.dist import make_uniform

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
