"""The package's public names and the CLI's input boundary.

`collitest.__all__` is pinned, so a second public name for a job (say a
labeling wrapper next to `draw_labeling`) takes a deliberate edit here.
The CLI either runs a spec or refuses it with exit code 1 or 2: sizes
above `harness.MAX_SPEC_SIZE` are refused before anything is allocated,
and mutated scenario, graph, distribution and topology specs never end
in a traceback.
"""
import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import collitest
from collitest import harness
from collitest.cli import main as cli_main
from collitest.errors import CapacityError

PUBLIC = [
    "COARSE_TAU_GRID", "CapacityError", "CliqueFamilyReport",
    "ComparisonGraph", "ConditionReport", "ConjecturedFloor",
    "CounterexampleResult", "Distribution", "GraphInequalityReport",
    "InvalidNetworkError", "Message", "ModelViolationError", "Plan",
    "PlanResources", "ProtocolRefusedError", "ResourceLedger",
    "SimulationRun", "Stream", "TestOutcome", "TesterSpec",
    "certify_disjoint_cliques", "certify_graph", "certify_stats",
    "check_graph_inequalities", "conditions", "conjectured_floor",
    "count_collisions", "cycle_plus_hub_counterexample", "dist",
    "draw_labeling", "encoding", "errors", "evaluate",
    "exact_error_probability", "expected_collisions", "graph", "graph_power",
    "l1_distance", "make_bipartite", "make_bump", "make_clique",
    "make_clique_union", "make_cycle", "make_disjoint_cliques", "make_heavy",
    "make_matching", "make_path", "make_star", "make_uniform", "models",
    "plan_asymmetric", "plan_centralized", "plan_simultaneous",
    "plan_simultaneous_streaming", "plan_streaming", "random_connected_graph",
    "random_simple_graph", "rng", "run", "simulate_asymmetric",
    "simulate_simultaneous", "simulate_simultaneous_streaming",
    "simulate_streaming", "tester", "threshold", "variance_collisions",
]


def test_public_surface_is_pinned():
    assert PUBLIC == sorted(PUBLIC)
    assert collitest.__all__ == PUBLIC


# --- sizes above the bound ------------------------------------------------

HUGE = 10**12  # far above the bound: a missed check fails fast, unallocated


def audit(graph, dist, trials=3):
    # "--graph=..." so that a spec such as -1e+300 is not read as an option
    return cli_main(["audit", f"--graph={json.dumps(graph)}",
                     f"--dist={json.dumps(dist)}", "--trials", str(trials),
                     "--seed", "1"])


@pytest.mark.parametrize("graph, dist", [
    ({"kind": "clique", "q": 4}, {"kind": "uniform", "n": 1e12}),
    ({"kind": "clique", "q": 1e12}, {"kind": "uniform", "n": 16}),
    ({"kind": "disjoint_cliques", "q": 2**20, "ell": 2**20},
     {"kind": "uniform", "n": 16}),
    ({"kind": "bipartite", "a": 2**20, "b": 2**20},
     {"kind": "uniform", "n": 16}),
    ({"kind": "explicit", "vertex_count": HUGE, "edges": []},
     {"kind": "uniform", "n": 16}),
])
def test_audit_refuses_sizes_above_the_bound(capsys, graph, dist):
    assert audit(graph, dist) == 2
    err = capsys.readouterr().err
    assert err.startswith("capacity error: ") and "is above" in err


def test_audit_refuses_trials_above_the_bound(capsys):
    assert audit({"kind": "clique", "q": 4}, {"kind": "uniform", "n": 16},
                 trials=HUGE) == 2
    assert capsys.readouterr().err.startswith("capacity error: trials = ")


@pytest.mark.parametrize("field, value", [
    ("n", HUGE), ("trials", HUGE), ("k", HUGE),
    ("topology", {"kind": "clique", "k": 2**12}),
    ("topology", {"kind": "random_connected", "k": HUGE}),
    ("topology", {"kind": "path", "k": HUGE}),
])
def test_run_refuses_sizes_above_the_bound(tmp_path, capsys, field, value):
    scenario = {"model": "congest_combined" if field == "topology"
                else "simultaneous", "n": 16, "eps": 1.0, "k": 2,
                "dist": {"kind": "uniform"}, "trials": 2, field: value}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    code = cli_main(["run", "--scenario", str(path), "--seed", "1",
                     "--out-prefix", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("capacity error: ")


def test_the_bound_itself_is_allowed():
    top = harness.MAX_SPEC_SIZE
    assert harness._capped(top, "n") == top
    with pytest.raises(CapacityError, match=f"n = {top + 1} is above {top}"):
        harness._capped(top + 1, "n")
    # a 2048-node clique topology is the largest the bound admits
    clique = harness.build_topology({"kind": "clique", "k": 2**11})
    assert clique.vertex_count == 2**11


# --- mutated specs --------------------------------------------------------

SCENARIOS = [
    {"model": "centralized", "n": 16, "eps": 1.0},
    {"model": "simultaneous", "n": 16, "eps": 1.0, "k": 3},
    {"model": "asymmetric", "n": 16, "eps": 1.0, "rates": [2, 1]},
    {"model": "streaming", "n": 64, "eps": 1.0, "m_bits": 48},
    {"model": "simultaneous_streaming", "n": 64, "eps": 1.0, "k": 2,
     "m_bits": 48},
    {"model": "congest_local", "n": 4, "eps": 1.0,
     "topology": {"kind": "clique", "k": 139}},
    {"model": "congest_pipelined", "n": 4, "eps": 1.0,
     "topology": {"kind": "path", "k": 150}},
    {"model": "congest_combined", "n": 4, "eps": 1.0,
     "topology": {"kind": "star", "k": 150}},
    {"model": "congest_combined", "n": 4, "eps": 1.0,
     "topology": {"kind": "random_connected", "k": 12, "seed": 3}},
    {"model": "congest_combined", "n": 4, "eps": 1.0,
     "topology": {"kind": "explicit", "vertex_count": 3,
                  "edges": [[0, 1], [1, 2]]}},
    {"model": "congest_combined", "n": 4, "eps": 1.0,
     "topology": {"kind": "cycle", "k": 5}},
]
GRAPHS = [
    {"kind": "clique", "q": 4}, {"kind": "disjoint_cliques", "q": 3, "ell": 2},
    {"kind": "matching", "pairs": 3}, {"kind": "star", "leaves": 3},
    {"kind": "bipartite", "a": 2, "b": 3}, {"kind": "cycle", "length": 5},
    {"kind": "explicit", "vertex_count": 4, "edges": [[0, 1], [2, 3]],
     "owner": [0, 0, 1, 1]},
]
DISTS = [
    {"kind": "uniform", "n": 16}, {"kind": "bump", "n": 16, "eps": 0.5},
    {"kind": "heavy", "n": 16, "eps": 0.5},
    {"kind": "explicit", "probs": [0.25, 0.25, 0.5]},
]
# wrong types, bools, floats, nulls, huge and negative numbers; no value
# is a size that passes the bound and is still large
ODD = st.sampled_from([
    None, True, False, "x", "", [], {}, [1, 2], [[0, 1]], {"kind": "path"},
    0, 1, 2, -1, -7, 0.5, 2.5, -0.5, 1e-300, 1e300, -1e300, HUGE, -HUGE,
    2**63, 10**400, "uniform", "clique", "explicit",
]).map(copy.deepcopy)
EXTRA_KEYS = st.sampled_from(["extra", "kind", "n", "k", "q", "eps", "probs",
                              "owner", "seed", "rates", "m_bits", "trials"])


@st.composite
def mutated(draw, bases):
    """A base spec with up to three edits: a value set to an odd one, a
    key dropped or an extra key added, in the spec or an object or array
    in it; now and then the whole spec is replaced by an odd value."""
    spec = copy.deepcopy(draw(st.sampled_from(bases)))
    if draw(st.integers(0, 9)) == 0:
        return draw(ODD)
    for _ in range(draw(st.integers(0, 3))):
        target = spec
        while True:
            inner = [key for key in sorted(target)
                     if isinstance(target[key], (dict, list))]
            if not inner or draw(st.booleans()):
                break
            key = draw(st.sampled_from(inner))
            if isinstance(target[key], list):
                items = target[key]
                if items:
                    items[draw(st.integers(0, len(items) - 1))] = draw(ODD)
                break
            target = target[key]
        op = draw(st.sampled_from(["set", "drop", "add"]))
        if op == "add" or not target:
            target[draw(EXTRA_KEYS)] = draw(ODD)
        elif op == "set":
            target[draw(st.sampled_from(sorted(target)))] = draw(ODD)
        else:
            del target[draw(st.sampled_from(sorted(target)))]
    return spec


FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(scenario=mutated([{**s, "dist": {"kind": "uniform"}, "trials": 2}
                         for s in SCENARIOS] + [
    {"model": "centralized", "n": 4, "eps": 1.0, "trials": 2, "dist": d}
    for d in ({"kind": "bump"}, {"kind": "heavy", "eps": 0.5},
              {"kind": "explicit", "probs": [0.25, 0.25, 0.25, 0.25]})]))
def test_mutated_scenarios_exit_cleanly(tmp_path, capsys, scenario):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    code = cli_main(["run", "--scenario", str(path), "--seed", "1",
                     "--out-prefix", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert (code == 0) == (err == ""), err


@FUZZ
@given(graph=mutated(GRAPHS), dist=mutated(DISTS))
def test_mutated_audit_specs_exit_cleanly(capsys, graph, dist):
    code = audit(graph, dist)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert (code == 0) == (err == ""), err
