"""One pass of a perfbench workload, in a fresh process.

Usage: python3 perfbench/child.py setup|wall|traced < input.json

The input is a workload from `workloads.build`: the scenario list in
the format `collitest.harness.load_scenarios` reads, plus the master
seed.  The last line of standard output is one JSON object:

* setup: `setup_s`, the cold set-up of every scenario, timed by calling
  the public set-up functions a scenario run calls before its first
  trial: the planner (plus `Plan.build_graph` for centralized), or
  `Network`, `build_bfs_tree`, `detect_topology` and, where the run
  uses bundles, `choose_bundle_plan`.
* wall: `wall_s` until every scenario has a result from
  `harness.run_scenario`, peak resident memory, and per scenario the
  facts the checks in `run.py` need.  It also gives `setup_in_s`, the
  time each `run_scenario` spent before its first trial, summed; for
  that it wraps only `run_scenario` and the calls that start a trial
  (`mark_trials`), a clock reading per trial and nothing below it.
* traced: the same run with the tracer installed at every layer
  boundary, plus the per-layer metrics of that run.

The parent starts the process with collitest's `src` directory on
`PYTHONPATH` and the thread pools pinned.
"""
from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from collitest import conditions, dist, harness, models, rng, tester
from collitest import congest as cg
from tracer import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"

PLANNERS = {
    "centralized": lambda s: harness.plan_centralized(s.n, s.eps),
    "simultaneous": lambda s: harness.plan_simultaneous(s.n, s.eps, s.k),
    "asymmetric": lambda s: harness.plan_asymmetric(s.n, s.eps, s.rates),
    "streaming": lambda s: harness.plan_streaming(s.n, s.eps, s.m_bits),
    "simultaneous_streaming": lambda s: harness.plan_simultaneous_streaming(
        s.n, s.eps, s.k, s.m_bits),
}
SIMULATORS = ("simulate_simultaneous", "simulate_asymmetric",
              "simulate_streaming", "simulate_simultaneous_streaming")
CONGEST_CALLS = (("build_bfs_tree", "congest.bfs"),
                 ("detect_topology", "congest.detect"),
                 ("choose_bundle_plan", "congest.bundle_plan"),
                 ("draw_node_samples", "congest.node_draw"),
                 ("bundle_assignment", "congest.bundle_assignment"))
# the calls through which run_scenario starts one CONGEST trial
CONGEST_TRIALS = (("local_collision_protocol", "congest.local"),
                  ("pipelined_bundle_protocol", "congest.pipelined"),
                  ("combined_protocol", "congest.combined"))
METER_CALLS = (("send", "congest.meter_send"),
               ("send_bulk", "congest.meter_bulk_send"),
               ("begin_round", "congest.begin_round"))
# spans that run_scenario opens once per trial
TRIAL_SPANS = ("tester.run", "models.simulate") + tuple(
    name for _, name in CONGEST_TRIALS)


def _add(counters: dict, key: str, value: int) -> None:
    counters[key] = counters.get(key, 0) + int(value)


def _on_graph(counters, args, kwargs, graph) -> None:
    _add(counters, "graph.edges_built", graph.edge_count)
    _add(counters, "graph.edge_bytes", graph.edges.nbytes)


def _on_sample(counters, args, kwargs, values) -> None:
    _add(counters, "dist.samples_drawn", values.size)


def _on_count(counters, args, kwargs, z) -> None:
    _add(counters, "tester.edges_compared", args[0].edge_count)


def _on_block(counters, args, kwargs, z) -> None:
    m = args[0].size
    _add(counters, "tester.edges_compared", m * (m - 1) // 2)


def mark_trials(tr: Tracer) -> None:
    """Wrap `run_scenario` and the calls that start one trial each."""
    tr.wrap(harness, "run_scenario", "harness.run_scenario")
    tr.wrap(tester, "run", "tester.run")
    for name in SIMULATORS:
        tr.wrap(models, name, "models.simulate")
    for attr, name in CONGEST_TRIALS:
        tr.wrap(cg, attr, name)


def instrument(tr: Tracer) -> None:
    """Wrap every layer boundary at the name its caller resolves.

    `harness` imported the planners by name, and `models` imported the
    clique kernel by name, so those are wrapped in the importing module;
    `harness` reaches `congest`, `models.simulate_*` and `tester.run`
    through the module, and the rest are methods, wrapped on the class.
    Counts of compared edges come from `count_collisions` (whole graphs)
    and from the kernel as `models` calls it (one block each); the kernel
    calls made inside `count_collisions` add no edges of their own.
    """
    mark_trials(tr)
    for name in PLANNERS:
        tr.wrap(harness, f"plan_{name}", "conditions.plan")
    for name in ("minimal_clique_size", "minimal_clique_count"):
        tr.wrap(conditions, name, "conditions.search")
    tr.wrap(conditions.Plan, "build_graph", "graph.build", _on_graph)
    tr.wrap(rng.Stream, "rng", "rng.generator")
    tr.wrap(dist.Distribution, "sample", "dist.sample", _on_sample)
    tr.wrap(tester, "count_collisions", "tester.count", _on_count)
    tr.wrap(tester, "within_clique_collisions", "tester.clique_kernel")
    tr.wrap(models, "within_clique_collisions", "tester.clique_kernel",
            _on_block)
    tr.wrap(cg.Network, "__init__", "congest.network")
    for attr, name in CONGEST_CALLS:
        tr.wrap(cg, attr, name)
    for attr, name in METER_CALLS:
        tr.wrap(cg.BitMeter, attr, name)


def run_scenarios(payload: dict) -> list[tuple]:
    """(scenario, result or None, error or None) for every scenario.

    A scenario that raises is reported and the rest still run.
    """
    out = []
    for scenario in harness.load_scenarios(payload):
        try:
            result = harness.run_scenario(scenario, int(payload["master_seed"]))
        except Exception as exc:  # recorded as a failed scenario
            traceback.print_exc(file=sys.stderr)
            out.append((scenario, None, f"{type(exc).__name__}: {exc}"))
        else:
            out.append((scenario, result, None))
    return out


def scenario_report(scenario, result, error) -> dict:
    """What `run.py` checks about one scenario's output."""
    rep = {"id": scenario.scenario_id, "dist": scenario.dist.get("kind"),
           "error": error}
    if result is not None:
        recs = result.records
        rep.update(
            trials=len(recs), yes_rate=result.summary.yes_rate,
            family=result.summary.family,
            csv=harness.summaries_to_csv([result.summary]),
            early_on_yes=sum(r.early_terminated and r.decision != "NO"
                             for r in recs))
    return rep


def setup_seconds(payload: dict) -> float:
    """Cold set-up of every scenario, summed; see the module docstring."""
    clock = time.perf_counter
    total = 0.0
    for s in harness.load_scenarios(payload):
        if s.model in PLANNERS:
            t0 = clock()
            plan = PLANNERS[s.model](s)
            if s.model == "centralized":
                plan.build_graph()
            total += clock() - t0
            continue
        topology = harness.build_topology(s.topology)
        t0 = clock()
        net = cg.Network(topology, s.n)
        tree = cg.build_bfs_tree(net, cg.BitMeter(net))
        detection = cg.detect_topology(net, s.n, s.eps, tree=tree)
        if s.model == "congest_pipelined" or (
                s.model == "congest_combined" and not detection.certified):
            cg.choose_bundle_plan(s.n, s.eps, net.k)
        total += clock() - t0
    return total


def setup_before_trials(tr: Tracer) -> float:
    """Seconds from each `run_scenario` call to its first trial, summed.

    Needs the spans of `mark_trials`.  A call that ran no trial counts
    whole.
    """
    ids, parent, start, end = tr.spans()
    nid = {name: i for i, name in enumerate(tr.names)}
    is_trial = np.isin(ids, [nid[name] for name in TRIAL_SPANS])
    total = 0.0
    for run in np.flatnonzero(ids == nid["harness.run_scenario"]):
        first = start[is_trial & (parent == run)]
        total += (first.min() if first.size else end[run]) - start[run]
    return float(total)


def layer_metrics(tr: Tracer, runs: list[tuple]) -> tuple[dict, float]:
    """Per-layer metrics of one traced pass, and the tail's percentile.

    `harness.trial_ms_tail` is the trial time at the highest percentile
    with at least ten trials beyond it; the second value names that
    percentile.
    """
    totals = tr.totals()  # every wrapped name, also those never called

    def calls(name):
        return totals[name][0]

    def incl(name):
        return totals[name][1]

    def own(name):
        return totals[name][2]

    ids, parent, start, end = tr.spans()
    nid = {name: i for i, name in enumerate(tr.names)}
    in_run = np.zeros(ids.size, dtype=bool)
    nested = parent >= 0
    in_run[nested] = ids[parent[nested]] == nid["harness.run_scenario"]
    trial_ids = [nid[name] for name in TRIAL_SPANS]
    is_trial = in_run & np.isin(ids, trial_ids)
    trial_ms = np.sort(end[is_trial] - start[is_trial]) * 1e3
    n = trial_ms.size
    # the highest percentile with at least ten trials beyond it
    tail_at = n - 11 if n > 10 else n - 1

    records = [r for _, res, _ in runs if res is not None for r in res.records]
    trials = len(records)
    simulated = [r for (s, res, _) in runs if res is not None
                 and s.model in PLANNERS and s.model != "centralized"
                 for r in res.records]
    counters = tr.counters
    gens, sample_calls = calls("rng.generator"), calls("dist.sample")
    samples = counters.get("dist.samples_drawn", 0)
    return {
        "conditions.plan_s": incl("conditions.plan"),
        "conditions.plan_calls": calls("conditions.plan"),
        "conditions.search_calls": calls("conditions.search"),
        "graph.build_s": incl("graph.build"),
        "graph.edges_built": counters.get("graph.edges_built", 0),
        "graph.edge_bytes": counters.get("graph.edge_bytes", 0),
        "rng.generators": gens,
        "rng.self_s": own("rng.generator"),
        "rng.generators_per_trial": gens / max(trials, 1),
        "dist.sample_calls": sample_calls,
        "dist.samples_drawn": samples,
        "dist.sample_s": incl("dist.sample"),
        "dist.samples_per_call": samples / max(sample_calls, 1),
        "tester.count_calls": calls("tester.count"),
        "tester.count_s": incl("tester.count"),
        "tester.edges_compared": counters.get("tester.edges_compared", 0),
        "tester.clique_kernel_calls": calls("tester.clique_kernel"),
        "tester.clique_kernel_s": incl("tester.clique_kernel"),
        "models.simulate_calls": int(np.count_nonzero(
            is_trial & (ids == nid["models.simulate"]))),
        "models.self_s": own("models.simulate"),
        "models.early_terminated_share": (
            sum(r.early_terminated for r in simulated) / max(len(simulated), 1)),
        "congest.network_s": incl("congest.network"),
        "congest.bfs_s": incl("congest.bfs"),
        "congest.detect_s": incl("congest.detect"),
        "congest.bundle_plan_s": incl("congest.bundle_plan"),
        "congest.node_draw_s": incl("congest.node_draw"),
        "congest.local_s": incl("congest.local"),
        "congest.pipelined_s": incl("congest.pipelined"),
        "congest.bundle_assignment_s": incl("congest.bundle_assignment"),
        "congest.meter_sends": calls("congest.meter_send"),
        "congest.meter_send_s": incl("congest.meter_send"),
        "congest.meter_bulk_sends": calls("congest.meter_bulk_send"),
        "congest.begin_rounds": calls("congest.begin_round"),
        "congest.rounds": sum(r.rounds or 0 for r in records),
        "harness.self_s": own("harness.run_scenario"),
        "harness.trials": trials,
        "harness.trial_ms_p50": float(np.median(trial_ms)) if n else 0.0,
        "harness.trial_ms_tail": float(trial_ms[tail_at]) if n else 0.0,
    }, 100.0 * (tail_at + 1) / n if n else 0.0


def run_pass(mode: str, payload: dict) -> dict:
    if mode == "setup":
        return {"setup_s": setup_seconds(payload)}
    clock = time.perf_counter
    with Tracer() as tr:
        (mark_trials if mode == "wall" else instrument)(tr)
        t0 = clock()
        runs = run_scenarios(payload)
        wall_s = clock() - t0
    out = {"wall_s": wall_s,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           * 1024 / 1e6,
           "scenarios": [scenario_report(*run) for run in runs]}
    if mode == "wall":
        out["setup_in_s"] = setup_before_trials(tr)
    else:
        out["layers"], out["trial_tail_pct"] = layer_metrics(tr, runs)
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in ("setup", "wall", "traced"):
        print("usage: child.py setup|wall|traced < input.json", file=sys.stderr)
        return 2
    module = Path(harness.__file__).resolve()
    if SRC not in module.parents:
        print(f"collitest was imported from {module}, not from {SRC}",
              file=sys.stderr)
        return 2
    payload = json.load(sys.stdin)
    print(json.dumps(run_pass(argv[0], payload)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
