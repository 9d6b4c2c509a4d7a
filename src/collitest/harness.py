"""Scenario execution: plan, run seeded trials, summarize.

A scenario names a model, the problem size (n, eps), the input
distribution, model parameters and a trial count.  Running it plans the
tester, executes every trial on its own stream ``(trial,)`` and folds
the outcomes into one summary row.  Records are keyed by trial index
and aggregated in index order, so execution order (or a parallel
executor) cannot change any output byte.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import congest as cg
from . import models
from . import tester
from .conditions import (COARSE_TAU_GRID, Plan, _feasible_tau,
                         plan_asymmetric, plan_centralized, plan_simultaneous,
                         plan_simultaneous_streaming, plan_streaming)
from .dist import Distribution, make_bump, make_heavy, make_uniform
from .graph import (ComparisonGraph, make_bipartite, make_clique, make_cycle,
                    make_disjoint_cliques, make_matching, make_path,
                    make_star, random_connected_graph)
from .rng import Stream

MODELS = ("centralized", "simultaneous", "asymmetric", "streaming",
          "simultaneous_streaming", "congest_local", "congest_pipelined",
          "congest_combined")


def build_distribution(spec: dict, n: int, eps: float) -> Distribution:
    kind = spec.get("kind", "explicit")
    if kind == "uniform":
        return make_uniform(n)
    if kind == "bump":
        return make_bump(n, float(spec.get("eps", eps)))
    if kind == "heavy":
        return make_heavy(n, float(spec.get("eps", eps)))
    if kind == "explicit":
        dist = Distribution(spec["probs"])
        if dist.n != n:
            raise ValueError("explicit probs do not match the scenario's n")
        return dist
    raise ValueError(f"unknown distribution kind {kind!r}")


def build_graph(spec: dict) -> ComparisonGraph:
    kind = spec.get("kind", "explicit")
    if kind == "clique":
        return make_clique(int(spec["q"]))
    if kind == "disjoint_cliques":
        return make_disjoint_cliques(int(spec["q"]), int(spec["ell"]))
    if kind == "matching":
        return make_matching(int(spec["pairs"]))
    if kind == "star":
        return make_star(int(spec["leaves"]))
    if kind == "bipartite":
        return make_bipartite(int(spec["a"]), int(spec["b"]))
    if kind == "cycle":
        return make_cycle(int(spec["length"]))
    if kind == "explicit":
        return ComparisonGraph(spec["vertex_count"], spec["edges"],
                               owner=spec.get("owner"))
    raise ValueError(f"unknown graph kind {kind!r}")


def build_topology(spec: dict) -> ComparisonGraph:
    kind = spec.get("kind", "explicit")
    if kind == "path":
        return make_path(int(spec["k"]))
    if kind == "cycle":
        return make_cycle(int(spec["k"]))
    if kind == "star":
        return make_star(int(spec["k"]) - 1)
    if kind == "clique":
        return make_clique(int(spec["k"]))
    if kind == "random_connected":
        gen = Stream(int(spec.get("seed", 0))).child(0).rng()
        return random_connected_graph(int(spec["k"]), gen,
                                      float(spec.get("extra_edge_prob", 0.1)))
    if kind == "explicit":
        return ComparisonGraph(spec["vertex_count"], spec["edges"])
    raise ValueError(f"unknown topology kind {kind!r}")


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    model: str
    n: int
    eps: float
    dist: dict
    trials: int
    k: int | None = None
    rates: tuple[float, ...] | None = None
    m_bits: int | None = None
    topology: dict | None = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")

    @classmethod
    def from_json(cls, obj: dict) -> "Scenario":
        return cls(
            scenario_id=str(obj.get("id", obj.get("scenario_id", "scenario"))),
            model=obj["model"], n=int(obj["n"]), eps=float(obj["eps"]),
            dist=obj["dist"], trials=int(obj["trials"]),
            k=None if obj.get("k") is None else int(obj["k"]),
            rates=None if obj.get("rates") is None else tuple(obj["rates"]),
            m_bits=None if obj.get("m_bits") is None else int(obj["m_bits"]),
            topology=obj.get("topology"),
        )


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    decision: str
    z: int | None
    threshold: float
    samples_total: int
    max_message_bits: int
    max_memory_bits: int
    rounds: int | None
    early_terminated: bool
    seed_path: tuple[int, ...]

    def to_json(self) -> dict:
        return {"trial": self.trial, "decision": self.decision, "z": self.z,
                "threshold": self.threshold,
                "samples_total": self.samples_total,
                "max_message_bits": self.max_message_bits,
                "max_memory_bits": self.max_memory_bits,
                "rounds": self.rounds,
                "early_terminated": self.early_terminated,
                "seed_path": list(self.seed_path)}


@dataclass(frozen=True)
class SummaryRow:
    scenario_id: str
    model: str
    n: int
    eps: float
    trials: int
    family: str
    q: int
    ell: int
    tau: float
    threshold: float
    edge_count: int
    yes_count: int
    yes_rate: float
    ci_low: float
    ci_high: float
    mean_samples: float
    max_samples: int
    max_message_bits: int
    max_memory_bits: int
    max_rounds: int | None
    sampling_time: float | None
    seed: int
    wall_clock_s: float

    CSV_COLUMNS = ("scenario_id", "model", "n", "eps", "trials", "family",
                   "q", "ell", "tau", "threshold", "edge_count", "yes_count",
                   "yes_rate", "ci_low", "ci_high", "mean_samples",
                   "max_samples", "max_message_bits", "max_memory_bits",
                   "max_rounds", "sampling_time", "seed")

    def csv_cells(self, timings: bool = False) -> list[str]:
        cells = [_fmt(getattr(self, col)) for col in self.CSV_COLUMNS]
        if timings:
            cells.append(_fmt(round(self.wall_clock_s, 3)))
        return cells


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def wilson_interval(successes: int, trials: int,
                    z: float = 1.959963984540054) -> tuple[float, float]:
    """95% score interval; always contains the point estimate."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = p + z * z / (2 * trials)
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    lo = max(0.0, min((center - half) / denom, p))
    hi = min(1.0, max((center + half) / denom, p))
    return lo, hi


@dataclass
class ScenarioResult:
    summary: SummaryRow
    records: list[TrialRecord]
    plan: Plan | None = None


def _detection_grid(net: cg.Network, scenario: Scenario):
    """The coarse tau grid plus the exactly-feasible tau, when one exists.

    Scenario runs certify every topology that certifies for some tau.
    The bare grid is the protocols' default and is narrower: path(150) at
    n=4, eps=1 has the non-empty interval [0.328, 0.345] and no grid tau.
    """
    grid = list(COARSE_TAU_GRID)
    extra = _feasible_tau(net.topology.edge_count, net.topology.two_path_count,
                          scenario.n, scenario.eps)
    if extra is not None and extra not in grid:
        grid.append(extra)
    return grid


def plan_for(model: str, n: int, eps: float, k: int | None = None,
             rates=None, m_bits: int | None = None) -> Plan:
    """The certified plan of one planned model; ValueError names what is missing."""
    if model == "centralized":
        return plan_centralized(n, eps)
    if model == "simultaneous":
        if k is None:
            raise ValueError("the simultaneous model needs k")
        return plan_simultaneous(n, eps, k)
    if model == "asymmetric":
        if rates is None:
            raise ValueError("the asymmetric model needs rates")
        return plan_asymmetric(n, eps, rates)
    if model == "streaming":
        if m_bits is None:
            raise ValueError("the streaming model needs m_bits")
        return plan_streaming(n, eps, m_bits)
    if model == "simultaneous_streaming":
        if k is None or m_bits is None:
            raise ValueError("the simultaneous_streaming model needs k and m_bits")
        return plan_simultaneous_streaming(n, eps, k, m_bits)
    raise ValueError(f"{model} does not use a plan")


def run_scenario(scenario: Scenario, master_seed: int,
                 trial_order=None) -> ScenarioResult:
    """Execute a scenario; byte-deterministic for a fixed (scenario, seed).

    `trial_order` optionally permutes execution (not numbering) of the
    trials, to demonstrate order independence.
    """
    start = time.perf_counter()
    master = Stream(master_seed)
    p = build_distribution(scenario.dist, scenario.n, scenario.eps)
    order = list(range(scenario.trials)) if trial_order is None else list(trial_order)
    if sorted(order) != list(range(scenario.trials)):
        raise ValueError("trial_order must permute range(trials)")
    slots: list[TrialRecord | None] = [None] * scenario.trials

    if scenario.model in ("centralized", "simultaneous", "asymmetric",
                          "streaming", "simultaneous_streaming"):
        plan = plan_for(scenario.model, scenario.n, scenario.eps, scenario.k,
                        scenario.rates, scenario.m_bits)
        family, q, ell = plan.family, max(plan.clique_sizes), len(plan.clique_sizes)
        tau, thr, edges = plan.tau, plan.threshold, plan.edge_count
        sampling_time = plan.sampling_time
        if scenario.model == "centralized":
            spec = tester.TesterSpec(plan.build_graph(), plan.tau,
                                     scenario.n, scenario.eps)
            for t_idx in order:
                out = tester.run(spec, p, master.child(t_idx))
                slots[t_idx] = TrialRecord(
                    trial=t_idx, decision=out.decision, z=out.z,
                    threshold=out.t, samples_total=plan.samples_total,
                    max_message_bits=0, max_memory_bits=0, rounds=None,
                    early_terminated=False,
                    seed_path=master.child(t_idx).label())
        else:
            simulate = {
                "simultaneous": models.simulate_simultaneous,
                "asymmetric": models.simulate_asymmetric,
                "streaming": models.simulate_streaming,
                "simultaneous_streaming": models.simulate_simultaneous_streaming,
            }[scenario.model]
            for t_idx in order:
                run = simulate(plan, p, master.child(t_idx))
                slots[t_idx] = TrialRecord(
                    trial=t_idx, decision=run.decision, z=run.z,
                    threshold=run.threshold,
                    samples_total=run.ledger.total_samples,
                    max_message_bits=max(run.ledger.message_bits, default=0),
                    max_memory_bits=max(run.ledger.memory_bits, default=0),
                    rounds=None,
                    early_terminated=run.ledger.early_terminated,
                    seed_path=master.child(t_idx).label())
    else:
        if scenario.topology is None:
            raise ValueError("CONGEST scenarios need a topology")
        net = cg.Network(build_topology(scenario.topology), scenario.n)
        tree = cg.build_bfs_tree(net, cg.BitMeter(net))
        detection = cg.detect_topology(net, scenario.n, scenario.eps,
                                       tau_grid=_detection_grid(net, scenario),
                                       tree=tree)
        base_rounds = tree.rounds + detection.rounds
        if scenario.model == "congest_local" and not detection.certified:
            raise cg.ProtocolRefusedError(
                "topology not certified; the local path cannot run")
        bundle_plan = None
        if scenario.model == "congest_pipelined" or not detection.certified:
            bundle_plan = cg.choose_bundle_plan(scenario.n, scenario.eps, net.k)
            family, q, ell = "bundled", bundle_plan.s, bundle_plan.ell
            tau, thr, edges = (bundle_plan.tau, bundle_plan.threshold,
                               bundle_plan.edge_count)
        else:
            family, q, ell = "topology", net.k, 1
            tau, edges = detection.tau_star, detection.edge_count
            thr = edges * (1 + tau * scenario.eps**2) / scenario.n
        sampling_time = None
        for t_idx in order:
            stream = master.child(t_idx)
            if scenario.model == "congest_local":
                run = cg.local_collision_protocol(
                    net, scenario.n, scenario.eps, detection.tau_star, p,
                    stream, tree=tree)
                decision, z, rounds = run.decision, run.z, base_rounds + run.rounds
            elif scenario.model == "congest_pipelined":
                run = cg.pipelined_bundle_protocol(
                    net, scenario.n, scenario.eps, p, stream, tree=tree,
                    plan=bundle_plan)
                decision, z, rounds = run.decision, run.z, tree.rounds + run.rounds
            else:
                run = cg.combined_protocol(net, scenario.n, scenario.eps, p,
                                           stream, detection=detection)
                decision, rounds = run.decision, run.rounds
                z = run.local.z if run.local is not None else run.pipelined.z
            slots[t_idx] = TrialRecord(
                trial=t_idx, decision=decision, z=z, threshold=thr,
                samples_total=net.k, max_message_bits=0, max_memory_bits=0,
                rounds=rounds, early_terminated=False,
                seed_path=stream.label())
        plan = None

    records = [r for r in slots if r is not None]
    yes = sum(1 for r in records if r.decision == "YES")
    lo, hi = wilson_interval(yes, scenario.trials)
    rounds_list = [r.rounds for r in records if r.rounds is not None]
    summary = SummaryRow(
        scenario_id=scenario.scenario_id, model=scenario.model, n=scenario.n,
        eps=scenario.eps, trials=scenario.trials, family=family, q=q, ell=ell,
        tau=tau, threshold=thr, edge_count=edges, yes_count=yes,
        yes_rate=yes / scenario.trials, ci_low=lo, ci_high=hi,
        mean_samples=float(np.mean([r.samples_total for r in records])),
        max_samples=max(r.samples_total for r in records),
        max_message_bits=max(r.max_message_bits for r in records),
        max_memory_bits=max(r.max_memory_bits for r in records),
        max_rounds=max(rounds_list) if rounds_list else None,
        sampling_time=sampling_time, seed=master_seed,
        wall_clock_s=time.perf_counter() - start,
    )
    return ScenarioResult(summary=summary, records=records, plan=plan)


def summaries_to_csv(rows, timings: bool = False) -> str:
    header = list(SummaryRow.CSV_COLUMNS) + (["wall_clock_s"] if timings else [])
    lines = [",".join(header)]
    lines.extend(",".join(row.csv_cells(timings)) for row in rows)
    return "\n".join(lines) + "\n"


def records_to_jsonl(records) -> str:
    return "".join(json.dumps(r.to_json(), sort_keys=True) + "\n"
                   for r in records)


def load_scenarios(obj) -> list[Scenario]:
    if isinstance(obj, dict) and "scenarios" in obj:
        obj = obj["scenarios"]
    if isinstance(obj, dict):
        obj = [obj]
    return [Scenario.from_json(o) for o in obj]


def run_suite(scenarios, master_seed: int, timings: bool = False):
    """One summary row per scenario; deterministic CSV for a fixed seed."""
    results = [run_scenario(s, master_seed) for s in scenarios]
    csv_text = summaries_to_csv([r.summary for r in results], timings)
    return csv_text, results


@dataclass(frozen=True)
class AuditReport:
    """Empirical moments of Z against their closed forms."""

    trials: int
    mean_z: float
    expected_z: float
    mean_z_score: float
    sample_variance: float
    formula_variance: float
    variance_rel_err: float | None
    flagged: bool

    def to_json(self) -> dict:
        return {"trials": self.trials, "mean_z": self.mean_z,
                "expected_z": self.expected_z,
                "mean_z_score": self.mean_z_score,
                "sample_variance": self.sample_variance,
                "formula_variance": self.formula_variance,
                "variance_rel_err": self.variance_rel_err,
                "flagged": self.flagged}


def moment_audit(graph: ComparisonGraph, p: Distribution, trials: int,
                 seed: int) -> AuditReport:
    """Check E[Z] = |E| mu and the two-term variance formula empirically.

    Draws all trials as one batched matrix from the audit stream (only
    the distribution of Z matters here).  Flags the audit when the mean
    deviates by more than 4 standard errors.
    """
    zs = tester.collision_counts_batch(graph, p, trials, Stream(seed).child(0))
    expected = tester.expected_collisions(graph, p)
    var_formula = tester.variance_collisions(graph, p)
    mean = float(zs.mean())
    sample_var = float(zs.var(ddof=1)) if trials > 1 else 0.0
    se = math.sqrt(var_formula / trials) if var_formula > 0 else 0.0
    z_score = (mean - expected) / se if se > 0 else 0.0
    rel = (abs(sample_var - var_formula) / var_formula
           if var_formula > 0 else None)
    return AuditReport(trials=trials, mean_z=mean, expected_z=expected,
                       mean_z_score=z_score, sample_variance=sample_var,
                       formula_variance=var_formula, variance_rel_err=rel,
                       flagged=abs(z_score) > 4.0)
