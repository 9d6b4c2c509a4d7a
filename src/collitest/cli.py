"""Command line front end.

Subcommands: `plan` (print a certified plan as JSON), `run` (one
scenario, CSV summary plus JSONL per-trial records), `suite` (many
scenarios, one CSV), `audit` (moments of Z against their closed forms)
and `counterexample` (the certified cycle whose hub-augmented supergraph
certifies for no tau).

Exit codes: 0 success, 1 usage error, 2 planner capacity error.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .conditions import cycle_plus_hub_counterexample
from .errors import CapacityError
from .harness import (build_distribution, build_graph, load_scenarios,
                      moment_audit, plan_for, records_to_jsonl, run_scenario,
                      run_suite, summaries_to_csv)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="collitest",
                     description="collision testers over comparison graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="print a certified plan as JSON")
    p.add_argument("--model", required=True,
                   choices=["centralized", "simultaneous", "asymmetric",
                            "streaming", "simultaneous_streaming"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--rates", type=str,
                   help="comma-separated sampling rates, e.g. 2,1,1")
    p.add_argument("--m-bits", type=int, dest="m_bits")
    p.add_argument("--table", action="store_true",
                   help="render the plan as a table instead of JSON")

    r = sub.add_parser("run", help="run one scenario file")
    r.add_argument("--scenario", required=True)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--out-prefix", default="results")
    r.add_argument("--timings", action="store_true",
                   help="append wall-clock column (breaks byte determinism)")

    s = sub.add_parser("suite", help="run a scenario suite file")
    s.add_argument("--scenarios", required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--out", default=None)
    s.add_argument("--timings", action="store_true")

    a = sub.add_parser("audit", help="compare moments of Z to closed forms")
    a.add_argument("--graph", required=True, help="graph spec JSON")
    a.add_argument("--dist", required=True, help="distribution spec JSON")
    a.add_argument("--trials", type=int, required=True)
    a.add_argument("--seed", type=int, required=True)

    c = sub.add_parser("counterexample",
                       help="cycle that certifies vs hub-augmented one that cannot")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--eps", type=float, required=True)
    c.add_argument("--b", type=float, required=True)
    return parser


def _cmd_plan(args) -> int:
    rates = None if not args.rates else [float(x) for x in args.rates.split(",")]
    plan = plan_for(args.model, args.n, args.eps, args.k, rates, args.m_bits)
    if args.table:
        print(_plan_table(plan))
    else:
        print(json.dumps(plan.to_json(), indent=2, sort_keys=True))
    return 0


def _plan_table(plan) -> str:
    res = plan.resources
    rows = [
        ("family", plan.family),
        ("n / eps", f"{plan.n} / {plan.eps:g}"),
        ("tau", f"{plan.tau:.6g}"),
        ("threshold T", f"{plan.threshold:.6g}"),
        ("cliques", f"{len(plan.clique_sizes)} (max size {max(plan.clique_sizes)})"),
        ("players", str(plan.players)),
        ("edges / two-paths", f"{plan.edge_count} / {plan.two_path_count}"),
        ("samples total", str(res.samples_total)),
        ("samples per player", str(res.samples_per_player)),
        ("sampling time", "-" if res.sampling_time is None else f"{res.sampling_time:g}"),
        ("message bits", "-" if res.message_bits is None else str(res.message_bits)),
        ("memory bits", "-" if res.memory_bits is None else str(res.memory_bits)),
        ("certified", str(plan.report.overall)),
    ]
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def _cmd_run(args) -> int:
    obj = json.loads(Path(args.scenario).read_text())
    scenarios = load_scenarios(obj)
    if len(scenarios) != 1:
        raise SystemExit("`run` expects exactly one scenario; use `suite`")
    result = run_scenario(scenarios[0], args.seed)
    csv_text = summaries_to_csv([result.summary], args.timings)
    Path(f"{args.out_prefix}.csv").write_text(csv_text)
    Path(f"{args.out_prefix}.jsonl").write_text(records_to_jsonl(result.records))
    sys.stdout.write(csv_text)
    return 0


def _cmd_suite(args) -> int:
    obj = json.loads(Path(args.scenarios).read_text())
    scenarios = load_scenarios(obj)
    csv_text, _ = run_suite(scenarios, args.seed, args.timings)
    if args.out:
        Path(args.out).write_text(csv_text)
    sys.stdout.write(csv_text)
    return 0


def _cmd_audit(args) -> int:
    graph = build_graph(json.loads(args.graph))
    dist_spec = json.loads(args.dist)
    n = int(dist_spec.get("n", 0)) or len(dist_spec.get("probs", []))
    dist = build_distribution(dist_spec, n, float(dist_spec.get("eps", 1.0)))
    report = moment_audit(graph, dist, args.trials, args.seed)
    print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    return 0


def _cmd_counterexample(args) -> int:
    result = cycle_plus_hub_counterexample(args.n, args.eps, args.b)
    out = {
        "cycle_vertices": result.cycle.vertex_count,
        "cycle_certifies_at_tau": result.cycle_tau,
        "augmented_edge_count": result.augmented.edge_count,
        "augmented_two_path_ratio": result.augmented_ratio,
        "augmented_fails_every_tau": result.augmented_fails_everywhere,
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"plan": _cmd_plan, "run": _cmd_run, "suite": _cmd_suite,
                "audit": _cmd_audit, "counterexample": _cmd_counterexample}
    try:
        return handlers[args.command](args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
