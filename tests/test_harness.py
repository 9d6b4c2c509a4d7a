import json
import math
import time

import numpy as np
import pytest

from collitest import conditions, harness
from collitest.cli import main as cli_main
from collitest.conditions import Plan, plan_centralized
from collitest.dist import make_bump, make_uniform
from collitest.graph import make_matching, make_star
from collitest.harness import (Scenario, build_distribution, build_graph,
                               build_topology, load_scenarios, moment_audit,
                               plan_for, records_to_jsonl, run_scenario,
                               run_suite, summaries_to_csv, wilson_interval)
from collitest.rng import Stream


def scenario(model="centralized", **kw):
    base = dict(scenario_id="s0", model=model, n=16, eps=1.0,
                dist={"kind": "uniform"}, trials=25)
    base.update(kw)
    return Scenario(**base)


class TestBuilders:
    def test_distribution_kinds(self):
        assert build_distribution({"kind": "uniform"}, 4, 1.0).n == 4
        p = build_distribution({"kind": "bump", "eps": 0.5}, 4, 1.0)
        assert p.probs[0] == pytest.approx(0.375)
        h = build_distribution({"kind": "heavy"}, 4, 0.5)
        assert h.probs[0] == pytest.approx(0.5)
        e = build_distribution({"probs": [0.5, 0.5]}, 2, 1.0)
        assert e.n == 2
        with pytest.raises(ValueError):
            build_distribution({"probs": [0.5, 0.5]}, 3, 1.0)

    def test_graph_kinds(self):
        assert build_graph({"kind": "clique", "q": 5}).edge_count == 10
        assert build_graph({"kind": "matching", "pairs": 3}).two_path_count == 0
        assert build_graph({"kind": "disjoint_cliques", "q": 3, "ell": 2}).edge_count == 6
        assert build_graph({"vertex_count": 3, "edges": [[0, 1]]}).edge_count == 1
        with pytest.raises(ValueError):
            build_graph({"kind": "torus"})

    def test_topology_kinds(self):
        assert build_topology({"kind": "path", "k": 5}).edge_count == 4
        assert build_topology({"kind": "clique", "k": 4}).edge_count == 6
        assert build_topology({"kind": "star", "k": 5}).vertex_count == 5
        r = build_topology({"kind": "random_connected", "k": 12, "seed": 3})
        assert r.vertex_count == 12

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            scenario(model="sideways")
        with pytest.raises(ValueError):
            scenario(trials=0)


class TestWilson:
    def test_contains_point_estimate(self):
        for k, n in [(0, 10), (5, 10), (10, 10), (3, 2000)]:
            lo, hi = wilson_interval(k, n)
            assert 0.0 <= lo <= k / n <= hi <= 1.0

    def test_narrows_with_trials(self):
        lo1, hi1 = wilson_interval(50, 100)
        lo2, hi2 = wilson_interval(500, 1000)
        assert hi2 - lo2 < hi1 - lo1


class TestRunScenario:
    def test_centralized_uniform_accepts(self):
        result = run_scenario(scenario(trials=200), master_seed=5)
        assert result.summary.yes_rate >= 0.70
        assert result.summary.trials == 200
        assert len(result.records) == 200

    def test_centralized_bump_rejects(self):
        result = run_scenario(
            scenario(dist={"kind": "bump"}, trials=200), master_seed=5)
        assert result.summary.yes_rate <= 0.30

    def test_single_trial_summary_matches_record(self):
        result = run_scenario(scenario(trials=1), master_seed=9)
        rec = result.records[0]
        assert result.summary.yes_count == (1 if rec.decision == "YES" else 0)
        assert result.summary.max_samples == rec.samples_total

    def test_rng_provenance_recorded(self):
        result = run_scenario(scenario(trials=3), master_seed=11)
        assert [r.seed_path for r in result.records] == [(11, 0), (11, 1), (11, 2)]

    def test_deterministic_across_runs_and_order(self):
        sc = scenario(model="simultaneous", k=4, trials=30)
        a = run_scenario(sc, master_seed=21)
        b = run_scenario(sc, master_seed=21)
        shuffled = list(reversed(range(30)))
        c = run_scenario(sc, master_seed=21, trial_order=shuffled)
        csv_a = summaries_to_csv([a.summary])
        assert csv_a == summaries_to_csv([b.summary]) == summaries_to_csv([c.summary])
        assert records_to_jsonl(a.records) == records_to_jsonl(c.records)

    def test_seed_changes_output(self):
        sc = scenario(trials=30, dist={"kind": "bump"})
        a = run_scenario(sc, master_seed=1)
        b = run_scenario(sc, master_seed=2)
        assert records_to_jsonl(a.records) != records_to_jsonl(b.records)

    def test_missing_model_params_rejected(self):
        with pytest.raises(ValueError):
            run_scenario(scenario(model="simultaneous"), master_seed=0)
        with pytest.raises(ValueError):
            run_scenario(scenario(model="congest_local"), master_seed=0)

    def test_streaming_scenario_resources(self):
        sc = scenario(model="streaming", n=64, m_bits=48, trials=20)
        result = run_scenario(sc, master_seed=3)
        assert result.summary.max_memory_bits <= 48

    def test_congest_local_scenario(self):
        k = plan_centralized(4, 1.0).clique_sizes[0]
        sc = scenario(model="congest_local", n=4,
                      topology={"kind": "clique", "k": k}, trials=10)
        result = run_scenario(sc, master_seed=13)
        assert result.summary.max_rounds is not None
        assert result.summary.yes_rate >= 0.7

    def test_congest_combined_scenario_falls_back(self):
        sc = scenario(model="congest_combined", n=4,
                      topology={"kind": "path", "k": 150}, trials=5)
        result = run_scenario(sc, master_seed=13)
        assert result.summary.max_rounds is not None


class TestSuite:
    def test_empty_suite_is_header_only(self):
        csv_text, _ = run_suite([], master_seed=0)
        lines = csv_text.strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith("scenario_id,model,n,eps,trials")

    def test_duplicate_scenarios_give_identical_rows(self):
        sc = scenario(trials=20)
        dup = Scenario(**{**sc.__dict__, "scenario_id": "s0"})
        csv_text, _ = run_suite([sc, dup], master_seed=4)
        lines = csv_text.strip().split("\n")
        assert lines[1] == lines[2]

    def test_all_eight_models_complete_quickly(self):
        q_local = plan_centralized(4, 1.0).clique_sizes[0]
        scenarios = [
            scenario(scenario_id="central", trials=20),
            scenario(scenario_id="simul", model="simultaneous", k=4, trials=20),
            scenario(scenario_id="asym", model="asymmetric",
                     rates=(2.0, 1.0), trials=20),
            scenario(scenario_id="stream", model="streaming", n=64,
                     m_bits=48, trials=20),
            scenario(scenario_id="sistream", model="simultaneous_streaming",
                     n=64, k=2, m_bits=48, trials=20),
            scenario(scenario_id="clocal", model="congest_local", n=4,
                     topology={"kind": "clique", "k": q_local}, trials=10),
            scenario(scenario_id="cpipe", model="congest_pipelined", n=4,
                     topology={"kind": "path", "k": 150}, trials=10),
            scenario(scenario_id="ccomb", model="congest_combined", n=4,
                     topology={"kind": "star", "k": 150}, trials=10),
        ]
        start = time.perf_counter()
        csv_text, results = run_suite(scenarios, master_seed=8)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0
        assert len(csv_text.strip().split("\n")) == 9
        assert {r.summary.model for r in results} == {
            "centralized", "simultaneous", "asymmetric", "streaming",
            "simultaneous_streaming", "congest_local", "congest_pipelined",
            "congest_combined"}

    def test_emitted_plans_recertify(self):
        sc = scenario(model="simultaneous", k=4, trials=5)
        result = run_scenario(sc, master_seed=2)
        loaded = Plan.from_json(result.plan.to_json())
        assert loaded.report.overall

    def test_load_scenarios_shapes(self):
        obj = {"scenarios": [dict(id="a", model="centralized", n=4, eps=1.0,
                                  dist={"kind": "uniform"}, trials=2)]}
        assert len(load_scenarios(obj)) == 1
        assert len(load_scenarios(obj["scenarios"])) == 1
        assert len(load_scenarios(obj["scenarios"][0])) == 1


class TestMomentAudit:
    def test_star_bump_variance_within_ten_percent(self):
        report = moment_audit(make_star(10), make_bump(10, 0.5), 10**5, seed=3)
        assert report.variance_rel_err <= 0.10
        assert not report.flagged

    def test_matching_c_zero_case(self):
        report = moment_audit(make_matching(5), make_bump(8, 1.0), 10**5, seed=4)
        assert abs(report.mean_z_score) <= 4
        assert report.variance_rel_err <= 0.10

    def test_clique_uniform_mean(self):
        from collitest.graph import make_clique
        report = moment_audit(make_clique(5), make_uniform(10), 10**5, seed=5)
        assert report.expected_z == pytest.approx(1.0)
        assert abs(report.mean_z - 1.0) <= 4 * math.sqrt(report.formula_variance / 10**5)


class TestPlanFor:
    def test_names_the_missing_parameter(self):
        for model, given, missing in (
                ("simultaneous", {}, "k"), ("asymmetric", {"k": 2}, "rates"),
                ("streaming", {"k": 2}, "m_bits"),
                ("simultaneous_streaming", {"k": 2}, "m_bits")):
            with pytest.raises(ValueError, match=missing):
                plan_for(model, 16, 1.0, **given)

    def test_congest_models_have_no_plan(self):
        with pytest.raises(ValueError, match="does not use a plan"):
            plan_for("congest_local", 16, 1.0)

    def test_calls_the_planner_through_the_module(self, monkeypatch):
        # benchmark hooks wrap harness.plan_<model> and must see every call
        calls = []

        def spy(n, eps, k):
            calls.append((n, eps, k))
            return conditions.plan_simultaneous(n, eps, k)

        monkeypatch.setattr(harness, "plan_simultaneous", spy)
        plan_for("simultaneous", 16, 1.0, k=3)
        run_scenario(scenario("simultaneous", k=3, trials=1), 0)
        assert calls == [(16, 1.0, 3)] * 2


class TestCli:
    def test_plan_subcommand(self, capsys):
        code = cli_main(["plan", "--model", "centralized", "--n", "16",
                         "--eps", "1.0"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["report"]["overall"]

    def test_plan_capacity_exit_code(self, capsys):
        code = cli_main(["plan", "--model", "streaming", "--n", "256",
                         "--eps", "1.0", "--m-bits", "20"])
        assert code == 2
        assert "capacity" in capsys.readouterr().err

    def test_missing_model_parameter_exit_code(self, capsys):
        code = cli_main(["plan", "--model", "simultaneous", "--n", "16",
                         "--eps", "1.0"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and " k" in err

    def test_plan_matches_the_harness_dispatch(self, capsys):
        assert cli_main(["plan", "--model", "asymmetric", "--n", "16",
                         "--eps", "1.0", "--rates", "2,1"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == plan_for("asymmetric", 16, 1.0, rates=(2.0, 1.0)).to_json()

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["plan", "--model", "nonsense", "--n", "4", "--eps", "1"])
        assert exc.value.code == 1

    def test_run_writes_csv_and_jsonl(self, tmp_path, capsys):
        spec = dict(id="demo", model="centralized", n=16, eps=1.0,
                    dist={"kind": "uniform"}, trials=5)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        prefix = tmp_path / "out"
        code = cli_main(["run", "--scenario", str(path), "--seed", "7",
                         "--out-prefix", str(prefix)])
        assert code == 0
        csv_text = (tmp_path / "out.csv").read_text()
        assert csv_text.startswith("scenario_id,")
        records = [json.loads(line)
                   for line in (tmp_path / "out.jsonl").read_text().splitlines()]
        assert len(records) == 5
        assert records[0]["seed_path"] == [7, 0]

    def test_run_is_byte_deterministic(self, tmp_path, capsys):
        spec = dict(id="demo", model="simultaneous", n=16, eps=1.0, k=4,
                    dist={"kind": "bump"}, trials=10)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        outputs = []
        for name in ("a", "b"):
            prefix = tmp_path / name
            assert cli_main(["run", "--scenario", str(path), "--seed", "3",
                             "--out-prefix", str(prefix)]) == 0
            outputs.append((prefix.with_suffix(".csv").read_bytes(),
                            prefix.with_suffix(".jsonl").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_suite_subcommand(self, tmp_path, capsys):
        suite = {"scenarios": [
            dict(id="a", model="centralized", n=16, eps=1.0,
                 dist={"kind": "uniform"}, trials=5),
            dict(id="b", model="streaming", n=64, eps=1.0, m_bits=48,
                 dist={"kind": "heavy"}, trials=5),
        ]}
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(suite))
        out = tmp_path / "table.csv"
        code = cli_main(["suite", "--scenarios", str(path), "--seed", "2",
                         "--out", str(out)])
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 3

    def test_audit_subcommand(self, capsys):
        code = cli_main([
            "audit", "--graph", json.dumps({"kind": "star", "leaves": 6}),
            "--dist", json.dumps({"kind": "uniform", "n": 8}),
            "--trials", "20000", "--seed", "5"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert not obj["flagged"]

    def test_counterexample_subcommand(self, capsys):
        code = cli_main(["counterexample", "--n", "16", "--eps", "1.0",
                         "--b", "40"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["augmented_fails_every_tau"]
        assert obj["augmented_two_path_ratio"] >= 1 / 12

    def test_counterexample_capacity_exit(self, capsys):
        code = cli_main(["counterexample", "--n", "16", "--eps", "1.0",
                         "--b", "0.5"])
        assert code == 2
