import json
import math
import time

import numpy as np
import pytest

from collitest import conditions, harness
from collitest import congest as cg
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

    @pytest.mark.parametrize("build, spec, field", [
        (build_topology, 7, "topology"),
        (build_topology, {"kind": "path", "k": None}, "k"),
        (build_topology, {"vertex_count": 3, "edges": None}, "edges"),
        (build_graph, {"kind": "bipartite", "a": 2, "b": True}, "b"),
        (lambda spec: build_distribution(spec, 2, 1.0), {"probs": {}}, "probs"),
        (load_scenarios, {"scenarios": 5}, "scenarios"),
        (load_scenarios, dict(model="asymmetric", n=16, eps=1.0, rates=[2, "1"],
                              dist={"kind": "uniform"}, trials=2), "rates"),
    ])
    def test_spec_of_the_wrong_json_type(self, build, spec, field):
        with pytest.raises(ValueError, match=f"^{field} must be a JSON "):
            build(spec)

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

    def test_centralized_clique_beyond_edge_array_memory(self):
        # |E| = 2,535,396,445: an int32 edge array would take ~20 GB
        result = run_scenario(scenario(n=4096, eps=0.25, trials=3), master_seed=3)
        assert result.summary.edge_count == 2535396445
        assert len(result.records) == 3

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
        k = plan_centralized(4, 1.0).runs[0][0]
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


class TestCongestSchedules:
    """A CONGEST scenario simulates its schedule once, in its first trial."""

    COUNTED = ((cg, "bundle_assignment"), (cg, "_pipeline_rounds"),
               (cg, "choose_bundle_plan"), (cg.BitMeter, "send"))

    def schedule_calls(self, monkeypatch, sc):
        calls = {}
        for owner, attr in self.COUNTED:
            real = getattr(owner, attr)

            def counted(*args, _real=real, _attr=attr, **kwargs):
                calls[_attr] = calls.get(_attr, 0) + 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)
        result = run_scenario(sc, master_seed=21)
        monkeypatch.undo()
        return calls, result

    @pytest.mark.parametrize("model, topology", [
        ("congest_local", {"kind": "clique", "k": 139}),
        ("congest_pipelined", {"kind": "path", "k": 150}),
        ("congest_combined", {"kind": "star", "k": 150}),
    ])
    def test_schedule_is_built_once(self, monkeypatch, model, topology):
        assert plan_centralized(4, 1.0).runs[0][0] == 139
        sc = scenario(model=model, n=4, topology=topology, trials=20)
        many, result = self.schedule_calls(monkeypatch, sc)
        one, _ = self.schedule_calls(
            monkeypatch, Scenario(**{**sc.__dict__, "trials": 1}))
        assert many == one and one["send"] > 0
        if model != "congest_local":
            assert one["bundle_assignment"] == one["_pipeline_rounds"] == 1
            assert result.summary.family == "bundled"


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
        q_local = plan_centralized(4, 1.0).runs[0][0]
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

    def test_plan_of_billions_of_batches_prints_its_runs(self, capsys):
        """The 6e9-batch streaming plan prints as its one run, in a size
        that does not grow with the batch count, and reads back."""
        assert cli_main(["plan", "--model", "streaming", "--n", "100000",
                         "--eps", "0.1", "--m-bits", "136"]) == 0
        out = capsys.readouterr().out
        obj = json.loads(out)
        assert obj["runs"] == [[4, 6_000_000_000, 0]]
        # the JSON is under 1 kB; the printed text adds its indentation
        assert len(json.dumps(obj)) < 1000
        assert len(out.encode()) < 1280
        assert Plan.from_json(obj) == plan_for("streaming", 10**5, 0.1,
                                               m_bits=136)

    def test_missing_model_parameter_exit_code(self, capsys):
        code = cli_main(["plan", "--model", "simultaneous", "--n", "16",
                         "--eps", "1.0"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and " k" in err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_audit_without_trials_exit_code(self, capsys, trials):
        code = cli_main(["audit", "--graph", '{"kind": "clique", "q": 4}',
                         "--dist", '{"kind": "uniform", "n": 8}',
                         "--trials", trials, "--seed", "1"])
        assert code == 1
        assert capsys.readouterr().err == "error: trials must be >= 1\n"

    def test_plan_matches_the_harness_dispatch(self, capsys):
        assert cli_main(["plan", "--model", "asymmetric", "--n", "16",
                         "--eps", "1.0", "--rates", "2,1"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == plan_for("asymmetric", 16, 1.0, rates=(2.0, 1.0)).to_json()

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["plan", "--model", "nonsense", "--n", "4", "--eps", "1"])
        assert exc.value.code == 1

    def test_missing_scenario_file_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code = cli_main(["run", "--scenario", str(missing), "--seed", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing.json" in err

    def test_out_prefix_in_missing_directory_exit_code(self, tmp_path, capsys):
        spec = dict(id="demo", model="centralized", n=16, eps=1.0,
                    dist={"kind": "uniform"}, trials=2)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        code = cli_main(["run", "--scenario", str(path), "--seed", "1",
                         "--out-prefix", str(tmp_path / "no_dir" / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no_dir" in err

    @pytest.mark.parametrize("count", [0, 2])
    def test_run_needs_exactly_one_scenario(self, tmp_path, capsys, count):
        spec = dict(id="demo", model="centralized", n=16, eps=1.0,
                    dist={"kind": "uniform"}, trials=2)
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps({"scenarios": [spec] * count}))
        code = cli_main(["run", "--scenario", str(path), "--seed", "1",
                         "--out-prefix", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: `run` expects exactly one scenario; use `suite`\n")
        assert not (tmp_path / "out.csv").exists()

    def test_scenario_without_trials_exit_code(self, tmp_path, capsys):
        spec = dict(id="demo", model="centralized", n=16, eps=1.0,
                    dist={"kind": "uniform"})
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        code = cli_main(["run", "--scenario", str(path), "--seed", "1"])
        assert code == 1
        assert capsys.readouterr().err == "error: missing field 'trials'\n"

    @pytest.mark.parametrize("obj, err", [
        (dict(id="demo", model="centralized", n=16, eps=1.0, dist=5,
              trials=2), "dist must be a JSON object, got 5"),
        (dict(id="demo", model="centralized", n=16, eps=1.0,
              dist={"kind": "uniform"}, trials=None),
         "trials must be a JSON number, got null"),
        ([42], "scenario must be a JSON object, got 42"),
    ])
    def test_scenario_of_the_wrong_json_type_exit_code(self, tmp_path, capsys,
                                                        obj, err):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(obj))
        code = cli_main(["run", "--scenario", str(path), "--seed", "1",
                         "--out-prefix", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("graph, dist, err", [
        ('{"kind": "clique", "q": "5"}', '{"kind": "uniform", "n": 8}',
         'q must be a JSON number, got "5"'),
        ('[]', '{"kind": "uniform", "n": 8}', "graph must be a JSON object, got []"),
        ('{"kind": "clique", "q": 5}', '5', "dist must be a JSON object, got 5"),
        ('{"kind": "clique", "q": 5}', '{"kind": "bump", "n": 8, "eps": NaN}',
         "eps must be a JSON number, got NaN"),
    ])
    def test_audit_spec_of_the_wrong_json_type_exit_code(self, capsys, graph,
                                                         dist, err):
        code = cli_main(["audit", "--graph", graph, "--dist", dist,
                         "--trials", "5", "--seed", "1"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {err}\n"

    @pytest.mark.parametrize("entries, err", [
        ('"edges": [[0, null]]',
         "edges[0] must be a JSON array of two 32-bit integers, got [0, null]"),
        ('"edges": [[0, 1.5]]',
         "edges[0] must be a JSON array of two 32-bit integers, got [0, 1.5]"),
        ('"edges": [[0, "1"]]',
         'edges[0] must be a JSON array of two 32-bit integers, got [0, "1"]'),
        ('"edges": [[0, 1], [true, 1]]',
         "edges[1] must be a JSON array of two 32-bit integers, got [true, 1]"),
        ('"edges": [[0]]',
         "edges[0] must be a JSON array of two 32-bit integers, got [0]"),
        ('"edges": [[0, 1]], "owner": [0, null]',
         "owner[1] must be a JSON 32-bit integer, got null"),
        ('"edges": [[0, 1]], "owner": [0, 0.5]',
         "owner[1] must be a JSON 32-bit integer, got 0.5"),
        ('"edges": [[0, 100000000000000000000]]',
         "edges[0] must be a JSON array of two 32-bit integers, "
         "got [0, 100000000000000000000]"),
        ('"edges": [[0, 1]], "owner": [0, 0, 2147483648]',
         "owner[2] must be a JSON 32-bit integer, got 2147483648"),
    ], ids=["null", "float", "string", "bool", "short", "owner-null",
            "owner-float", "huge", "owner-huge"])
    def test_explicit_graph_entries_are_checked(self, capsys, entries, err):
        code = cli_main(["audit", "--graph",
                         '{"vertex_count": 3, %s}' % entries,
                         "--dist", '{"kind": "uniform", "n": 4}',
                         "--trials", "3", "--seed", "1"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {err}\n"

    @pytest.mark.parametrize("topology, err", [
        ({"vertex_count": 3, "edges": [[0, 1], [1, None]]},
         "edges[1] must be a JSON array of two 32-bit integers, got [1, null]"),
        ({"vertex_count": 4, "edges": [[0, 1], [2, 3]]},
         "the topology is disconnected"),
        ({"kind": "path", "k": 10},
         "topology not certified; the local path cannot run"),
    ], ids=["bad-edge", "disconnected", "not-certified"])
    def test_congest_input_faults_exit_code(self, tmp_path, capsys, topology,
                                            err):
        spec = dict(id="demo", model="congest_local", n=64, eps=0.5,
                    dist={"kind": "uniform"}, trials=2, topology=topology)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        code = cli_main(["run", "--scenario", str(path), "--seed", "1",
                         "--out-prefix", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("graph, dist, err", [
        ('{"kind": "clique", "q": 4.9}', '{"kind": "uniform", "n": 4}',
         "q must be a JSON integer, got 4.9"),
        ('{"vertex_count": 3.5, "edges": [[0, 1]]}',
         '{"kind": "uniform", "n": 4}',
         "vertex_count must be a JSON integer, got 3.5"),
        ('{"kind": "clique", "q": 4.0}', '{"kind": "uniform", "n": 4.7}',
         "n must be a JSON integer, got 4.7"),
    ], ids=["graph-q", "graph-vertex-count", "dist-n"])
    def test_audit_integer_fields_refuse_fractions(self, capsys, graph, dist,
                                                   err):
        """A fractional size is refused, not truncated; an integral float
        (q 4.0) is an integer."""
        code = cli_main(["audit", "--graph", graph, "--dist", dist,
                         "--trials", "3", "--seed", "1"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {err}\n"

    @pytest.mark.parametrize("field, value", [
        ("n", 16.5), ("trials", 2.5), ("k", 3.2), ("m_bits", 400.1)])
    def test_scenario_integer_fields_refuse_fractions(self, tmp_path, capsys,
                                                      field, value):
        spec = dict(id="demo", model="simultaneous_streaming", n=16, eps=1.0,
                    dist={"kind": "uniform"}, trials=2, k=2, m_bits=400)
        spec[field] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        code = cli_main(["run", "--scenario", str(path), "--seed", "1",
                         "--out-prefix", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {field} must be a JSON integer, got {value}\n")
        assert not (tmp_path / "out.csv").exists()

    def test_graph_without_size_exit_code(self, capsys):
        code = cli_main(["audit", "--graph", '{"kind": "clique"}',
                         "--dist", '{"kind": "uniform", "n": 8}',
                         "--trials", "5", "--seed", "1"])
        assert code == 1
        assert capsys.readouterr().err == "error: missing field 'q'\n"

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
