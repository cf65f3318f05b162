"""CLI smoke tests."""

import json

import pytest

from repro.__main__ import build_parser, main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mlp0" in out and "table6" in out

    def test_list_groups_paper_and_extensions(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "paper workloads" in out and "extension workloads" in out
        assert "bert_s" in out and "gpt_s" in out

    def test_list_json_carries_both_tiers(self, capsys):
        assert main(["list", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["paper_workloads"] == [
            "mlp0", "mlp1", "lstm0", "lstm1", "cnn0", "cnn1",
        ]
        assert "bert_s" in data["extension_workloads"]
        assert "transformer_roofline" in data["experiments"]

    def test_profile(self, capsys):
        assert main(["profile", "mlp1"]) == 0
        out = capsys.readouterr().out
        assert "TOPS" in out and "Unified Buffer" in out

    def test_profile_transformer(self, capsys):
        assert main(["profile", "bert_s"]) == 0
        out = capsys.readouterr().out
        assert "TOPS" in out and "attention" in out

    def test_serve_transformer(self, capsys):
        assert main([
            "serve", "--workload", "gpt_s", "--slo-ms", "20",
            "--requests", "1500", "--loads", "0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "gpt_s" in out and "p99" in out

    def test_profile_precision_flag(self, capsys):
        assert main(["profile", "mlp1", "--activation-bits", "16"]) == 0
        assert "TOPS" in capsys.readouterr().out

    def test_experiment(self, capsys):
        assert main(["experiment", "table2"]) == 0
        assert "Haswell" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "table99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_report_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(["report", str(target)]) == 0
        assert target.exists()
        assert "## table1" in target.read_text()

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_serve_sweep(self, capsys):
        assert main([
            "serve", "--workload", "mlp0", "--replicas", "2",
            "--slo-ms", "7", "--requests", "2000", "--loads", "0.4,0.9",
        ]) == 0
        out = capsys.readouterr().out
        assert "p99" in out and "SLO" in out

    def test_serve_unknown_workload(self, capsys):
        assert main(["serve", "--workload", "resnet"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_serve_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text("".join(f"{i * 1e-3}\n" for i in range(200)))
        assert main([
            "serve", "--workload", "mlp0", "--platform", "cpu",
            "--trace", str(trace),
        ]) == 0
        assert "p99" in capsys.readouterr().out

    def test_serve_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "serve" in capsys.readouterr().out

    def test_serve_trace_warns_on_ignored_flags(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text("".join(f"{i * 1e-3}\n" for i in range(200)))
        assert main([
            "serve", "--workload", "mlp0", "--platform", "cpu",
            "--trace", str(trace), "--traffic", "diurnal", "--loads", "0.5",
        ]) == 0
        err = capsys.readouterr().err
        assert "ignoring --traffic/--loads" in err

    def test_serve_trace_without_flags_does_not_warn(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text("".join(f"{i * 1e-3}\n" for i in range(200)))
        assert main([
            "serve", "--workload", "mlp0", "--platform", "cpu",
            "--trace", str(trace),
        ]) == 0
        assert "ignoring" not in capsys.readouterr().err


class TestScenarioCLI:
    """--config/--json adapters over the repro.run facade."""

    def test_serve_config_json_matches_facade(self, tmp_path, capsys):
        import repro

        spec = repro.ServeScenario(
            workload="mlp0", platform="cpu", loads=(0.5, 0.9), requests=500,
            seed=1,
        )
        config = tmp_path / "scenario.json"
        config.write_text(spec.to_json())
        assert main(["serve", "--config", str(config), "--json"]) == 0
        cli = json.loads(capsys.readouterr().out)
        lib = json.loads(json.dumps(repro.run(spec).to_dict()))
        assert cli == lib
        assert cli["kind"] == "serve"
        assert len(cli["rows"]) == 2

    def test_serve_flags_and_config_agree(self, tmp_path, capsys):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({
            "kind": "serve", "workload": "mlp0", "platform": "cpu",
            "loads": [0.5], "requests": 400,
        }))
        assert main(["serve", "--config", str(config)]) == 0
        from_config = capsys.readouterr().out
        assert main([
            "serve", "--workload", "mlp0", "--platform", "cpu",
            "--loads", "0.5", "--requests", "400",
        ]) == 0
        assert capsys.readouterr().out == from_config

    def test_serve_config_wrong_kind(self, tmp_path, capsys):
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps({"kind": "datacenter"}))
        assert main(["serve", "--config", str(config)]) == 2
        assert "datacenter" in capsys.readouterr().err

    def test_serve_config_missing_file(self, tmp_path, capsys):
        assert main(["serve", "--config", str(tmp_path / "nope.json")]) == 2
        assert "serve:" in capsys.readouterr().err

    def test_serve_sweep_config(self, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "kind": "sweep",
            "base": {"kind": "serve", "workload": "mlp0", "platform": "cpu",
                     "loads": [0.5], "requests": 300},
            "axes": {"replicas": [1, 2]},
        }))
        assert main(["serve", "--config", str(config), "--json"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["kind"] == "sweep"
        assert [row["sweep"]["replicas"] for row in result["rows"]] == [1, 2]

    def test_profile_json(self, capsys):
        assert main(["profile", "mlp0", "--json"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["kind"] == "profile"
        assert result["rows"][0]["tera_ops"] > 0

    def test_profile_without_app_or_config(self, capsys):
        assert main(["profile"]) == 2
        assert "--config" in capsys.readouterr().err

    def test_experiment_spec_introspection(self, capsys):
        assert main(["experiment", "serving_sweep", "--spec"]) == 0
        description = json.loads(capsys.readouterr().out)
        assert description["parameterized"] is True
        assert description["scenario"]["kind"] == "serve"

    def test_list_json(self, capsys):
        assert main(["list", "--json"]) == 0
        registry = json.loads(capsys.readouterr().out)
        assert "mlp0" in registry["workloads"]
        assert "table6" in registry["experiments"]
        assert "sweep" in registry["scenario_kinds"]

    def test_report_only_subset_with_jobs(self, tmp_path, capsys):
        target = tmp_path / "subset.md"
        assert main([
            "report", str(target), "--only", "table1,table2", "--jobs", "2",
        ]) == 0
        text = target.read_text()
        assert "## table1" in text and "## table2" in text

    def test_report_unknown_only_id(self, tmp_path, capsys):
        assert main([
            "report", str(tmp_path / "r.md"), "--only", "table99",
        ]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_report_rejects_nonpositive_jobs(self, tmp_path, capsys, jobs):
        target = tmp_path / "r.md"
        assert main(["report", str(target), "--jobs", jobs]) == 2
        assert "report: --jobs must be >= 1" in capsys.readouterr().err
        assert not target.exists()

    def test_bench_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["serve", "--workload", "mlp0", "--platform", "cpu", "--requests", "300"],
        ["llm", "--requests", "40", "--decode-tokens", "8"],
    ])
    def test_loads_skip_blanks_and_name_the_flag(self, command, capsys):
        assert main([*command, "--loads", "0.5,,0.8,", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == 2
        assert main([*command, "--loads", "abc"]) == 2
        err = capsys.readouterr().err
        assert f"{command[0]}: --loads" in err and "'abc'" in err
