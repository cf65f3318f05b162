"""CLI smoke tests, and the flags derived from the scenario specs."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.__main__ import SCENARIO_COMMANDS, build_parser, main, scenario_from_args
from repro.api import SpecError
from repro.api.spec import (
    BATCH_POLICIES,
    GLOBE_BACKENDS,
    LLM_MODES,
    LLM_SCHEDULERS,
    PLATFORM_KINDS,
    ROUTERS,
    TRAFFIC_KINDS,
)

REPO = Path(__file__).resolve().parent.parent


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


#: The globe's config-only fields; every other spec field is flat.
NESTED = {"regions", "rtt_ms"}

#: The hand-written flags each scenario command used to take; none may disappear.
LEGACY_FLAGS = {
    "profile": "--weight-bits --activation-bits",
    "serve": "--workload --platform --replicas --slo-ms --policy --batch "
             "--timeout-ms --router --loads --requests --seed --traffic "
             "--diurnal-swing --diurnal-period-s --trace",
    "datacenter": "--workload --slo-ms --platforms --rate --swing --requests "
                  "--max-replicas --router --seed --usd-per-kwh --pue "
                  "--capex-per-watt",
    "globe": "--workload --slo-ms --policy --batch --timeout-ms --router "
             "--routing --rate --period-s --duration-s --bins --backend "
             "--spill-threshold --default-rtt-ms --event-requests --seed",
    "llm": "--workload --scheduler --mode --chips --prefill-chips --max-batch "
           "--prefill-batch --prompt-tokens --decode-tokens --requests --loads "
           "--slo-tpot-ms --slo-ttft-ms --transfer-ms --link-gbps --autoscale "
           "--seed",
}
COMMON_FLAGS = {"-h", "--config", "--json", "--trace-out", "--trace-jsonl", "--profile"}


def flat_fields(cls):
    return [f for f in dataclasses.fields(cls) if f.name not in NESTED]


def usage_flags(kind, capsys) -> set[str]:
    with pytest.raises(SystemExit):
        main([kind, "--help"])
    usage = capsys.readouterr().out.split("\n\n")[0]
    return set(re.findall(r"\[(-[-\w]+)", usage))


CHOICES = {
    "platform": PLATFORM_KINDS, "policy": BATCH_POLICIES, "router": ROUTERS,
    "traffic": TRAFFIC_KINDS, "backend": GLOBE_BACKENDS,
    "scheduler": LLM_SCHEDULERS, "mode": LLM_MODES,
    "routing": ("latency", "cost", "spillover"),
    "workload": ("mlp0", "cnn1", "lstm0", "bert_s", "gpt_s"),
    "weight_bits": (8, 16), "activation_bits": (8, 16),
}
FRACTION = st.floats(0.01, 0.99)


def value_strategy(name: str, hint):
    """Valid-looking values for one flat field (the spec has the last word)."""
    if name in CHOICES:
        return st.sampled_from(CHOICES[name])
    if name == "platforms":
        return st.lists(st.sampled_from(PLATFORM_KINDS), min_size=1,
                        unique=True).map(tuple)
    if name == "knee":
        return st.tuples(FRACTION, FRACTION).filter(lambda k: k[0] < k[1])
    if name == "pue":
        return st.floats(1.0, 3.0)
    if name == "trace":
        return st.sampled_from([None, "arrivals.txt"])
    if name == "seed":
        return st.integers(0, 99)
    args = typing.get_args(hint)
    if type(None) in args:
        base = next(a for a in args if a is not type(None))
        return st.none() | value_strategy(name, base)
    if typing.get_origin(hint) is tuple:
        return st.lists(FRACTION, min_size=1, max_size=4).map(tuple)
    return {int: st.integers(1, 64), float: FRACTION, bool: st.booleans()}[hint]


@st.composite
def flat_specs(draw, cls):
    hints = typing.get_type_hints(cls)
    values = {f.name: draw(value_strategy(f.name, hints[f.name]))
              for f in flat_fields(cls)}
    try:
        spec = cls(**values)
    except SpecError:
        assume(False)
    assume(spec != cls())
    return spec


def render_argv(spec) -> list[str]:
    """One flag per flat field that holds a value (profile's is positional)."""
    argv = [spec.kind]
    for f in flat_fields(type(spec)):
        value = getattr(spec, f.name)
        flag = "--" + f.name.replace("_", "-")
        if spec.kind == "profile" and f.name == "workload":
            argv.append(value)
        elif value is True:
            argv.append(flag)
        elif isinstance(value, tuple):
            argv += [flag, ",".join(str(v) for v in value)]
        elif value is not None and value is not False:
            argv += [flag, str(value)]
    return argv


class TestDerivedFlags:
    """Scenario flags are the spec's flat fields, one each, by construction."""

    @pytest.mark.parametrize("cls", SCENARIO_COMMANDS, ids=lambda c: c.kind)
    def test_one_flag_per_flat_field(self, cls, capsys):
        derived = {"--" + f.name.replace("_", "-") for f in flat_fields(cls)}
        if cls.kind == "profile":  # the workload is the positional app
            derived.remove("--workload")
        if cls.kind == "globe":  # sets every default region's rate_rps
            derived.add("--rate")
        assert usage_flags(cls.kind, capsys) == derived | COMMON_FLAGS
        assert all(f.metadata["help"] for f in flat_fields(cls))

    @pytest.mark.parametrize("cls", SCENARIO_COMMANDS, ids=lambda c: c.kind)
    def test_legacy_flags_kept_and_only_two_added(self, cls, capsys):
        added = usage_flags(cls.kind, capsys) - COMMON_FLAGS - set(
            LEGACY_FLAGS[cls.kind].split())
        assert added == {"globe": {"--knee"}, "llm": {"--kv-reserve-mib"}}.get(
            cls.kind, set())

    @pytest.mark.parametrize("cls", SCENARIO_COMMANDS, ids=lambda c: c.kind)
    def test_spec_argv_spec_round_trip(self, cls):
        @settings(max_examples=30, deadline=None)
        @given(spec=flat_specs(cls))
        def round_trip(spec):
            args = build_parser().parse_args(render_argv(spec))
            assert scenario_from_args(cls, args) == spec

        round_trip()

    def test_new_flags_reach_the_spec(self):
        from repro.api import GlobalScenario, LLMServeScenario

        parser = build_parser()
        llm = scenario_from_args(
            LLMServeScenario, parser.parse_args(["llm", "--kv-reserve-mib", "1"]))
        assert llm.kv_reserve_mib == 1.0
        globe = scenario_from_args(
            GlobalScenario, parser.parse_args(["globe", "--knee", "0.4,0.9"]))
        assert globe.knee == (0.4, 0.9)

    def test_bad_choice_lists_the_valid_ones(self, capsys):
        assert main(["serve", "--platform", "fpga"]) == 2
        assert "serve: platform must be one of cpu, gpu, tpu" in capsys.readouterr().err

    def test_config_rejects_scenario_flags(self, capsys):
        config = str(REPO / "examples" / "serve_scenario.json")
        assert main(["serve", "--config", config, "--replicas", "9"]) == 2
        err = capsys.readouterr().err
        assert "serve: --config cannot be combined with --replicas" in err
        assert main(["globe", "--config", config, "--rate", "5", "--bins", "3"]) == 2
        assert "--rate" in capsys.readouterr().err
        assert main(["profile", "mlp0", "--config", config]) == 2
        assert "cannot be combined with app" in capsys.readouterr().err

    def test_config_allows_output_and_trace_flags(self, tmp_path, capsys):
        config = tmp_path / "profile.json"
        config.write_text('{"kind": "profile", "workload": "mlp0"}')
        trace = tmp_path / "trace.json"
        assert main(["profile", "--config", str(config), "--json",
                     "--trace-out", str(trace)]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "profile"
        assert trace.exists()

    def test_list_names_every_scenario_command(self, capsys):
        assert main(["list"]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert "/".join(cls.kind for cls in SCENARIO_COMMANDS) in line

    def test_spec_import_stays_light(self):
        code = ("import sys, repro.api.spec; "
                "print(' '.join(m for m in sys.modules if m.startswith('repro')))")
        loaded = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, cwd=REPO, env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        ).stdout.split()
        assert "repro.nn" in loaded
        assert not [m for m in loaded if m.startswith(("repro.globe", "repro.serving"))]
