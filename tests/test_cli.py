"""CLI smoke tests."""

import dataclasses
import json
import re

import pytest

from repro.__main__ import build_parser, main, scenario_from_args
from repro.api import (
    DatacenterScenario,
    GlobalScenario,
    LLMServeScenario,
    ProfileScenario,
    ServeScenario,
)


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


SCENARIOS = [ProfileScenario, ServeScenario, DatacenterScenario, GlobalScenario,
             LLMServeScenario]
#: Nested fields (the globe's region tree and RTT triples) are config-only.
CONFIG_ONLY = {"regions", "rtt_ms"}
#: Flags every scenario command has that set no field.
COMMON_FLAGS = {"--help", "--config", "--json", "--trace-out", "--profile"}
#: Fields whose non-default value only validates alongside another field's.
REQUIRES = {"autoscale": ("mode", "disaggregated"), "backend": ("duration_s", 1.0)}
#: Valid non-default values the generic rule in ``other_value`` cannot make.
SPECIAL = {"workload": "bert_s", "routing": "cost", "knee": "0.4,0.9", "pue": "2"}


def build(argv):
    return scenario_from_args(build_parser().parse_args(argv))


def flag(name):
    return "--" + name.replace("_", "-")


def other_value(field):
    """CLI tokens that set ``field`` to a valid value other than its default."""
    if field.name in SPECIAL:
        return [SPECIAL[field.name]]
    default = field.default
    choices = field.metadata["choices"]
    if choices:
        return [str(next(c for c in choices if c != default))]
    if isinstance(default, bool):
        return []
    if default is None:
        return ["4"]
    if isinstance(default, tuple):
        return [str(default[0])]
    if isinstance(default, int):
        return [str(default + 1)]
    return [str(default / 2)]


def flag_fields(cls):
    return [f for f in dataclasses.fields(cls) if f.name not in CONFIG_ONLY]


@pytest.mark.parametrize("cls", SCENARIOS, ids=lambda cls: cls.kind)
class TestFlagsFromSpecs:
    """Each scenario command's flags are its spec's fields, one to one."""

    def test_help_lists_a_flag_per_field_and_no_other(self, cls, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([cls.kind, "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        shown = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out))
        fields = {flag(f.name) for f in flag_fields(cls)}
        if cls is ProfileScenario:
            fields.remove("--workload")  # positional: `repro profile mlp0`
            assert "positional arguments:\n  workload" in out
        assert fields <= shown
        cli_only = {"--rate"} if cls is GlobalScenario else set()
        assert shown - fields - COMMON_FLAGS == cli_only

    def test_no_flags_builds_the_default_spec(self, cls):
        argv = [cls.kind, "mlp0"] if cls is ProfileScenario else [cls.kind]
        assert build(argv) == cls()

    def test_each_flag_changes_its_field_only(self, cls):
        for field in flag_fields(cls):
            context = dict([REQUIRES[field.name]]) if field.name in REQUIRES else {}
            base = cls(**context)
            argv = [cls.kind]
            for name, value in context.items():
                argv += [flag(name), str(value)]
            if cls is ProfileScenario and field.name == "workload":
                argv += other_value(field)
            else:
                if cls is ProfileScenario:
                    argv.append(base.workload)
                argv += [flag(field.name), *other_value(field)]
            spec = build(argv)
            changed = [f.name for f in dataclasses.fields(cls)
                       if getattr(spec, f.name) != getattr(base, f.name)]
            assert changed == [field.name], argv


class TestCommaLists:
    """Every tuple flag parses the same way."""

    @pytest.mark.parametrize("argv, field, value", [
        (["serve", "--loads", "0.5,"], "loads", (0.5,)),
        (["llm", "--loads", "0.5,,0.9"], "loads", (0.5, 0.9)),
        (["datacenter", "--platforms", "cpu, tpu,"], "platforms", ("cpu", "tpu")),
        (["globe", "--knee", "0.4,0.9,"], "knee", (0.4, 0.9)),
    ])
    def test_empty_items_are_skipped(self, argv, field, value):
        assert getattr(build(argv), field) == value

    @pytest.mark.parametrize("argv", [
        ["serve", "--loads", "abc"],
        ["llm", "--loads", "0.5,x"],
        ["globe", "--knee", "0.4,hi"],
    ])
    def test_an_item_that_does_not_parse_names_the_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"argument {argv[1]}: invalid" in capsys.readouterr().err
