import copy
import csv
import dataclasses
import json
import math
import re

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lproth import cli
from lproth.claims import Check, check
from lproth.cli import (
    ConfigError,
    ExperimentConfig,
    emit_csv,
    lint_report,
    parse_config,
    read_config_file,
    run_suite,
    write_report_atomic,
)


class TestConfigParsing:
    def test_basic_flags(self):
        cmd, cfg = parse_config(["run", "--suite", "kernels", "--p", "1.5", "--d", "2",
                                 "--epsilon", "0.05", "--seed", "7"])
        assert cmd == "run"
        assert cfg.suite == "kernels" and cfg.p == 1.5 and cfg.d == 2
        assert cfg.epsilon == 0.05 and cfg.seed == 7

    def test_missing_suite(self):
        with pytest.raises(ConfigError):
            parse_config(["run", "--p", "1.5"])

    def test_degenerate_p_rejected_by_search(self):
        with pytest.raises(ConfigError):
            parse_config(["run", "--suite", "search", "--p", "2"])

    def test_degenerate_p_allowed_by_oscillatory(self):
        _, cfg = parse_config(["run", "--suite", "oscillatory", "--p", "2"])
        assert cfg.p == 2.0

    def test_config_file_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# comment\np = 3.0\nseed = 11\n")
        _, cfg = parse_config(["run", "--suite", "forms", "--config", str(path)])
        assert cfg.p == 3.0 and cfg.seed == 11

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("p = 3.0\n")
        _, cfg = parse_config(["run", "--suite", "forms", "--config", str(path),
                               "--p", "1.25"])
        assert cfg.p == 1.25

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("banana = 2\n")
        with pytest.raises(ConfigError):
            read_config_file(str(path))

    def test_out_of_range_values(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(suite="forms", epsilon=2.0).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(suite="forms", d=11).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(suite="nope").validate()

    def test_usage_exit_code(self, capsys):
        assert cli.main(["run"]) == 1
        assert cli.main(["bogus"]) == 1

    def test_unsupported_dimension_exits_1(self, capsys, tmp_path):
        # the kernels suite, the only reader of d, runs d in {1, 2}
        assert cli.main(["run", "--suite", "kernels", "--d", "3",
                         "--out", str(tmp_path / "out")]) == 1
        assert "d out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--trials", "--quad-nodes", "--kl-nodes",
                                      "--spectrum-hits", "--search-budget", "--grid-m"])
    def test_zero_count_exits_1(self, capsys, tmp_path, flag):
        assert cli.main(["run", "--suite", "forms", flag, "0",
                         "--out", str(tmp_path / "out")]) == 1
        assert "must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, minimum", [
        (["--suite", "gowers", "--p", "5"], 519),
        (["--suite", "gowers", "--grid-m", "1"], 170),
        (["--suite", "verify-all", "--grid-m", "169"], 170),
    ])
    def test_under_resolved_grid_exits_1(self, capsys, tmp_path, argv, minimum):
        # the eta = 0.025 shell needs grid_m >= 100 p 1.2^(1/p)
        assert cli.main(["run", *argv, "--out", str(tmp_path / "out")]) == 1
        assert f"the minimum is grid_m={minimum}" in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["1e30", "1e306"])
    def test_unresolvable_shell_exits_1(self, capsys, tmp_path, p):
        # the grid the shell needs exceeds 2**53 cells (1e30) or overflows (1e306)
        assert cli.main(["run", "--suite", "gowers", "--p", p,
                         "--out", str(tmp_path / "out")]) == 1
        assert "needs more than 2**53 cells" in capsys.readouterr().err

    def test_minimum_grid_accepted(self):
        ExperimentConfig(suite="gowers", grid_m=170).validate()
        ExperimentConfig(suite="gowers", p=5.0, grid_m=519).validate()
        ExperimentConfig(suite="forms", p=5.0, grid_m=1).validate()

    def test_negative_seed_exits_1(self, capsys, tmp_path):
        assert cli.main(["run", "--suite", "forms", "--seed", "-1",
                         "--out", str(tmp_path / "out")]) == 1
        assert "seed must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["empty", "file"])
    def test_unusable_output_directory_exits_1(self, capsys, tmp_path, kind):
        out = ""
        if kind == "file":
            out = str(tmp_path / "taken")
            open(out, "w").close()
        assert cli.main(["run", "--suite", "forms", "--out", out]) == 1
        assert "output directory is not usable" in capsys.readouterr().err

    @pytest.mark.parametrize("values", [{"trials": math.nan, "seed": math.nan}, {"seed": 7.0},
                                        {"quad_nodes": 2.5}, {"grid_m": "512"}, {"d": 1.0}])
    def test_non_integer_field_rejected(self, values):
        with pytest.raises(ConfigError, match="must be an integer"):
            ExperimentConfig(suite="forms", **values).validate()

    def test_config_file_types_follow_fields(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("d = 2\nepsilon = 0.1\nfmt = csv\n")
        values = read_config_file(str(path))
        assert values == {"d": 2, "epsilon": 0.1, "fmt": "csv"}
        assert type(values["d"]) is int and type(values["epsilon"]) is float
        path.write_text("trials = 2.5\n")
        with pytest.raises(ConfigError):
            read_config_file(str(path))


# every run flag besides --config and --help, with the field it sets and a valid value
RUN_FLAGS = {
    "--suite": ("suite", "forms"), "--p": ("p", 3.0), "--d": ("d", 2),
    "--epsilon": ("epsilon", 0.1), "--seed": ("seed", 3), "--out": ("out_dir", "elsewhere"),
    "--format": ("fmt", "csv"), "--quad-nodes": ("quad_nodes", 64),
    "--kl-nodes": ("kl_nodes", 5), "--spectrum-hits": ("spectrum_hits", 9),
    "--search-budget": ("search_budget", 99), "--trials": ("trials", 2),
    "--grid-m": ("grid_m", 600),
}


class TestFlagsFromFields:
    def test_run_flags_map_one_to_one_onto_fields(self, capsys):
        assert cli.main(["run", "--help"]) == 0
        flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert flags == set(RUN_FLAGS) | {"--config", "--help"}
        fields = [field for field, _ in RUN_FLAGS.values()]
        assert sorted(fields) == sorted(f.name for f in dataclasses.fields(ExperimentConfig))
        argv = ["run"]
        for flag, (_, value) in RUN_FLAGS.items():
            argv += [flag, str(value)]
        _, cfg = parse_config(argv)
        assert dataclasses.asdict(cfg) == dict(RUN_FLAGS.values())

    @pytest.mark.parametrize("argv", [["--suite", "nope"], ["--suite", "forms", "--format", "xml"]])
    def test_bad_choice_exits_1(self, capsys, tmp_path, argv):
        assert cli.main(["run", *argv, "--out", str(tmp_path / "out")]) == 1
        assert "unknown" in capsys.readouterr().err


_VALUES = {
    int: st.one_of(st.integers(min_value=-2, max_value=600), st.integers()),
    float: st.one_of(st.sampled_from([1.0, 1.5, 2.0, 3.0, 0.05]), st.floats()),
    str: st.one_of(st.sampled_from(cli.SUITES + ("json", "csv")), st.text(max_size=6)),
}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validate_accepts_or_raises_config_error(data):
    # a suite plus up to three fields set to arbitrary values of their type,
    # NaN, +-inf, negative and zero included; validate is the one boundary check
    values = {"suite": data.draw(st.sampled_from(cli.SUITES))}
    for name in data.draw(st.sets(st.sampled_from(sorted(cli._FIELD_TYPES)), max_size=3)):
        values[name] = data.draw(_VALUES[cli._FIELD_TYPES[name]], label=name)
    try:
        ExperimentConfig(**values).validate()
    except ConfigError:
        pass


class TestCheckRule:
    @pytest.mark.parametrize("op, below, at, above", [
        ("<", True, False, False),
        ("<=", True, True, False),
        (">", False, False, True),
        (">=", False, True, True),
        ("==", False, True, False),
    ])
    def test_verdict_follows_reported_bound(self, op, below, at, above):
        for x, want in ((1.5, below), (2.0, at), (2.5, above)):
            chk = check("c", "a", {}, x, op, 2.0)
            assert chk.bound == 2.0 and chk.passed is want

    def test_closed_band(self):
        for x, want in ((0.5, False), (1.0, True), (2.0, True), (3.0, True), (3.5, False)):
            chk = check("c", "a", {}, x, "in", [1.0, 3.0])
            assert chk.bound == [1.0, 3.0] and chk.passed is want

    def test_relative_margins(self):
        assert check("c", "a", {}, 1.5, "<", 2.0).margin == 0.25
        assert check("c", "a", {}, 2.5, ">=", 2.0).margin == 0.25
        assert check("c", "a", {}, 0.0, ">=", -0.02).margin == 1.0
        assert check("c", "a", {}, 3.0, "<=", 2.0).margin == -0.5
        assert check("c", "a", {}, 1.5, "in", [1.0, 3.0]).margin == 0.25

    def test_no_margin_without_scale(self):
        for op, bound in (("==", 0.0), ("==", 1.0), (">", 0.0), ("<", 0.0)):
            assert math.isnan(check("c", "a", {}, 0.5, op, bound).margin)

    def test_failed_precondition_fails_the_check(self):
        chk = check("c", "a", {}, 0.1, "<=", 0.2, requires=False)
        assert not chk.passed and math.isnan(chk.margin)


class TestListAndSchema:
    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert "verify-all" in out and "kernels" in out

    def test_schema_is_json(self, capsys):
        assert cli.main(["schema"]) == 0
        schema = json.loads(capsys.readouterr().out)
        assert schema["properties"]["format"]["const"] == 1


def tiny_config(suite="counterexamples", **kw):
    base = dict(suite=suite, p=1.5, d=1, seed=7, spectrum_hits=400,
                search_budget=3 * 10**4, trials=4, quad_nodes=512)
    base.update(kw)
    return ExperimentConfig(**base)


class TestRunSuite:
    def test_counterexample_suite_passes(self, tmp_path):
        cfg = tiny_config(out_dir=str(tmp_path / "out"))
        report, curves, code = run_suite(cfg)
        assert code == 0
        assert report["summary"]["n_fail"] == 0
        assert report["summary"]["n_records"] >= 6
        lint_report(json.loads(json.dumps(report, default=cli._json_default)))

    def test_report_written_and_csv_emitted(self, tmp_path):
        cfg = tiny_config(out_dir=str(tmp_path / "out"))
        report, curves, _ = run_suite(cfg)
        path = write_report_atomic(report, cfg.out_dir)
        files = emit_csv(curves, cfg.out_dir)
        assert json.load(open(path))["format"] == 1
        assert files
        text = open(files[0], "rb").read().decode()
        assert "\r" not in text
        header, first = text.splitlines()[:2]
        assert "," in header
        assert "e" in first.split(",")[0]  # full-precision scientific notation

    def test_determinism_modulo_timing(self, tmp_path):
        cfg1 = tiny_config(out_dir=str(tmp_path / "a"))
        cfg2 = tiny_config(out_dir=str(tmp_path / "b"))
        r1, _, _ = run_suite(cfg1)
        r2, _, _ = run_suite(cfg2)
        m1, m2 = copy.deepcopy(r1), copy.deepcopy(r2)
        m1.pop("timing"), m2.pop("timing")
        m1["config"].pop("out_dir"), m2["config"].pop("out_dir")
        s1 = json.dumps(m1, sort_keys=True, default=cli._json_default)
        s2 = json.dumps(m2, sort_keys=True, default=cli._json_default)
        assert s1 == s2

    def test_config_echo_is_exactly_the_fields(self, monkeypatch, tmp_path):
        # the echo states the knobs that ran, and nothing that limits nothing
        monkeypatch.setitem(cli._SUITE_FNS, "counterexamples",
                            lambda ctx: [Check("ok", "synthetic-pass", {}, None, True)])
        report, _, _ = run_suite(tiny_config(out_dir=str(tmp_path / "out")))
        fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert sorted(report["config"]) == sorted(fields)

    def test_failing_check_gives_exit_2(self, monkeypatch, tmp_path):
        def bad_suite(ctx):
            return [Check("always fails", "synthetic-failure", {}, None, False)]

        monkeypatch.setitem(cli._SUITE_FNS, "counterexamples", bad_suite)
        cfg = tiny_config(out_dir=str(tmp_path / "out"))
        report, _, code = run_suite(cfg)
        assert code == 2
        assert report["summary"]["n_fail"] == 1

    def test_degenerate_oscillatory_suite_passes(self, tmp_path):
        cfg = ExperimentConfig(suite="oscillatory", p=2.0, kl_nodes=8, seed=7,
                               out_dir=str(tmp_path / "out"))
        cfg.validate()
        report, _, code = run_suite(cfg)
        assert code == 0
        rec = next(r for r in report["records"] if r["anchor"] == "decay-envelope")
        assert rec["passed"]  # no-decay branch of the dichotomy

    def test_csv_report_format(self, tmp_path):
        cfg = tiny_config(out_dir=str(tmp_path / "out"), fmt="csv")
        report, _, _ = run_suite(cfg)
        path = write_report_atomic(report, cfg.out_dir, fmt="csv")
        lines = open(path).read().splitlines()
        assert lines[0] == "name,anchor,passed,bound,values"
        assert len(lines) == 1 + report["summary"]["n_records"]

    def test_lint_rejects_anchorless_records(self):
        report = {
            "format": 1, "config": {},
            "timing": {"timestamp": "x", "runtimes_s": {}},
            "records": [{"name": "a", "anchor": " ", "values": {}, "bound": None,
                         "passed": True}],
            "summary": {"n_records": 1, "n_pass": 1, "n_fail": 0, "worst_margin": None},
        }
        with pytest.raises(ValueError):
            lint_report(report)

    def test_lint_rejects_string_bound(self):
        report = {
            "format": 1, "config": {},
            "timing": {"timestamp": "x", "runtimes_s": {}},
            "records": [{"name": "a", "anchor": "a", "values": {}, "bound": "0.1",
                         "passed": True}],
            "summary": {"n_records": 1, "n_pass": 1, "n_fail": 0, "worst_margin": None},
        }
        with pytest.raises(jsonschema.ValidationError):
            lint_report(report)

    def test_csv_report_parses_with_five_fields(self, tmp_path):
        # the counterexamples suite reports band bounds such as [0.15, 0.35]
        cfg = tiny_config(out_dir=str(tmp_path / "out"), fmt="csv")
        report, _, _ = run_suite(cfg)
        path = write_report_atomic(report, cfg.out_dir, fmt="csv")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["name", "anchor", "passed", "bound", "values"]
        assert [len(r) for r in rows] == [5] * (1 + len(report["records"]))
        assert any(isinstance(rec["bound"], list) for rec in report["records"])
        for row, rec in zip(rows[1:], report["records"]):
            assert row[0] == rec["name"] and row[1] == rec["anchor"]
            assert json.loads(row[3]) == rec["bound"]
            assert json.loads(row[4]) == json.loads(json.dumps(rec["values"],
                                                               default=cli._json_default))

    def test_worst_margin_is_relative_and_named(self, tmp_path):
        # the kernels suite has exact-zero checks (kernel-reflection-invariance),
        # which have no margin, so a clean run reports positive slack
        report, _, code = run_suite(tiny_config("kernels", out_dir=str(tmp_path / "out")))
        summary = report["summary"]
        assert code == 0
        assert 0.0 < summary["worst_margin"] <= 1.0
        assert summary["worst_record"] in [r["name"] for r in report["records"]]

    def test_degenerate_checks_report_the_rule_that_ran(self, tmp_path):
        cfg = ExperimentConfig(suite="oscillatory", p=2.0, kl_nodes=8, seed=7,
                               out_dir=str(tmp_path / "out"))
        report, _, code = run_suite(cfg)
        recs = {r["anchor"]: r for r in report["records"]}
        assert code == 0
        assert recs["decay-envelope"]["bound"] == -0.02
        assert recs["decay-envelope"]["values"]["slope"] >= -0.02
        assert recs["stationary-lower-bound"]["bound"] == 0.0
        assert report["summary"]["worst_margin"] >= 0.0
