import ast
import copy
import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lproth import claims, cli, forms
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
        for p in (math.nan, math.inf, 0.5, -1.0):
            with pytest.raises(ConfigError, match="exponent must be finite and >= 1"):
                ExperimentConfig(suite="oscillatory", p=p).validate()

    @pytest.mark.parametrize("suite", ["oscillatory", "verify-all"])
    def test_unit_epsilon_exits_1(self, capsys, tmp_path, suite):
        # c1(1) = 1 cancels the kernel the multiplier audit transforms
        assert cli.main(["run", "--suite", suite, "--epsilon", "1",
                         "--out", str(tmp_path / "out")]) == 1
        assert "epsilon=1 leaves suite" in capsys.readouterr().err
        ExperimentConfig(suite="kernels", epsilon=1.0).validate()

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

    @pytest.mark.parametrize("argv", [
        ["--suite", "forms", "--p", "1e6"],
        ["--suite", "forms", "--p", "1e306"],  # the cell count overflows
        ["--suite", "forms", "--p", "512.5"],
        ["--suite", "verify-all", "--p", "600", "--grid-m", "1000000"],
    ])
    def test_oversized_forms_grid_exits_1(self, capsys, tmp_path, argv):
        # the forms grid has ceil(512 p) cells
        assert cli.main(["run", *argv, "--out", str(tmp_path / "out")]) == 1
        assert "the limit of 262144 cells" in capsys.readouterr().err

    def test_minimum_grid_accepted(self):
        ExperimentConfig(suite="gowers", grid_m=170).validate()
        ExperimentConfig(suite="gowers", p=5.0, grid_m=519).validate()
        ExperimentConfig(suite="forms", p=5.0, grid_m=1).validate()
        # the forms grid at its limit of 2**18 cells
        ExperimentConfig(suite="forms", p=512.0).validate()
        ExperimentConfig(suite="verify-all", p=512.0, grid_m=10**6).validate()

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
    float: st.one_of(st.sampled_from([1.0, 1.5, 2.0, 3.0, 0.05, 256.0, 512.0, 513.0, 1e6, 1e306]),
                     st.floats()),
    str: st.one_of(st.sampled_from(cli.SUITES + ("json", "csv")), st.text(max_size=6)),
}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validate_accepts_or_raises_config_error(data):
    # a suite plus up to three fields set to arbitrary values of their type,
    # NaN, +-inf, negative and zero included; validate is the one boundary check.
    # An accepted forms run builds at most the grid limit of cells.
    values = {"suite": data.draw(st.sampled_from(cli.SUITES))}
    for name in data.draw(st.sets(st.sampled_from(sorted(cli._FIELD_TYPES)), max_size=3)):
        values[name] = data.draw(_VALUES[cli._FIELD_TYPES[name]], label=name)
    cfg = ExperimentConfig(**values)
    try:
        cfg.validate()
    except ConfigError:
        return
    if cfg.suite in ("forms", "verify-all"):
        assert forms.resolved_grid(32.0, 2.0, 0.25, cfg.p)[0] <= 2**18


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

    def test_list_order(self, capsys):
        # the suites in run order, then verify-all, which runs them all
        assert cli.main(["list"]) == 0
        assert capsys.readouterr().out.split() == [
            "kernels", "gowers", "forms", "oscillatory", "counterexamples", "search", "verify-all"]

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
                            lambda cfg: ([Check("ok", "synthetic-pass", {}, None, True)], []))
        report, _, _ = run_suite(tiny_config(out_dir=str(tmp_path / "out")))
        fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert sorted(report["config"]) == sorted(fields)

    def test_failing_check_gives_exit_2(self, monkeypatch, tmp_path):
        def bad_suite(cfg):
            return [Check("always fails", "synthetic-failure", {}, None, False)], []

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

    def test_stationary_floor_at_p_1(self, tmp_path):
        # psi' = 1 + 1 - 1 - 1 vanishes identically at p = 1, as at p = 2
        cfg = ExperimentConfig(suite="oscillatory", p=1.0, kl_nodes=8, seed=7,
                               out_dir=str(tmp_path / "out"))
        report, _, _ = run_suite(cfg)
        rec = next(r for r in report["records"] if r["anchor"] == "stationary-lower-bound")
        assert rec["passed"] and rec["bound"] == 0.0
        assert rec["values"]["min_abs_dpsi"] == 0.0

    def test_forms_suite_off_the_quarter_grid(self, capsys, tmp_path):
        # at p = 1.2 the forms grid has 615 cells on [0, 32], so 8 is not a whole
        # number of cells; the translation check must still build its box
        assert cli.main(["run", "--suite", "forms", "--p", "1.2",
                         "--out", str(tmp_path / "out")]) == 0
        assert "fail: 0" in capsys.readouterr().out

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
            "summary": {"n_records": 1, "n_pass": 1, "n_fail": 0, "worst_margin": None,
                        "worst_record": None},
        }
        with pytest.raises(ValueError):
            lint_report(report)

    def test_lint_rejects_string_bound(self):
        report = {
            "format": 1, "config": {},
            "timing": {"timestamp": "x", "runtimes_s": {}},
            "records": [{"name": "a", "anchor": "a", "values": {}, "bound": "0.1",
                         "passed": True}],
            "summary": {"n_records": 1, "n_pass": 1, "n_fail": 0, "worst_margin": None,
                        "worst_record": None},
        }
        with pytest.raises(ValueError):
            lint_report(report)

    def test_lint_and_schema_require_worst_record(self):
        report = {
            "format": 1, "config": {},
            "timing": {"timestamp": "x", "runtimes_s": {}},
            "records": [{"name": "a", "anchor": "a", "values": {}, "bound": None,
                         "passed": True}],
            "summary": {"n_records": 1, "n_pass": 1, "n_fail": 0, "worst_margin": None,
                        "worst_record": None},
        }
        lint_report(report)
        jsonschema.validate(report, cli.REPORT_SCHEMA)
        del report["summary"]["worst_record"]
        with pytest.raises(ValueError, match="worst_record"):
            lint_report(report)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(report, cli.REPORT_SCHEMA)

    def test_malformed_record_exits_3(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setitem(cli._SUITE_FNS, "counterexamples",
                            lambda cfg: ([Check("x", "a", {}, "0.1", True)], []))
        out = tmp_path / "out"
        assert cli.main(["run", "--suite", "counterexamples", "--out", str(out)]) == 3
        assert "internal failure" in capsys.readouterr().err
        assert not out.exists()

    def test_numpy_values_written_as_plain_json(self, monkeypatch, tmp_path):
        values = {"ok": np.bool_(True), "n": np.int64(3), "v": np.arange(2.0)}
        monkeypatch.setitem(cli._SUITE_FNS, "counterexamples",
                            lambda cfg: ([Check("x", "a", values, np.float32(0.5), True)], []))
        out = tmp_path / "out"
        assert cli.main(["run", "--suite", "counterexamples", "--out", str(out)]) == 0
        rec = json.loads((out / "report.json").read_text())["records"][0]
        assert rec["values"] == {"ok": True, "n": 3, "v": [0.0, 1.0]} and rec["bound"] == 0.5

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
        # the claims the gate measures at 1e4 points and 100 frequencies
        assert recs["phase-quadratic-degeneracy"]["values"]["points"] == 50
        assert recs["multiplier-scale-uniformity"]["values"]["frequencies"] == 100
        assert recs["multiplier-scale-uniformity"]["bound"] == 2.0


def _round_trip(report):
    return json.loads(json.dumps(report, default=cli._json_default))


@pytest.fixture(scope="module")
def verify_all_run():
    return run_suite(tiny_config("verify-all"))


@pytest.fixture(scope="module")
def verify_all_report(verify_all_run):
    return verify_all_run[0]


def test_each_suite_is_its_slice_of_verify_all(verify_all_run):
    # suites share no state, so each one alone gives its records and curves in verify-all
    def canon(x):
        return json.dumps(x, sort_keys=True, default=cli._json_default)

    report, curves, _ = verify_all_run
    n_rec = n_curve = 0
    for suite in cli._SUITE_FNS:
        alone, alone_curves, _ = run_suite(tiny_config(suite))
        assert alone["records"], suite
        part = report["records"][n_rec:n_rec + len(alone["records"])]
        assert canon(part) == canon(alone["records"]), suite
        part = curves[n_curve:n_curve + len(alone_curves)]
        assert canon(part) == canon(alone_curves), suite
        n_rec += len(alone["records"])
        n_curve += len(alone_curves)
    assert (n_rec, n_curve) == (len(report["records"]), len(curves))


_DROP = object()
# replacements for one report field: blank strings, non-numbers, bools (which JSON
# does not count as numbers), NaN, numpy scalars, tuples and short lists
_REPLACEMENTS = st.one_of(
    st.just(_DROP),
    st.sampled_from(["", " ", "\t \n", "0.1", "a", True, False, None, math.nan, 0.25, 3, {},
                     {"x": 1}, np.float64(0.5), np.int64(2), np.float64(math.nan), (0.1, 0.2),
                     (np.float32(0.1), np.int8(2)), [None, 1.0]]),
    st.lists(st.floats() | st.integers() | st.booleans(), min_size=1, max_size=3),
)


class TestReportContract:
    """The published schema holds for every suite, and the run-time lint rejects
    what it rejects in the fields that depend on what ran."""

    @pytest.mark.parametrize("suite", [s for s in cli.SUITES if s != "verify-all"])
    def test_suite_report_matches_schema(self, suite):
        jsonschema.validate(_round_trip(run_suite(tiny_config(suite))[0]), cli.REPORT_SCHEMA)

    def test_verify_all_report_matches_schema(self, verify_all_report):
        jsonschema.validate(_round_trip(verify_all_report), cli.REPORT_SCHEMA)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_lint_rejects_what_the_schema_rejects(self, verify_all_report, data):
        report = verify_all_report
        index, key = data.draw(st.one_of(
            st.tuples(st.integers(0, len(report["records"]) - 1),
                      st.sampled_from(["name", "anchor", "values", "bound", "passed"])),
            st.tuples(st.none(), st.sampled_from(["worst_margin", "worst_record"]))))
        value = data.draw(_REPLACEMENTS)
        mutated = dict(report, records=list(report["records"]), summary=dict(report["summary"]))
        target = mutated["summary"]
        if index is not None:
            target = mutated["records"][index] = dict(report["records"][index])
        if value is _DROP:
            del target[key]
        else:
            target[key] = value
        try:
            jsonschema.validate(_round_trip(mutated), cli.REPORT_SCHEMA)
            rejected = key == "anchor" and isinstance(value, str) and not value.strip()
        except jsonschema.ValidationError:
            rejected = True
        if rejected:
            with pytest.raises(ValueError):
                lint_report(mutated)
        else:
            lint_report(mutated)


def _packages_after_kernels_run(tmp_path):
    """Top-level packages in sys.modules after a fresh interpreter runs the kernels suite.

    numpy 2 loads numpy.ma on the first np.unique or np.union1d, about 18 ms of a cold run.
    """
    code = ("import sys; from lproth import cli; "
            f"code = cli.main(['run', '--suite', 'kernels', '--out', {str(tmp_path / 'out')!r}]); "
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'; "
            "print(code, sorted({m.split('.')[0] for m in sys.modules}))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    code, packages = run.stdout.splitlines()[-1].split(" ", 1)
    assert code == "0"
    return ast.literal_eval(packages)


def test_run_does_not_import_jsonschema(tmp_path):
    assert "jsonschema" not in _packages_after_kernels_run(tmp_path)


def test_run_does_not_import_scipy(tmp_path):
    assert "scipy" not in _packages_after_kernels_run(tmp_path)


def test_package_source_imports_no_scipy():
    # scipy is a test dependency only; a lazy import inside a function would also count
    hits = []
    for path in sorted(Path(cli.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            hits += [f"{path.name}:{node.lineno}" for name in names
                     if name.split(".")[0] == "scipy"]
    assert not hits


def test_every_public_claim_is_reported():
    # a claim that only the acceptance gate measures would split the CLI and the gate again
    tree = ast.parse(Path(claims.__file__).read_text())
    public = {node.name: node for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    suites = {fn.__name__ for fn in cli._SUITE_FNS.values()}
    assert suites <= set(public)
    reported = {node.func.id for name in suites for node in ast.walk(public[name])
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert set(public) - {"check"} - suites - reported == set()


# reference implementations that only the tests evaluate, against the paths the program runs
_TEST_ORACLES = {"i_of_t_lattice", "kernel_mass_mc", "shell_mc_quadrature", "sigma_total_mass",
                 "unit_ball_volume_mc"}

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE = sorted((_ROOT / "src" / "lproth").glob("*.py"))
# the package, the scripts and the benchmark harness, but no test
_PROGRAM = [*_PACKAGE, *(_ROOT / "scripts").glob("*.py"),
            *(p for p in (_ROOT / "bench").glob("*.py") if not p.name.startswith("test_"))]


def _program_nodes():
    return [node for path in _PROGRAM for node in ast.walk(ast.parse(path.read_text()))]


def _package_classes():
    """(module.Class, class node) for every class at the top level of the package."""
    return [(f"{path.stem}.{node.name}", node) for path in _PACKAGE
            for node in ast.parse(path.read_text()).body if isinstance(node, ast.ClassDef)]


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in cls.decorator_list)


def test_every_public_function_is_used_by_the_program():
    # a helper that only its own tests call is code nothing needs
    # a call, or a reference such as the suites held by cli._SUITE_FNS
    used = set()
    for node in _program_nodes():
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    public = {f"{path.stem}.{node.name}" for path in _PACKAGE
              for node in ast.parse(path.read_text()).body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    unused = {name for name in public if name.split(".")[1] not in used | _TEST_ORACLES}
    assert unused == set()


def test_every_public_method_is_used_by_the_program():
    # by name, so a method shares its use with any attribute of the same name
    used = {node.attr for node in _program_nodes() if isinstance(node, ast.Attribute)}
    unused = {f"{name}.{node.name}" for name, cls in _package_classes() for node in cls.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
              and node.name not in used}
    assert unused == set()


def test_every_result_field_is_read_by_the_program():
    # a field that nothing reads is a result nobody looks at; matched by name, as above
    read = {node.attr for node in _program_nodes()
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = {f"{name}.{node.target.id}" for name, cls in _package_classes() if _is_dataclass(cls)
              for node in cls.body if isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name) and not node.target.id.startswith("_")
              and node.target.id not in read}
    assert unread == set()


def _passed(call: ast.Call, fn: ast.FunctionDef, is_method: bool) -> set:
    """The parameters of fn that a call passes, by keyword or by position."""
    positional = [a.arg for a in fn.args.posonlyargs + fn.args.args][1 if is_method else 0:]
    if (any(isinstance(a, ast.Starred) for a in call.args)
            or any(kw.arg is None for kw in call.keywords)):  # *args or **kwargs may pass any
        return set(positional) | {a.arg for a in fn.args.kwonlyargs}
    return set(positional[:len(call.args)]) | {kw.arg for kw in call.keywords}


def test_every_defaulted_parameter_is_set_by_the_program():
    # a default that only the tests override selects a path nothing runs; matched by name
    calls = {}
    for node in _program_nodes():
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            calls.setdefault(name, []).append(node)
    fns = [(f"{path.stem}.{node.name}", node, False) for path in _PACKAGE
           for node in ast.parse(path.read_text()).body
           if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
           and node.name not in _TEST_ORACLES]
    fns += [(f"{name}.{node.name}", node, True) for name, cls in _package_classes()
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    unset = set()
    for name, fn, is_method in fns:
        args = fn.args
        positional = args.posonlyargs + args.args
        defaulted = [a.arg for a in positional[len(positional) - len(args.defaults):]]
        defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        passed = set().union(*(_passed(c, fn, is_method) for c in calls.get(fn.name, [])))
        unset |= {f"{name}({arg})" for arg in defaulted if arg not in passed}
    assert unset == set()
