import contextlib
import csv
import io
import itertools
import json
import math
import re
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contmeas import cli
from contmeas.cli import _parse_times, build_parser, main
from contmeas.engine import _draw_paths, consistency_checks, format_outcomes
from contmeas.model import TimeGrid, builtin_scenario, random_model, serialize_model


def run_cli(args):
    return main([str(a) for a in args])


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


class TestScenarioList:
    def test_lists_names(self, capsys):
        assert run_cli(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("identity", "qubit-projective", "damped-qubit"):
            assert name in out


class TestValidate:
    def test_good_scenario(self):
        assert run_cli(["validate", "--scenario", "qubit-projective"]) == 0

    def test_incomplete_instrument_names_culprit(self, tmp_path, capsys):
        doc = json.loads(serialize_model(builtin_scenario("identity")))
        doc["instruments"] = {"0": doc["instruments"]["0"], "1": doc["instruments"]["0"]}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(["validate", "--model", bad]) == 1
        err = capsys.readouterr().err
        assert "completeness" in err
        assert "1.414" in err  # the sqrt(2) residual is reported numerically

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["validate", "--model", bad]) == 1

    @pytest.mark.parametrize("command", ["validate", "check"])
    @pytest.mark.parametrize(
        "content", [b"\xff\xfe{}", b"[" * 100_000], ids=["not-utf-8", "nested-too-deep"]
    )
    def test_undecodable_or_too_nested_exit_1(self, tmp_path, capsys, command, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        out = ["--out", tmp_path / "o"] if command == "check" else []
        assert run_cli([command, "--model", bad, *out]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid model document: ")

    @pytest.mark.parametrize("command", ["validate", "check"])
    @pytest.mark.parametrize("digits", [400, 5000])
    def test_integer_too_large_exit_1(self, tmp_path, capsys, command, digits):
        # "p": 1 followed by 400 zeros does not fit a float; 5000 zeros is
        # more digits than int() reads
        text = serialize_model(builtin_scenario("qubit-projective"))
        bad = tmp_path / "bad.json"
        bad.write_text(text.replace('"p": 0.5', '"p": 1' + "0" * digits, 1))
        out = ["--out", tmp_path / "o"] if command == "check" else []
        assert run_cli([command, "--model", bad, *out]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: invalid model document: ")
        if digits == 400:
            assert err[0].endswith("ensemble[0].p: an integer too large for a float")

    @pytest.mark.parametrize("name", ["prior:nonnegative", "state[0]:psd"])
    def test_nan_input_fails_its_check(self, tmp_path, capsys, name):
        # the builtin max(0.0, nan) is 0.0, and LAPACK finds finite
        # eigenvalues of a matrix with a NaN on its diagonal: neither may
        # pass a NaN prior or state entry
        doc = json.loads(serialize_model(builtin_scenario("qubit-projective")))
        if name == "prior:nonnegative":
            doc["ensemble"][0]["p"] = math.nan
        else:
            doc["ensemble"][0]["state"][0][0][0] = math.nan
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(["validate", "--model", bad]) == 1
        lines = [line for line in capsys.readouterr().err.splitlines() if f" {name}: " in line]
        assert len(lines) == 1 and lines[0].startswith(f"[FAIL] {name}: margin nan")

    def test_missing_file(self, tmp_path):
        assert run_cli(["validate", "--model", tmp_path / "absent.json"]) == 3

    def test_model_and_scenario_exclusive(self, tmp_path):
        assert run_cli(["validate", "--scenario", "identity", "--model", "x"]) == 3

    def test_negative_seed_exit_3(self, capsys):
        assert run_cli(["validate", "--scenario", "pure-preserving-random", "--seed", "-5"]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: --seed must be non-negative, got -5"]


class TestCheck:
    def test_identity_all_zero(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            ["check", "--scenario", "identity", "--horizon", "3", "--out", out]
        )
        assert code == 0
        report = read_report(out)
        for entry in report["Ic"].values():
            assert abs(entry["value"]) <= 1e-9
        assert (out / "bounds.csv").exists()

    def test_projective_saturation_row(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            [
                "check",
                "--scenario",
                "qubit-projective",
                "--horizon",
                "2",
                "--grid",
                "0,1,2",
                "--out",
                out,
            ]
        )
        assert code == 0
        rows = (out / "bounds.csv").read_text().strip().splitlines()
        b3 = [r for r in rows if r.startswith('B3,"1,2"')]
        assert len(b3) == 1
        margin = float(b3[0].rsplit(",", 2)[1])
        assert abs(margin) <= 1e-9

    def test_incomplete_instrument_exit_1(self, tmp_path, capsys):
        doc = json.loads(serialize_model(builtin_scenario("identity")))
        doc["instruments"] = {"0": doc["instruments"]["0"], "1": doc["instruments"]["0"]}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(["check", "--model", bad, "--out", tmp_path / "o"]) == 1
        assert "completeness" in capsys.readouterr().err

    def test_budget_exceeded_exit_3(self, tmp_path):
        code = run_cli(
            [
                "check",
                "--scenario",
                "qubit-projective",
                "--horizon",
                "25",
                "--grid",
                "0,25",
                "--out",
                tmp_path / "o",
            ]
        )
        assert code == 3

    def test_refused_before_report_builder(self, tmp_path, capsys, monkeypatch):
        # refused before the builder makes its O(|grid|^3) keys: 2 x 2**120
        # leaves, 121 record times, too many leaves to key; and two samples
        # on 401 record times, 11,069,605 report entries and about 1.1e9
        # bound rows
        def unbuilt(*args, **kwargs):
            raise AssertionError("the report builder was built")

        monkeypatch.setattr(cli, "EntropyReportBuilder", unbuilt)
        cases = [
            (["--scenario", "qubit-weak", "--horizon", "120"], "enumeration"),
            (
                ["--scenario", "damped-qubit", "--horizon", "400", "--mode", "sample"]
                + ["--samples", "2"],
                "report",
            ),
        ]
        for args, refused in cases:
            assert run_cli(["check", *args, "--out", tmp_path / "o"]) == 3
            err = capsys.readouterr().err.strip().splitlines()
            assert err[-1].startswith(f"error: {refused} refused: ")
            assert sum(line.startswith("error:") for line in err) == 1

    def test_table_keys_overflow_exit_3(self, tmp_path, capsys):
        # 2 x 2**62 leaves: too many to key the consistency tables in int64
        args = ["check", "--scenario", "qubit-projective", "--horizon", "62", "--grid", "0,62"]
        assert run_cli([*args, "--out", tmp_path / "o"]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("error: enumeration refused: ") and len(err) == 2

    def test_negative_tolerance_forces_exit_2(self, tmp_path):
        # saturated margins sit at 0; demanding margin >= 1e-3 must fail
        code = run_cli(
            [
                "check",
                "--scenario",
                "qubit-projective",
                "--horizon",
                "2",
                "--tol=-1e-3",
                "--out",
                tmp_path / "o",
            ]
        )
        assert code == 2

    def test_horizon_override_rejected_for_per_step_models(self, tmp_path):
        doc = json.loads(serialize_model(builtin_scenario("qubit-projective", horizon=2)))
        doc["instruments"] = [doc["instruments"], doc["instruments"]]
        path = tmp_path / "scheduled.json"
        path.write_text(json.dumps(doc))
        code = run_cli(
            ["check", "--model", path, "--horizon", "4", "--out", tmp_path / "o"]
        )
        assert code == 3

    def test_horizon_override_of_model_file(self, tmp_path):
        # a one-instrument model file lengthened by --horizon reports what
        # the scenario built at that horizon reports
        path = tmp_path / "qubit-weak-h2.json"
        path.write_text(serialize_model(builtin_scenario("qubit-weak", horizon=2)))
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(["check", "--model", path, "--horizon", "4", "--out", a]) == 0
        assert run_cli(["check", "--scenario", "qubit-weak", "--horizon", "4", "--out", b]) == 0
        reports = [read_report(out) for out in (a, b)]
        assert reports[0]["config"].pop("source") == str(path)
        assert reports[1]["config"].pop("source") == "qubit-weak"
        assert reports[0]["config"]["horizon"] == 4
        assert reports[0] == reports[1]
        assert (a / "bounds.csv").read_bytes() == (b / "bounds.csv").read_bytes()

    def test_bad_grid_exit_3(self, tmp_path):
        code = run_cli(
            [
                "check",
                "--scenario",
                "identity",
                "--horizon",
                "2",
                "--grid",
                "1,2",
                "--out",
                tmp_path / "o",
            ]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "option, fragment",
        [
            (["--mode", "sample", "--samples", "0"], "--samples"),
            (["--tol", "nan"], "--tol"),
            (["--tol", "inf"], "--tol"),
            (["--horizon", "0"], "--horizon must be at least 1"),
            (
                ["--mode", "sample", "--samples", "10", "--seed", "-1"],
                "--seed must be non-negative, got -1",
            ),
        ],
        ids=["samples-0", "tol-nan", "tol-inf", "horizon-0", "seed-negative"],
    )
    def test_bad_option_exit_3(self, tmp_path, capsys, option, fragment):
        out = tmp_path / "o"
        code = run_cli(
            ["check", "--scenario", "identity", "--horizon", "2", *option, "--out", out]
        )
        assert code == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and fragment in err[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["check", "--bogus"], "unrecognized arguments: --bogus"),
            (["check", "--mode", "foo"], "argument --mode: invalid choice: 'foo'"),
            (["check", "--samples", "x"], "argument --samples: invalid int value: 'x'"),
            (["frobnicate"], "invalid choice: 'frobnicate'"),
            (["check", "--grid", "-1,2"], "argument --grid: expected one argument"),
            ([], "the following arguments are required: command"),
        ],
        ids=["unknown-flag", "bad-mode", "bad-samples", "bad-command", "grid-dash", "no-command"],
    )
    def test_usage_error_exit_3(self, tmp_path, capsys, monkeypatch, argv, fragment):
        # exit 2 is kept for a failed check or bound; argparse's own usage
        # errors return 3 from main, with argparse's usage and one error line
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 3
        err = capsys.readouterr().err.strip().splitlines()
        errors = [line for line in err if "error:" in line]
        assert err[0].startswith("usage: contmeas")
        assert errors == [err[-1]] and fragment in err[-1]
        assert list(tmp_path.iterdir()) == []

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        # the parser is built once per process; a usage error, a validation
        # and a check parse in turn, and a usage error after them still exits 3
        assert build_parser() is build_parser()
        assert main(["check", "--bogus"]) == 3
        assert run_cli(["validate", "--scenario", "qubit-weak"]) == 0
        args = ["check", "--scenario", "qubit-weak", "--horizon", "2", "--out", tmp_path]
        assert run_cli(args) == 0 and (tmp_path / "bounds.csv").exists()
        assert main(["check", "--mode", "foo"]) == 3
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 2
        assert errors[0] == "contmeas: error: unrecognized arguments: --bogus"
        assert errors[1].startswith("contmeas check: error: argument --mode: invalid choice")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["check", "--help"])
        assert info.value.code == 0
        assert "usage: contmeas check" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["check", "run", "validate"])
    def test_horizon_below_1_on_model_route_exit_3(self, tmp_path, capsys, command):
        path = tmp_path / "model.json"
        path.write_text(serialize_model(random_model(3, dim=2, n_outcomes=2)))
        out = tmp_path / "o"
        args = [command, "--model", path, "--horizon", "-2"]
        code = run_cli(args if command == "validate" else [*args, "--out", out])
        assert code == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: --horizon must be at least 1, got -2"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, name",
        [("check", "report.json"), ("check", "bounds.csv"), ("run", "trajectories.csv")],
    )
    def test_unwritable_output_exit_3(self, tmp_path, capsys, command, name):
        # a directory in the way of an output file (unlike a read-only
        # directory, this also stops a process run as root)
        (tmp_path / name).mkdir()
        args = [command, "--scenario", "qubit-weak", "--horizon", "2", "--out", tmp_path]
        assert run_cli(args + ["--dump-trajectories"] * (name == "trajectories.csv")) == 3
        err = capsys.readouterr().err.strip().splitlines()
        errors = [line for line in err if "error" in line]
        assert errors == err[-1:] and err[-1].startswith(f"error: cannot write {tmp_path / name}: ")

    @pytest.mark.parametrize("mode", ["enumerate", "sample"])
    def test_empty_reference_times(self, tmp_path, capsys, mode):
        # no reference time: no pair tables, only the B6 rows of bounds.csv
        out = tmp_path / "o"
        args = ["check", "--scenario", "qubit-weak", "--horizon", "2", "--refs", "", "--mode", mode]
        assert run_cli(args + ["--samples", "50", "--out", out]) == 0
        report = read_report(out)
        assert report["config"]["reference_times"] == []
        assert report["Ic"] == report["chi_bar"] == report["Iq_cond"] == {}
        rows = (out / "bounds.csv").read_text().splitlines()[1:]
        assert rows and {row.split(",")[0] for row in rows} == {"B6"}
        lines = [line for line in capsys.readouterr().err.splitlines() if "consistency" in line]
        if mode == "enumerate":
            # total probability, 3 martingales, 3 a-priori means and the 4
            # checks over all entries; no increment-total or measurability
            assert len(lines) == 1 and lines[0].startswith("consistency: 11 checks passed")
        else:
            assert lines == []


class TestStderrSummary:
    def test_consistency_names_its_worst_check(self, tmp_path, capsys):
        args = ["check", "--scenario", "qubit-weak", "--horizon", "2", "--out", tmp_path]
        assert run_cli(args) == 0
        err = capsys.readouterr().err.splitlines()
        lines = [line for line in err if line.startswith("consistency: ")]
        model = builtin_scenario("qubit-weak", horizon=2)
        report = consistency_checks(model, TimeGrid.make(2))
        worst = min(report.checks, key=lambda c: c.margin)
        assert lines == [
            f"consistency: {len(report.checks)} checks passed "
            f"(max residual {-worst.margin:.3e} at {worst.label})"
        ]

    def test_enumerate_counts_decomposed_states(self, tmp_path, capsys):
        # random-seed2-h5: 2 letters, 3 outcomes, horizon 5, nothing pruned
        model = Path(__file__).parent / "golden" / "models" / "random-seed2-h5.json"
        assert run_cli(["check", "--model", model, "--out", tmp_path]) == 0
        lines = [line for line in capsys.readouterr().err.splitlines() if "trajectories" in line]
        nodes = 2 * sum(3**t for t in range(6))
        strings = sum(3 ** (t - s) for s in range(6) for t in range(s + 1, 6))
        assert (nodes, strings) == (728, 537)
        assert lines == ["enumerate: 486 trajectories, 728 path states, 537 increment states"]

    def test_sample_counts_draws_and_distinct_paths(self, tmp_path, capsys):
        # qubit-weak, horizon 3, 50 draws at seed 1: 8 distinct paths, each
        # replayed once; a replay decomposes its main state at the 4 record
        # times, and at time t the t tracks seeded before it (0+1+2+3 = 6)
        args = ["run", "--scenario", "qubit-weak", "--horizon", "3", "--mode", "sample"]
        assert run_cli(args + ["--samples", "50", "--seed", "1", "--out", tmp_path]) == 0
        lines = [line for line in capsys.readouterr().err.splitlines() if "trajectories" in line]
        model = builtin_scenario("qubit-weak", horizon=3)
        assert len(set(_draw_paths(model, 50, 1))) == 8
        assert lines == ["sample: 50 trajectories, 8 distinct paths, 32 path states, 48 increment states"]

    def test_one_line_per_bound_family(self, tmp_path, capsys):
        out = tmp_path / "o"
        args = ["check", "--scenario", "qubit-projective", "--horizon", "2", "--out", out]
        assert run_cli(args) == 0
        lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("bound ")]
        rows = (out / "bounds.csv").read_text().splitlines()[1:]
        families = list(dict.fromkeys(row.split(",")[0] for row in rows))
        assert [line.split(":")[0] for line in lines] == [f"bound {f}" for f in families]
        for family, line in zip(families, lines):
            margins = [float(row.rsplit(",", 2)[1]) for row in rows if row.split(",")[0] == family]
            smallest = min(margins)
            assert f"smallest margin {smallest:.3e} at {family}(" in line
            # the reported time tuple is one whose margin is the smallest
            times = line.rsplit(f"{family}(", 1)[1].rstrip(")")
            assert any(
                row.startswith(f'{family},"{times}",') and float(row.rsplit(",", 2)[1]) == smallest
                for row in rows
            )

    @pytest.mark.parametrize(
        "args, failing",
        [
            # --tol=-1 fails every one of the 72 rows
            (["--scenario", "qubit-weak", "--horizon", "2", "--tol=-1"], 72),
            # Monte-Carlo noise: exactly as many failing rows as are shown
            (["--scenario", "damped-qubit", "--horizon", "3", "--mode", "sample",
              "--samples", "500", "--seed", "1"], 10),
        ],
        ids=["all-rows-fail", "ten-rows-fail"],
    )
    def test_bound_failures_capped(self, tmp_path, capsys, args, failing):
        # stderr names the first 10 failing rows of bounds.csv, then counts
        # the rest in one line
        out = tmp_path / "o"
        assert run_cli(["check", *args, "--out", out]) == 2
        lines = [line for line in capsys.readouterr().err.splitlines() if "bound failure" in line]
        with (out / "bounds.csv").open() as stream:
            rows = [row for row in csv.reader(stream) if row[-1] == "false"]
        assert len(rows) == failing
        shown = [line.split("] ", 1)[1].split(":")[0] for line in lines[:10]]
        assert shown == [f"{name}({times})" for name, times, *_ in rows[:10]]
        more = [f"bound failure: {failing - 10} more rows fail (see bounds.csv)"]
        assert lines[10:] == (more if failing > 10 else [])

    def test_consistency_failures_capped(self, tmp_path, capsys):
        # --tol=-1 fails all 19 consistency checks: stderr names the first
        # 10 in check order, then counts the rest in one line
        args = ["check", "--scenario", "qubit-weak", "--horizon", "2", "--tol=-1"]
        assert run_cli(args + ["--out", tmp_path]) == 2
        err = capsys.readouterr().err.splitlines()
        lines = [line for line in err if line.startswith("consistency")]
        model = builtin_scenario("qubit-weak", horizon=2)
        failures = consistency_checks(model, TimeGrid.make(2), tol=-1.0).failures()
        assert len(failures) == 19
        shown = [f"consistency failure: {check}" for check in failures[:10]]
        assert lines == shown + ["consistency failure: 9 more checks fail"]
        assert err[-1] == "FAIL: consistency, bounds"

    def test_stderr_summary_leaves_outputs_unchanged(self, tmp_path, capsys):
        args = ["check", "--scenario", "damped-qubit", "--horizon", "2"]
        assert run_cli(args + ["--out", tmp_path / "a"]) == 0
        first = capsys.readouterr().err
        assert run_cli(args + ["--out", tmp_path / "b"]) == 0
        assert capsys.readouterr().err.replace(str(tmp_path / "b"), "") == first.replace(
            str(tmp_path / "a"), ""
        )
        for name in ("report.json", "bounds.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestRun:
    def test_writes_report_without_bounds(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["run", "--scenario", "qubit-weak", "--horizon", "2", "--out", out]) == 0
        assert (out / "report.json").exists()
        assert not (out / "bounds.csv").exists()

    def test_dump_trajectories(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            [
                "run",
                "--scenario",
                "qubit-projective",
                "--horizon",
                "2",
                "--dump-trajectories",
                "--out",
                out,
            ]
        )
        assert code == 0
        lines = (out / "trajectories.csv").read_text().strip().splitlines()
        assert lines[0] == "letter,outcomes,prob,S_0,S_1,S_2"
        assert len(lines) == 4

    def test_dump_trajectories_sample_mode(self, tmp_path, capsys):
        # the same header; one row per draw, and the rows of a path adjacent,
        # the paths in first-draw order
        out = tmp_path / "out"
        args = ["run", "--scenario", "qubit-weak", "--horizon", "3", "--mode", "sample"]
        args += ["--samples", "50", "--seed", "1", "--dump-trajectories", "--out", out]
        assert run_cli(args) == 0
        assert "wrote trajectories.csv (50 rows)" in capsys.readouterr().err
        lines = (out / "trajectories.csv").read_text().splitlines()
        assert lines[0] == "letter,outcomes,prob,S_0,S_1,S_2,S_3"
        runs = [(row, len(list(group))) for row, group in itertools.groupby(lines[1:])]
        model = builtin_scenario("qubit-weak", horizon=3)
        draws = Counter(_draw_paths(model, 50, 1))
        expected = []
        for (letter, codes), n in draws.items():
            labels = [model.instrument_at(k + 1).outcomes[c] for k, c in enumerate(codes)]
            expected.append(((str(letter), format_outcomes(labels)), n))
        assert [(tuple(row.split(",")[:2]), n) for row, n in runs] == expected

    def test_long_horizon_underflow_exit_3(self, tmp_path, capsys):
        # a sampled path loses about a factor 4 of mass per step, so its mass
        # falls below the smallest normal float long before step 600
        path = tmp_path / "model.json"
        path.write_text(serialize_model(random_model(3, dim=2, n_outcomes=4)))
        code = run_cli(
            ["run", "--model", path, "--horizon", "600", "--grid", "0,600", "--mode", "sample",
             "--samples", "3", "--seed", "1", "--out", tmp_path / "o"]
        )
        assert code == 3
        errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
        assert len(errors) == 1 and errors[0].startswith("error: trajectory (letter ")
        assert "outcomes" in errors[0] and "time" in errors[0]


class TestDeterminism:
    def test_enumerate_byte_identical(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run_cli(["check", "--scenario", "damped-qubit", "--out", out]) == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_sample_byte_identical(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = run_cli(
                [
                    "run",
                    "--scenario",
                    "damped-qubit",
                    "--horizon",
                    "2",
                    "--mode",
                    "sample",
                    "--samples",
                    "500",
                    "--seed",
                    "42",
                    "--out",
                    out,
                ]
            )
            assert code == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_bits_rescales_everything(self, tmp_path):
        args = ["run", "--scenario", "qubit-projective", "--horizon", "2"]
        out_nats = tmp_path / "nats"
        out_bits = tmp_path / "bits"
        assert run_cli(args + ["--units", "nats", "--out", out_nats]) == 0
        assert run_cli(args + ["--units", "bits", "--out", out_bits]) == 0
        nats = read_report(out_nats)
        bits = read_report(out_bits)
        for kind in ("Ic", "chi_bar", "chi_at", "Iq", "Iq_cond"):
            for key, entry in nats[kind].items():
                expected = entry["value"] / math.log(2.0)
                got = bits[kind][key]["value"]
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-300)


class TestProperties:
    """``main`` over small random models, grids, reference lists and both
    modes: an exit code, never an exception; reproducible outputs; and every
    consistency family that has a pair to check."""

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 50),
        dim=st.integers(2, 3),
        n_outcomes=st.integers(1, 3),
        horizon=st.integers(1, 4),
        sparse=st.booleans(),
        refs=st.sampled_from(["0", ""]),
        mode=st.sampled_from(["enumerate", "sample"]),
    )
    @example(seed=0, dim=2, n_outcomes=2, horizon=2, sparse=False, refs="", mode="enumerate")
    @example(seed=1, dim=3, n_outcomes=1, horizon=3, sparse=True, refs="0", mode="enumerate")
    @example(seed=2, dim=3, n_outcomes=3, horizon=4, sparse=True, refs="", mode="sample")
    def test_main(self, seed, dim, n_outcomes, horizon, sparse, refs, mode):
        model = random_model(seed, dim=dim, n_outcomes=n_outcomes, horizon=horizon)
        times = sorted({0, horizon // 2, horizon} if sparse else range(horizon + 1))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            path.write_text(serialize_model(model))
            args = ["check", "--model", path, "--grid", ",".join(map(str, times)), "--refs", refs]
            args += ["--mode", mode, "--samples", "20", "--seed", str(seed)]
            outputs = []
            for tag in ("a", "b"):
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = run_cli(args + ["--out", Path(tmp) / tag])
                assert code in (0, 1, 2, 3), err.getvalue()
                if code not in (0, 2):
                    return
                names = ("report.json", "bounds.csv")
                outputs.append([(Path(tmp) / tag / name).read_bytes() for name in names])
            assert outputs[0] == outputs[1]
        if mode == "enumerate":
            pairs = len(TimeGrid.make(horizon, times, _parse_times(refs)).pairs())
            # total probability, martingales, a-priori means, increment totals
            # and measurability per pair, and the 4 checks over all entries
            expected = 1 + len(times) * (len(times) - 1) // 2 + len(times) + 2 * pairs + 4
            found = re.findall(r"^consistency: (\d+) checks passed", err.getvalue(), re.M)
            assert found == [str(expected)], err.getvalue()
